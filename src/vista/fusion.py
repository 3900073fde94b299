"""Forward-only numeric kernels for the temporal-context pathway.

Three kernels: a single-query attentive probe that pools a cached feature
sequence into one temporal token, feature-wise (per-channel) linear
modulation of a feature map by that token, and a residual context MLP
that fuses the token into each ROI feature vector. Parameters come from
files; nothing here trains. `fuse_tensors` runs all three on the named
tensors of one container.

Each parameter class declares the dims of its fields once, in the
README's symbols. `types.shape_problems` checks every kernel's arguments
and all 16 tensors of a container against them, listing every mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ValidationError
from .types import shape_problems


def _dims(*dims):
    """A parameter field and its dims, in the symbols of `shape_problems`."""
    return field(metadata={"dims": dims})


def _contract(cls, prefix: str = "") -> dict[str, tuple]:
    """The dims of every field of a parameter class, by prefixed name."""
    return {prefix + f.name: f.metadata["dims"] for f in fields(cls)}


def _checked(contract: dict[str, tuple], **arrays) -> list[np.ndarray]:
    """The arrays as float64, in argument order, once each is finite and
    every shape keeps the contract; every shape problem is listed."""
    arrays = {name: np.asarray(x, dtype=np.float64) for name, x in arrays.items()}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{name} contains non-finite values")
    problems = shape_problems(contract, arrays)
    if problems:
        raise ValidationError(list(problems.values()))
    return list(arrays.values())


@dataclass(frozen=True)
class ProbeParams:
    """Single-head attention pooling: key projection, value projection,
    and one learned query vector."""

    key_proj: np.ndarray = _dims("D", "D_att")
    value_proj: np.ndarray = _dims("D", "D_token")
    query: np.ndarray = _dims("D_att")


@dataclass(frozen=True)
class FilmParams:
    """Per-channel scale/bias generators driven by the temporal token."""

    gamma_proj: np.ndarray = _dims("D_token", "C")
    gamma_bias: np.ndarray = _dims("C")
    beta_proj: np.ndarray = _dims("D_token", "C")
    beta_bias: np.ndarray = _dims("C")


@dataclass(frozen=True)
class ContextMlpParams:
    """Two-layer ReLU MLP over concat(roi, projected token), residual output."""

    layer1_w: np.ndarray = _dims(("D_roi", "D_proj"), "H_mlp")
    layer1_b: np.ndarray = _dims("H_mlp")
    layer2_w: np.ndarray = _dims("H_mlp", "D_roi")
    layer2_b: np.ndarray = _dims("D_roi")
    token_proj: np.ndarray = _dims("D_token", "D_proj")
    token_bias: np.ndarray = _dims("D_proj")


def attentive_probe(seq, params: ProbeParams) -> tuple[np.ndarray, np.ndarray]:
    """Pool a (T, D) feature sequence into a single token.

    weights = softmax_t((seq @ key_proj) @ query / sqrt(D_att));
    token = sum_t weights[t] * (seq @ value_proj)[t].
    Returns (token, weights); weights sum to 1. No positional encoding, so
    the token is invariant to permuting the sequence rows.
    """
    seq, key_proj, value_proj, query = _checked(
        {"seq": ("T", "D"), **_contract(ProbeParams)}, seq=seq, **vars(params))
    d_att = key_proj.shape[1]
    problems = []
    if seq.shape[0] < 1:
        problems.append("sequence must contain at least one row")
    if d_att < 1:
        problems.append(f"key_proj must have at least one column (D_att >= 1), got shape {key_proj.shape}")
    if problems:
        raise ValidationError(problems)

    logits = (seq @ key_proj) @ query / np.sqrt(d_att)
    logits -= logits.max()
    weights = np.exp(logits)
    weights /= weights.sum()
    token = weights @ (seq @ value_proj)
    return token, weights


def film_modulate(x, token, params: FilmParams) -> np.ndarray:
    """Per-channel affine modulation of a (C, H, W) feature map.

    out[c, h, w] = gamma[c] * x[c, h, w] + beta[c], with gamma and beta
    generated linearly from the token. gamma = 1, beta = 0 is an exact
    no-op.
    """
    x, token, gamma_proj, gamma_bias, beta_proj, beta_bias = _checked(
        {"x": ("C", "H", "W"), "token": ("D_token",), **_contract(FilmParams)}, x=x, token=token, **vars(params))
    gamma = token @ gamma_proj + gamma_bias
    beta = token @ beta_proj + beta_bias
    return gamma[:, None, None] * x + beta[:, None, None]


def roi_context_fuse(roi, token, params: ContextMlpParams) -> np.ndarray:
    """Residual fusion of the temporal token into one ROI feature vector.

    out = roi + W2 @ relu(W1 @ concat(roi, proj(token)) + b1) + b2.
    A zero final layer makes this an exact identity on roi.
    """
    roi, token, w1, b1, w2, b2, tp, tb = _checked(
        {"roi": ("D_roi",), "token": ("D_token",), **_contract(ContextMlpParams)},
        roi=roi, token=token, **vars(params))
    projected = token @ tp + tb
    hidden = np.maximum(np.concatenate([roi, projected]) @ w1 + b1, 0.0)
    return roi + hidden @ w2 + b2


# The tensors of a fusion container and their dims: the inputs, then the
# fields of each parameter class, named "<prefix>/<field>".
INPUT_TENSORS = {"seq": ("T", "D"), "rois": ("R", "D_roi"), "fpn": ("C", "H", "W")}
PARAMETER_PREFIXES = {"probe": ProbeParams, "film": FilmParams, "context": ContextMlpParams}
CONTAINER_TENSORS = INPUT_TENSORS | {name: dims for prefix, cls in PARAMETER_PREFIXES.items()
                                     for name, dims in _contract(cls, f"{prefix}/").items()}


def fuse_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Run the three kernels on the named tensors of one container.

    Every missing tensor is listed, then every tensor whose shape breaks
    `CONTAINER_TENSORS`. Returns the token and weights of the probe, the
    FiLM-modulated fpn and the rois fused one by one with the token,
    (R, D_roi).
    """
    problems = [f"missing tensor {name!r}" for name in CONTAINER_TENSORS if name not in tensors]
    problems += shape_problems(CONTAINER_TENSORS, tensors).values()
    if problems:
        raise ValidationError(problems)
    probe, film, context = (cls(**{name: tensors[f"{prefix}/{name}"] for name in _contract(cls)})
                            for prefix, cls in PARAMETER_PREFIXES.items())
    token, weights = attentive_probe(tensors["seq"], probe)
    rois = tensors["rois"]
    fused = np.array([roi_context_fuse(roi, token, context) for roi in rois]).reshape(rois.shape)
    return {"token": token, "weights": weights, "fpn": film_modulate(tensors["fpn"], token, film), "rois": fused}
