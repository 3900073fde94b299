"""Forward-only numeric kernels for the temporal-context pathway.

Three kernels: a single-query attentive probe that pools a cached feature
sequence into one temporal token, feature-wise (per-channel) linear
modulation of a feature map by that token, and a residual context MLP
that fuses the token into each ROI feature vector. Parameters come from
files; nothing here trains. `fuse_tensors` runs all three on the named
tensors of one container. Its bytes depend on the BLAS behind `@` and on
numpy's SIMD dispatch of `exp`.

Each parameter class declares the dims of its fields once, in the
README's symbols, with `types.array_field`, and `INPUT_TENSORS` and
`TOKEN_DIMS` declare those of the other arguments. `types.shape_problems`
checks every kernel's arguments and all 16 tensors of a container
against them, listing every mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .types import array_field, contract, shape_problems


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

    key_proj: np.ndarray = array_field("D", "D_att")
    value_proj: np.ndarray = array_field("D", "D_token")
    query: np.ndarray = array_field("D_att")


@dataclass(frozen=True)
class FilmParams:
    """Per-channel scale/bias generators driven by the temporal token."""

    gamma_proj: np.ndarray = array_field("D_token", "C")
    gamma_bias: np.ndarray = array_field("C")
    beta_proj: np.ndarray = array_field("D_token", "C")
    beta_bias: np.ndarray = array_field("C")


@dataclass(frozen=True)
class ContextMlpParams:
    """Two-layer ReLU MLP over concat(roi, projected token), residual output."""

    layer1_w: np.ndarray = array_field(("D_roi", "D_proj"), "H_mlp")
    layer1_b: np.ndarray = array_field("H_mlp")
    layer2_w: np.ndarray = array_field("H_mlp", "D_roi")
    layer2_b: np.ndarray = array_field("D_roi")
    token_proj: np.ndarray = array_field("D_token", "D_proj")
    token_bias: np.ndarray = array_field("D_proj")


# The tensors of a fusion container and their dims: the inputs, then the
# fields of each parameter class, named "<prefix>/<field>".
INPUT_TENSORS = {"seq": ("T", "D"), "rois": ("R", "D_roi"), "fpn": ("C", "H", "W")}
PARAMETER_PREFIXES = {"probe": ProbeParams, "film": FilmParams, "context": ContextMlpParams}
CONTAINER_TENSORS = INPUT_TENSORS | {name: dims for prefix, cls in PARAMETER_PREFIXES.items()
                                     for name, dims in contract(cls, f"{prefix}/").items()}

TOKEN_DIMS = ("D_token",)  # the temporal token the probe makes and the other kernels take


def attentive_probe(seq, params: ProbeParams) -> tuple[np.ndarray, np.ndarray]:
    """Pool a (T, D) feature sequence into a single token.

    weights = softmax_t((seq @ key_proj) @ query / sqrt(D_att));
    token = sum_t weights[t] * (seq @ value_proj)[t].
    Returns (token, weights); weights sum to 1. No positional encoding, so
    the token is invariant to permuting the sequence rows. The softmax's
    numpy exp picks a SIMD kernel by CPU, so `vista fuse` bytes can
    differ between x86 hosts with and without AVX-512.
    """
    seq, key_proj, value_proj, query = _checked(
        {"seq": INPUT_TENSORS["seq"], **contract(ProbeParams)}, seq=seq, **vars(params))
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
        {"x": INPUT_TENSORS["fpn"], "token": TOKEN_DIMS, **contract(FilmParams)}, x=x, token=token, **vars(params))
    gamma = token @ gamma_proj + gamma_bias
    beta = token @ beta_proj + beta_bias
    return gamma[:, None, None] * x + beta[:, None, None]


def roi_context_fuse(roi, token, params: ContextMlpParams) -> np.ndarray:
    """Residual fusion of the temporal token into one ROI feature vector.

    out = roi + W2 @ relu(W1 @ concat(roi, proj(token)) + b1) + b2.
    A zero final layer makes this an exact identity on roi.
    """
    roi, token, *mlp = _checked(
        {"roi": INPUT_TENSORS["rois"][1:], "token": TOKEN_DIMS, **contract(ContextMlpParams)},
        roi=roi, token=token, **vars(params))
    return _fuse_rows(roi[None, :], token, *mlp)[0]


def _fuse_rows(rois, token, w1, b1, w2, b2, tp, tb) -> list[np.ndarray]:
    """`roi_context_fuse` of each row of checked (R, D_roi) rois, one row
    at a time, so each row's arithmetic is that of one call."""
    projected = token @ tp + tb
    return [roi + np.maximum(np.concatenate([roi, projected]) @ w1 + b1, 0.0) @ w2 + b2 for roi in rois]


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
    probe, film, context = (cls(**{name: tensors[f"{prefix}/{name}"] for name in contract(cls)})
                            for prefix, cls in PARAMETER_PREFIXES.items())
    token, weights = attentive_probe(tensors["seq"], probe)
    rois, token, *mlp = _checked(
        {"rois": INPUT_TENSORS["rois"], "token": TOKEN_DIMS, **contract(ContextMlpParams)},
        rois=tensors["rois"], token=token, **vars(context))
    fused = np.array(_fuse_rows(rois, token, *mlp)).reshape(rois.shape)
    return {"token": token, "weights": weights, "fpn": film_modulate(tensors["fpn"], token, film), "rois": fused}
