"""Forward-only numeric kernels for the temporal-context pathway.

Three kernels: a single-query attentive probe that pools a cached feature
sequence into one temporal token, feature-wise (per-channel) linear
modulation of a feature map by that token, and a residual context MLP
that fuses the token into each ROI feature vector. Parameters come from
files; nothing here trains. `fuse_tensors` runs all three on the named
tensors of one container.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError


def _as_float(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must have {ndim} dimensions, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ProbeParams:
    """Single-head attention pooling: key projection, value projection,
    and one learned query vector."""

    key_proj: np.ndarray    # (D_in, D_att)
    value_proj: np.ndarray  # (D_in, D_out)
    query: np.ndarray       # (D_att,)


@dataclass(frozen=True)
class FilmParams:
    """Per-channel scale/bias generators driven by the temporal token."""

    gamma_proj: np.ndarray  # (D_token, C)
    gamma_bias: np.ndarray  # (C,)
    beta_proj: np.ndarray   # (D_token, C)
    beta_bias: np.ndarray   # (C,)


@dataclass(frozen=True)
class ContextMlpParams:
    """Two-layer ReLU MLP over concat(roi, projected token), residual output."""

    layer1_w: np.ndarray    # (D_roi + D_proj, H)
    layer1_b: np.ndarray    # (H,)
    layer2_w: np.ndarray    # (H, D_roi)
    layer2_b: np.ndarray    # (D_roi,)
    token_proj: np.ndarray  # (D_token, D_proj)
    token_bias: np.ndarray  # (D_proj,)


def attentive_probe(seq, params: ProbeParams) -> tuple[np.ndarray, np.ndarray]:
    """Pool a (T, D_in) feature sequence into a single token.

    weights = softmax_t((seq @ key_proj) @ query / sqrt(D_att));
    token = sum_t weights[t] * (seq @ value_proj)[t].
    Returns (token, weights); weights sum to 1. No positional encoding, so
    the token is invariant to permuting the sequence rows.
    """
    seq = _as_float(seq, "seq", 2)
    key_proj = _as_float(params.key_proj, "key_proj", 2)
    value_proj = _as_float(params.value_proj, "value_proj", 2)
    query = _as_float(params.query, "query", 1)
    t, d_in = seq.shape
    if t < 1:
        raise ValidationError("sequence must contain at least one row")
    if key_proj.shape[0] != d_in or value_proj.shape[0] != d_in:
        raise ValidationError(
            f"projection input dim mismatch: seq D_in={d_in}, "
            f"key_proj {key_proj.shape}, value_proj {value_proj.shape}"
        )
    d_att = key_proj.shape[1]
    if d_att < 1:
        raise ValidationError(f"key_proj must have at least one column (D_att >= 1), got shape {key_proj.shape}")
    if query.shape[0] != d_att:
        raise ValidationError(f"query dim {query.shape[0]} != key dim {d_att}")

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
    x = _as_float(x, "x", 3)
    token = _as_float(token, "token", 1)
    gamma_proj = _as_float(params.gamma_proj, "gamma_proj", 2)
    beta_proj = _as_float(params.beta_proj, "beta_proj", 2)
    gamma_bias = _as_float(params.gamma_bias, "gamma_bias", 1)
    beta_bias = _as_float(params.beta_bias, "beta_bias", 1)
    c = x.shape[0]
    d_token = token.shape[0]
    for name, arr, shape in (
        ("gamma_proj", gamma_proj, (d_token, c)),
        ("beta_proj", beta_proj, (d_token, c)),
        ("gamma_bias", gamma_bias, (c,)),
        ("beta_bias", beta_bias, (c,)),
    ):
        if arr.shape != shape:
            raise ValidationError(f"{name} shape {arr.shape} != expected {shape}")
    gamma = token @ gamma_proj + gamma_bias
    beta = token @ beta_proj + beta_bias
    return gamma[:, None, None] * x + beta[:, None, None]


def roi_context_fuse(roi, token, params: ContextMlpParams) -> np.ndarray:
    """Residual fusion of the temporal token into one ROI feature vector.

    out = roi + W2 @ relu(W1 @ concat(roi, proj(token)) + b1) + b2.
    A zero final layer makes this an exact identity on roi.
    """
    roi = _as_float(roi, "roi", 1)
    token = _as_float(token, "token", 1)
    w1 = _as_float(params.layer1_w, "layer1_w", 2)
    b1 = _as_float(params.layer1_b, "layer1_b", 1)
    w2 = _as_float(params.layer2_w, "layer2_w", 2)
    b2 = _as_float(params.layer2_b, "layer2_b", 1)
    tp = _as_float(params.token_proj, "token_proj", 2)
    tb = _as_float(params.token_bias, "token_bias", 1)
    d_roi = roi.shape[0]
    if tp.shape[0] != token.shape[0]:
        raise ValidationError(f"token_proj input dim {tp.shape[0]} != token dim {token.shape[0]}")
    d_proj = tp.shape[1]
    if tb.shape[0] != d_proj:
        raise ValidationError(f"token_bias dim {tb.shape[0]} != projection dim {d_proj}")
    if w1.shape[0] != d_roi + d_proj:
        raise ValidationError(f"layer1 input dim {w1.shape[0]} != {d_roi} + {d_proj}")
    h = w1.shape[1]
    if b1.shape[0] != h or w2.shape != (h, d_roi) or b2.shape[0] != d_roi:
        raise ValidationError(
            f"MLP shape mismatch: layer1 {w1.shape}/{b1.shape}, layer2 {w2.shape}/{b2.shape}"
        )
    projected = token @ tp + tb
    hidden = np.maximum(np.concatenate([roi, projected]) @ w1 + b1, 0.0)
    return roi + hidden @ w2 + b2


# The inputs of a fusion container and their shapes. Its parameters are
# the fields of each parameter class, named "<prefix>/<field>".
INPUT_TENSORS = {"seq": ("T", "D"), "rois": ("R", "D_roi"), "fpn": ("C", "H", "W")}
PARAMETER_PREFIXES = {"probe": ProbeParams, "film": FilmParams, "context": ContextMlpParams}


def fuse_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Run the three kernels on the named tensors of one container.

    Every missing tensor is listed, then every input of the wrong rank;
    the kernels check the other sizes against each other. Returns the
    token and weights of the probe, the FiLM-modulated fpn and the rois
    fused one by one with the token, (R, D_roi).
    """
    names = [*INPUT_TENSORS, *(f"{prefix}/{f.name}" for prefix, cls in PARAMETER_PREFIXES.items()
                                for f in fields(cls))]
    problems = [f"missing tensor {name!r}" for name in names if name not in tensors]
    problems += [f"{name!r} must have shape ({', '.join(dims)}), got {tensors[name].shape}"
                 for name, dims in INPUT_TENSORS.items() if name in tensors and tensors[name].ndim != len(dims)]
    if problems:
        raise ValidationError(problems)
    probe, film, context = (cls(**{f.name: tensors[f"{prefix}/{f.name}"] for f in fields(cls)})
                            for prefix, cls in PARAMETER_PREFIXES.items())
    token, weights = attentive_probe(tensors["seq"], probe)
    rois = tensors["rois"]
    fused = np.array([roi_context_fuse(roi, token, context) for roi in rois]).reshape(rois.shape)
    return {"token": token, "weights": weights, "fpn": film_modulate(tensors["fpn"], token, film), "rois": fused}
