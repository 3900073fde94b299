"""The three temporal-context fusion kernels, run on random tensors.

1. The attentive probe pools a (T, D) feature sequence into one token.
2. FiLM scales and shifts every feature-map channel using that token.
3. The context MLP adds a token-conditioned residual to each ROI vector.

It also writes the inputs and parameters as `fusion_inputs.vstf` in the
working directory, a container that `vista fuse` reads.
"""

import numpy as np

from vista import (
    ContextMlpParams,
    FilmParams,
    ProbeParams,
    attentive_probe,
    film_modulate,
    roi_context_fuse,
)
from vista.io_formats import write_tensor_file

rng = np.random.default_rng(0)
T, D_IN, D_ATT, D_OUT = 8, 16, 8, 12

probe = ProbeParams(
    key_proj=rng.standard_normal((D_IN, D_ATT)),
    value_proj=rng.standard_normal((D_IN, D_OUT)),
    query=rng.standard_normal(D_ATT),
)
seq = rng.standard_normal((T, D_IN))
token, weights = attentive_probe(seq, probe)
print("probe weights:", np.round(weights, 4), " (sum =", f"{weights.sum():.6f})")
print("temporal token:", np.round(token, 3))

# permuting the sequence does not change the token (no positional encoding)
shuffled, _ = attentive_probe(seq[::-1], probe)
print("token shift under permutation:", np.max(np.abs(shuffled - token)))

C, H, W = 4, 3, 3
film = FilmParams(
    gamma_proj=rng.standard_normal((D_OUT, C)) * 0.1,
    gamma_bias=np.ones(C),
    beta_proj=rng.standard_normal((D_OUT, C)) * 0.1,
    beta_bias=np.zeros(C),
)
fmap = rng.standard_normal((C, H, W))
modulated = film_modulate(fmap, token, film)
print("\nper-channel mean before/after FiLM:")
for c in range(C):
    print(f"  channel {c}: {fmap[c].mean():+.3f} -> {modulated[c].mean():+.3f}")

D_ROI = 10
mlp = ContextMlpParams(
    layer1_w=rng.standard_normal((D_ROI + D_OUT, D_ROI)) * 0.1,
    layer1_b=np.zeros(D_ROI),
    layer2_w=rng.standard_normal((D_ROI, D_ROI)) * 0.1,
    layer2_b=np.zeros(D_ROI),
    token_proj=np.eye(D_OUT),
    token_bias=np.zeros(D_OUT),
)
roi = rng.standard_normal(D_ROI)
fused = roi_context_fuse(roi, token, mlp)
print(f"\nroi norm {np.linalg.norm(roi):.3f} -> fused norm {np.linalg.norm(fused):.3f}")
print("residual magnitude:", f"{np.linalg.norm(fused - roi):.3f}")

tensors = {"seq": seq, "rois": roi[None, :], "fpn": fmap}
for prefix, params in (("probe", probe), ("film", film), ("context", mlp)):
    tensors.update({f"{prefix}/{name}": value for name, value in vars(params).items()})
write_tensor_file(tensors, "fusion_inputs.vstf")
print("\nwrote fusion_inputs.vstf; fuse it with: vista fuse fusion_inputs.vstf --out run")
