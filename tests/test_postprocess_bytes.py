"""Pins the exact bytes `vista postprocess` writes.

The digests below were recorded with the per-object reference chain
(one Box2D / StaHypothesis per row, scalar `math.exp` decode, NMS with
a scalar IoU, `boxes.iou`, since deleted). Any rewrite of the chain must
reproduce them bit for bit. Deltas are drawn with sigma 0.05, where
numpy's vectorised `exp` and `math.exp` disagree in the last bit for a
few percent of values, and a few proposals are exact duplicates, so full
canonical-key ties occur.
"""

import hashlib
import json

import numpy as np
import pytest

from vista.cli import EXIT_OK, main
from vista.io_formats import write_tensor_file
from vista.rng import CounterRng

N_NOUNS = 16
N_VERBS = 9
N_PROPOSALS = 64
CENTRES = ((120.0, 90.0), (300.0, 200.0), (420.0, 110.0))

GOLDEN = {
    (): "6ceebf89400b1be6a237e8cf90a646ceace68e0368544dff9767d7150517be02",
    ("--k-noun", "5", "--k-verb", "2", "--nms-iou", "0.3", "--max-exports", "7"):
        "da21cf155fefc71388853884863e983f0cbfe87456512f51452b1568b6d5e8d1",
}


def head_tensors(rng: CounterRng) -> dict[str, np.ndarray]:
    """One example's head outputs: proposals clustered around three
    centres so NMS has work to do, the last four rows copies of earlier
    ones."""
    boxes, objectness, ttc_raw, quality = [], [], [], []
    for i in range(N_PROPOSALS):
        cx, cy = CENTRES[i % len(CENTRES)]
        w, h = rng.uniform(30, 160), rng.uniform(30, 120)
        cx += rng.gaussian(0, 12)
        cy += rng.gaussian(0, 12)
        boxes.append([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2])
        objectness.append(rng.uniform(0.05, 1.0))
        ttc_raw.append(rng.gaussian(0, 1.5))
        quality.append(rng.uniform(0.05, 1.0))
    tensors = {
        "proposal_boxes": np.array(boxes),
        "objectness": np.array(objectness),
        "noun_logits": np.array(
            [[rng.gaussian(0, 2) for _ in range(N_NOUNS)] for _ in range(N_PROPOSALS)]
        ),
        "verb_logits": np.array(
            [[rng.gaussian(0, 2) for _ in range(N_VERBS)] for _ in range(N_PROPOSALS)]
        ),
        "box_deltas": np.array(
            [[[rng.gaussian(0, 0.05) for _ in range(4)] for _ in range(N_NOUNS)]
             for _ in range(N_PROPOSALS)]
        ),
        "ttc_raw": np.array(ttc_raw),
        "quality": np.array(quality),
    }
    for name, arr in tensors.items():
        arr[-4:] = arr[3:7]
    return tensors


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    # Relative paths keep the provenance block, and so the digest, fixed.
    monkeypatch.chdir(tmp_path)
    rng = CounterRng(2024)
    tensors = {}
    for uid in ("clip_a", "clip_b"):
        tensors.update({f"{uid}/{k}": v for k, v in head_tensors(rng).items()})
    write_tensor_file(tensors, "heads.vstf")
    taxonomy = {"nouns": [f"n{i}" for i in range(N_NOUNS)], "verbs": [f"v{i}" for i in range(N_VERBS)]}
    (tmp_path / "taxonomy.json").write_text(json.dumps(taxonomy))
    return tmp_path


@pytest.mark.parametrize("flags", list(GOLDEN), ids=["defaults", "k5x2-nms0.3-export7"])
def test_submission_bytes_are_pinned(inputs, flags):
    code = main(["postprocess", "heads.vstf", "taxonomy.json", *flags, "--out", "pp"])
    assert code == EXIT_OK
    digest = hashlib.sha256((inputs / "pp" / "submission.json").read_bytes()).hexdigest()
    assert digest == GOLDEN[flags]


# The settings of the second pinned run, split between a config file and
# flags. In the second case each flag beats a conflicting config value.
PINNED = ("--k-noun", "5", "--k-verb", "2", "--nms-iou", "0.3", "--max-exports", "7")
VIA_CONFIG = [
    ((), {"k_noun": 5, "k_verb": 2, "nms_iou": 0.3, "max_exports": 7, "out": "pp"}),
    (("--k-noun", "5", "--nms-iou", "0.3", "--out", "pp"),
     {"k_noun": 1, "k_verb": 2, "nms_iou": 0.9, "max_exports": 7, "out": "elsewhere"}),
]


@pytest.mark.parametrize("flags, config", VIA_CONFIG, ids=["config", "flags-beat-config"])
def test_config_file_gives_the_pinned_bytes(inputs, flags, config):
    (inputs / "config.json").write_text(json.dumps(config))
    code = main(["postprocess", "heads.vstf", "taxonomy.json", *flags, "--config", "config.json"])
    assert code == EXIT_OK
    digest = hashlib.sha256((inputs / "pp" / "submission.json").read_bytes()).hexdigest()
    assert digest == GOLDEN[PINNED]
    assert not (inputs / "elsewhere").exists()
