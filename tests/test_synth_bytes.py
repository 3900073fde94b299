"""Pins the exact bytes `vista synth` writes.

The digests below were recorded with synth's lists of StaHypothesis and
GroundTruthInstance written as they were, one object per entry. The run
has box jitter, noun and verb flips, TTC noise and drops, and three
sources, so any change to how synth's output reaches the writers, or to
the draws themselves, shows here. (`bench/golden.json` pins the
benchmark's own inputs, which it writes with its own writer.)
"""

import hashlib

from vista.cli import EXIT_OK, main

FLAGS = (
    "--n-examples", "6", "--gts-per-example", "3", "--n-sources", "3", "--seed", "7",
    "--box-jitter-sigma", "20", "--label-flip-prob", "0.3", "--verb-flip-prob", "0.3",
    "--ttc-noise-sigma", "0.3", "--drop-prob", "0.1",
)

GOLDEN = {
    "ground_truth.json": "b3d63200b30ee6f66e5697d9aec2d5b9f71cc21fdbada367034a19b8bd83db7a",
    "predictions_source_00.json": "b98047b704a4752f3a03ae10dd40e3ba988f2baa1c18af3040168dd3efa79549",
    "predictions_source_01.json": "cd84a7aa834f302488d521fd22a62c72f39a1390d0c5544051c18a6c092698e3",
    "predictions_source_02.json": "d549744e75b97cb230f7fd4aeff38b6356237b664a6e889472bf7992d3c4e3c4",
}


def test_synth_bytes_are_pinned(tmp_path):
    assert main(["synth", *FLAGS, "--out", str(tmp_path)]) == EXIT_OK
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(GOLDEN)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in written}
    assert digests == GOLDEN
