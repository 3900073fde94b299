"""Chains of `vista` commands that CI also runs from the installed entry
point, run here in process through `vista.cli.main`, with the same synth
arguments and assertions. As in CI, a numpy RuntimeWarning is an error.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from vista import boxes
from vista.cli import EXIT_OK, main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def vista(*argv) -> None:
    """Run one command, which must exit 0."""
    with redirect_stdout(io.StringIO()):
        assert main([str(arg) for arg in argv]) == EXIT_OK, argv


def test_evaluate_counts_are_the_sums_over_the_examples_alone(tmp_path, monkeypatch):
    # evaluate matches blocks of whole examples (two blocks of the 7,952
    # hypotheses and ground truths here): each variant's matched and
    # unmatched predictions are the sums over the examples evaluated
    # alone, which a block that mixed examples would break.
    monkeypatch.chdir(tmp_path)
    vista("synth", "--n-examples", "100", "--n-nouns", "1", "--n-verbs", "1", "--gts-per-example", "40",
          "--n-sources", "3", "--box-jitter-sigma", "3", "--ttc-noise-sigma", "0.05", "--drop-prob", "0.2",
          "--seed", "1", "--out", "blocks")
    vista("ensemble", *sorted(Path("blocks").glob("predictions_source_*.json")), "--out", "blocks")
    vista("evaluate", "blocks/ground_truth.json", "blocks/ensemble.json", "--top-k", "100", "--out", "blocks")
    gt = json.loads(Path("blocks/ground_truth.json").read_text())
    results = json.loads(Path("blocks/ensemble.json").read_text())["results"]
    assert len(gt["annotations"]) + sum(map(len, results.values())) > boxes.EXAMPLE_BLOCK  # more than one block
    alone = []
    for i, uid in enumerate(sorted(set(results) | {a["example_uid"] for a in gt["annotations"]})):
        scored = Path("scored", f"{i:03d}")
        scored.mkdir(parents=True)
        (scored / "ground_truth.json").write_text(json.dumps(
            {**gt, "annotations": [a for a in gt["annotations"] if a["example_uid"] == uid]}))
        (scored / "ensemble.json").write_text(json.dumps({"results": {uid: results[uid]} if uid in results else {}}))
        vista("evaluate", scored / "ground_truth.json", scored / "ensemble.json", "--top-k", "100", "--out", scored)
        alone.append(json.loads((scored / "report.json").read_text())["counts"])
    whole = json.loads(Path("blocks/report.json").read_text())["counts"]
    for variant, counts in whole.items():
        for name in ("matched", "unmatched_predictions"):
            total = sum(c[variant][name] for c in alone)
            assert counts[name] == total, f"{variant} {name}: {counts[name]} of the whole, {total} over the examples alone"


def test_top_1_does_not_depend_on_the_entry_order(tmp_path, monkeypatch):
    # every hypothesis is ranked once: an example's top-k is the same whatever its entry order
    monkeypatch.chdir(tmp_path)
    vista("synth", "--n-examples", "2", "--n-sources", "3", "--out", "run")
    doc = json.loads(Path("run/predictions_source_00.json").read_text())
    doc["results"] = {uid: entries[::-1] for uid, entries in doc["results"].items()}
    Path("reversed.json").write_text(json.dumps(doc))
    vista("evaluate", "run/ground_truth.json", "run/predictions_source_00.json", "--top-k", "1", "--out", "top1")
    vista("evaluate", "run/ground_truth.json", "reversed.json", "--top-k", "1", "--out", "top1_reversed")
    assert Path("top1/report.txt").read_bytes() == Path("top1_reversed/report.txt").read_bytes()
