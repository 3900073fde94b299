"""Chains of `vista` commands run in process through `vista.cli.main`:
each example held to the example alone, the same entries whatever the
cap or the entry order, and the same report however a document is
written. A numpy RuntimeWarning is an error, as in CI's run of the
installed entry point.
"""

import io
import json
import os
import runpy
import struct
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from vista import boxes, io_formats
from vista.cli import EXIT_OK, EXIT_VALIDATION, main
from vista.io_formats import SubmissionFile, write_tensor_file

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def vista(*argv) -> None:
    """Run one command, which must exit 0."""
    with redirect_stdout(io.StringIO()):
        assert main([str(arg) for arg in argv]) == EXIT_OK, argv


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> Path:
    """A synth run of 2 examples and 3 sources, with its ensemble and the
    ensemble's report."""
    run = tmp_path_factory.mktemp("chains") / "run"
    vista("synth", "--n-examples", "2", "--n-sources", "3", "--out", run)
    vista("ensemble", *sorted(run.glob("predictions_source_*.json")), "--out", run)
    vista("evaluate", run / "ground_truth.json", run / "ensemble.json", "--out", run)
    return run


@pytest.fixture(scope="module")
def blocks(tmp_path_factory) -> Path:
    """A synth run of 100 examples of one noun and one verb, 40 ground
    truths each and 3 sources, with its ensemble and the ensemble's
    report at top-k 100."""
    blocks = tmp_path_factory.mktemp("chains") / "blocks"
    vista("synth", "--n-examples", "100", "--n-nouns", "1", "--n-verbs", "1", "--gts-per-example", "40",
          "--n-sources", "3", "--box-jitter-sigma", "3", "--ttc-noise-sigma", "0.05", "--drop-prob", "0.2",
          "--seed", "1", "--out", blocks)
    vista("ensemble", *sorted(blocks.glob("predictions_source_*.json")), "--out", blocks)
    vista("evaluate", blocks / "ground_truth.json", blocks / "ensemble.json", "--top-k", "100", "--out", blocks)
    return blocks


def minify(source: Path, copy: str) -> None:
    Path(copy).write_text(json.dumps(json.loads(source.read_text()), separators=(",", ":")))


def with_crlf(source: Path, copy: str) -> None:
    Path(copy).write_bytes(source.read_bytes().replace(b"\n", b"\r\n"))


def test_evaluate_counts_are_the_sums_over_the_examples_alone(blocks, tmp_path, monkeypatch):
    # evaluate matches blocks of whole examples (two blocks of the 7,952
    # hypotheses and ground truths here): each variant's matched and
    # unmatched predictions are the sums over the examples evaluated
    # alone, which a block that mixed examples would break.
    monkeypatch.chdir(tmp_path)
    gt = json.loads((blocks / "ground_truth.json").read_text())
    results = json.loads((blocks / "ensemble.json").read_text())["results"]
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
    whole = json.loads((blocks / "report.json").read_text())["counts"]
    for variant, counts in whole.items():
        for name in ("matched", "unmatched_predictions"):
            total = sum(c[variant][name] for c in alone)
            assert counts[name] == total, f"{variant} {name}: {counts[name]} of the whole, {total} over the examples alone"


def test_top_1_does_not_depend_on_the_entry_order(run, tmp_path, monkeypatch):
    # every hypothesis is ranked once: an example's top-k is the same whatever its entry order
    monkeypatch.chdir(tmp_path)
    doc = json.loads((run / "predictions_source_00.json").read_text())
    doc["results"] = {uid: entries[::-1] for uid, entries in doc["results"].items()}
    Path("reversed.json").write_text(json.dumps(doc))
    vista("evaluate", run / "ground_truth.json", run / "predictions_source_00.json", "--top-k", "1", "--out", "top1")
    vista("evaluate", run / "ground_truth.json", "reversed.json", "--top-k", "1", "--out", "top1_reversed")
    assert Path("top1/report.txt").read_bytes() == Path("top1_reversed/report.txt").read_bytes()


def test_a_cap_beyond_int64_keeps_every_ensembled_row(run, tmp_path, monkeypatch):
    # a cap beyond int64 keeps every row, as a cap above the row count does
    monkeypatch.chdir(tmp_path)
    sources = sorted(run.glob("predictions_source_*.json"))
    vista("ensemble", *sources, "--max-exports", "9223372036854775808", "--out", "huge_cap")
    vista("ensemble", *sources, "--max-exports", "100000", "--out", "big_cap")
    huge, big = (json.loads(Path(d, "ensemble.json").read_text())["results"] for d in ("huge_cap", "big_cap"))
    assert huge == big, "a cap beyond int64 changed the ensemble"


def test_ensemble_blocks_give_each_example_its_entries_alone(blocks, tmp_path, monkeypatch):
    # the ensemble takes blocks of whole examples at a time (three blocks
    # of the 9,700 pooled hypotheses here): each example's entries are
    # those it gets when it is ensembled alone. With one noun and one
    # verb, every example has the class of its neighbours.
    monkeypatch.chdir(tmp_path)
    sources = [json.loads((blocks / f"predictions_source_{s:02d}.json").read_text())["results"] for s in range(3)]
    whole = json.loads((blocks / "ensemble.json").read_text())["results"]
    for i, uid in enumerate(sorted(whole)):
        alone = Path("alone", f"{i:03d}")
        alone.mkdir(parents=True)
        for s, results in enumerate(sources):
            (alone / f"source_{s}.json").write_text(json.dumps({"results": {uid: results[uid]} if uid in results else {}}))
        vista("ensemble", *sorted(alone.glob("source_*.json")), "--out", alone)
        (entries,) = json.loads((alone / "ensemble.json").read_text())["results"].values()
        assert json.dumps(whole[uid], indent=2) == json.dumps(entries, indent=2), uid


def test_capped_postprocess_entries_are_the_first_uncapped_ones(tmp_path, monkeypatch):
    # NMS settles the rows in rank windows and stops at the cap: each
    # example's capped entries are the first of its uncapped ones
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "demos" / "03_postprocess_chain.py"), run_name="__main__")
    vista("postprocess", "head_outputs.vstf", "taxonomy.json", "--max-exports", "3", "--out", "capped")
    vista("postprocess", "head_outputs.vstf", "taxonomy.json", "--max-exports", "100000", "--out", "uncapped")
    capped, every = (json.loads(Path(d, "submission.json").read_text())["results"] for d in ("capped", "uncapped"))
    assert capped.keys() == every.keys() and all(capped[u] == every[u][:3] for u in every), (
        "capped entries are not the first uncapped ones")


def test_postprocess_blocks_give_each_example_its_entries_alone(tmp_path, monkeypatch):
    # postprocess suppresses blocks of whole examples (four blocks of the
    # 12,000 retained proposals here): each example's entries are those
    # it gets when its container holds it alone.
    monkeypatch.chdir(tmp_path)
    rng, n, nouns, verbs = np.random.default_rng(3), 300, 8, 5
    Path("blocks_taxonomy.json").write_text(json.dumps(
        {"nouns": [f"n{i}" for i in range(nouns)], "verbs": [f"v{i}" for i in range(verbs)]}))
    examples = {}
    for e in range(40):
        corner = rng.uniform(0, 600, (n, 2))
        examples[f"ex{e:02d}"] = {
            "proposal_boxes": np.hstack([corner, corner + rng.uniform(20, 200, (n, 2))]),
            "objectness": rng.uniform(0.05, 1, n), "noun_logits": rng.normal(0, 2, (n, nouns)),
            "verb_logits": rng.normal(0, 2, (n, verbs)), "box_deltas": rng.normal(0, 0.1, (n, nouns, 4)),
            "ttc_raw": rng.normal(0, 1, n), "quality": rng.uniform(0.05, 1, n)}
    write_tensor_file({f"{uid}/{name}": arr for uid, named in examples.items() for name, arr in named.items()},
                      "blocks_heads.vstf")
    Path("heads_alone").mkdir()
    for uid, named in examples.items():
        write_tensor_file({f"{uid}/{name}": arr for name, arr in named.items()}, f"heads_alone/{uid}.vstf")
    vista("postprocess", "blocks_heads.vstf", "blocks_taxonomy.json", "--out", "pp_blocks")
    whole = json.loads(Path("pp_blocks/submission.json").read_text())["results"]
    assert len(whole) == 40, len(whole)
    for uid, entries in whole.items():
        vista("postprocess", f"heads_alone/{uid}.vstf", "blocks_taxonomy.json", "--out", f"heads_alone/{uid}")
        (alone_entries,) = json.loads(Path("heads_alone", uid, "submission.json").read_text())["results"].values()
        assert json.dumps(entries, indent=2) == json.dumps(alone_entries, indent=2), uid


def test_a_submission_scores_alike_however_it_is_written(run, tmp_path, monkeypatch):
    # the streamed submission reader scores any re-serialisation alike
    monkeypatch.chdir(tmp_path)
    minify(run / "ensemble.json", "minified.json")
    with_crlf(run / "ensemble.json", "crlf.json")
    for copy in ("minified", "crlf"):
        vista("evaluate", run / "ground_truth.json", f"{copy}.json", "--out", copy)
        assert Path(copy, "report.txt").read_bytes() == (run / "report.txt").read_bytes(), copy


def round_scores(source: Path, copy: str) -> None:
    """CI's copy of a submission with every score rounded to two decimals;
    a score stays > 0."""
    doc = json.loads(source.read_text())
    for entries in doc["results"].values():
        for entry in entries:
            entry["score"] = max(round(entry["score"], 2), 0.01)
    Path(copy).write_text(json.dumps(doc, indent=2))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("made", ["run", "blocks"])
def test_a_rounded_submission_scores_alike_from_a_file_and_a_pipe(request, tmp_path, monkeypatch, made):
    # CI's rounded copy of run's ensemble, and of blocks' too: tied
    # scores are ordered from a second walk of the file, or of the pipe's
    # copy in memory, and the reports are the same.
    walked = 2 if made == "blocks" else 1  # the kept rows of run's two examples do not tie
    made = request.getfixturevalue(made)
    monkeypatch.chdir(tmp_path)
    round_scores(made / "ensemble.json", "rounded.json")
    walks = []
    walk = SubmissionFile.walk
    monkeypatch.setattr(SubmissionFile, "walk", lambda source, start: walks.append(source.name) or walk(source, start))
    vista("evaluate", made / "ground_truth.json", "rounded.json", "--top-k", "100", "--out", "rounded")
    data = Path("rounded.json").read_bytes()
    read_end, write_end = os.pipe()

    def feed() -> None:  # the file may be larger than a pipe's buffer
        with open(write_end, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        vista("evaluate", made / "ground_truth.json", f"/dev/fd/{read_end}", "--top-k", "100", "--out", "piped")
    finally:
        os.close(read_end)
        writer.join(timeout=60)
    assert walks == ["rounded.json"] * walked + [f"/dev/fd/{read_end}"] * walked
    assert Path("piped", "report.txt").read_bytes() == Path("rounded", "report.txt").read_bytes()
    reports = [json.loads(Path(out, "report.json").read_text()) for out in ("rounded", "piped")]
    for report in reports:
        del report["provenance"]["predictions"]
    assert reports[0] == reports[1]


def test_a_ground_truth_scores_alike_however_it_is_written(blocks, tmp_path, monkeypatch):
    # and the streamed ground-truth reader (five chunks of annotations
    # here) scores any re-serialisation of the ground truth alike
    monkeypatch.chdir(tmp_path)
    gt = blocks / "ground_truth.json"
    assert gt.stat().st_size > 4 * io_formats._CHUNK
    minify(gt, "gt_minified.json")
    with_crlf(gt, "gt_crlf.json")
    doc = json.loads(gt.read_text())
    Path("gt_taxonomy_first.json").write_text(json.dumps({"taxonomy": doc.pop("taxonomy"), **doc}, indent=2))
    for copy in ("gt_minified", "gt_crlf", "gt_taxonomy_first"):
        vista("evaluate", f"{copy}.json", blocks / "ensemble.json", "--top-k", "100", "--out", copy)
        assert Path(copy, "report.txt").read_bytes() == (blocks / "report.txt").read_bytes(), copy


def test_commas_in_uids_and_an_unknown_object_field(blocks, tmp_path, monkeypatch):
    # a chunk's annotations up to its last "}," are decoded at once only
    # if that is all they are: with "}," in every uid and an unknown
    # field holding an object, the ground truth scores alike however
    # it is written, and validate warns of the field
    monkeypatch.chdir(tmp_path)
    gt = json.loads((blocks / "ground_truth.json").read_text())
    sub = json.loads((blocks / "ensemble.json").read_text())
    for a in gt["annotations"]:
        a["example_uid"] += "},"
    gt["annotations"][0]["extra"] = {"a": {"b": [1]}, "c": 2}
    sub["results"] = {uid + "},": entries for uid, entries in sub["results"].items()}
    Path("gt_commas.json").write_text(json.dumps(gt, indent=2, sort_keys=True))
    Path("sub_commas.json").write_text(json.dumps(sub))
    minify(Path("gt_commas.json"), "gt_commas_minified.json")
    with_crlf(Path("gt_commas.json"), "gt_commas_crlf.json")
    for copy in ("gt_commas", "gt_commas_minified", "gt_commas_crlf"):
        vista("evaluate", f"{copy}.json", "sub_commas.json", "--top-k", "100", "--out", copy)
    for copy in ("gt_commas_minified", "gt_commas_crlf"):
        assert Path(copy, "report.txt").read_bytes() == Path("gt_commas/report.txt").read_bytes(), copy
    err = io.StringIO()
    with redirect_stderr(err):
        vista("validate", "gt_commas.json")
    assert "warning: gt_commas.json: annotation 0: ignoring unknown fields ['extra']" in err.getvalue().splitlines()


@pytest.fixture(scope="module")
def entry_point_dir(run) -> Path:
    """The working directory of CI's run of the installed entry point: the
    synth run `run` in run/, what demos 02 and 03 write, and the fusion of
    demo 02's inputs in run/fused.vstf."""
    root, before = run.parent, Path.cwd()
    os.chdir(root)
    try:
        with redirect_stdout(io.StringIO()):
            for demo in ("02_fusion_kernels.py", "03_postprocess_chain.py"):
                runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
        vista("fuse", "fusion_inputs.vstf", "--out", "run")
    finally:
        os.chdir(before)
    return root


def nan_last_float(path: Path) -> bytes:
    """The container with its last float32 made NaN."""
    data = bytearray(path.read_bytes())
    data[-4:] = struct.pack("<f", float("nan"))
    return bytes(data)


def stray_comma(path: Path) -> bytes:
    """The document with a comma inserted before its first "score"."""
    data = path.read_bytes()
    first = data.index(b'"score"')
    return data[:first] + b"," + data[first:]


# The bad inputs of CI's "Bad inputs exit 2 from the installed entry
# point" step, made from the same files: (the bad file, how it is made
# from the working directory, the command). Its nesting case is
# `test_exit_codes.py::test_deeply_nested_json_exits_2[validate]`.
BAD_INPUTS = {
    "validate-container-cut-to-20-bytes": (
        "cut.vstf", lambda d: (d / "run" / "fused.vstf").read_bytes()[:20], ["validate", "cut.vstf"]),
    "postprocess-heads-cut-to-1000-bytes": (
        "cut_heads.vstf", lambda d: (d / "head_outputs.vstf").read_bytes()[:1000],
        ["postprocess", "cut_heads.vstf", "taxonomy.json", "--out", "bad"]),
    "postprocess-nan-last-float": (
        "nan_heads.vstf", lambda d: nan_last_float(d / "head_outputs.vstf"),
        ["postprocess", "nan_heads.vstf", "taxonomy.json", "--out", "bad"]),
    "plan-negative-time": (None, None, ["plan", "--time", "-1"]),
    "synth-no-nouns": (None, None, ["synth", "--n-nouns", "0", "--out", "bad"]),
    "evaluate-iou-min-1": (None, None, ["evaluate", "run/ground_truth.json", "run/predictions_source_00.json",
                                        "--iou-min", "1.0", "--out", "bad"]),
    "evaluate-submission-cut-to-500-bytes": (
        "cut.json", lambda d: (d / "run" / "ensemble.json").read_bytes()[:500],
        ["evaluate", "run/ground_truth.json", "cut.json", "--out", "bad"]),
    "validate-stray-comma-before-the-first-score": (
        "comma.json", lambda d: stray_comma(d / "run" / "ensemble.json"), ["validate", "comma.json"]),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_2(entry_point_dir, monkeypatch, case):
    monkeypatch.chdir(entry_point_dir)
    target, make, argv = BAD_INPUTS[case]
    if target is not None:
        Path(target).write_bytes(make(entry_point_dir))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == EXIT_VALIDATION, err.getvalue()
    assert err.getvalue().startswith("error: ")
