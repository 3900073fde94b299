import argparse
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from vista import io_formats
from vista.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from vista.fusion import (
    ContextMlpParams,
    FilmParams,
    ProbeParams,
    attentive_probe,
    film_modulate,
    roi_context_fuse,
)
from vista.io_formats import load_predictions, read_tensor_file, write_submission, write_tensor_file
from vista.rng import CounterRng

from test_fusion import rand_array
from test_io_formats import large_submission, opened_paths, vstf_record


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = main(
        [
            "synth", "--seed", "7", "--n-examples", "4", "--n-nouns", "3", "--n-verbs", "3",
            "--gts-per-example", "2", "--n-sources", "2", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    return out


class TestSynthCommand:
    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--seed", "7", "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for fname in ("ground_truth.json", "predictions_source_00.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    @pytest.mark.parametrize("flag", ["--box-jitter-sigma", "--ttc-noise-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sigma_named_exit_2(self, tmp_path, capsys, flag, value):
        assert main(["synth", flag, value, "--out", str(tmp_path / "run")]) == EXIT_VALIDATION
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be finite and >= 0, got {value}\n"
        assert not (tmp_path / "run").exists()


class TestEvaluateCommand:
    def test_perfect_instance_scores_100(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                str(synth_dir / "ground_truth.json"),
                str(synth_dir / "predictions_source_00.json"),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("100.00") == 4
        report = json.loads((out / "report.json").read_text())
        assert report["map_overall"] == 100.0
        assert (out / "report.txt").exists()

    def test_missing_file_exit_1(self, synth_dir, capsys):
        code = main(["evaluate", "/nonexistent/gt.json", str(synth_dir / "predictions_source_00.json")])
        assert code == EXIT_IO
        assert "nonexistent" in capsys.readouterr().err

    def test_corrupt_json_exit_2(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["evaluate", str(bad), str(synth_dir / "predictions_source_00.json")])
        assert code == EXIT_VALIDATION
        assert "line" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [["--iou-min", "nan"], ["--ttc-tol", "nan"]])
    def test_nan_threshold_exit_2(self, synth_dir, flags, capsys):
        code = main(
            ["evaluate", str(synth_dir / "ground_truth.json"),
             str(synth_dir / "predictions_source_00.json"), *flags]
        )
        assert code == EXIT_VALIDATION
        problem = {"--iou-min": "iou_min must be in (0, 1)", "--ttc-tol": "ttc_max_error must be positive"}[flags[0]]
        assert capsys.readouterr().err == f"error: {problem}, got nan\n"

    @pytest.mark.parametrize("iou_min", ["1.0", "1.5"])
    def test_iou_min_of_1_or_more_exit_2(self, synth_dir, tmp_path, capsys, iou_min):
        # A match needs IoU > iou_min and IoU is at most 1, so no prediction could match.
        code = main(["evaluate", str(synth_dir / "ground_truth.json"), str(synth_dir / "predictions_source_00.json"),
                     "--iou-min", iou_min, "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: iou_min must be in (0, 1), got {iou_min}\n"
        assert not (tmp_path / "run").exists()

    def test_iou_min_just_below_1_matches_exact_boxes(self, synth_dir, tmp_path, capsys):
        code = main(["evaluate", str(synth_dir / "ground_truth.json"), str(synth_dir / "predictions_source_00.json"),
                     "--iou-min", "0.999", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.count("100.00") == 4

    def test_non_utf8_json_exit_2(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"taxonomy": {"nouns": ["tasse à café"]}}'.encode("latin-1"))
        code = main(["evaluate", str(bad), str(synth_dir / "predictions_source_00.json")])
        assert code == EXIT_VALIDATION
        assert "not UTF-8" in capsys.readouterr().err

    def test_noun_outside_the_ground_truth_taxonomy_exit_2(self, synth_dir, tmp_path, capsys):
        doc = json.loads((synth_dir / "predictions_source_00.json").read_text())
        entries = doc["results"]["ex_0001"]
        entries.append({**entries[0], "noun_category_id": 3})
        submission = tmp_path / "submission.json"
        submission.write_text(json.dumps(doc))
        code = main(["evaluate", str(synth_dir / "ground_truth.json"), str(submission), "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {submission}: results['ex_0001'][{len(entries) - 1}]: noun_id 3 out of range [0, 3)\n")
        assert not (tmp_path / "report.json").exists()


def track_tensor_reads(monkeypatch):
    """Track every tensor `TensorFile.read` gives until the memory it was
    read into is freed. Returns the names read, in order, and a function
    giving the most tensors held at once."""
    from vista.io_formats import TensorFile

    read, reads, live, most = TensorFile.read, [], set(), [0]

    def tracked(container, name):
        arr = owner = read(container, name)
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        reads.append(name)
        live.add(name)
        weakref.finalize(owner, live.discard, name)
        most[0] = max(most[0], len(live))
        return arr

    monkeypatch.setattr(TensorFile, "read", tracked)
    return reads, lambda: most[0]


class TestPostprocessCommand:
    def make_head_outputs(self, path, n_proposals, n_nouns=3, n_verbs=3):
        write_tensor_file(self.head_tensors(n_proposals, n_nouns, n_verbs), path)

    def head_tensors(self, n_proposals, n_nouns=3, n_verbs=3):
        rng = CounterRng(5)
        boxes = []
        for _ in range(n_proposals):
            x1 = rng.uniform(0, 500)
            y1 = rng.uniform(0, 300)
            boxes.append([x1, y1, x1 + rng.uniform(20, 200), y1 + rng.uniform(20, 150)])
        return {
            "proposal_boxes": np.array(boxes),
            "objectness": np.array([rng.uniform(0.05, 1.0) for _ in range(n_proposals)]),
            "noun_logits": np.array(
                [[rng.gaussian() for _ in range(n_nouns)] for _ in range(n_proposals)]
            ),
            "verb_logits": np.array(
                [[rng.gaussian() for _ in range(n_verbs)] for _ in range(n_proposals)]
            ),
            "box_deltas": np.array(
                [[[rng.gaussian(0, 0.05) for _ in range(4)] for _ in range(n_nouns)]
                 for _ in range(n_proposals)]
            ),
            "ttc_raw": np.array([rng.gaussian() for _ in range(n_proposals)]),
            "quality": np.array([rng.uniform(0.05, 1.0) for _ in range(n_proposals)]),
        }

    def write_taxonomy(self, path, n_nouns=3, n_verbs=3):
        path.write_text(
            json.dumps(
                {
                    "nouns": [f"n{i}" for i in range(n_nouns)],
                    "verbs": [f"v{i}" for i in range(n_verbs)],
                }
            )
        )

    def test_export_cap(self, tmp_path):
        heads = tmp_path / "heads.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        self.make_head_outputs(heads, 300)
        self.write_taxonomy(taxonomy)
        out = tmp_path / "pp"
        code = main(["postprocess", str(heads), str(taxonomy), "--out", str(out)])
        assert code == EXIT_OK
        preds = load_predictions(out / "submission.json")
        assert set(preds) == {"heads"}
        assert 0 < len(preds["heads"]) <= 100

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("piped", ["taxonomy", "config"])
    def test_taxonomy_or_config_through_a_pipe_as_from_a_file(self, tmp_path, piped):
        # A taxonomy or config is read whole, so a pipe of its bytes reads
        # as the file does.
        heads, taxonomy, config = tmp_path / "heads.vstf", tmp_path / "taxonomy.json", tmp_path / "config.json"
        self.make_head_outputs(heads, 20)
        self.write_taxonomy(taxonomy)
        config.write_text(json.dumps({"max_exports": 5}))
        inputs = {"taxonomy": str(taxonomy), "config": str(config)}
        argv = lambda out: ["postprocess", str(heads), inputs["taxonomy"], "--config", inputs["config"],
                            "--out", str(tmp_path / out)]
        assert main(argv("file")) == EXIT_OK
        read_end, write_end = os.pipe()
        os.write(write_end, Path(inputs[piped]).read_bytes())  # it fits in the pipe's buffer
        os.close(write_end)
        try:
            inputs[piped] = f"/dev/fd/{read_end}"
            assert main(argv("pipe")) == EXIT_OK
        finally:
            os.close(read_end)
        submissions = [json.loads((tmp_path / out / "submission.json").read_text()) for out in ("file", "pipe")]
        for submission in submissions:
            del submission["provenance"]
        assert submissions[0] == submissions[1] and len(submissions[0]["results"]["heads"]) == 5

    def test_empty_proposals_exit_0(self, tmp_path):
        heads = tmp_path / "empty.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        write_tensor_file({}, heads)
        self.write_taxonomy(taxonomy)
        out = tmp_path / "pp"
        code = main(["postprocess", str(heads), str(taxonomy), "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads((out / "submission.json").read_text())
        assert doc["results"] == {}

    def test_k_noun_1_uses_argmax(self, tmp_path):
        heads = tmp_path / "heads.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        self.make_head_outputs(heads, 10)
        self.write_taxonomy(taxonomy)
        out = tmp_path / "pp"
        code = main(
            ["postprocess", str(heads), str(taxonomy), "--k-noun", "1", "--k-verb", "1",
             "--nms-iou", "0.99", "--out", str(out)]
        )
        assert code == EXIT_OK
        from vista.io_formats import read_tensor_file
        from vista.postprocess import softmax

        tensors = read_tensor_file(heads)
        argmax_nouns = {int(np.argmax(softmax(row))) for row in tensors["noun_logits"]}
        preds = load_predictions(out / "submission.json")
        assert set(preds["heads"].noun.tolist()) <= argmax_nouns


    def test_underflowing_softmax_exit_0(self, tmp_path):
        # exp(-1000) rounds to 0: the other nouns' probabilities and so
        # their scores underflow, and those pairs are dropped.
        heads = tmp_path / "heads.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        tensors = self.head_tensors(6)
        tensors["noun_logits"][2] = [1000.0, 0.0, 0.0]
        write_tensor_file(tensors, heads)
        self.write_taxonomy(taxonomy)
        out = tmp_path / "pp"
        code = main(["postprocess", str(heads), str(taxonomy), "--nms-iou", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        preds = load_predictions(out / "submission.json")
        assert all(score > 0.0 for score in preds["heads"].score.tolist())
        assert len(preds["heads"]) == 5 * 9 + 3

    def test_mismatched_tensor_shapes_exit_2(self, tmp_path, capsys):
        heads = tmp_path / "heads.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        tensors = self.head_tensors(6)
        tensors["objectness"] = tensors["objectness"][:4]
        tensors["quality"] = tensors["quality"][:5]
        write_tensor_file(tensors, heads)
        self.write_taxonomy(taxonomy)
        code = main(["postprocess", str(heads), str(taxonomy), "--out", str(tmp_path / "pp")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "objectness must have shape (P,) with P=6, got (4,)" in err
        assert "quality must have shape (P,) with P=6, got (5,)" in err

    def test_every_problem_of_every_example_named(self, tmp_path, capsys):
        # Two flat proposals in one example and a logit width the taxonomy
        # does not have in another: each problem names its example and
        # its proposal, and the good example does not hide the others.
        heads = tmp_path / "heads.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        flat = self.head_tensors(6)
        flat["proposal_boxes"][2] = [3.0, 3.0, 3.0, 9.0]
        flat["proposal_boxes"][4] = [1.0, 7.0, 2.0, 7.0]
        examples = {"ex0": self.head_tensors(6), "ex1": flat, "ex2": self.head_tensors(6, n_nouns=4)}
        write_tensor_file({f"{uid}/{name}": arr for uid, tensors in examples.items()
                           for name, arr in tensors.items()}, heads)
        self.write_taxonomy(taxonomy)
        code = main(["postprocess", str(heads), str(taxonomy), "--out", str(tmp_path / "pp")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: example 'ex1': proposal 2: must have positive size, got [3.0, 3.0, 3.0, 9.0]; "
            "example 'ex1': proposal 4: must have positive size, got [1.0, 7.0, 2.0, 7.0]; "
            "example 'ex2': logit lengths (4, 3) do not match taxonomy (3, 3)\n"
        )
        assert not (tmp_path / "pp" / "submission.json").exists()

    def test_names_of_one_tensor_that_collide_exit_2(self, tmp_path, capsys):
        # A plain name is filed under the file stem, as is "/name": in h2.vstf
        # "quality", "/quality" and "h2/quality" are one tensor, and
        # "ex/quality" is another example's.
        heads = tmp_path / "h2.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        tensors = self.head_tensors(4)
        write_tensor_file({**tensors, **{f"h2/{name}": arr for name, arr in tensors.items()},
                           "/quality": tensors["quality"], "ex/quality": tensors["quality"]}, heads)
        self.write_taxonomy(taxonomy)
        code = main(["postprocess", str(heads), str(taxonomy), "--out", str(tmp_path / "pp")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: " + "; ".join(
            f"example 'h2': tensor {name!r} given as {name!r} and 'h2/{name}'"
            + (" and '/quality'" if name == "quality" else "") for name in tensors) + "\n"
        assert not (tmp_path / "pp" / "submission.json").exists()

    def test_one_example_held_at_a_time(self, tmp_path, monkeypatch):
        heads = tmp_path / "heads.vstf"
        taxonomy = tmp_path / "taxonomy.json"
        self.write_examples(heads, {f"ex{i}": self.head_tensors(5) for i in range(3)})
        self.write_taxonomy(taxonomy)
        names = list(read_tensor_file(heads))
        reads, most_held = track_tensor_reads(monkeypatch)
        assert main(["postprocess", str(heads), str(taxonomy), "--out", str(tmp_path / "pp")]) == EXIT_OK
        assert sorted(reads) == sorted(names)
        assert most_held() == len(self.head_tensors(5))

    # Which problem a bad container reports: the first structural or
    # non-finite fault in file order, alone; else every tensor given by two
    # names; else every batch problem of every example; else every chain
    # problem.

    def write_examples(self, path, examples, nan_in=()):
        """Write {uid: tensors} as "<uid>/<name>" tensors (plain names for
        uid ""), with the first value of each tensor named in `nan_in` made
        NaN on disk, since the writer rejects non-finite values."""
        tensors = {f"{uid}/{name}" if uid else name: np.array(arr) for uid, named in examples.items()
                   for name, arr in named.items()}
        sentinel = np.float32(0.4321).tobytes()
        for name in nan_in:
            tensors[name].flat[0] = 0.4321
        write_tensor_file(tensors, path)
        blob = path.read_bytes()
        assert blob.count(sentinel) == len(nan_in)
        path.write_bytes(blob.replace(sentinel, np.float32(np.nan).tobytes()))

    def postprocess_error(self, tmp_path, heads, capsys) -> str:
        taxonomy = tmp_path / "taxonomy.json"
        self.write_taxonomy(taxonomy)
        code = main(["postprocess", str(heads), str(taxonomy), "--out", str(tmp_path / "pp")])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "pp" / "submission.json").exists()
        return capsys.readouterr().err

    def test_non_finite_tensor_before_a_truncation_reported_alone(self, tmp_path, capsys):
        heads = tmp_path / "heads.vstf"
        self.write_examples(heads, {"ex0": self.head_tensors(4), "ex1": self.head_tensors(4)}, ["ex0/quality"])
        heads.write_bytes(heads.read_bytes()[:-10])
        assert self.postprocess_error(tmp_path, heads, capsys) == (
            f"error: {heads}: tensor 'ex0/quality' contains non-finite values\n")

    def test_nan_in_the_last_example_hides_a_batch_problem_in_the_first(self, tmp_path, capsys):
        heads = tmp_path / "heads.vstf"
        bad = self.head_tensors(4)
        bad["objectness"][1] = 0.0
        self.write_examples(heads, {"ex0": bad, "ex1": self.head_tensors(4), "ex2": self.head_tensors(4)},
                            ["ex2/quality"])
        assert self.postprocess_error(tmp_path, heads, capsys) == (
            f"error: {heads}: tensor 'ex2/quality' contains non-finite values\n")

    def test_nan_hides_a_duplicate_base(self, tmp_path, capsys):
        heads = tmp_path / "h.vstf"
        tensors = self.head_tensors(4)
        self.write_examples(heads, {"": tensors, "h": {"objectness": tensors["objectness"]}}, ["ttc_raw"])
        assert self.postprocess_error(tmp_path, heads, capsys) == (
            f"error: {heads}: tensor 'ttc_raw' contains non-finite values\n")

    def test_first_nan_in_file_order_reported_not_in_uid_order(self, tmp_path, capsys):
        heads = tmp_path / "heads.vstf"
        self.write_examples(heads, {"b": self.head_tensors(4), "a": self.head_tensors(4)},
                            ["b/ttc_raw", "a/objectness"])
        assert self.postprocess_error(tmp_path, heads, capsys) == (
            f"error: {heads}: tensor 'b/ttc_raw' contains non-finite values\n")

    def test_batch_problem_in_a_later_example_hides_a_chain_problem_in_an_earlier(self, tmp_path, capsys):
        heads = tmp_path / "heads.vstf"
        bad = self.head_tensors(4)
        bad["quality"][2] = 1.5
        self.write_examples(heads, {"ex0": self.head_tensors(4, n_nouns=4), "ex1": bad})
        assert self.postprocess_error(tmp_path, heads, capsys) == (
            "error: example 'ex1': proposal 2: quality must be in (0, 1], got 1.5\n")


class TestEnsembleCommand:
    def test_single_input_preserves_order(self, synth_dir, tmp_path):
        out = tmp_path / "ens"
        src = synth_dir / "predictions_source_00.json"
        code = main(["ensemble", str(src), "--out", str(out)])
        assert code == EXIT_OK
        merged = load_predictions(out / "ensemble.json")
        original = load_predictions(src)
        for uid in original:
            assert merged[uid].noun.tolist() == original[uid].noun.tolist()
            assert merged[uid].verb.tolist() == original[uid].verb.tolist()

    def test_duplicated_input_matches_single_ranking(self, synth_dir, tmp_path):
        src = synth_dir / "predictions_source_00.json"
        single = tmp_path / "single"
        double = tmp_path / "double"
        assert main(["ensemble", str(src), "--out", str(single)]) == EXIT_OK
        assert main(["ensemble", str(src), str(src), "--out", str(double)]) == EXIT_OK
        a = load_predictions(single / "ensemble.json")
        b = load_predictions(double / "ensemble.json")
        for uid in a:
            assert a[uid].noun.tolist() == b[uid].noun.tolist()
            assert a[uid].verb.tolist() == b[uid].verb.tolist()
            for box_a, box_b in zip(a[uid].boxes.tolist(), b[uid].boxes.tolist()):
                assert box_a == pytest.approx(box_b, abs=1e-9)

    @pytest.mark.parametrize(
        "flags", [["--iou-min", "nan"], ["--ttc-tol", "nan"], ["--max-exports", "-1"],
                  ["--max-exports", "0"]],
    )
    def test_bad_config_exit_2(self, synth_dir, tmp_path, flags, capsys):
        src = str(synth_dir / "predictions_source_00.json")
        code = main(["ensemble", src, *flags, "--out", str(tmp_path / "ens")])
        assert code == EXIT_VALIDATION
        assert "must be" in capsys.readouterr().err

    def test_underflowed_merged_score_is_dropped(self, tmp_path):
        # u's one hypothesis is a group of one source out of four, so its
        # merged score is 5e-324 * 1/4, which underflows to 0.0.
        entry = {"box": [0, 0, 10, 10], "noun_category_id": 0, "verb_category_id": 0,
                 "time_to_contact": 1.0}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"results": {"u": [{**entry, "score": 5e-324}]}}))
        b.write_text(json.dumps({"results": {"v": [{**entry, "score": 0.5}]}}))
        code = main(["ensemble", str(a), str(b), str(b), str(b), "--agreement-weight", "1.0",
                     "--out", str(tmp_path / "ens")])
        assert code == EXIT_OK
        results = json.loads((tmp_path / "ens" / "ensemble.json").read_text())["results"]
        assert results["u"] == []
        assert [e["score"] for e in results["v"]] == [0.375]

    def test_taxonomy_mismatch_exit_2(self, synth_dir, tmp_path):
        tiny = tmp_path / "tiny_taxonomy.json"
        tiny.write_text(json.dumps({"nouns": ["only"], "verbs": ["one"]}))
        code = main(
            ["ensemble", str(synth_dir / "predictions_source_00.json"), "--taxonomy", str(tiny)]
        )
        assert code == EXIT_VALIDATION


class TestCapsBeyondInt64:
    """A cap beyond int64 keeps every row, as a cap above the row count
    does: given as a flag or in --config, each command exits 0 and writes
    the results (the report, but for its provenance) that it writes with
    a cap of 100000."""

    COMMANDS = {  # the flag, the config key and the output compared
        "ensemble": ("--max-exports", "max_exports", "ensemble.json"),
        "evaluate": ("--top-k", "top_k", "report.json"),
        "postprocess": ("--max-exports", "max_exports", "submission.json"),
    }

    def output(self, tmp_path, argv, command, cap, given):
        flag, key, name = self.COMMANDS[command]
        out = tmp_path / f"{given}_{cap}"
        if given == "flag":
            argv = [*argv, flag, str(cap)]
        else:
            config = tmp_path / f"config_{cap}.json"
            config.write_text(json.dumps({key: cap}))
            argv = [*argv, "--config", str(config)]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / name).read_text())
        if command == "evaluate":
            del doc["provenance"]  # it names the cap
            return doc
        return doc["results"]

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("cap", [2**63, 10**30])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_same_output_as_a_cap_of_100000(self, synth_dir, tmp_path, command, cap, given):
        if command == "postprocess":
            heads, taxonomy = tmp_path / "heads.vstf", tmp_path / "taxonomy.json"
            TestPostprocessCommand().make_head_outputs(heads, 300)
            TestPostprocessCommand().write_taxonomy(taxonomy)
            argv = ["postprocess", str(heads), str(taxonomy)]
        else:
            sources = sorted(synth_dir.glob("predictions_source_*.json"))
            argv = ["ensemble", *map(str, sources)] if command == "ensemble" else [
                "evaluate", str(synth_dir / "ground_truth.json"), str(sources[0])]
        assert self.output(tmp_path, argv, command, cap, given) == self.output(
            tmp_path, argv, command, 100000, given)


FLOAT_MAX = sys.float_info.max


def one_example(path, *entries):
    """Write a submission of one example, "u", of (box, ttc, score)
    entries with noun and verb 0."""
    path.write_text(json.dumps({"results": {"u": [
        {"box": box, "noun_category_id": 0, "verb_category_id": 0, "time_to_contact": ttc, "score": score}
        for box, ttc, score in entries]}}))


def run_strict(argv, capsys) -> tuple[int, str]:
    """main(argv) with every warning an error; the exit code and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


class TestFloatEdges:
    """Valid values near the float maximum: the commands exit 0, and numpy
    does not warn."""

    def test_ensemble_of_scores_whose_sum_overflows(self, tmp_path, capsys):
        one_example(tmp_path / "big.json", ([0, 0, 10, 10], 1.0, 1e308))
        big, out = str(tmp_path / "big.json"), tmp_path / "ens"
        assert run_strict(["ensemble", big, big, "--out", str(out)], capsys) == (EXIT_OK, "")
        merged = json.loads((out / "ensemble.json").read_text())["results"]["u"]
        assert [(e["box"], e["time_to_contact"], e["score"]) for e in merged] == [([0, 0, 10, 10], 1.0, 1e308)]

    def test_ensemble_of_ttcs_at_the_float_maximum(self, tmp_path, capsys):
        # The weights 0.3 / 0.65 and 0.35 / 0.65 add up to 1 only up to
        # rounding; the mean of two float maxima is the float maximum.
        one_example(tmp_path / "a.json", ([0, 0, 10, 10], FLOAT_MAX, 0.3))
        one_example(tmp_path / "b.json", ([0, 0, 10, 10], FLOAT_MAX, 0.35))
        out = tmp_path / "ens"
        argv = ["ensemble", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", str(out)]
        assert run_strict(argv, capsys) == (EXIT_OK, "")
        merged = json.loads((out / "ensemble.json").read_text())["results"]["u"]
        assert [(e["box"], e["time_to_contact"]) for e in merged] == [([0, 0, 10, 10], FLOAT_MAX)]

    @pytest.mark.parametrize("command", ["ensemble", "evaluate"])
    def test_boxes_whose_width_overflows(self, tmp_path, capsys, command):
        huge = [-1e308, -1e308, 1e308, 1e308]
        one_example(tmp_path / "huge.json", (huge, 1.0, 0.5))
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"taxonomy": {"nouns": ["n"], "verbs": ["v"]}, "annotations": [
            {"example_uid": "u", "box": huge, "noun_category_id": 0, "verb_category_id": 0,
             "time_to_contact": 1.0}]}))
        sub = str(tmp_path / "huge.json")
        inputs = [sub, sub] if command == "ensemble" else [str(gt), sub]
        assert run_strict([command, *inputs, "--out", str(tmp_path / "out")], capsys) == (EXIT_OK, "")


def run_cli(*argv, timeout=20, flags=()):
    """`vista` in a fresh interpreter given the `flags`, killed after
    `timeout` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-m", "vista.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestReaderWarnings:
    """Each input's reader warnings are printed, under the user's -W
    filters; one that the filters make an error is a problem of the input."""

    def write(self, tmp_path) -> Path:
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"zz": 1, "results": {"u": [
            {"box": [0, 0, 1, 1], "noun_category_id": 0, "verb_category_id": 0, "time_to_contact": 1.0,
             "score": 0.5, "extra": 2}]}}))
        return path

    def test_every_inputs_warnings_printed(self, tmp_path):
        path = self.write(tmp_path)
        done = run_cli("ensemble", path, path, "--out", tmp_path / "ens")
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stderr.splitlines() == [f"warning: {path}: ignoring unknown fields ['zz']",
                                            f"warning: {path}: results['u'][0]: ignoring unknown fields ['extra']"] * 2
        silenced = run_cli("ensemble", path, path, "--out", tmp_path / "ens", flags=["-W", "ignore"])
        assert (silenced.returncode, silenced.stderr) == (EXIT_OK, "")

    def test_a_warning_made_an_error_exits_2(self, tmp_path):
        path = self.write(tmp_path)
        done = run_cli("validate", path, flags=["-W", "error::UserWarning"])
        assert (done.returncode, done.stderr) == (EXIT_VALIDATION, f"error: {path}: ignoring unknown fields ['zz']\n")


class TestEnsembleTerminates:
    def test_zero_area_seed(self, tmp_path):
        # A zero-area box has IoU 0 with itself, so it is not compatible
        # with itself; it still forms its own group.
        sub = tmp_path / "flat.json"
        entry = {"box": [5, 5, 5, 9], "noun_category_id": 0, "verb_category_id": 0,
                 "time_to_contact": 1.0, "score": 0.5}
        sub.write_text(json.dumps({"results": {"ex": [entry]}}))
        done = run_cli("ensemble", sub, "--out", tmp_path / "ens")
        assert done.returncode == EXIT_OK, done.stderr
        merged = json.loads((tmp_path / "ens" / "ensemble.json").read_text())["results"]["ex"]
        assert [e["box"] for e in merged] == [[5.0, 5.0, 5.0, 9.0]]

    def test_iou_min_above_one_exit_2(self, synth_dir, tmp_path):
        done = run_cli("ensemble", synth_dir / "predictions_source_00.json", "--iou-min", "1.5",
                       "--out", tmp_path / "ens")
        assert done.returncode == EXIT_VALIDATION
        assert "box_iou_min must be in (0, 1], got 1.5" in done.stderr


class TestConfigFiles:
    def run_with_config(self, synth_dir, tmp_path, command, config_bytes):
        path = tmp_path / "config.json"
        path.write_bytes(config_bytes)
        inputs = {
            "evaluate": [synth_dir / "ground_truth.json", synth_dir / "predictions_source_00.json"],
            "ensemble": [synth_dir / "predictions_source_00.json"],
        }[command]
        return main([command, *map(str, inputs), "--config", str(path), "--out", str(tmp_path / "o")])

    def test_non_utf8_config_exit_2(self, synth_dir, tmp_path, capsys):
        config = '{"top_k": 5, "note": "tasse à café"}'.encode("latin-1")
        assert self.run_with_config(synth_dir, tmp_path, "evaluate", config) == EXIT_VALIDATION
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, problem", [
        ("evaluate", {"iou_min": "0.5"}, "iou_min must be a number, got '0.5'"),
        ("evaluate", {"top_k": True}, "top_k must be an integer, got True"),
        ("evaluate", {"ttc_tol": [0.25], "top_k": 2.0},
         "ttc_max_error must be a number, got [0.25]; top_k must be an integer, got 2.0"),
        ("ensemble", {"agreement_weight": False}, "agreement_weight must be a number, got False"),
        ("ensemble", {"max_exports": "7"}, "max_exports must be an integer, got '7'"),
        ("ensemble", {"ttc_tol": 2**1024}, "ttc_tolerance must be a number within the float range, got 17976931"),
    ])
    def test_wrongly_typed_value_exit_2(self, synth_dir, tmp_path, capsys, command, config, problem):
        code = self.run_with_config(synth_dir, tmp_path, command, json.dumps(config).encode())
        assert code == EXIT_VALIDATION
        assert problem in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["evaluate", "ensemble"])
    def test_unknown_keys_exit_2(self, synth_dir, tmp_path, capsys, command):
        config = {"iou_min": 0.5, "bogus": 1, "top-k": 5}
        code = self.run_with_config(synth_dir, tmp_path, command, json.dumps(config).encode())
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unknown config key 'bogus'" in err
        assert "unknown config key 'top-k'" in err
        assert "'iou_min'" not in err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_of_postprocess_exit_2(self, tmp_path, capsys):
        heads, taxonomy = tmp_path / "heads.vstf", tmp_path / "taxonomy.json"
        TestPostprocessCommand().make_head_outputs(heads, 4)
        TestPostprocessCommand().write_taxonomy(taxonomy)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nms_iou": 0.4, "max_export": 10}))
        code = main(["postprocess", str(heads), str(taxonomy), "--config", str(config),
                     "--out", str(tmp_path / "pp")])
        assert code == EXIT_VALIDATION
        assert "unknown config key 'max_export'" in capsys.readouterr().err

    def test_unknown_key_of_synth_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "n_example": 2}))
        code = main(["synth", "--config", str(config), "--out", str(tmp_path / "s")])
        assert code == EXIT_VALIDATION
        assert "unknown config key 'n_example'" in capsys.readouterr().err

    def test_unknown_key_of_plan_exit_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"frame_count": 4, "out": "run"}))
        assert main(["plan", "--time", "4.0", "--config", str(config)]) == EXIT_VALIDATION
        assert "unknown config key 'out'" in capsys.readouterr().err

    def test_every_read_key_accepted(self, synth_dir, tmp_path):
        # A key the command reads but that its list of known keys misses
        # would make this exit 2.
        out = str(tmp_path / "o")
        configs = {
            "evaluate": {"iou_min": 0.5, "ttc_tol": 0.25, "top_k": 5, "out": out},
            "ensemble": {"iou_min": 0.5, "ttc_tol": 0.25, "agreement_weight": 0.5,
                         "max_exports": 100, "out": out},
        }
        for command, config in configs.items():
            code = self.run_with_config(synth_dir, tmp_path, command, json.dumps(config).encode())
            assert code == EXIT_OK, command
        heads, taxonomy = tmp_path / "heads.vstf", tmp_path / "taxonomy.json"
        TestPostprocessCommand().make_head_outputs(heads, 4)
        TestPostprocessCommand().write_taxonomy(taxonomy)
        runs = [
            (["postprocess", str(heads), str(taxonomy)],
             {"max_proposals": 300, "k_noun": 3, "k_verb": 3, "nms_iou": 0.5, "max_exports": 100,
              "out": out}),
            (["synth"],
             {"box_jitter_sigma": 0.0, "label_flip_prob": 0.0, "verb_flip_prob": 0.0,
              "ttc_noise_sigma": 0.0, "drop_prob": 0.0, "seed": 0, "n_examples": 2, "n_nouns": 3,
              "n_verbs": 3, "gts_per_example": 1, "n_sources": 1, "out": out}),
            (["plan", "--time", "4.0"], {"frame_count": 8, "sample_rate": 2.0}),
        ]
        for argv, config in runs:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            assert main([*argv, "--config", str(path)]) == EXIT_OK, argv[0]


class TestPlanCommand:
    def test_paper_example(self, capsys):
        assert main(["plan", "--time", "4.0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.5 1 1.5 2 2.5 3 3.5 4"

    def test_negative_time_exit_2(self, capsys):
        assert main(["plan", "--time", "-1.0"]) == EXIT_VALIDATION


def fusion_tensors(t=3, d=4, d_att=2, d_token=3, c=2, h=2, w=2, r=2, d_roi=4, d_proj=2, hidden=3):
    """A complete `vista fuse` container with random values, as float32."""
    shapes = {
        "seq": (t, d), "rois": (r, d_roi), "fpn": (c, h, w),
        "probe/key_proj": (d, d_att), "probe/value_proj": (d, d_token), "probe/query": (d_att,),
        "film/gamma_proj": (d_token, c), "film/gamma_bias": (c,),
        "film/beta_proj": (d_token, c), "film/beta_bias": (c,),
        "context/layer1_w": (d_roi + d_proj, hidden), "context/layer1_b": (hidden,),
        "context/layer2_w": (hidden, d_roi), "context/layer2_b": (d_roi,),
        "context/token_proj": (d_token, d_proj), "context/token_bias": (d_proj,),
    }
    rng = CounterRng(6)
    return {name: rand_array(rng, *shape).astype(np.float32) for name, shape in shapes.items()}


class TestFuseCommand:
    def fuse(self, tmp_path, tensors, *flags):
        path = tmp_path / "fuse.vstf"
        write_tensor_file(tensors, path)
        return main(["fuse", str(path), *flags])

    def test_writes_the_fused_container(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "run")}))
        assert self.fuse(tmp_path, fusion_tensors(), "--config", str(config)) == EXIT_OK
        assert capsys.readouterr().out.strip() == str(tmp_path / "run" / "fused.vstf")
        fused = read_tensor_file(tmp_path / "run" / "fused.vstf")
        assert {name: arr.shape for name, arr in fused.items()} == {
            "token": (3,), "weights": (3,), "fpn": (2, 2, 2), "rois": (2, 4)}

    def test_outputs_equal_the_kernels(self, tmp_path):
        assert self.fuse(tmp_path, fusion_tensors(), "--out", str(tmp_path)) == EXIT_OK
        given = read_tensor_file(tmp_path / "fuse.vstf")
        params = {prefix: {name.partition("/")[2]: arr for name, arr in given.items() if name.startswith(prefix)}
                  for prefix in ("probe/", "film/", "context/")}
        token, weights = attentive_probe(given["seq"], ProbeParams(**params["probe/"]))
        expected = {
            "token": token,
            "weights": weights,
            "fpn": film_modulate(given["fpn"], token, FilmParams(**params["film/"])),
            "rois": [roi_context_fuse(roi, token, ContextMlpParams(**params["context/"])) for roi in given["rois"]],
        }
        fused = read_tensor_file(tmp_path / "fused.vstf")
        assert list(fused) == list(expected)
        for name, arr in expected.items():
            assert np.array_equal(fused[name], np.asarray(arr, dtype=np.float32)), name

    @pytest.mark.parametrize("tensors, problem", [
        ({"seq": np.arange(5.0)}, "seq must have shape (T, D) with T=5, got (5,)"),
        ({"seq": np.ones((2, 2, 2))}, "seq must have shape (T, D) with T=2, D=2, got (2, 2, 2)"),
        ({"seq": np.ones((3, 4)), "rois": np.ones(3)}, "rois must have shape (R, D_roi) with R=3, got (3,)"),
        ({"seq": np.ones((3, 4)), "fpn": np.ones((2, 2))}, "fpn must have shape (C, H, W) with C=2, H=2, got (2, 2)"),
    ])
    def test_wrong_rank_exit_2(self, tmp_path, capsys, tensors, problem):
        assert self.fuse(tmp_path, {**fusion_tensors(), **tensors}) == EXIT_VALIDATION
        assert problem in capsys.readouterr().err

    def test_both_wrong_ranks_listed(self, tmp_path, capsys):
        assert self.fuse(tmp_path, {**fusion_tensors(), "seq": np.ones(5), "rois": np.ones(3)}) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "seq must have shape (T, D) with T=5, got (5,)" in err
        assert "rois must have shape (R, D_roi) with R=3, got (3,)" in err

    @pytest.mark.parametrize("sizes, shapes", [
        ({"d": 0}, {"token": (3,), "weights": (3,), "fpn": (2, 2, 2), "rois": (2, 4)}),
        ({"c": 0}, {"token": (3,), "weights": (3,), "fpn": (0, 2, 2), "rois": (2, 4)}),
        ({"h": 0}, {"token": (3,), "weights": (3,), "fpn": (2, 0, 2), "rois": (2, 4)}),
        ({"r": 0}, {"token": (3,), "weights": (3,), "fpn": (2, 2, 2), "rois": (0, 4)}),
        ({"d_token": 0}, {"token": (0,), "weights": (3,), "fpn": (2, 2, 2), "rois": (2, 4)}),
    ], ids=["D=0", "C=0", "H=0", "R=0", "D_token=0"])
    def test_zero_length_dimension_exit_0(self, tmp_path, sizes, shapes):
        assert self.fuse(tmp_path, fusion_tensors(**sizes), "--out", str(tmp_path)) == EXIT_OK
        fused = read_tensor_file(tmp_path / "fused.vstf")
        assert {name: arr.shape for name, arr in fused.items()} == shapes

    @pytest.mark.parametrize("sizes, problem", [
        ({"d_att": 0}, "key_proj must have at least one column (D_att >= 1), got shape (4, 0)"),
        ({"t": 0}, "sequence must contain at least one row"),
    ])
    def test_degenerate_probe_exit_2(self, tmp_path, capsys, sizes, problem):
        assert self.fuse(tmp_path, fusion_tensors(**sizes)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert problem in err
        assert "token" not in err

    def test_every_missing_tensor_listed(self, tmp_path, capsys):
        tensors = fusion_tensors()
        for name in ("rois", "film/gamma_bias", "context/token_proj"):
            del tensors[name]
        assert self.fuse(tmp_path, {**tensors, "fpn": np.ones(2)}) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: missing tensor 'rois'; missing tensor 'film/gamma_bias'; missing tensor 'context/token_proj'; "
            "fpn must have shape (C, H, W) with C=2, got (2,)\n")

    def test_every_shape_fault_of_every_kernel_listed(self, tmp_path, capsys):
        tensors = {**fusion_tensors(), "probe/key_proj": np.ones((5, 2)), "film/gamma_proj": np.ones((3, 7)),
                   "context/layer1_w": np.ones((5, 3))}
        assert self.fuse(tmp_path, tensors) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: probe/key_proj must have shape (D, D_att) with D=4, D_att=2, got (5, 2); "
            "film/gamma_proj must have shape (D_token, C) with D_token=3, C=2, got (3, 7); "
            "context/layer1_w must have shape (D_roi + D_proj, H_mlp) with D_roi=4, D_proj=2, H_mlp=3, got (5, 3)\n")

    def test_partial_probe_exit_2(self, tmp_path, capsys):
        tensors = fusion_tensors()
        partial = {name: tensors[name] for name in ("seq", "rois", "fpn", "probe/key_proj")}
        assert self.fuse(tmp_path, partial, "--out", str(tmp_path)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "missing tensor 'probe/value_proj'" in err
        assert "missing tensor 'probe/query'" in err
        assert not (tmp_path / "fused.vstf").exists()

    def test_values_beyond_float32_exit_2(self, tmp_path, capsys):
        # Every input is finite float32; FiLM multiplies two values of 1e30
        # or so, which float32 cannot hold.
        tensors = fusion_tensors()
        for name in ("fpn", "film/gamma_bias"):
            tensors[name] = tensors[name] * np.float32(1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.fuse(tmp_path, tensors, "--out", str(tmp_path / "run")) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: tensor 'fpn' has values that exceed the float32 range\n"
        assert not (tmp_path / "run").exists()


class TestValidateCommand:
    def test_round_trip_submission_validates(self, synth_dir, capsys):
        assert main(["validate", str(synth_dir / "predictions_source_00.json")]) == EXIT_OK
        assert "valid submission" in capsys.readouterr().out

    def test_ground_truth_validates(self, synth_dir):
        assert main(["validate", str(synth_dir / "ground_truth.json")]) == EXIT_OK

    def test_tensor_container_validates(self, tmp_path):
        path = tmp_path / "t.vstf"
        write_tensor_file({"a": np.ones(3, dtype=np.float32)}, path)
        assert main(["validate", str(path)]) == EXIT_OK

    def test_tensor_container_validated_one_tensor_at_a_time(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "t.vstf"
        write_tensor_file({"a": np.ones(3), "b": np.zeros((2, 2)), "c": np.ones(1)}, path)
        reads, most_held = track_tensor_reads(monkeypatch)
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == f"{path}: valid tensor container, 3 tensors\n"
        assert (reads, most_held()) == (["a", "b", "c"], 1)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("command", ["validate", "postprocess"])
    def test_container_through_a_pipe_exit_2(self, tmp_path, capsys, command):
        # A pipe cannot be scanned by seeking; it must not read as an empty container.
        TestPostprocessCommand().write_taxonomy(tmp_path / "taxonomy.json")
        blob = vstf_record(b"a", [1.0])
        read_end, write_end = os.pipe()
        os.write(write_end, blob)
        os.close(write_end)
        try:
            path = f"/dev/fd/{read_end}"
            argv = [path] if command == "validate" else [path, str(tmp_path / "taxonomy.json"), "--out", str(tmp_path)]
            assert main([command, *argv]) == EXIT_VALIDATION
        finally:
            os.close(read_end)
        assert capsys.readouterr().err == (
            f"error: {path}: not a regular file; a tensor container is read by seeking\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("piped", ["submission", "ground_truth"])
    def test_submission_through_a_pipe_as_from_a_file(self, synth_dir, tmp_path, capsys, cut, piped):
        # A pipe cannot be read twice, so a submission or ground truth
        # through one is walked from its bytes in memory; it must score, or
        # fail, exactly as the same bytes in a file.
        inputs = {"ground_truth": str(synth_dir / "ground_truth.json"),
                  "submission": str(synth_dir / "predictions_source_00.json")}
        data = Path(inputs[piped]).read_bytes()
        if cut:
            data = data[: len(data) // 2]
        inputs[piped] = str(tmp_path / "piped.json")
        Path(inputs[piped]).write_bytes(data)
        from_file = main(["evaluate", *inputs.values(), "--out", str(tmp_path / "file")])
        file_output = capsys.readouterr()
        read_end, write_end = os.pipe()
        os.write(write_end, data)  # it fits in the pipe's buffer
        os.close(write_end)
        try:
            path = inputs[piped] = f"/dev/fd/{read_end}"
            from_pipe = main(["evaluate", *inputs.values(), "--out", str(tmp_path / "pipe")])
        finally:
            os.close(read_end)
        pipe_output = capsys.readouterr()
        assert (from_pipe, pipe_output.out) == (from_file, file_output.out)
        assert pipe_output.err == file_output.err.replace(str(tmp_path / "piped.json"), path)
        if cut:
            assert from_pipe == EXIT_VALIDATION and "invalid JSON" in pipe_output.err
            return
        reports = [json.loads((tmp_path / out / "report.json").read_text()) for out in ("file", "pipe")]
        for report in reports:
            del report["provenance"]
        assert reports[0] == reports[1] and from_pipe == EXIT_OK

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("name, kind", [
        ("predictions_source_00.json", "submission, 4 examples"),
        ("ground_truth.json", "ground truth, 8 annotations"),
        ("taxonomy.json", "taxonomy, 3 nouns / 3 verbs"),
    ])
    def test_json_through_a_pipe_validates(self, synth_dir, capsys, name, kind):
        # A pipe is read once: no byte may be spent on telling what it holds.
        if name == "taxonomy.json":
            data = json.dumps(json.loads((synth_dir / "ground_truth.json").read_text())["taxonomy"]).encode()
        else:
            data = (synth_dir / name).read_bytes()
        read_end, write_end = os.pipe()
        os.write(write_end, data)  # it fits in the pipe's buffer
        os.close(write_end)
        try:
            path = f"/dev/fd/{read_end}"
            assert main(["validate", path]) == EXIT_OK
        finally:
            os.close(read_end)
        assert capsys.readouterr().out.startswith(f"{path}: valid {kind}")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_warnings_through_a_pipe_as_from_a_file(self, tmp_path, capsys):
        # A file is walked from its open file and a pipe from its bytes in
        # memory; each warning is printed as its message alone, so both
        # print the same lines, and the warnings module is left as it was.
        data = json.dumps({"zz": 1, "results": {"u": [
            {"box": [0, 0, 1, 1], "noun_category_id": 0, "verb_category_id": 0, "time_to_contact": 1.0,
             "score": 0.5, "extra": {"a": [1]}}]}}).encode()
        path = tmp_path / "w.json"
        path.write_bytes(data)
        shown, filters = warnings.showwarning, list(warnings.filters)
        assert main(["validate", str(path)]) == EXIT_OK
        from_file = capsys.readouterr().err
        read_end, write_end = os.pipe()
        os.write(write_end, data)  # it fits in the pipe's buffer
        os.close(write_end)
        try:
            piped = f"/dev/fd/{read_end}"
            assert main(["validate", piped]) == EXIT_OK
        finally:
            os.close(read_end)
        assert from_file.splitlines() == [f"warning: {path}: ignoring unknown fields ['zz']",
                                          f"warning: {path}: results['u'][0]: ignoring unknown fields ['extra']"]
        assert capsys.readouterr().err == from_file.replace(str(path), piped)
        assert (warnings.showwarning, warnings.filters) == (shown, filters)

    @pytest.mark.parametrize("source, bound", [pytest.param("file", 1, id="file"), pytest.param(
        "pipe", 2, id="pipe", marks=pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd"))])
    def test_peak_allocation_below_the_file_size(self, tmp_path, monkeypatch, capsys, source, bound):
        # Reading the whole document peaks at 2.4-2.6 times the file size. A
        # pipe is walked from its bytes in memory, at about 1.4 times.
        path = tmp_path / "sub.json"
        write_submission(large_submission(), path)
        size = path.stat().st_size
        assert size > 2_500_000
        monkeypatch.setattr(io_formats, "_CHUNK", 64 * 1024)
        read = str(path)
        if source == "pipe":  # larger than a pipe's buffer, so fed by a thread
            data = path.read_bytes()
            read_end, write_end = os.pipe()
            read = f"/dev/fd/{read_end}"

            def feed() -> None:
                with open(write_end, "wb") as pipe:
                    pipe.write(data)

            writer = threading.Thread(target=feed)
            writer.start()
        tracemalloc.start()
        try:
            assert main(["validate", read]) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if source == "pipe":
                os.close(read_end)
                writer.join(timeout=60)
                assert not writer.is_alive()
        assert capsys.readouterr().out == f"{read}: valid submission, 100 examples, 10000 hypotheses\n"
        assert peak < bound * size, f"peak {peak} bytes for a file of {size}"

    def test_non_utf8_tensor_name_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.vstf"
        path.write_bytes(vstf_record(b"caf\xe9", [1.0]))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "not UTF-8" in capsys.readouterr().err

    def test_duplicate_tensor_name_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.vstf"
        path.write_bytes(vstf_record(b"seq", [1.0]) + vstf_record(b"seq", [2.0])[8:])
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "duplicate tensor name 'seq'" in capsys.readouterr().err

    def test_non_utf8_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"nouns": ["tasse à café"], "verbs": ["prendre"]}'.encode("latin-1"))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "not UTF-8" in capsys.readouterr().err

    def test_id_beyond_int64_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sub.json"
        entry = {"box": [0, 0, 1, 1], "noun_category_id": 2**64, "verb_category_id": 0,
                 "time_to_contact": 1.0, "score": 0.5}
        path.write_text(json.dumps({"results": {"ex": [entry]}}))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert f"noun_id must fit in 64 bits, got {2**64}" in capsys.readouterr().err

    def test_garbage_exit_2(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        assert main(["validate", str(path)]) == EXIT_VALIDATION

    def test_unhashable_taxonomy_label_exit_2(self, tmp_path, capsys):
        path = tmp_path / "taxonomy.json"
        path.write_text(json.dumps({"nouns": [["a"]], "verbs": ["v"]}))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "'nouns'[0] must be a string, got ['a']" in capsys.readouterr().err

    def test_unhashable_inline_taxonomy_label_exit_2(self, tmp_path, capsys):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"taxonomy": {"nouns": ["a"], "verbs": [{"v": 1}]}, "annotations": []}))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "taxonomy: 'verbs'[0] must be a string, got {'v': 1}" in capsys.readouterr().err

    def test_non_string_taxonomy_path_exit_2(self, tmp_path, capsys):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"taxonomy_path": 5, "annotations": []}))
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        assert "'taxonomy_path' must be a string, got 5" in capsys.readouterr().err


# Each configurable command's flags (option strings, dest, type) in
# order, and its config keys, as the hand-written parser declared them.
# Synth's flags and keys may come in another order, but not another set.
SURFACE = {
    "evaluate": (
        [("-h --help", "help", None), ("--iou-min", "iou_min", float), ("--ttc-tol", "ttc_tol", float),
         ("--top-k", "top_k", int), ("--out", "out", None), ("--config", "config", None)],
        ("iou_min", "ttc_tol", "top_k", "out"),
    ),
    "postprocess": (
        [("-h --help", "help", None), ("--max-proposals", "max_proposals", int), ("--k-noun", "k_noun", int),
         ("--k-verb", "k_verb", int), ("--nms-iou", "nms_iou", float), ("--max-exports", "max_exports", int),
         ("--out", "out", None), ("--config", "config", None)],
        ("max_proposals", "k_noun", "k_verb", "nms_iou", "max_exports", "out"),
    ),
    "ensemble": (
        [("-h --help", "help", None), ("--taxonomy", "taxonomy", None), ("--iou-min", "iou_min", float),
         ("--ttc-tol", "ttc_tol", float), ("--agreement-weight", "agreement_weight", float),
         ("--max-exports", "max_exports", int), ("--out", "out", None), ("--config", "config", None)],
        ("iou_min", "ttc_tol", "agreement_weight", "max_exports", "out"),
    ),
    "synth": (
        [("-h --help", "help", None), ("--seed", "seed", int), ("--n-examples", "n_examples", int),
         ("--n-nouns", "n_nouns", int), ("--n-verbs", "n_verbs", int),
         ("--gts-per-example", "gts_per_example", int), ("--n-sources", "n_sources", int),
         ("--box-jitter-sigma", "box_jitter_sigma", float), ("--label-flip-prob", "label_flip_prob", float),
         ("--verb-flip-prob", "verb_flip_prob", float), ("--ttc-noise-sigma", "ttc_noise_sigma", float),
         ("--drop-prob", "drop_prob", float), ("--out", "out", None), ("--config", "config", None)],
        ("seed", "n_examples", "n_nouns", "n_verbs", "gts_per_example", "n_sources", "box_jitter_sigma",
         "label_flip_prob", "verb_flip_prob", "ttc_noise_sigma", "drop_prob", "out"),
    ),
    "plan": (
        [("-h --help", "help", None), ("--time", "time", float), ("--frame-count", "frame_count", int),
         ("--sample-rate", "sample_rate", float), ("--config", "config", None)],
        ("frame_count", "sample_rate"),
    ),
    "fuse": (
        [("-h --help", "help", None), ("--out", "out", None), ("--config", "config", None)],
        ("out",),
    ),
}


def subparser(command):
    parser = build_parser()
    choices = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return choices[command]


class TestCliSurface:
    @pytest.mark.parametrize("command", list(SURFACE))
    def test_flags_and_config_keys_are_pinned(self, command):
        p = subparser(command)
        flags = [(" ".join(a.option_strings), a.dest, a.type) for a in p._actions if a.option_strings]
        keys = p.get_default("config_keys")
        pinned_flags, pinned_keys = SURFACE[command]
        if command == "synth":
            flags, pinned_flags = sorted(flags, key=str), sorted(pinned_flags, key=str)
            keys, pinned_keys = sorted(keys), sorted(pinned_keys)
        assert flags == pinned_flags
        assert keys == pinned_keys

    @pytest.mark.parametrize("command, flag, help_text", [
        ("evaluate", "--ttc-tol", "sets ttc_max_error (default: 0.25)"),
        ("evaluate", "--top-k", "(default: 5)"),
        ("postprocess", "--max-proposals", "(default: 300)"),
        ("ensemble", "--iou-min", "sets box_iou_min (default: 0.5)"),
        ("synth", "--n-examples", "(default: 10)"),
        ("synth", "--seed", "(default: 0)"),
        ("plan", "--sample-rate", "(default: 2.0)"),
    ])
    def test_help_shows_the_callee_default(self, command, flag, help_text):
        action = next(a for a in subparser(command)._actions if flag in a.option_strings)
        assert action.help == help_text

    @pytest.mark.parametrize("command", [command for command in SURFACE if command != "fuse"])
    def test_every_setting_flag_shows_a_default(self, command):
        p = subparser(command)
        settings = [a for a in p._actions if a.dest in p.get_default("config_keys") and a.dest != "out"]
        assert settings and all("(default: " in a.help for a in settings)


class TestOutMustBeAString:
    # The inputs do not exist: a command that read them before checking
    # its config would exit 1, not 2.
    ARGV = {
        "evaluate": ["evaluate", "missing_gt.json", "missing_preds.json"],
        "postprocess": ["postprocess", "missing.vstf", "missing_taxonomy.json"],
        "ensemble": ["ensemble", "missing_a.json", "missing_b.json"],
        "synth": ["synth", "--n-examples", "2"],
        "fuse": ["fuse", "missing.vstf"],
    }

    @pytest.mark.parametrize("out", [5, None])
    @pytest.mark.parametrize("command", list(ARGV))
    def test_non_string_out_exit_2(self, tmp_path, monkeypatch, capsys, command, out):
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps({"out": out}))
        assert main([*self.ARGV[command], "--config", "config.json"]) == EXIT_VALIDATION
        assert f"config.json: out must be a string, got {out!r}" in capsys.readouterr().err
        assert sorted(os.listdir()) == ["config.json"]

    def test_out_listed_with_unknown_keys(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": [], "bogus": 1}))
        assert main(["synth", "--config", str(config)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "unknown config key 'bogus'" in err
        assert "out must be a string, got []" in err

    def test_ensemble_config_checked_before_sources_are_read(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"agreement_weight": False}))
        code = main(["ensemble", str(tmp_path / "missing.json"), "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert "agreement_weight must be a number, got False" in capsys.readouterr().err


class TestValidateParsesOnce:
    @pytest.mark.parametrize("name", ["t.vstf", "predictions_source_00.json", "ground_truth.json", "taxonomy.json"])
    def test_each_file_opened_once(self, synth_dir, capsys, name):
        path = synth_dir / name
        if name == "t.vstf":
            write_tensor_file({"a": np.ones(3)}, path)
        if name == "taxonomy.json":
            path.write_text(json.dumps(json.loads((synth_dir / "ground_truth.json").read_text())["taxonomy"]))
        assert opened_paths(lambda: main(["validate", str(path)])) == [str(path)]
        assert capsys.readouterr().out.startswith(f"{path}: valid ")

    @pytest.mark.parametrize("name, kind", [
        ("predictions_source_00.json", "valid submission"),
        ("ground_truth.json", "valid ground truth"),
        ("taxonomy.json", "valid taxonomy"),
    ])
    def test_one_json_loads_per_file(self, synth_dir, monkeypatch, capsys, name, kind):
        # A submission or ground truth is walked: each top-level value and
        # each member of `results` or value of `annotations` is decoded once,
        # in file order, and nothing is parsed whole. The annotations are
        # decoded a chunk's list at a time, so a ground truth's lists are
        # recorded as their annotations. A taxonomy is parsed whole, once,
        # and the walk decodes none of its values first.
        if name == "taxonomy.json":
            doc = json.loads((synth_dir / "ground_truth.json").read_text())["taxonomy"]
            (synth_dir / name).write_text(json.dumps(doc))
        doc = json.loads((synth_dir / name).read_text())
        calls, decoded = [], []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append(1) or loads(text, **kw))

        scan = io_formats._SCAN

        def recording(text, idx):
            value, end = scan(text, idx)
            if kind == "valid ground truth" and isinstance(value, list):
                decoded.extend(value)
            else:
                decoded.append(value)
            return value, end

        monkeypatch.setattr(io_formats, "_SCAN", recording)
        assert main(["validate", str(synth_dir / name)]) == EXIT_OK
        assert kind in capsys.readouterr().out
        if kind == "valid submission":
            assert list(doc) == ["challenge", "results", "version"]
            assert (calls, decoded) == ([], [doc["challenge"], *doc["results"].values(), doc["version"]])
        elif kind == "valid ground truth":
            assert list(doc) == ["annotations", "taxonomy"]
            assert (calls, decoded) == ([], [*doc["annotations"], doc["taxonomy"]])
        else:
            assert (calls, decoded) == ([1], [])


def run_argv(capsys, *argv) -> tuple[int, str, str]:
    """main(argv) on argv made strings: the exit code, stdout and stderr."""
    code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    return code, out, err


class TestFractionalIds:
    """An id that is a float with a fractional part is a problem of its
    field, not an id truncated to another class."""

    def test_submission(self, tmp_path, capsys):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"results": {"u": [
            {"box": [0, 0, 1, 1], "noun_category_id": 2.7, "verb_category_id": 0, "time_to_contact": 1.0,
             "score": 0.5, "source_id": 0.9},
            {"box": [0, 0, 1, 1], "noun_category_id": 2.0, "verb_category_id": -0.5, "time_to_contact": 1.0,
             "score": 0.5},
            {"box": [0, 0, 1, 1], "noun_category_id": 2.0, "verb_category_id": 1, "time_to_contact": 1.0,
             "score": 0.5, "source_id": 0.9},
        ]}}))
        where = f"{path}: results['u']"
        assert run_argv(capsys, "validate", path) == (EXIT_VALIDATION, "", (
            f"error: {where}[0]: bad or missing field (noun_category_id must be a whole number, got 2.7); "
            f"{where}[1]: bad or missing field (verb_category_id must be a whole number, got -0.5); "
            f"{where}[2]: bad or missing field (source_id must be a whole number, got 0.9)\n"))

    def test_ground_truth(self, tmp_path, capsys):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"taxonomy": {"nouns": ["a", "b", "c"], "verbs": ["v"]}, "annotations": [
            {"example_uid": "e", "box": [0, 0, 1, 1], "noun_category_id": 2.0, "verb_category_id": 0,
             "time_to_contact": 1.0},
            {"example_uid": "e", "box": [0, 0, 1, 1], "noun_category_id": 1.5, "verb_category_id": 0,
             "time_to_contact": 1.0},
        ]}))
        assert run_argv(capsys, "validate", path) == (EXIT_VALIDATION, "", (
            f"error: {path}: annotation 1 (uid e): bad or missing category/ttc field "
            "(noun_category_id must be a whole number, got 1.5)\n"))


class TestInputFaultsExit2:
    """Faults that each have a check of their own: the command exits 2
    with the check's words, or 0 where the file is valid."""

    @pytest.mark.parametrize("vocabulary, problems", [
        ({"nouns": [], "verbs": ["take"]}, "noun vocabulary is empty"),
        ({"nouns": ["cup"], "verbs": []}, "verb vocabulary is empty"),
        ({"nouns": ["cup", "pan", "cup"], "verbs": ["take", "take"]},
         "noun vocabulary has duplicate labels; verb vocabulary has duplicate labels"),
    ])
    def test_empty_or_duplicate_vocabulary(self, tmp_path, capsys, vocabulary, problems):
        path = tmp_path / "taxonomy.json"
        path.write_text(json.dumps(vocabulary))
        named = "; ".join(f"{path}: {problem}" for problem in problems.split("; "))
        assert run_argv(capsys, "validate", path) == (EXIT_VALIDATION, "", f"error: {named}\n")

    def test_inline_vocabulary_of_a_ground_truth_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps({"taxonomy": {"nouns": ["cup", "cup"], "verbs": []}, "annotations": []}))
        assert run_argv(capsys, "validate", path) == (EXIT_VALIDATION, "", (
            f"error: {path}: taxonomy: noun vocabulary has duplicate labels; "
            f"{path}: taxonomy: verb vocabulary is empty\n"))

    def test_ground_truth_that_is_not_an_object(self, tmp_path, capsys):
        gt, sub = tmp_path / "gt.json", tmp_path / "sub.json"
        gt.write_text("[]")
        sub.write_text(json.dumps({"results": {}}))
        assert run_argv(capsys, "evaluate", gt, sub, "--out", tmp_path) == (
            EXIT_VALIDATION, "", f"error: {gt}: ground-truth document must be a JSON object\n")

    @pytest.mark.parametrize("doc, problem", [
        ({"annotations": []}, "needs 'taxonomy' inline or a 'taxonomy_path'"),
        ({"taxonomy": {"nouns": ["cup"], "verbs": ["take"]}, "annotations": {}}, "missing or non-list 'annotations'"),
    ])
    def test_ground_truth_without_taxonomy_or_annotation_list(self, tmp_path, capsys, doc, problem):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        assert run_argv(capsys, "validate", path) == (EXIT_VALIDATION, "", f"error: {path}: {problem}\n")

    def test_relative_taxonomy_path_is_read_next_to_the_file(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        (data / "taxonomy.json").write_text(json.dumps({"nouns": ["cup"], "verbs": ["take"]}))
        path = data / "gt.json"
        path.write_text(json.dumps({"taxonomy_path": "taxonomy.json", "annotations": [
            {"example_uid": "e", "box": [0, 0, 1, 1], "noun_category_id": 0, "verb_category_id": 0,
             "time_to_contact": 1.0}]}))
        monkeypatch.chdir(tmp_path)  # the taxonomy is not in the working directory
        assert run_argv(capsys, "validate", path) == (EXIT_OK, f"{path}: valid ground truth, 1 annotations\n", "")

    @pytest.mark.parametrize("blob, problem", [
        (b"VSTF\x01\x00", "truncated header"),
        (b"VSTF" + (2).to_bytes(4, "little"), "unsupported container version 2"),
    ])
    def test_container_header_faults(self, tmp_path, capsys, blob, problem):
        path = tmp_path / "t.vstf"
        path.write_bytes(blob)
        assert run_argv(capsys, "validate", path) == (EXIT_VALIDATION, "", f"error: {path}: {problem}\n")

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('["out"]')
        assert run_argv(capsys, "plan", "--time", "1", "--config", config) == (
            EXIT_VALIDATION, "", f"error: {config}: config must be a JSON object\n")
