import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vista.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from vista.fusion import (
    ContextMlpParams,
    FilmParams,
    ProbeParams,
    attentive_probe,
    film_modulate,
    roi_context_fuse,
)
from vista.io_formats import load_predictions, read_tensor_file, write_tensor_file
from vista.rng import CounterRng

from test_fusion import rand_array
from test_io_formats import vstf_record


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
        assert "must be positive, got nan" in capsys.readouterr().err

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

    def test_taxonomy_mismatch_exit_2(self, synth_dir, tmp_path):
        tiny = tmp_path / "tiny_taxonomy.json"
        tiny.write_text(json.dumps({"nouns": ["only"], "verbs": ["one"]}))
        code = main(
            ["ensemble", str(synth_dir / "predictions_source_00.json"), "--taxonomy", str(tiny)]
        )
        assert code == EXIT_VALIDATION


def run_cli(*argv, timeout=20):
    """`vista` in a fresh interpreter, killed after `timeout` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "vista.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


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
    @pytest.mark.parametrize("name, kind", [
        ("predictions_source_00.json", "valid submission"),
        ("ground_truth.json", "valid ground truth"),
        ("taxonomy.json", "valid taxonomy"),
    ])
    def test_one_json_loads_per_file(self, synth_dir, monkeypatch, capsys, name, kind):
        if name == "taxonomy.json":
            doc = json.loads((synth_dir / "ground_truth.json").read_text())["taxonomy"]
            (synth_dir / name).write_text(json.dumps(doc))
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append(1) or loads(text, **kw))
        assert main(["validate", str(synth_dir / name)]) == EXIT_OK
        assert kind in capsys.readouterr().out
        assert len(calls) == 1
