"""Tests of the benchmark harness itself: span arithmetic, the digest
check, the tracer's transparency and the benchmark's own metadata."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS, layer_metrics, self_times  # noqa: E402
from speed import REF_CPU_S, REF_WALL_S, SAMPLES  # noqa: E402


def span(name, start, end, parent, counts=None):
    return [name, start, end, parent, 0, counts]


def test_self_times_on_hand_built_tree():
    spans = [
        span("cli", 0.0, 10.0, -1),
        span("io_formats.read_json", 1.0, 4.0, 0),
        span("types.sort_canonical", 2.0, 3.0, 1),
        span("ensemble", 5.0, 9.0, 0),
        span("ensemble.group", 5.5, 7.0, 3),
        # Overlaps its sibling and runs past the parent: only the uncovered,
        # in-parent part of the interval is subtracted once.
        span("ensemble.merge", 6.5, 9.5, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.5, 1.5, 3.0])


def test_layer_metrics_are_per_job_with_ratios_over_totals():
    spans = [
        span("postprocess.nms", 0.0, 2.0, -1, {"in": 90, "kept": 30}),
        span("postprocess.nms", 2.0, 3.0, -1, {"in": 10, "kept": 10}),
        span("ensemble.group", 3.0, 4.0, -1, {"groups": 4, "hyps_in": 10}),
    ]
    values = layer_metrics(spans, n_jobs=2, overhead_frac=0.125)
    assert values["postprocess.nms.s"] == pytest.approx(1.5)
    assert values["postprocess.nms.kept"] == 20
    assert values["postprocess.nms.keep_ratio"] == pytest.approx(0.4)
    assert values["ensemble.group.mean_size"] == pytest.approx(2.5)
    assert values["evaluation.self.s"] == 0.0
    assert values["trace.overhead_frac"] == 0.125
    assert set(values) == {name for name, *_ in LAYER_METRICS}


def test_one_byte_change_fails_digest_check(tmp_path):
    out = tmp_path / "report.json"
    out.write_bytes(b'{"map_overall": 43.34}\n')
    golden = {"0": {"outputs": {"report.json": workloads.sha256_file(out)}}}
    job = {"id": 0, "exit": 0, "digests": {"out/00/report.json": workloads.sha256_file(out)}}
    assert run.job_failures({"jobs": [job]}, golden) == []

    out.write_bytes(b'{"map_overall": 43.35}\n')
    job["digests"]["out/00/report.json"] = workloads.sha256_file(out)
    assert run.job_failures({"jobs": [job]}, golden) == [
        "shard 0: digest mismatch in out/00/report.json"
    ]


def test_calibration_scales_wall_and_cpu_times_separately():
    # Between jobs the kernel took on average twice its reference wall time
    # but its reference CPU time (time stolen by other tenants): 2 s of wall
    # count as 1 s, and CPU time is left as measured.
    job = {"exit": 0, "wall_s": 2.0, "cpu_s": 1.0, "examples": 10, "peak_rss_kb": 2048}
    samples = [(3 * REF_WALL_S, REF_CPU_S), (REF_WALL_S, REF_CPU_S), (2 * REF_WALL_S, REF_CPU_S)]
    calibrated = run.end_to_end({"jobs": [job], "speed_samples": samples}, setup_s=0.3)
    assert calibrated["examples_per_s"] == pytest.approx(10.0)
    assert calibrated["cpu_ms_per_example"] == pytest.approx(100.0)
    assert calibrated["peak_rss_mb"] == 2.0
    samples = [(2 * REF_WALL_S, 2 * REF_CPU_S)] * 3  # a core running at half speed
    calibrated = run.end_to_end({"jobs": [job], "speed_samples": samples}, setup_s=0.3)
    assert calibrated["cpu_ms_per_example"] == pytest.approx(50.0)
    raw = run.end_to_end({"jobs": [job], "speed_samples": samples}, setup_s=0.3, calibrate_times=False)
    assert raw["examples_per_s"] == pytest.approx(5.0)
    assert raw["cpu_ms_per_example"] == pytest.approx(100.0)


def test_failed_exit_counts_as_failure():
    job = {"id": 3, "exit": 2, "digests": {}}
    assert run.job_failures({"jobs": [job]}, {"3": {"outputs": {}}}) == ["shard 3: exited 2"]


TINY = {
    "pipeline": (lambda out: workloads.make_pipeline(out, 5, n_examples=2, n_props=24)),
    "merge": (lambda out: workloads.make_merge(out, 5, n_examples=3, per_source=12, shared=8)),
    "score": (lambda out: workloads.make_score(out, 5, n_examples=6, n_views=3)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_equal_untraced(tmp_path, name):
    spec = workloads.SPECS[name]
    (tmp_path / "shard").mkdir()
    TINY[name](tmp_path / "shard")
    job = {"id": 0, "argv": spec.job("shard", "out/00"), "examples": 1,
           "outputs": [f"out/00/{f}" for f in spec.outputs]}
    plain = run.run_pass([job], None, trace=False, work=tmp_path)
    traced = run.run_pass([job], None, trace=True, work=tmp_path)
    assert plain["jobs"][0]["exit"] == 0
    assert len(plain["jobs"][0]["digests"]) == len(spec.outputs)
    assert traced["jobs"][0]["digests"] == plain["jobs"][0]["digests"]
    assert plain["jobs"][0]["peak_rss_kb"] > 10_000
    assert plain["spans"] is None and traced["spans"]
    # The speed is sampled before the job and after each of its commands.
    assert len(plain["speed_samples"]) == (1 + len(job["argv"])) * SAMPLES


def test_score_slice_is_a_prefix_of_the_full_shard():
    gts_small, preds_small = workloads.score_instance(11, n_examples=3, n_views=2)
    gts_big, preds_big = workloads.score_instance(11, n_examples=5, n_views=2)
    assert gts_small == gts_big[: len(gts_small)]
    assert all(preds_small[uid] == preds_big[uid] for uid in preds_small)


def test_oracle_cross_check_passes():
    assert run.oracle_problems() == []


def test_shard_pick_is_seeded_and_distinct():
    first = workloads.pick_shards("merge", 4, 10)
    assert first == workloads.pick_shards("merge", 4, 10)
    assert len(set(first)) == 10
    assert first != workloads.pick_shards("merge", 5, 10)


def test_benchmark_json_lists_the_harness_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]
    golden = json.loads(run.GOLDEN.read_text())
    for name, spec in workloads.SPECS.items():
        assert sorted(golden[name], key=int) == [str(k) for k in range(spec.pool)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
