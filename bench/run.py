"""The vista benchmark: one workload through the `vista` CLI, end to end.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Workloads and their inputs are described in workloads.py. Each workload
is a closed loop with one client: jobs run one after another in a single
child process (jobs.py). Each job reads a fresh shard from the
workload's pool, picked by --seed, and every output is checked against
the committed golden digests (golden.json). Input generation, digest
checks and the oracle cross-check (once per invocation) run outside the
timed region. Timed metrics are calibrated for the host's varying speed,
sampled while the program is idle (speed.py); the raw figures are printed
beside them.

--trace 0 reports the end-to-end metrics: examples_per_s, setup_s,
peak_rss_mb and cpu_ms_per_example. --trace 1 runs an untraced pass and
then a traced pass over the same shards and reports the per-layer
metrics (spans.LAYER_METRICS). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
RSS_SAMPLE_S = 0.005
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
ORACLE_EXAMPLES = 40
ORACLE_SLICE = 4
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path[:0] = [str(BENCH), str(ROOT / "src")]


class BenchError(Exception):
    """The benchmark could not run (not a fault of the measured program)."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "thread_env": THREAD_ENV,
    }


def speed_factors(samples: list) -> tuple[float, float]:
    """Scales from the host's measured speed to the reference host's, for
    wall and for CPU times (speed.py). The mean kernel time, unlike the
    median, counts the slices of time the host gives to other tenants."""
    from speed import REF_CPU_S, REF_WALL_S

    return (REF_WALL_S / statistics.mean(s[0] for s in samples),
            REF_CPU_S / statistics.mean(s[1] for s in samples))


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median calibrated and raw time for a fresh interpreter to import
    vista.cli and build its parser."""
    times, samples = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")], env=child_env(),
            check=True, capture_output=True, text=True, timeout=60,
        )
        probe = json.loads(proc.stdout)
        times.append(probe["seconds"])
        samples += probe["speed_samples"]
    raw = statistics.median(times)
    return raw * speed_factors(samples)[0], raw


def output_mismatches(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names of expected output files whose digest is missing or differs."""
    return [name for name, digest in sorted(expected.items()) if actual.get(name) != digest]


def generate_inputs() -> float:
    """Generate every missing shard of every workload, so that only the first
    run in a checkout pays for generation. Returns generation seconds."""
    from workloads import SPECS, ensure_shard

    t0 = time.perf_counter()
    made = [ensure_shard(WORK, name, k)[1] for name, spec in SPECS.items() for k in range(spec.pool)]
    return time.perf_counter() - t0 if any(made) else 0.0


def input_problems(workload: str, shards: list[int], golden: dict) -> list[str]:
    """Input mismatches of generated shards against the golden digests."""
    from workloads import input_digests, shard_rel

    problems = []
    for shard in shards:
        shard_dir = WORK / shard_rel(workload, shard)
        expected = golden[str(shard)]["inputs"]
        for name in output_mismatches(expected, input_digests(shard_dir)):
            problems.append(f"input mismatch (generator changed?): {workload} shard {shard} {name}")
    return problems


def oracle_problems() -> list[str]:
    """Check evaluation.evaluate against the brute-force oracle on slices of
    the score workload, at top-k 100 (as the score job runs) and top-5."""
    from vista.evaluation import ALL_VARIANTS, EvalConfig, evaluate
    from vista.oracle import MAX_PREDS_PER_CLASS, brute_force_evaluate
    from vista.types import sort_canonical
    from workloads import score_instance, shard_seed

    gts, preds = score_instance(shard_seed("score", 0), n_examples=ORACLE_EXAMPLES)
    uids = sorted(preds)
    problems = []
    for first in range(0, len(uids), ORACLE_SLICE):
        chosen = uids[first : first + ORACLE_SLICE]
        per_class: dict[int, int] = {}
        slice_preds = {}
        for uid in chosen:
            kept = []
            for h in sort_canonical(preds[uid]):
                if per_class.get(h.noun_id, 0) < MAX_PREDS_PER_CLASS:
                    per_class[h.noun_id] = per_class.get(h.noun_id, 0) + 1
                    kept.append(h)
            slice_preds[uid] = kept
        slice_gts = [gt for gt in gts if gt.example_uid in slice_preds]
        for top_k in (100, 5):
            cfg = EvalConfig(top_k=top_k)
            fast = evaluate(slice_preds, slice_gts, cfg)
            slow = brute_force_evaluate(slice_preds, slice_gts, cfg)
            where = f"oracle mismatch on examples {chosen[0]}..{chosen[-1]}, top-{top_k}"
            for variant in ALL_VARIANTS:
                if abs(fast.variant_map(variant) - slow.variant_map(variant)) >= 1e-9:
                    problems.append(f"{where}: {variant.value} mAP")
            if fast.counts != slow.counts:
                problems.append(f"{where}: match counts")
            for cls, aps in slow.per_noun_ap.items():
                if any(abs(fast.per_noun_ap[cls][v] - ap) >= 1e-9 for v, ap in aps.items()):
                    problems.append(f"{where}: AP of noun {cls}")
    return problems


def job_plan(workload: str, shards: list[int]) -> list[dict]:
    from workloads import SPECS, shard_rel

    spec = SPECS[workload]
    jobs = []
    for shard in shards:
        out = f"out/{shard:02d}"
        jobs.append({
            "id": shard,
            "argv": spec.job(shard_rel(workload, shard), out),
            "outputs": [f"{out}/{name}" for name in spec.outputs],
            "examples": spec.examples,
        })
    return jobs


def tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants (0 once gone)."""
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            total += int(Path(f"/proc/{p}/statm").read_text().split()[1]) * PAGE_KB
            for task in Path(f"/proc/{p}/task").iterdir():
                stack += [int(c) for c in (task / "children").read_text().split()]
        except (OSError, ValueError):
            pass
    return total


def run_pass(jobs: list[dict], seconds: float | None, trace: bool, work: Path = WORK) -> dict:
    """Run one pass of jobs in a fresh child process and return its result.
    Job paths are relative to `work`. While the child runs, the resident
    memory of its process tree is sampled; each job gets the highest
    sample taken while it ran."""
    shutil.rmtree(work / "out", ignore_errors=True)
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps({"cwd": str(work), "trace": trace, "seconds": seconds, "jobs": jobs}))
    result_path.unlink(missing_ok=True)
    samples = []
    with open(work / "stderr.txt", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "jobs.py"), str(plan_path), str(result_path)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        try:
            while proc.poll() is None:
                if time.perf_counter() > deadline:
                    raise BenchError(f"job runner exceeded {CHILD_TIMEOUT_S} s")
                samples.append((time.perf_counter(), tree_rss_kb(proc.pid)))
                time.sleep(RSS_SAMPLE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err.seek(0)
        stderr = err.read()
    if proc.returncode != 0:
        raise BenchError(f"job runner exited {proc.returncode}:\n{stderr[-4000:]}")
    if stderr.strip():
        print(stderr[-4000:], file=sys.stderr)
    result = json.loads(result_path.read_text())
    for job in result["jobs"]:
        job["peak_rss_kb"] = max((kb for t, kb in samples if job["start"] <= t <= job["end"]), default=0)
    return result


def job_failures(result: dict, golden: dict) -> list[str]:
    """One message per failed job: non-zero exit or output digest mismatch."""
    problems = []
    for job in result["jobs"]:
        if job["exit"] != 0:
            problems.append(f"shard {job['id']}: exited {job['exit']}")
            continue
        prefix = f"out/{job['id']:02d}/"
        expected = {prefix + k: v for k, v in golden[str(job["id"])]["outputs"].items()}
        bad = output_mismatches(expected, job["digests"])
        if bad:
            problems.append(f"shard {job['id']}: digest mismatch in {', '.join(bad)}")
    return problems


def end_to_end(result: dict, setup_s: float, calibrate_times: bool = True) -> dict[str, float]:
    """End-to-end metrics of a pass. Wall and CPU times are scaled by the
    pass's wall and CPU speed factors. peak_rss_mb is the first job's: it
    runs in a fresh process, as a user's CLI command would, while later jobs
    inherit a heap that earlier jobs fragmented (their peaks ratchet up by up
    to 50%, unevenly)."""
    jobs = result["jobs"]
    wall_scale, cpu_scale = speed_factors(result["speed_samples"]) if calibrate_times else (1.0, 1.0)
    wall = wall_scale * sum(j["wall_s"] for j in jobs)
    cpu = cpu_scale * sum(j["cpu_s"] for j in jobs)
    examples = sum(j["examples"] for j in jobs)
    done = sum(j["examples"] for j in jobs if j["exit"] == 0)
    return {
        "examples_per_s": done / wall,
        "setup_s": setup_s,
        "peak_rss_mb": jobs[0]["peak_rss_kb"] / 1024.0,
        "cpu_ms_per_example": 1000.0 * cpu / examples,
    }


UNITS = {"examples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_ms_per_example": "ms"}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, problems: list[str]) -> dict:
    """Run one workload; `problems` are failed checks found before it."""
    from spans import LAYER_METRICS, layer_metrics, module_shares
    from workloads import SPECS, pick_shards

    golden = json.loads(GOLDEN.read_text())[workload]
    spec = SPECS[workload]
    WORK.mkdir(exist_ok=True)
    shards = pick_shards(workload, seed, spec.max_jobs)
    generated_s = generate_inputs()
    setup_s, raw_setup_s = measure_setup()

    jobs = job_plan(workload, shards)
    untraced = run_pass(jobs, seconds, trace=False)
    problems = problems + input_problems(workload, [j["id"] for j in untraced["jobs"]], golden)
    failures = job_failures(untraced, golden)
    attempted = len(untraced["jobs"])
    metrics = end_to_end(untraced, setup_s)
    raw = end_to_end(untraced, raw_setup_s, calibrate_times=False)
    info = {"workload": workload, "seed": seed, "shards": [j["id"] for j in untraced["jobs"]],
            "job_wall_s": [round(j["wall_s"], 4) for j in untraced["jobs"]],
            "job_peak_rss_mb": [round(j["peak_rss_kb"] / 1024, 1) for j in untraced["jobs"]],
            "speed_factors": speed_factors(untraced["speed_samples"]),
            "uncalibrated": raw,
            "generation_s": generated_s}
    report = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}

    if trace:
        ran = {j["id"] for j in untraced["jobs"]}
        traced = run_pass([j for j in jobs if j["id"] in ran], None, trace=True)
        failures += job_failures(traced, golden)
        attempted += len(traced["jobs"])
        for plain, timed in zip(untraced["jobs"], traced["jobs"]):
            if plain["digests"] != timed["digests"]:
                problems.append(f"shard {plain['id']}: traced outputs differ from untraced")
        traced_rate = end_to_end(traced, setup_s)["examples_per_s"]
        info["traced"] = {"speed_factors": speed_factors(traced["speed_samples"]),
                          "job_wall_s": [round(j["wall_s"], 4) for j in traced["jobs"]]}
        values = layer_metrics(traced["spans"], len(traced["jobs"]),
                               1.0 - traced_rate / metrics["examples_per_s"],
                               speed_factors(traced["speed_samples"])[0])
        report = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}
        info["module_self_time_share"] = module_shares(traced["spans"])

    info["failed_frac"] = len(failures) / attempted
    for line in problems + failures:
        print(f"FAIL {line}")
    print(json.dumps(info))
    for name, m in report.items():
        beside = "" if trace else f"  (raw {raw[name]:.6g})"
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}{beside}")
    print(f"{workload}  failed_frac = {info['failed_frac']:.6g} fraction")
    return {"correct": not problems and not failures, "attempted": attempted,
            "failed": len(failures), "metrics": report}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vista" / "cli.py").is_file():
        print(f"error: no vista sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        problems = oracle_problems()
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), problems))
            print(json.dumps(results[-1]))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
