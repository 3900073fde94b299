"""Job runner: the single child process that runs a pass of benchmark jobs.

Usage: python3 jobs.py PLAN_JSON RESULT_JSON

The plan names the working directory, the jobs (each a chain of `vista`
argument lists, run in-process through `vista.cli.main` one after another,
as a user chaining CLI commands would), an optional time budget and
whether to trace. The runner starts no job once the budget is spent.
The host's speed is sampled before the first job and after every command,
while no command runs (speed.py): sampling a few times per job tracks the
host's speed much better than sampling once, and between commands the
program is idle, as between a user's CLI commands. A job's wall time and
CPU time (user + system, this process and any it waited for) are the sums
over its commands, so they leave out the sampling; its start and end
(time.perf_counter, which is system-wide) bracket the chain. Output
digests are taken after the chain. When traced, the result also holds
every span recorded.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from speed import sample  # noqa: E402
from workloads import sha256_file  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_plan(plan: dict) -> dict:
    os.chdir(plan["cwd"])
    from vista import cli

    tracer = Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()
    budget = plan.get("seconds")
    results = []
    speed_samples = sample()
    began = time.perf_counter()
    for job in plan["jobs"]:
        if budget is not None and results and time.perf_counter() - began >= budget:
            break
        if tracer:
            tracer.job = job["id"]
        # A user's next CLI command starts with an empty collector; do not
        # let one job's garbage or generation counts fall into the next.
        gc.collect()
        start = time.perf_counter()
        wall = cpu = 0.0
        code = 0
        for argv in job["argv"]:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall += time.perf_counter() - t0
            cpu += _cpu_seconds() - cpu0
            speed_samples += sample()
            if code != 0:
                break
        end = time.perf_counter()
        digests = {path: sha256_file(Path(path)) for path in job["outputs"] if code == 0}
        results.append({"id": job["id"], "exit": code, "start": start, "end": end,
                        "wall_s": wall, "cpu_s": cpu,
                        "examples": job["examples"], "digests": digests})
    if tracer:
        tracer.uninstall()
    return {"jobs": results, "speed_samples": speed_samples,
            "spans": tracer.spans if tracer else None}


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text())
    result = run_plan(plan)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
