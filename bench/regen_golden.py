"""Regenerate bench/golden.json: input and output digests of every shard.

Usage, from the repository root: python3 bench/regen_golden.py [WORKLOAD ...]

Run it only on a commit whose outputs are known to be right, and only
when a generator or the pool changes (bump workloads.GENERATOR_VERSION
for a generator change). It records what the current program writes, so
running it after a program change would hide that change.
"""

from __future__ import annotations

import json
import sys

from run import GOLDEN, WORK, job_plan, run_pass
from workloads import SPECS, WORKLOADS, ensure_shard, input_digests


def main(names: list[str]) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    WORK.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        shards = list(range(SPECS[name].pool))
        inputs = {k: input_digests(ensure_shard(WORK, name, k)[0]) for k in shards}
        entry = {}
        for k in shards:
            result = run_pass(job_plan(name, [k]), None, trace=False)
            (job,) = result["jobs"]
            if job["exit"] != 0:
                print(f"{name} shard {k}: exited {job['exit']}", file=sys.stderr)
                return 1
            prefix = f"out/{k:02d}/"
            entry[str(k)] = {"inputs": inputs[k],
                             "outputs": {p[len(prefix):]: d for p, d in job["digests"].items()}}
            print(f"{name} shard {k}: {job['wall_s']:.2f} s", flush=True)
        golden[name] = entry
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
