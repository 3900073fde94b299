"""Sampling the host's speed while the measured program is idle.

The shared host this benchmark was built on changes speed by up to 1.7x
over seconds to minutes as other tenants load it. `sample` runs a fixed
pure-Python kernel back to back and records each run's wall time and the
CPU time of the calling thread. Callers sample between commands, never
while the program runs, so nothing the program does (worker processes,
threads, cache pressure) can move the factors below:

- REF_WALL_S / mean wall time scales wall times;
- REF_CPU_S / mean thread CPU time scales CPU times. Time stolen by
  other tenants grows the kernel's wall time but not its CPU time, so it
  never shrinks a CPU figure; only a slower core does.

The REF_ constants are the kernel's times on the development host (2-core
Xeon, Python 3.11), so calibrated figures are in that host's units; raw
figures are reported beside them.

Only the standard library's `time` is imported, so sampling around a
fresh import imports nothing for it.
"""

import time

KERNEL_ITERATIONS = 5000
SAMPLES = 100
REF_WALL_S = 0.00026
REF_CPU_S = 0.00026


def sample(n: int = SAMPLES) -> list[tuple[float, float]]:
    """(wall s, thread CPU s) of `n` runs of the kernel."""
    out = []
    for _ in range(n):
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        total = 0
        for i in range(KERNEL_ITERATIONS):
            total += i * i
        out.append((time.perf_counter() - wall0, time.thread_time() - cpu0))
    return out

