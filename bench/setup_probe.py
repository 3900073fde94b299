"""Time one import of vista.cli plus building its parser in this fresh
interpreter, and sample the host's speed before and after it.

Usage: python3 setup_probe.py  (with vista on PYTHONPATH)

Prints {"seconds": ..., "speed_samples": [...]}.
"""

import time

from speed import sample

samples = sample(200)
start = time.perf_counter()
import vista.cli  # noqa: E402

vista.cli.build_parser()
elapsed = time.perf_counter() - start
samples += sample(200)

import json  # noqa: E402  (after timing, so vista.cli's own json import is measured)

print(json.dumps({"seconds": elapsed, "speed_samples": samples}))
