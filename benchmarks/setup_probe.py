"""Print the seconds a fresh process pays before its first call: importing
numpy, scipy and cachebc, building the config and planning the scheme.

Usage: python3 benchmarks/setup_probe.py <workload>
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is what is timed)

workloads.setup(workloads.WORKLOADS[sys.argv[1]])
print(time.perf_counter() - t0)
