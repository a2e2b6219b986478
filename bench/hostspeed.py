"""Host speed, measured with fixed reference work, to scale timings by.

The benchmark runs on shared machines whose speed drifts: on the
reference host (see README.md) the same work ran up to 2x slower for
tens of seconds at a time, with CPU time following wall time, so the
drift is contention for the physical core and no statistic of one run
removes it.  The end-to-end timings are therefore multiplied by a factor
measured right after the timed work, reference time over measured time,
and read as seconds on the reference host.  Two references exist, each
sharing no code with etkit, so a change to the program never moves them:

- ``factor``: a loop resembling the program's in-process hot paths (a
  Python loop of closure calls and float math over a list of a few
  thousand floats, list and dict building), for warm library calls;
- ``spawn_factor``: a child interpreter importing numpy, for workloads
  whose operations are whole processes.

The unscaled figures stay in the run record.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

# median loop time on the reference host while it was quiet
REFERENCE_S = 3.4e-3
REPEATS = 3
# median time of a child interpreter that imports numpy, same host
SPAWN_REFERENCE_S = 0.23

_XS = [1e-3 * 1.01 ** k for k in range(4000)]


def _loop() -> float:
    t0 = perf_counter()

    def f(x):
        return 3.0 * x * math.exp(-0.01 * x) - 1.0 / (x + 1.0)

    for _ in range(4):
        prev = None
        crossings = 0
        for x in _XS:
            value = f(x)
            if prev is not None and (value < 0.0) != (prev < 0.0):
                crossings += 1
            prev = value
        scaled = [1.5 * x for x in _XS]
        table = {i: y for i, y in enumerate(scaled[:500])}
        sum(table[i] for i in range(500))
    return perf_counter() - t0


def factor() -> float:
    """REFERENCE_S over the median of REPEATS timings of the loop, taken now."""
    return REFERENCE_S / statistics.median(_loop() for _ in range(REPEATS))


def spawn_factor() -> float:
    """SPAWN_REFERENCE_S over the time of one child interpreter importing numpy.

    Start-up, page faults and imports respond to contention differently
    from a loop inside one process.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True)
    return SPAWN_REFERENCE_S / (perf_counter() - t0)
