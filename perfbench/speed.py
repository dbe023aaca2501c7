"""Host-speed reference for timing on a shared machine.

The 2-core host this benchmark was tuned on changes speed by 20-50% over
seconds to minutes, for reasons outside the process: CPU time stays at about
98% of wall time, and no one CPU is consistently slower.  A fixed probe that
shares no code with adtstab runs after every item, outside the timed region.
It does the two kinds of work adtstab's items are made of, in about equal
time: small scipy expm and 2-norm calls, and pure-Python float formatting
as in the CSV and JSON writers.  Each item's time is then scaled by
PROBE_REF_S over the median probe time of the WINDOW attempts on either
side.  The result reads as it would on a host where the probe takes
PROBE_REF_S, which is about its typical time on that box.  Raw times are
kept in the result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg as sla

PROBE_REF_S = 9.0e-4
WINDOW = 3

_M = np.array([
    [0.3, 1.0, 0.0, 0.2],
    [-1.0, 0.1, 0.4, 0.0],
    [0.0, -0.5, -0.7, 0.3],
    [0.1, 0.0, -0.3, -1.1],
])
_VALUES = [0.1 + 0.0125 * k for k in range(280)]


def _work() -> None:
    for k in range(8):
        np.linalg.norm(sla.expm((0.1 + 0.05 * k) * _M), 2)
    rows = [",".join(format(v, ".17g") for v in _VALUES[i:i + 5])
            for i in range(0, len(_VALUES), 5)]
    for _ in range(2):
        rows = [",".join((row, format(len(row) / 7.0, ".17g"))) for row in rows]
    "\n".join(rows)


def probe() -> float:
    """Seconds for 8 expm and 8 spectral-norm calls on a fixed 4x4 matrix,
    then CSV-like rows of 17-significant-digit floats built and joined.  The
    work runs once untimed first, so that what the item left in the caches
    does not enter the measurement."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factors(probes: list[float]) -> list[float]:
    """Scale factor for each attempt: PROBE_REF_S over the local median probe."""
    return [
        PROBE_REF_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
        for i in range(len(probes))
    ]
