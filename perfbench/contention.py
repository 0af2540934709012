"""How much a shared host slowed a run, from a calibration kernel.

On a shared host, other tenants slow the benchmark by an amount that
changes from minute to minute, so two runs of the same code can differ by a
third.  A fixed pure-Python kernel of a few milliseconds, which never touches
the program, is timed before and after every model of a pass.  The mean of
those timings, relative to the kernel's time on the reference host, is the
kernel's slowdown; raised to :data:`SENSITIVITY` it is the slowdown the
model ran under, and dividing the model's times by it gives times on the
reference host, which repeat from run to run far better than raw times do.  A change to the program moves the program's times and not
the kernel's, so the division keeps every regression visible.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: kernel timings taken between two models of a pass.
SAMPLES_PER_MODEL = 3

#: the kernel's mean time on the reference host (a shared 2-vCPU VM), in
#: seconds; it sets the scale of the corrected times.
REFERENCE_S = 0.004

#: the program loses more to other tenants than the kernel does, because its
#: larger working set also loses cache to them.  Over fourteen sets of five
#: to ten runs on the reference host, dividing by the kernel's slowdown
#: raised to this power left the least spread between runs: the quartile
#: distance stayed within 10% of the median, against 15% with the power 1.
SENSITIVITY = 1.25


def _kernel() -> int:
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    return acc


def sample(count: int = SAMPLES_PER_MODEL) -> List[float]:
    """``count`` timings of the calibration kernel, in seconds."""
    out = []
    for _ in range(count):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def slowdown(samples: Sequence[float]) -> float:
    """The program's slowdown while the kernel took ``samples``: their mean
    over the reference time, to the power :data:`SENSITIVITY` (1.0 when no
    sample was taken)."""
    if not samples:
        return 1.0
    return (statistics.fmean(samples) / REFERENCE_S) ** SENSITIVITY
