"""Host-speed reference for the benchmark's timings.

On a shared host the same code runs faster or slower by a fifth or more
for stretches of seconds to minutes, in wall and in CPU time alike, so
raw times of two runs minutes apart differ more than a change to the
program would. The benchmark therefore times a fixed pure-Python
workload, the textbook matrix-chain DP on ``REF_DIMS``, right before and
after every timed operation in the same process, and reports each
operation in *paced seconds*: its time divided by the mean of the six
reference times nearest to it, times ``REF_S``. A slow stretch slows the
operation and the reference alike and mostly cancels; a change to
matchain moves only the operation. The host also switches speed within
fractions of a second, which one reference samples but a long
operation averages, hence a mean over several. One reference is the
fastest of ``REPEATS`` calls after an untimed one, so that caches left
cold by the operation, or an interrupt in one call, do not count as a
slow host. The raw medians go to the environment line.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

from check import textbook_cost

#: Fixed input of the reference DP; one call takes a few milliseconds.
REF_DIMS = tuple((7 * k) % 61 + 2 for k in range(48))
#: Timed calls per reference.
REPEATS = 2
#: Median time of one reference call on an idle 2-vCPU x86-64 VM with
#: CPython 3.11, so that paced seconds read close to wall seconds there.
REF_S = 0.0035
#: Reference times on each side of an operation that scale it.
WINDOW = 3


def reference() -> float:
    """Seconds taken by one warm call of the reference DP."""
    textbook_cost(REF_DIMS)
    best = math.inf
    for _ in range(REPEATS):
        t0 = perf_counter()
        textbook_cost(REF_DIMS)
        best = min(best, perf_counter() - t0)
    return best


def paced(op_s, refs) -> list[float]:
    """Operation times in paced seconds.

    ``refs`` has one more entry than ``op_s``: ``refs[k]`` was timed just
    before operation k and ``refs[k + 1]`` just after it. Each operation
    is scaled by the mean of the ``2 * WINDOW`` reference times centred
    on it, fewer at the ends.
    """
    out = []
    for k, t in enumerate(op_s):
        near = refs[max(0, k + 1 - WINDOW) : k + 1 + WINDOW]
        out.append(t * REF_S / statistics.fmean(near))
    return out
