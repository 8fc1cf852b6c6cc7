"""Host-speed probes: a fixed pure-Python routine, timed between ops.

On a shared 2-CPU host the interpreter's speed drifts by 20-50% over seconds
(one routine measured 8.8-13.8 ms in consecutive 2-second windows of one
minute), and whole runs land in slow or fast spells. Wall times of separate
runs then spread by more than any useful regression bound. The drift slows
the reference routine and the library alike, so the harness probes the host
between ops, about every ``PROBE_EVERY_S`` of op time, and scales each op's
time by ``REFERENCE_S`` over the mean probe time in a window around the op.
A reported time is thus the time the op would take on a host where one
``reference`` call takes ``REFERENCE_S``; on a steady host that is the wall
time times a constant. The raw wall times stay in the report.

The speed also flickers within a second, so one probe on each side of a
two-second op says little about the speed during it. The window therefore
reaches ``WINDOW_S`` or the op's own duration, whichever is longer, to each
side of the op, and averages the probes of the neighbouring ops.

The routine does the kinds of work bitpath does (list indexing, dict
updates, big-integer masks) and calls nothing in bitpath, so tracing does
not touch it and no change to the library changes it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.0005
PROBE_EVERY_S = 0.03
WINDOW_S = 0.5
_ROUNDS = 1750  # about REFERENCE_S per call on a 2-CPU x86-64 host, Python 3.11
_MASK = (1 << 400) - 1


def reference() -> int:
    counts: dict[int, int] = {}
    slots = list(range(64))
    acc = 0
    for i in range(_ROUNDS):
        j = slots[i & 63]
        counts[j] = counts.get(j, 0) + 1
        acc ^= (_MASK >> (i & 255)) & (1 << (i % 300))
    return acc


def probe() -> float:
    """Seconds a reference call takes now: the faster of two, so that one
    call cut by an interrupt or a context switch does not count."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        reference()
        best = min(best, perf_counter() - start)
    return best


class HostSpeed:
    """The probes of one run, in time order, and the scale factors they give."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def probe(self) -> None:
        self.at.append(perf_counter())
        self.took.append(probe())

    def factor(self, start: float, end: float) -> float:
        """Scales a time spent in [start, end] to the reference speed."""
        reach = max(WINDOW_S, end - start)
        lo = bisect_left(self.at, start - reach)
        hi = bisect_right(self.at, end + reach)
        if lo == hi:  # no probe in the window: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REFERENCE_S * (hi - lo) / sum(self.took[lo:hi])

    def factors(self) -> list[float]:
        return [REFERENCE_S / took for took in self.took]
