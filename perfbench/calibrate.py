"""Host speed calibration, so that timings survive a noisy shared host.

On a shared machine the speed of one core drifts by tens of percent
over seconds as other tenants come and go, and every op slows with it.
The benchmark therefore times a fixed reference task, written here and
independent of the program, between ops.  Each op's time is scaled by
``REFERENCE_S / (median of the reference times nearest to the op)``, so
a reported second is a second on a host where the reference task takes
``REFERENCE_S``.  A change to the program cannot move the reference
task, so it cannot hide behind the scaling.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the median reference time on the 2-core x86-64 host, CPython 3.11,
# where the baselines in perfbench/BASELINE.md were taken.
REFERENCE_S = 0.007

# Sample the reference after any op that ends this long after the last sample.
SAMPLE_EVERY_S = 0.1

# An op's time is scaled by the median of this many samples nearest to it.
NEAREST = 5


def reference_task() -> int:
    """Exact elimination, dictionary, set and plain integer work; returns a
    checksum so nothing is skipped.

    Under contention the program slows less than allocation-heavy code
    and more than a tight integer loop, so the task holds both kinds in
    about equal time.
    """
    n = 9
    rows = [[Fraction((i * 5 + j * 3) % 11 + (i == j) * 13, j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    seen = {frozenset((i, i + 1, i % 7)) for i in range(1500)}
    acc = 0
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
    return sum(v.denominator for row in rows for v in row) + len(seen) + acc


class Speed:
    """Reference timings taken during one pass, with when each was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_task()
        self.last = time.perf_counter()
        self.samples.append(((start + self.last) / 2, self.last - start))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, when: float) -> float:
        """Multiply a raw time measured around ``when`` by this to get
        reference seconds.  The host's speed is read off the NEAREST
        samples closest in time, because it drifts within a pass."""
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - when))[:NEAREST]
        return REFERENCE_S / statistics.median(d for _, d in nearest)
