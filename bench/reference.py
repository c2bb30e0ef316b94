"""A fixed reference computation that gauges how fast the host runs Python.

On a shared host the same code runs at different speeds from moment to
moment (on the 2-vCPU development machine, pure Python ran about 1.5x
slower in spells lasting from a fraction of a second to minutes).  The
benchmark runs this computation in a short window after every timed
operation and scales each operation's time by how fast the host ran the
windows around it, so that calls made in slower and faster spells, and
runs made at different times, can be compared.  The work
resembles the library's hot loops (2-D points, sorting, cross products,
a convex chain, dictionary lookups) but is the benchmark's own code: a
change to the library cannot change its time.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# Seconds the reference takes on the development machine in a quiet phase
# (Intel Xeon vCPU at 2.1 GHz, Python 3.11); timings are reported in
# seconds at that speed.
NOMINAL_S = 0.004

_POINTS = [(random.Random(20130714 + i).random(), random.Random(i).random()) for i in range(600)]


def _work() -> int:
    total = 0
    for shift in range(8):
        points = sorted((x + shift, y * shift) for x, y in _POINTS)
        chain: list[tuple[float, float]] = []
        for p in points:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                chain.pop()
            chain.append(p)
        index = {p: i for i, p in enumerate(points)}
        total += len(chain) + sum(index[p] for p in chain)
    return total


class Reference:
    """Windows of reference runs, taken between timed operations."""

    def __init__(self):
        # (start, end, total seconds of the runs, number of runs) per window
        self.windows: list[tuple[float, float, float, int]] = []

    def window(self, seconds: float) -> None:
        """Run the reference for about ``seconds``, at least twice, with the
        garbage collector off, so the size of the heap the library left
        behind cannot change its time."""
        begin = perf_counter()
        total, runs = 0.0, 0
        gc.disable()
        try:
            while runs < 2 or perf_counter() < begin + seconds:
                start = perf_counter()
                _work()
                total += perf_counter() - start
                runs += 1
        finally:
            gc.enable()
        self.windows.append((begin, perf_counter(), total, runs))

    def pace(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran around the interval:
        the mean reference time over the windows that overlap it once
        widened by its own length on each side, plus the nearest window on
        each side.  A long call spans many fast and slow spells, so it is
        paced by the windows of the calls around it as well."""
        reach = end - start
        before = [w for w in self.windows if w[1] <= start]
        after = [w for w in self.windows if w[0] >= end]
        near = before[-1:] + after[:1] + [
            w for w in self.windows if w[1] >= start - reach and w[0] <= end + reach]
        chosen = set(near)
        return sum(w[2] for w in chosen) / sum(w[3] for w in chosen) / NOMINAL_S

    def slowdown(self) -> float:
        """How much slower than nominal the host ran over the whole run."""
        return sum(w[2] for w in self.windows) / sum(w[3] for w in self.windows) / NOMINAL_S
