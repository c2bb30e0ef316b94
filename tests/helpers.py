"""Shared builders used by several test modules."""

import math

import numpy as np

from hullmert import Edge, Hypergraph


def make_line_graph(lines: list[tuple[float, float]]) -> Hypergraph:
    """Nullary edge per (slope, intercept) line; with LINE_W0/LINE_V the
    edge for line i projects to the dual point (slope_i, -intercept_i)."""
    edges = [
        Edge.make(0, (), {0: m, 1: b}, (f"h{i}",)) for i, (m, b) in enumerate(lines)
    ]
    return Hypergraph(1, edges, goal=0, n_features=2)


LINE_W0 = np.array([0.0, 1.0])
LINE_V = np.array([1.0, 0.0])


# A single crossing c, with the etas placed in the unbounded intervals
# left and right of it: 0.1 beyond c, or the next float beyond c where a
# 0.1 step rounds back onto it (at 1e16 and beyond, where the spacing is
# at least 2).
UNBOUNDED_ETAS = {
    "zero": (0.0, -0.1, 0.1),
    "small": (2.0, 1.9, 2.1),
    "negative": (-1e6, -1000000.1, -999999.9),
    "1e15": (1e15, 999999999999999.9, 1000000000000000.1),
    "1e16": (1e16, 9999999999999998.0, 1.0000000000000002e16),
    "-1e17": (-1e17, -1.0000000000000002e17, -9.999999999999998e16),
    "1e300": (1e300, math.nextafter(1e300, -math.inf), math.nextafter(1e300, math.inf)),
}
