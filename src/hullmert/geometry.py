"""Planar primitives for hull and envelope computations.

Points live in the dual plane where the line y = m*x + b is represented by
the point (m, -b).  An upper envelope of lines maps to the lower convex hull
of their dual points, and the crossing x-coordinates of adjacent envelope
lines are the slopes between adjacent hull points.

Hulls here are strict: collinear interior points are dropped and among
points sharing an x coordinate only the lowest survives on a lower chain,
so every stored point is an extreme point.  All operations are pure
functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidGeometryError, NoHypothesesError

# Relative tolerance for orientation sign decisions.  With integer-valued
# coordinates every cross product is an integer and the tolerance window is
# far below 1, so all sign decisions are exact.
EPS_GEOM = 1e-9


@dataclass(frozen=True, slots=True, order=True)
class Point2:
    """A point in the (slope, negated intercept) plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        # +0.0 canonicalizes -0.0 so reprs and serialized output are stable
        object.__setattr__(self, "x", float(self.x) + 0.0)
        object.__setattr__(self, "y", float(self.y) + 0.0)
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidGeometryError(f"non-finite point ({self.x!r}, {self.y!r})")

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)


def cross(o: Point2, a: Point2, b: Point2) -> float:
    """Cross product of (a - o) and (b - o); positive for a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def difference_sign(t1: float, t2: float) -> int:
    """Robust sign of ``t1 - t2``: +1, -1, or 0 inside the zero band.

    The band scales with the magnitude of the two products being
    subtracted (EPS_GEOM relative), so integer inputs are decided exactly.
    Every orientation and edge-angle decision goes through this test.
    """
    c = t1 - t2
    if abs(c) <= EPS_GEOM * (abs(t1) + abs(t2)):
        return 0
    return 1 if c > 0.0 else -1


def orientation(o: Point2, a: Point2, b: Point2) -> int:
    """Robust sign of ``cross(o, a, b)``: +1 left turn, -1 right, 0 collinear."""
    return difference_sign((a.x - o.x) * (b.y - o.y), (a.y - o.y) * (b.x - o.x))


@dataclass(frozen=True, slots=True)
class ConvexChain:
    """Ordered extreme points of a strict hull.

    Two canonical layouts share this type: a *lower chain* is sorted by
    strictly increasing x, and a *full hull* is counterclockwise starting at
    the lexicographically smallest vertex.  Construction does not validate
    (the hull builders below emit canonical chains); ``check_lower`` and
    ``check_full_hull`` verify the invariants on demand.
    """

    points: tuple[Point2, ...] = ()

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point2]:
        return iter(self.points)

    def __getitem__(self, i: int) -> Point2:
        return self.points[i]

    def __bool__(self) -> bool:
        return bool(self.points)

    def as_tuples(self) -> tuple[tuple[float, float], ...]:
        return tuple((p.x, p.y) for p in self.points)

    def check_lower(self) -> None:
        pts = self.points
        for p, q in zip(pts, pts[1:]):
            if not q.x > p.x:
                raise InvalidGeometryError(f"lower chain x not increasing at {p} -> {q}")
        for o, a, b in zip(pts, pts[1:], pts[2:]):
            if orientation(o, a, b) != 1:
                raise InvalidGeometryError(f"lower chain not strictly convex at {a}")

    def check_full_hull(self) -> None:
        pts = self.points
        if len(pts) <= 1:
            return
        if min(pts) != pts[0]:
            raise InvalidGeometryError("full hull must start at its lexicographic minimum")
        if len(pts) == 2:
            if pts[0] == pts[1]:
                raise InvalidGeometryError("degenerate two-point hull")
            return
        n = len(pts)
        for i in range(n):
            o, a, b = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            if orientation(o, a, b) != 1:
                raise InvalidGeometryError(f"full hull not strictly convex at {a}")


def _monotone_chain(pts: Iterable[Point2]) -> list[Point2]:
    """Andrew's monotone-chain pass: the strictly convex chain that turns
    left at every vertex, over points given in sorted order."""
    chain: list[Point2] = []
    for p in pts:
        while len(chain) >= 2 and orientation(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def lower_hull(points: Iterable[Point2]) -> ConvexChain:
    """Strict lower convex hull, sorted by x.

    Among points sharing an x value only the one with minimum y can survive
    (in the dual this keeps the highest-intercept line among equal slopes);
    collinear interior points are removed.  The output is a subset of the
    input.
    """
    pts = sorted(points)
    keep: list[Point2] = []
    for p in pts:
        if keep and keep[-1].x == p.x:
            continue  # sorted order means keep[-1].y <= p.y
        keep.append(p)
    return ConvexChain(tuple(_monotone_chain(keep)))


def full_hull(points: Iterable[Point2]) -> ConvexChain:
    """All extreme points of the convex hull, counterclockwise.

    Output starts at the lexicographically smallest vertex and is strictly
    convex (collinear points dropped).  Degenerate inputs yield the empty
    chain, a single point, or a two-point segment.
    """
    pts = sorted(set(points))
    if len(pts) <= 1:
        return ConvexChain(tuple(pts))
    lower = _monotone_chain(pts)
    upper = _monotone_chain(reversed(pts))
    return ConvexChain(tuple(lower[:-1] + upper[:-1]))


def lower_chain(hull: ConvexChain) -> ConvexChain:
    """Extract the lower chain from a canonical full hull.

    Walks counterclockwise from the lexicographic minimum while x strictly
    increases; vertices on vertical right/left edges and the upper chain are
    excluded (their dual lines are dominated at every x).
    """
    pts = hull.points
    if len(pts) <= 1:
        return hull
    out = [pts[0]]
    for p in pts[1:]:
        if p.x > out[-1].x:
            out.append(p)
        else:
            break
    return ConvexChain(tuple(out))


def _half(v: Point2) -> int:
    """0 for edge angles in (-pi/2, pi/2], 1 for the rest of the circle."""
    if v.x > 0 or (v.x == 0 and v.y > 0):
        return 0
    return 1


def _angle_cmp(u: Point2, v: Point2) -> int:
    """Compare edge-vector angles over (-pi/2, 3*pi/2], the range swept by a
    canonical hull traversal.  Returns -1/0/+1."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    return -difference_sign(u.x * v.y, u.y * v.x)


def _edge_vectors(pts: tuple[Point2, ...], closed: bool) -> list[Point2]:
    if len(pts) <= 1:
        return []
    if closed:
        return [pts[(i + 1) % len(pts)] - pts[i] for i in range(len(pts))]
    return [q - p for p, q in zip(pts, pts[1:])]


def minkowski_indexed(
    a: ConvexChain, b: ConvexChain, closed: bool = True
) -> tuple[tuple[Point2, ...], tuple[tuple[int, int], ...]]:
    """Minkowski sum via the linear-time edge merge, with vertex pairing.

    Returns the sum's canonical vertex sequence together with, for each
    output vertex, the (index into a, index into b) pair of input vertices
    whose sum it is.  Output vertices are computed as fresh vertex sums, not
    accumulated steps, so integer inputs stay exact.
    """
    pa, pb = a.points, b.points
    if not pa or not pb:
        return (), ()
    ea = _edge_vectors(pa, closed)
    eb = _edge_vectors(pb, closed)
    na, nb = len(ea), len(eb)
    i = j = 0
    out_pts = [pa[0] + pb[0]]
    out_idx = [(0, 0)]
    while i < na or j < nb:
        if i == na:
            j += 1
        elif j == nb:
            i += 1
        else:
            c = _angle_cmp(ea[i], eb[j])
            if c < 0:
                i += 1
            elif c > 0:
                j += 1
            else:
                i += 1
                j += 1
        if closed and i == na and j == nb:
            break  # closing the polygon: back at the start vertex
        vi = i % len(pa)
        vj = j % len(pb)
        out_pts.append(pa[vi] + pb[vj])
        out_idx.append((vi, vj))
    return tuple(out_pts), tuple(out_idx)


def minkowski_sum(a: ConvexChain, b: ConvexChain, closed: bool = True) -> ConvexChain:
    """Hull of {p + q : p in a, q in b} in O(|a| + |b|).

    Operands must both be canonical full hulls (default) or both lower
    chains (``closed=False``).  An empty operand yields the empty chain.
    The output has at most |a| + |b| points.
    """
    pts, _ = minkowski_indexed(a, b, closed)
    return ConvexChain(pts)


def envelope_boundaries(chain: ConvexChain) -> tuple[float, ...]:
    """Crossing x-coordinates of the upper envelope dual to a lower chain.

    For k chain points this is the k-1 strictly increasing slopes between
    consecutive points; point i is the envelope's argmax between boundary
    i-1 and boundary i.  A singleton has no boundaries.
    """
    pts = chain.points
    if not pts:
        raise NoHypothesesError("empty chain has no envelope")
    return tuple((q.y - p.y) / (q.x - p.x) for p, q in zip(pts, pts[1:]))
