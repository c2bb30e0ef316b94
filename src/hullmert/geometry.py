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
from operator import sub, truediv
from typing import Iterable, Iterator

from .errors import InvalidGeometryError, NoHypothesesError

# Relative tolerance for orientation sign decisions.  It is a band, not a
# rounding filter: a difference within 1e-9 of the products' magnitude is
# taken as zero.  With integer-valued coordinates a nonzero difference is at
# least 1, so sign decisions are exact only while the two products sum to
# less than 1e9 in magnitude; beyond that, and for floats at any magnitude,
# a true vertex of a chain or hull can be dropped.
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
    subtracted (EPS_GEOM relative).  Integer inputs are decided exactly
    only while ``|t1| + |t2| < 1e9``; past that, a nonzero difference
    inside the band reads as 0, as any float difference inside it does.
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
        _check_x_increasing(pts)
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


def _edge_vectors(pts: tuple[Point2, ...]) -> list[Point2]:
    """The edges of a closed polygon, from each vertex to the next."""
    if len(pts) <= 1:
        return []
    return [pts[(i + 1) % len(pts)] - pts[i] for i in range(len(pts))]


def minkowski_indexed(
    a: ConvexChain, b: ConvexChain
) -> tuple[tuple[Point2, ...], tuple[tuple[int, int], ...]]:
    """Minkowski sum via the linear-time edge merge, with vertex pairing.

    Operands must be canonical full hulls.  Returns the sum's canonical
    vertex sequence (empty if an operand is) together with, for each output
    vertex, the (index into a, index into b) pair of input vertices whose
    sum it is.  Output vertices are computed as fresh vertex sums, not
    accumulated steps, so integer inputs stay exact.
    """
    pa, pb = a.points, b.points
    if not pa or not pb:
        return (), ()
    ea = _edge_vectors(pa)
    eb = _edge_vectors(pb)
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
        if i == na and j == nb:
            break  # closing the polygon: back at the start vertex
        vi = i % len(pa)
        vj = j % len(pb)
        out_pts.append(pa[vi] + pb[vj])
        out_idx.append((vi, vj))
    return tuple(out_pts), tuple(out_idx)


def envelope_boundaries(chain: ConvexChain) -> tuple[float, ...]:
    """Crossing x-coordinates of the upper envelope dual to a lower chain.

    For k chain points this is the k-1 slopes between consecutive points;
    point i is the envelope's argmax between boundary i-1 and boundary i.
    A singleton has no boundaries.  ``InvalidGeometryError`` is raised for
    a chain whose x does not strictly increase, for a crossing that
    overflows (or is NaN, from inf - inf), and for a crossing below the
    one before it, as in a chain that is not convex.  Equal crossings
    pass: the banded sign test of ``orientation`` is not applied here.
    """
    pts = chain.points
    if not pts:
        raise NoHypothesesError("empty chain has no envelope")
    _check_x_increasing(pts)
    bounds = _crossings([p.x for p in pts], [p.y for p in pts])
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if b < a:
            raise InvalidGeometryError(
                f"lower chain not convex at {pts[i + 1]}: crossing {b!r} after {a!r}"
            )
    return bounds


def _check_x_increasing(pts: tuple[Point2, ...]) -> None:
    for p, q in zip(pts, pts[1:]):
        if not q.x > p.x:
            raise InvalidGeometryError(f"lower chain x not increasing at {p} -> {q}")


def _crossings(xs: list[float], ys: list[float]) -> tuple[float, ...]:
    """The crossings of the chain with these coordinate lists, checked
    finite but not for order.  Callers pass strictly increasing x, so no
    difference of x is zero.  Only a crossing that is not finite (one whose
    differences overflow) walks the pairs, to name the first one that fails."""
    bounds = tuple(map(truediv, map(sub, ys[1:], ys), map(sub, xs[1:], xs)))
    if all(map(math.isfinite, bounds)):
        return bounds
    for p, q in zip(map(Point2, xs, ys), map(Point2, xs[1:], ys[1:])):
        b = (q.y - p.y) / (q.x - p.x)
        if not math.isfinite(b):
            raise InvalidGeometryError(f"envelope crossing of {p} and {q} is not finite: {b!r}")
