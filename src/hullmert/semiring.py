"""The convex hull semiring and its lower face.

A convex hull semiring value is a set of extreme points in the dual
(slope, negated intercept) plane.  Addition is the hull of the union;
multiplication is the hull of the Minkowski sum; zero is the empty set and
one is {(0, 0)}.  Both operations keep the value size at most the sum of
the operand sizes, which is what makes inside computations over packed
forests tractable.

``ConvexHullValue`` is the paper's semiring and the reference that tests
compare against.  Every point carries its derivation tree as provenance,
``(edge_id, child records)`` as ``forest.realize`` takes it: partial while
tails remain to be multiplied in, and None for an opaque point (the
identity element, or a value built from raw points for algebra testing).

Only the lower face of the goal hull reaches an envelope, and the lower
face of a sum or product depends only on the operands' lower faces.
``LowerChainValue`` keeps just that face: the envelope semiring of
Macherey et al. (2008) and Kumar et al. (2009).  The line-search hot path
runs on it, with flat per-point back-pointers instead of provenance
records.  Addition is one loop that merges by x and hulls as it goes,
building no merged list.  A hyperedge's point enters its first two tails
by one Minkowski merge (``_edge_product``).  The union, the Minkowski
merge of ``__mul__`` and ``_edge_product`` inline
``geometry.difference_sign``'s band and decide every sign, NaN included,
bit for bit as that function does.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidGeometryError
from .geometry import (
    EPS_GEOM,
    ConvexChain,
    Point2,
    full_hull,
    lower_hull,
    minkowski_indexed,
)


def _is_full_hull(chain: ConvexChain) -> bool:
    try:
        chain.check_full_hull()
    except InvalidGeometryError:
        return False
    return True


class ConvexHullValue:
    """A convex hull semiring value: canonical full hull plus per-point
    provenance.  Equality and hashing look at the point set only."""

    __slots__ = ("hull", "provenance")

    def __init__(self, hull: ConvexChain, provenance: tuple[tuple | None, ...]):
        if len(hull) != len(provenance):
            raise ValueError("one provenance record per point required")
        object.__setattr__(self, "hull", hull)
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ConvexHullValue is immutable")

    @classmethod
    def from_raw_points(cls, points: Iterable[tuple[float, float] | Point2]) -> "ConvexHullValue":
        """Canonicalize an arbitrary point set into a value (opaque provenance)."""
        pts = [p if isinstance(p, Point2) else Point2(*p) for p in points]
        hull = full_hull(pts)
        return cls(hull, (None,) * len(hull))

    @classmethod
    def singleton(cls, x: float, y: float, provenance: tuple | None = None) -> "ConvexHullValue":
        return cls(ConvexChain((Point2(x, y),)), (provenance,))

    @staticmethod
    def _hull_of(points: Sequence[Point2], records: Sequence[tuple | None]) -> "ConvexHullValue":
        """Full hull of the points; a repeated point keeps its first record."""
        chosen: dict[Point2, tuple | None] = {}
        for p, rec in zip(points, records):
            chosen.setdefault(p, rec)
        hull = full_hull(chosen.keys())
        return ConvexHullValue(hull, tuple(chosen[p] for p in hull.points))

    @property
    def points(self) -> tuple[Point2, ...]:
        return self.hull.points

    def is_zero(self) -> bool:
        return not self.hull.points

    def __len__(self) -> int:
        return len(self.hull)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexHullValue):
            return NotImplemented
        return self.hull.points == other.hull.points

    def __hash__(self) -> int:
        return hash(self.hull.points)

    def __repr__(self) -> str:
        return f"ConvexHullValue({list(self.hull.as_tuples())!r})"

    def __add__(self, other: "ConvexHullValue") -> "ConvexHullValue":
        """Hull of the point union.

        When points coincide the left operand's record wins, then earlier
        point order: deterministic surfaces even among tying hypotheses.
        """
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        value = ConvexHullValue._hull_of(
            self.hull.points + other.hull.points, self.provenance + other.provenance
        )
        assert len(value) <= len(self) + len(other), "hull sum size bound violated"
        return value

    def __mul__(self, other: "ConvexHullValue") -> "ConvexHullValue":
        """Hull of the Minkowski sum; the empty set annihilates.

        Left point i plus right point j records the left record with the
        right one appended as a child.  The identity shortcut tests object
        identity, not value equality: a zero-feature edge projects to
        {(0, 0)} too, and its provenance must survive multiplication.  When
        sums far beyond the coordinate spacing round the vertices of two
        canonical operands onto each other or onto a line, the raw sum is
        re-hulled and each point keeps its first record, as in ``__add__``;
        other products keep their bits.
        """
        if self.is_zero() or other.is_zero():
            return ConvexHullValue.zero
        if self is ConvexHullValue.one:
            return other
        if other is ConvexHullValue.one:
            return self
        pts, pairs = minkowski_indexed(self.hull, other.hull)
        assert len(pts) <= len(self) + len(other), "minkowski size bound violated"
        left, right = self.provenance, other.provenance
        prov = tuple(
            None if left[i] is None else (left[i][0], left[i][1] + (right[j],))
            for i, j in pairs
        )
        hull = ConvexChain(pts)
        if not _is_full_hull(hull) and _is_full_hull(self.hull) and _is_full_hull(other.hull):
            # A non-canonical operand is multiplied as given, so that
            # oracle.check_axioms still sees what it breaks.
            return ConvexHullValue._hull_of(pts, prov)
        return ConvexHullValue(hull, prov)


ConvexHullValue.zero = ConvexHullValue(ConvexChain(), ())
ConvexHullValue.one = ConvexHullValue.singleton(0.0, 0.0)


_INF = float("inf")

# (edge_id, j_1, ..., j_k): the edge, then the point index chosen in each
# tail node's value; () for a point built from raw points.
BackPointer = tuple[int, ...]


def _lower_merge(xa, ya, ba, xb, yb, bb) -> "LowerChainValue":
    """Lower hull of two point lists, each sorted by non-decreasing x: one
    loop merges them (at equal x the lower y first, at an identical point
    a's first) and keeps only the first lowest point at each x and the
    vertices that turn strictly left (``orientation``'s band).  The top two
    stack points stay in locals; the second is read again only after a pop."""
    cx: list[float] = []
    cy: list[float] = []
    cb: list = []
    n = i = j = 0
    na, nb = len(xa), len(xb)
    ox = oy = ax = ay = 0.0
    while True:
        if j < nb and (i == na or xb[j] < xa[i] or (xb[j] == xa[i] and yb[j] < ya[i])):
            x, y, b = xb[j], yb[j], bb[j]
            j += 1
        elif i < na:
            x, y, b = xa[i], ya[i], ba[i]
            i += 1
        else:
            return LowerChainValue(cx, cy, cb)
        if n and ax == x:
            if not y < ay:
                continue
            del cx[-1], cy[-1], cb[-1]
            n -= 1
            ax, ay = ox, oy
            if n >= 2:
                ox, oy = cx[-2], cy[-2]
        while n >= 2:
            t1 = (ax - ox) * (y - oy)
            t2 = (ay - oy) * (x - ox)
            if t1 - t2 > EPS_GEOM * (abs(t1) + abs(t2)):
                break
            del cx[-1], cy[-1], cb[-1]
            n -= 1
            ax, ay = ox, oy
            if n >= 2:
                ox, oy = cx[-2], cy[-2]
        cx.append(x)
        cy.append(y)
        cb.append(b)
        n += 1
        ox, oy = ax, ay
        ax, ay = x, y


def _strict_lower(xs: list[float], ys: list[float], back: list) -> "LowerChainValue":
    """The strict lower chain of points sorted by non-decreasing x."""
    return _lower_merge(xs, ys, back, (), (), ())


def _product(xs: list[float], ys: list[float], back: list) -> "LowerChainValue":
    """The value of a product's points, sorted by non-decreasing x."""
    if not (-_INF < xs[0] and xs[-1] < _INF and -_INF < min(ys) and max(ys) < _INF):
        raise InvalidGeometryError("non-finite point in a product of lower chains")
    if len(set(xs)) < len(xs):
        # Sums far beyond the x spacing rounded two x values together.
        return _strict_lower(xs, ys, back)
    return LowerChainValue(xs, ys, back)


def _edge_product(
    x: float, y: float, ei: int, a: "LowerChainValue", b: "LowerChainValue"
) -> "LowerChainValue":
    """({(x, y)} * a) * b for edge ``ei``'s point and non-empty ``a`` and
    ``b``, with back-pointers ``(ei, i, j)``, by one open Minkowski merge
    that reads a's points translated by (x, y) and builds no translate.

    Each translated coordinate is formed as ``x + xa[i]`` and differenced
    as such, so every band decision and every sum is that of the
    translate-then-multiply ``LowerChainValue([x], [y], [(ei,)]) * a * b``,
    and so is the result.  A translate in which rounding makes two adjacent
    x values equal takes that path itself (``_product`` re-hulls it before
    the merge).  Otherwise every point of ``a`` appears in the merge and
    b's coordinates are finite, so a translate that is not finite yields a
    product that is not, and ``_product`` refuses it with the same
    message."""
    xa, ya, xb, yb = a.xs, a.ys, b.xs, b.ys
    px, py, qx, qy = x + xa[0], y + ya[0], xb[0], yb[0]
    xs = [px + qx]
    ys = [py + qy]
    back = [(ei, 0, 0)]
    na, nb = len(xa) - 1, len(xb) - 1
    i = j = 0
    while i < na and j < nb:
        nx = x + xa[i + 1]
        if nx == px:
            return LowerChainValue([x], [y], [(ei,)]) * a * b
        ny = y + ya[i + 1]
        mx, my = xb[j + 1], yb[j + 1]
        # As in __mul__: edge-angle order, difference_sign's band inline.
        t1 = (nx - px) * (my - qy)
        t2 = (ny - py) * (mx - qx)
        d = t1 - t2
        band = EPS_GEOM * (abs(t1) + abs(t2))
        if d > band:
            i += 1
            px, py = nx, ny
        elif abs(d) <= band:
            i += 1
            j += 1
            px, py = nx, ny
            qx, qy = mx, my
        else:
            j += 1
            qx, qy = mx, my
        xs.append(px + qx)
        ys.append(py + qy)
        back.append((ei, i, j))
    while j < nb:
        j += 1
        xs.append(px + xb[j])
        ys.append(py + yb[j])
        back.append((ei, i, j))
    while i < na:
        i += 1
        nx = x + xa[i]
        if nx == px:
            return LowerChainValue([x], [y], [(ei,)]) * a * b
        px = nx
        xs.append(px + qx)
        ys.append(y + ya[i] + qy)
        back.append((ei, i, j))
    return _product(xs, ys, back)


class LowerChainValue:
    """The lower face of a hull value: a strict lower chain with back-pointers.

    ``xs`` and ``ys`` list the chain's points by strictly increasing x.
    ``back[i]`` is ``(edge_id, j_1, ..., j_k)`` for a point built by an
    inside pass, where ``j_t`` indexes the point taken from tail t's value
    (the tail nodes themselves come from the edge), and ``()`` for a point
    built from raw points.  Equality and hashing look at the points only.
    The lists are never mutated after construction.
    """

    __slots__ = ("xs", "ys", "back")

    def __init__(self, xs: list[float], ys: list[float], back: list[BackPointer]):
        self.xs = xs
        self.ys = ys
        self.back = back

    @classmethod
    def from_raw_points(cls, points: Iterable[tuple[float, float] | Point2]) -> "LowerChainValue":
        """The lower hull of an arbitrary point set, with back-pointers ``()``."""
        chain = lower_hull(p if isinstance(p, Point2) else Point2(*p) for p in points)
        return cls([p.x for p in chain], [p.y for p in chain], [()] * len(chain))

    @classmethod
    def singleton(cls, x: float, y: float, back: BackPointer = ()) -> "LowerChainValue":
        return cls([x], [y], [back])

    def chain(self) -> ConvexChain:
        return ConvexChain(tuple(Point2(x, y) for x, y in zip(self.xs, self.ys)))

    def __len__(self) -> int:
        return len(self.xs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LowerChainValue):
            return NotImplemented
        return self.xs == other.xs and self.ys == other.ys

    def __hash__(self) -> int:
        return hash((tuple(self.xs), tuple(self.ys)))

    def __repr__(self) -> str:
        return f"LowerChainValue({list(zip(self.xs, self.ys))!r})"

    def __add__(self, other: "LowerChainValue") -> "LowerChainValue":
        """Lower hull of the union, merged by x in one monotone-chain pass.

        At equal x the lower y wins; at an identical point the left
        operand's back-pointer wins, as in ``ConvexHullValue``.
        """
        if not self.xs:
            return other
        if not other.xs:
            return self
        return _lower_merge(self.xs, self.ys, self.back, other.xs, other.ys, other.back)

    def __mul__(self, other: "LowerChainValue") -> "LowerChainValue":
        """Minkowski sum of the chains by the open edge merge.

        ``minkowski_indexed`` without the wrap-around edge; each output
        point extends the left point's back-pointer by the index of the
        right point.  The current points and left back-pointer stay in
        locals; the loop ends with one chain, and the other's rest follows.
        """
        xa, xb = self.xs, other.xs
        if not xa or not xb:
            return LowerChainValue.zero
        ya, ba, yb = self.ys, self.back, other.ys
        px, py, pb, qx, qy = xa[0], ya[0], ba[0], xb[0], yb[0]
        xs = [px + qx]
        ys = [py + qy]
        back = [pb + (0,)]
        na, nb = len(xa) - 1, len(xb) - 1
        i = j = 0
        while i < na and j < nb:
            nx, ny = xa[i + 1], ya[i + 1]
            mx, my = xb[j + 1], yb[j + 1]
            # Edge-angle order; both edges point right (x increases).
            # difference_sign(t1, t2) inline; NaN reads as -1.
            t1 = (nx - px) * (my - qy)
            t2 = (ny - py) * (mx - qx)
            d = t1 - t2
            band = EPS_GEOM * (abs(t1) + abs(t2))
            if d > band:
                i += 1
                px, py, pb = nx, ny, ba[i]
            elif abs(d) <= band:
                i += 1
                j += 1
                px, py, pb = nx, ny, ba[i]
                qx, qy = mx, my
            else:
                j += 1
                qx, qy = mx, my
            xs.append(px + qx)
            ys.append(py + qy)
            back.append(pb + (j,))
        while j < nb:
            j += 1
            xs.append(px + xb[j])
            ys.append(py + yb[j])
            back.append(pb + (j,))
        while i < na:
            i += 1
            xs.append(xa[i] + qx)
            ys.append(ya[i] + qy)
            back.append(ba[i] + (j,))
        return _product(xs, ys, back)


LowerChainValue.zero = LowerChainValue([], [], [])
LowerChainValue.one = LowerChainValue.singleton(0.0, 0.0)
