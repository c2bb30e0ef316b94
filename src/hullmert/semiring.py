"""The convex hull semiring, its lower face, and a tropical reference.

A convex hull semiring value is a set of extreme points in the dual
(slope, negated intercept) plane.  Addition is the hull of the union;
multiplication is the hull of the Minkowski sum; zero is the empty set and
one is {(0, 0)}.  Both operations keep the value size at most the sum of
the operand sizes, which is what makes inside computations over packed
forests tractable.

``ConvexHullValue`` is the paper's semiring and the reference that tests
compare against.  Every point carries a provenance record so the
hypothesis it stands for can be reconstructed after an inside computation:

* ``LeafProvenance(edge_id)`` - the point is the projection of one edge.
* ``ProductProvenance(left, i, right, j)`` - the point is the sum of point
  i of the left operand and point j of the right operand.
* ``None`` - opaque (identity element, or values built from raw points for
  algebra testing); such points cannot be traced back to a derivation.

Only the lower face of the goal hull reaches an envelope, and the lower
face of a sum or product depends only on the operands' lower faces.
``LowerChainValue`` keeps just that face: the envelope semiring of
Macherey et al. (2008) and Kumar et al. (2009).  The line-search hot path
runs on it, with flat per-point back-pointers instead of provenance
records.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InvalidGeometryError
from .geometry import (
    ConvexChain,
    Point2,
    difference_sign,
    full_hull,
    lower_hull,
    minkowski_indexed,
)


class Semiring:
    """Minimal contract: ``__add__``, ``__mul__`` and class values ``zero``
    and ``one`` satisfying the usual laws (checked empirically by
    ``check_axioms``, not by construction)."""

    zero: "Semiring"
    one: "Semiring"


@dataclass(frozen=True, slots=True)
class Tropical(Semiring):
    """Max-plus reals: + is max, * is +, zero is -inf, one is 0."""

    score: float

    def __add__(self, other: "Tropical") -> "Tropical":
        return self if self.score >= other.score else other

    def __mul__(self, other: "Tropical") -> "Tropical":
        return Tropical(self.score + other.score)


Tropical.zero = Tropical(float("-inf"))
Tropical.one = Tropical(0.0)


@dataclass(frozen=True, slots=True)
class LeafProvenance:
    edge_id: int


@dataclass(frozen=True, slots=True)
class ProductProvenance:
    left: "ConvexHullValue"
    left_index: int
    right: "ConvexHullValue"
    right_index: int


Provenance = LeafProvenance | ProductProvenance | None


class ConvexHullValue(Semiring):
    """A convex hull semiring value: canonical full hull plus per-point
    provenance.  Equality and hashing look at the point set only."""

    __slots__ = ("hull", "provenance")

    def __init__(self, hull: ConvexChain, provenance: tuple[Provenance, ...]):
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
    def singleton(cls, x: float, y: float, provenance: Provenance = None) -> "ConvexHullValue":
        return cls(ConvexChain((Point2(x, y),)), (provenance,))

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
        chosen: dict[Point2, Provenance] = {}
        for value in (self, other):
            for p, prov in zip(value.hull.points, value.provenance):
                chosen.setdefault(p, prov)
        hull = full_hull(chosen.keys())
        assert len(hull) <= len(self) + len(other), "hull sum size bound violated"
        return ConvexHullValue(hull, tuple(chosen[p] for p in hull.points))

    def __mul__(self, other: "ConvexHullValue") -> "ConvexHullValue":
        """Hull of the Minkowski sum; the empty set annihilates.

        The identity shortcut tests object identity, not value equality: a
        zero-feature edge projects to {(0, 0)} too, and its provenance must
        survive multiplication.
        """
        if self.is_zero() or other.is_zero():
            return ConvexHullValue.zero
        if self is ConvexHullValue.one:
            return other
        if other is ConvexHullValue.one:
            return self
        pts, pairs = minkowski_indexed(self.hull, other.hull)
        assert len(pts) <= len(self) + len(other), "minkowski size bound violated"
        prov = tuple(ProductProvenance(self, i, other, j) for i, j in pairs)
        return ConvexHullValue(ConvexChain(pts), prov)


ConvexHullValue.zero = ConvexHullValue(ConvexChain(), ())
ConvexHullValue.one = ConvexHullValue.singleton(0.0, 0.0)


_INF = float("inf")

# (edge_id, j_1, ..., j_k): the edge, then the point index chosen in each
# tail node's value; None for an opaque point.
BackPointer = tuple[int, ...] | None


def _strict_lower(xs: list[float], ys: list[float], back: list) -> "LowerChainValue":
    """Monotone-chain pass over points sorted by non-decreasing x.

    At equal x only the first lowest point is kept; then every vertex that
    does not turn strictly left (``orientation``'s band) is dropped.
    """
    cx: list[float] = []
    cy: list[float] = []
    cb: list = []
    n = 0
    for x, y, b in zip(xs, ys, back):
        if n and cx[-1] == x:
            if not y < cy[-1]:
                continue
            cx.pop()
            cy.pop()
            cb.pop()
            n -= 1
        while n >= 2:
            ox, oy, ax, ay = cx[-2], cy[-2], cx[-1], cy[-1]
            if difference_sign((ax - ox) * (y - oy), (ay - oy) * (x - ox)) > 0:
                break
            cx.pop()
            cy.pop()
            cb.pop()
            n -= 1
        cx.append(x)
        cy.append(y)
        cb.append(b)
        n += 1
    return LowerChainValue(cx, cy, cb)


class LowerChainValue(Semiring):
    """The lower face of a hull value: a strict lower chain with back-pointers.

    ``xs`` and ``ys`` list the chain's points by strictly increasing x.
    ``back[i]`` is ``(edge_id, j_1, ..., j_k)`` for a point built by an
    inside pass, where ``j_t`` indexes the point taken from tail t's value
    (the tail nodes themselves come from the edge), or None for an opaque
    point.  Equality and hashing look at the points only.  The lists are
    never mutated after construction.
    """

    __slots__ = ("xs", "ys", "back")

    def __init__(self, xs: list[float], ys: list[float], back: list[BackPointer]):
        self.xs = xs
        self.ys = ys
        self.back = back

    @classmethod
    def from_raw_points(cls, points: Iterable[tuple[float, float] | Point2]) -> "LowerChainValue":
        """The lower hull of an arbitrary point set (opaque back-pointers)."""
        chain = lower_hull(p if isinstance(p, Point2) else Point2(*p) for p in points)
        return cls([p.x for p in chain], [p.y for p in chain], [None] * len(chain))

    @classmethod
    def singleton(cls, x: float, y: float, back: BackPointer = None) -> "LowerChainValue":
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
        """Lower hull of the union: merge by x, then one monotone-chain pass.

        At equal x the lower y wins; at an identical point the left
        operand's back-pointer wins, as in ``ConvexHullValue``.
        """
        xa, xb = self.xs, other.xs
        if not xa:
            return other
        if not xb:
            return self
        ya, ba, yb, bb = self.ys, self.back, other.ys, other.back
        na, nb = len(xa), len(xb)
        mx: list[float] = []
        my: list[float] = []
        mb: list = []
        i = j = 0
        while i < na and j < nb:
            if xb[j] < xa[i] or (xb[j] == xa[i] and yb[j] < ya[i]):
                mx.append(xb[j])
                my.append(yb[j])
                mb.append(bb[j])
                j += 1
            else:
                mx.append(xa[i])
                my.append(ya[i])
                mb.append(ba[i])
                i += 1
        mx += xa[i:] + xb[j:]
        my += ya[i:] + yb[j:]
        mb += ba[i:] + bb[j:]
        return _strict_lower(mx, my, mb)

    def __mul__(self, other: "LowerChainValue") -> "LowerChainValue":
        """Minkowski sum of the chains by the open edge merge.

        Matches ``minkowski_indexed(closed=False)`` point for point; each
        output point extends the left point's back-pointer by the index of
        the right point.  Object identity with ``one`` short-circuits, as
        in ``ConvexHullValue``.
        """
        xa, xb = self.xs, other.xs
        if not xa or not xb:
            return LowerChainValue.zero
        if self is LowerChainValue.one:
            return other
        if other is LowerChainValue.one:
            return self
        ya, ba, yb = self.ys, self.back, other.ys
        if len(xa) == 1:
            x0, y0, b0 = xa[0], ya[0], ba[0]
            xs = [x0 + x for x in xb]
            ys = [y0 + y for y in yb]
            back = [None] * len(xs) if b0 is None else [b0 + (j,) for j in range(len(xs))]
        else:
            xs = [xa[0] + xb[0]]
            ys = [ya[0] + yb[0]]
            back = [None if ba[0] is None else ba[0] + (0,)]
            na, nb = len(xa) - 1, len(xb) - 1
            i = j = 0
            while i < na or j < nb:
                if i == na:
                    j += 1
                elif j == nb:
                    i += 1
                else:
                    # Edge-angle order; both edges point right (x increases).
                    c = difference_sign(
                        (xa[i + 1] - xa[i]) * (yb[j + 1] - yb[j]),
                        (ya[i + 1] - ya[i]) * (xb[j + 1] - xb[j]),
                    )
                    if c >= 0:
                        i += 1
                    if c <= 0:
                        j += 1
                xs.append(xa[i] + xb[j])
                ys.append(ya[i] + yb[j])
                back.append(None if ba[i] is None else ba[i] + (j,))
        if not (-_INF < xs[0] and xs[-1] < _INF and -_INF < min(ys) and max(ys) < _INF):
            raise InvalidGeometryError("non-finite point in a product of lower chains")
        if len(set(xs)) < len(xs):
            # Sums far beyond the x spacing rounded two x values together.
            return _strict_lower(xs, ys, back)
        return LowerChainValue(xs, ys, back)


LowerChainValue.zero = LowerChainValue([], [], [])
LowerChainValue.one = LowerChainValue.singleton(0.0, 0.0)


@dataclass(frozen=True)
class AxiomFailure:
    law: str
    indices: tuple[int, ...]
    lhs: Semiring
    rhs: Semiring


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    n_values: int
    n_triples: int
    failures: tuple[AxiomFailure, ...]

    @property
    def first_failure(self) -> AxiomFailure | None:
        return self.failures[0] if self.failures else None

    def failed_laws(self) -> tuple[str, ...]:
        return tuple(f.law for f in self.failures)


def check_axioms(values: Sequence[ConvexHullValue | LowerChainValue]) -> AxiomReport:
    """Empirically verify the semiring laws on a sample of values.

    Checks, in deterministic input-index order: additive/multiplicative
    identity, annihilator, idempotent addition, commutativity of both
    operations, associativity of both operations, and both distributivity
    laws over every (i, j, k) triple.  The report carries the first
    counterexample found for each violated law.

    Intended for integer-coordinate values, where every hull decision is
    exact and equality is meaningful bit for bit.  The values share one
    type, which supplies the identity elements.
    """
    failures: dict[str, AxiomFailure] = {}

    def record(law: str, indices: tuple[int, ...], lhs, rhs):
        if lhs != rhs and law not in failures:
            failures[law] = AxiomFailure(law, indices, lhs, rhs)

    # Fresh identity elements so the shortcut for the canonical `one`
    # object is bypassed and the real code paths get exercised.
    kind = type(values[0]) if values else ConvexHullValue
    zero = kind.from_raw_points(())
    one = kind.from_raw_points([(0.0, 0.0)])

    for i, a in enumerate(values):
        record("plus_identity", (i,), a + zero, a)
        record("plus_identity", (i,), zero + a, a)
        record("times_identity", (i,), a * one, a)
        record("times_identity", (i,), one * a, a)
        record("annihilator", (i,), zero * a, zero)
        record("annihilator", (i,), a * zero, zero)
        record("plus_idempotent", (i,), a + a, a)

    for i, j in combinations(range(len(values)), 2):
        a, b = values[i], values[j]
        record("plus_commutative", (i, j), a + b, b + a)
        record("times_commutative", (i, j), a * b, b * a)

    n_triples = 0
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            for k, c in enumerate(values):
                n_triples += 1
                record("plus_associative", (i, j, k), (a + b) + c, a + (b + c))
                record("times_associative", (i, j, k), (a * b) * c, a * (b * c))
                record("distributive_left", (i, j, k), a * (b + c), (a * b) + (a * c))
                record("distributive_right", (i, j, k), (b + c) * a, (b * a) + (c * a))

    ordered = tuple(failures[law] for law in sorted(failures))
    return AxiomReport(not ordered, len(values), n_triples, ordered)


def convexify_equivalence(
    a: Iterable[tuple[float, float] | Point2], b: Iterable[tuple[float, float] | Point2]
) -> bool:
    """Whether hulling before or after a Minkowski sum gives the same hull.

    Both sides are evaluated by brute force over all pairwise sums (the
    second hulls each operand first); multiplication of hull values is
    well defined exactly because this always holds.
    """
    pa = [p if isinstance(p, Point2) else Point2(*p) for p in a]
    pb = [p if isinstance(p, Point2) else Point2(*p) for p in b]
    direct = full_hull([p + q for p in pa for q in pb])
    hulled = full_hull([p + q for p in full_hull(pa) for q in full_hull(pb)])
    return direct.points == hulled.points
