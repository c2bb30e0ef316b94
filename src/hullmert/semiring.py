"""The convex hull semiring and a tropical reference semiring.

A convex hull semiring value is a set of extreme points in the dual
(slope, negated intercept) plane.  Addition is the hull of the union;
multiplication is the hull of the Minkowski sum; zero is the empty set and
one is {(0, 0)}.  Both operations keep the value size at most the sum of
the operand sizes, which is what makes inside computations over packed
forests tractable.

Every point carries a provenance record so the hypothesis it stands for can
be reconstructed after an inside computation:

* ``LeafProvenance(edge_id)`` - the point is the projection of one edge.
* ``ProductProvenance(left, i, right, j)`` - the point is the sum of point
  i of the left operand and point j of the right operand.
* ``None`` - opaque (identity element, or values built from raw points for
  algebra testing); such points cannot be traced back to a derivation.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .geometry import ConvexChain, Point2, full_hull, minkowski_indexed


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


@dataclass(frozen=True)
class AxiomFailure:
    law: str
    indices: tuple[int, ...]
    lhs: ConvexHullValue
    rhs: ConvexHullValue


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


def check_axioms(values: Sequence[ConvexHullValue]) -> AxiomReport:
    """Empirically verify the semiring laws on a sample of values.

    Checks, in deterministic input-index order: additive/multiplicative
    identity, annihilator, idempotent addition, commutativity of both
    operations, associativity of both operations, and both distributivity
    laws over every (i, j, k) triple.  The report carries the first
    counterexample found for each violated law.

    Intended for integer-coordinate values, where every hull decision is
    exact and equality is meaningful bit for bit.
    """
    failures: dict[str, AxiomFailure] = {}

    def record(law: str, indices: tuple[int, ...], lhs, rhs):
        if lhs != rhs and law not in failures:
            failures[law] = AxiomFailure(law, indices, lhs, rhs)

    # Fresh identity elements so the shortcut for the canonical `one`
    # object is bypassed and the real code paths get exercised.
    zero = ConvexHullValue(ConvexChain(), ())
    one = ConvexHullValue.singleton(0.0, 0.0)

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
