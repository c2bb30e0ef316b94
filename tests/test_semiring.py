import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmert.errors import InvalidGeometryError
from hullmert.geometry import (
    EPS_GEOM,
    ConvexChain,
    Point2,
    difference_sign,
    full_hull,
    lower_hull,
    minkowski_indexed,
)
from hullmert.oracle import Tropical, check_axioms, convexify_equivalence
from hullmert.semiring import (
    ConvexHullValue,
    LowerChainValue,
    _edge_product,
    _lower_merge,
    _strict_lower,
)

from helpers import chain_bits, reference_edge_product, reference_lower_merge, reference_mul

int_pairs = st.tuples(
    st.integers(-30, 30).map(float), st.integers(-30, 30).map(float)
)
raw_values = st.lists(int_pairs, min_size=1, max_size=8).map(
    ConvexHullValue.from_raw_points
)
raw_chains = st.lists(int_pairs, min_size=1, max_size=8).map(
    LowerChainValue.from_raw_points
)


def chain_points(value: LowerChainValue) -> tuple[Point2, ...]:
    return value.chain().points


@st.composite
def chain_pairs(draw) -> tuple[LowerChainValue, LowerChainValue]:
    """Two lower chains with labelled back-pointers, split from one point
    set: small integers (equal x values and identical points across the
    two), floats, and points a few ulps off one line (nearly collinear
    triples, as in the sign-test repros)."""
    coords = st.one_of(
        st.integers(-6, 6).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    points = draw(st.lists(st.tuples(coords, coords), max_size=8))
    step = draw(st.sampled_from([1.0, 1e-3]))
    slope = draw(st.sampled_from([1e6, 1.0, -7.5]))
    for t in draw(st.lists(st.integers(0, 4), max_size=4)):
        nudge = draw(st.sampled_from([0.0, 2e-6, -2e-6, 1e-12]))
        points.append((t * step, t * step * slope + nudge))
    left = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))

    def labelled(tag: str, pts) -> LowerChainValue:
        chain = lower_hull(Point2(*p) for p in pts)
        return LowerChainValue(
            [p.x for p in chain], [p.y for p in chain], [(tag, i) for i in range(len(chain))]
        )

    return (
        labelled("a", [p for p, f in zip(points, left) if f]),
        labelled("b", [p for p, f in zip(points, left) if not f]),
    )


class TestTropical:
    def test_operations(self) -> None:
        assert Tropical(2.0) + Tropical(5.0) == Tropical(5.0)
        assert Tropical(2.0) * Tropical(5.0) == Tropical(7.0)
        assert Tropical(3.0) + Tropical.zero == Tropical(3.0)
        assert Tropical(3.0) * Tropical.one == Tropical(3.0)
        assert (Tropical(3.0) * Tropical.zero).score == float("-inf")

    def test_addition_keeps_left_on_tie(self) -> None:
        a, b = Tropical(1.0), Tropical(1.0)
        assert (a + b) is a


class TestHullValueBasics:
    def test_from_raw_points_canonicalizes(self) -> None:
        v = ConvexHullValue.from_raw_points([(0, 0), (2, 0), (1, 1), (1, 0.5)])
        assert v.hull.as_tuples() == ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0))
        assert v.provenance == (None, None, None)

    def test_equality_ignores_provenance(self) -> None:
        a = ConvexHullValue.singleton(1, 2, (3, ()))
        b = ConvexHullValue.singleton(1, 2, (9, ()))
        assert a == b
        assert hash(a) == hash(b)

    def test_immutable(self) -> None:
        v = ConvexHullValue.singleton(0, 0)
        with pytest.raises(AttributeError):
            v.hull = ConvexChain()

    def test_provenance_arity_checked(self) -> None:
        with pytest.raises(ValueError):
            ConvexHullValue(ConvexChain((Point2(0, 0),)), ())

    def test_zero_and_one(self) -> None:
        assert ConvexHullValue.zero.is_zero()
        assert len(ConvexHullValue.zero) == 0
        assert ConvexHullValue.one.points == (Point2(0, 0),)


class TestAddition:
    def test_hull_of_union(self) -> None:
        a = ConvexHullValue.from_raw_points([(0, 0), (2, 0)])
        b = ConvexHullValue.from_raw_points([(1, 1)])
        got = a + b
        assert got.hull.as_tuples() == ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0))

    def test_interior_operand_is_absorbed(self) -> None:
        a = ConvexHullValue.from_raw_points([(0, 0), (4, 0), (2, 4)])
        b = ConvexHullValue.from_raw_points([(2, 1)])
        assert a + b == a

    def test_zero_is_identity_object(self) -> None:
        a = ConvexHullValue.from_raw_points([(1, 1), (2, 2)])
        assert (a + ConvexHullValue.zero) is a
        assert (ConvexHullValue.zero + a) is a

    def test_coincident_point_keeps_left_record(self) -> None:
        a = ConvexHullValue.singleton(1, 1, (1, ()))
        b = ConvexHullValue.singleton(1, 1, (2, ()))
        assert (a + b).provenance == ((1, ()),)
        assert (b + a).provenance == ((2, ()),)
        assert a + b == b + a

    @given(raw_values, raw_values)
    def test_matches_union_hull_within_size_bound(
        self, a: ConvexHullValue, b: ConvexHullValue
    ) -> None:
        got = a + b
        assert got.hull.points == full_hull(a.points + b.points).points
        assert len(got) <= len(a) + len(b)
        got.hull.check_full_hull()


class TestMultiplication:
    def test_minkowski_of_hulls(self) -> None:
        a = ConvexHullValue.from_raw_points([(0, 0), (1, 0)])
        b = ConvexHullValue.from_raw_points([(0, 0), (0, 1)])
        got = a * b
        assert got.hull.as_tuples() == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_zero_annihilates(self) -> None:
        a = ConvexHullValue.from_raw_points([(1, 1), (2, 2)])
        assert (a * ConvexHullValue.zero) is ConvexHullValue.zero
        assert (ConvexHullValue.zero * a) is ConvexHullValue.zero

    def test_canonical_one_short_circuits(self) -> None:
        a = ConvexHullValue.from_raw_points([(1, 1), (4, 0)])
        assert (a * ConvexHullValue.one) is a
        assert (ConvexHullValue.one * a) is a

    def test_origin_singleton_with_provenance_is_not_shortcut(self) -> None:
        # A zero-feature edge projects to {(0, 0)}; its record must survive.
        e = ConvexHullValue.singleton(0, 0, (7, ()))
        a = ConvexHullValue.from_raw_points([(1, 1), (4, 0)])
        got = e * a
        assert got == a
        # Edge 7 with one opaque child: a's raw points carry no record.
        assert got.provenance == ((7, (None,)),) * len(a)
        assert (a * e).provenance == (None,) * len(a)

    def test_product_provenance_indices_point_at_summands(self) -> None:
        # Distinct leaf records: edges 0-2 on the left, 10-11 on the right.
        a_hull = full_hull(Point2(*p) for p in [(0, 0), (2, 0), (1, 2)])
        b_hull = full_hull(Point2(*p) for p in [(0, 0), (1, -1)])
        a = ConvexHullValue(a_hull, tuple((i, ()) for i in range(len(a_hull))))
        b = ConvexHullValue(b_hull, tuple((10 + j, ()) for j in range(len(b_hull))))
        got = a * b
        assert len(got) == 5
        for point, (i, children) in zip(got.points, got.provenance):
            [(j, grandchildren)] = children
            assert grandchildren == ()
            assert point == a.points[i] + b.points[j - 10]
        # A further factor appends one more child to the same record.
        c = ConvexHullValue.singleton(0, 0, (20, ()))
        assert [rec[1][1] for rec in (got * c).provenance] == [(20, ())] * len(got)

    @given(raw_values, raw_values)
    def test_matches_pairwise_hull_within_size_bound(
        self, a: ConvexHullValue, b: ConvexHullValue
    ) -> None:
        got = a * b
        want = full_hull(p + q for p in a.points for q in b.points)
        assert got.hull.points == want.points
        assert len(got) <= len(a) + len(b)
        got.hull.check_full_hull()


class TestAxioms:
    def test_random_integer_values_satisfy_all_laws(self, rng) -> None:
        values = [
            ConvexHullValue.from_raw_points(
                rng.integers(-20, 21, size=(rng.integers(1, 7), 2)).tolist()
            )
            for _ in range(8)
        ]
        values += [ConvexHullValue.zero, ConvexHullValue.one]
        report = check_axioms(values)
        assert report.ok, report.failures
        assert report.n_triples == len(values) ** 3

    def test_non_canonical_value_is_caught(self) -> None:
        # Built directly to skip canonicalization: the middle point is not
        # extreme, so idempotence and distributivity must both break.
        bad = ConvexHullValue(
            ConvexChain((Point2(0, 0), Point2(1, 0), Point2(2, 0))),
            (None, None, None),
        )
        report = check_axioms([bad])
        assert not report.ok
        assert set(report.failed_laws()) == {
            "plus_idempotent",
            "distributive_left",
            "distributive_right",
        }
        first = report.first_failure
        assert first is not None and first.law == "distributive_left"
        assert first.lhs != first.rhs


class TestLowerChainValue:
    def test_from_raw_points_is_the_lower_hull(self) -> None:
        v = LowerChainValue.from_raw_points([(0, 0), (2, 0), (1, 1), (1, -1), (2, 3)])
        assert (v.xs, v.ys) == ([0.0, 1.0, 2.0], [0.0, -1.0, 0.0])
        assert v.back == [(), (), ()]

    def test_sum_merges_by_x_and_keeps_the_lower_point(self) -> None:
        a = LowerChainValue.from_raw_points([(0, 0), (2, 0)])
        b = LowerChainValue.from_raw_points([(1, -1), (2, -3)])
        got = a + b
        assert (got.xs, got.ys) == ([0.0, 2.0], [0.0, -3.0])

    def test_coincident_point_keeps_left_back_pointer(self) -> None:
        a = LowerChainValue.singleton(1.0, 1.0, (1,))
        b = LowerChainValue.singleton(1.0, 1.0, (2,))
        assert (a + b).back == [(1,)]
        assert (b + a).back == [(2,)]
        assert a + b == b + a

    def test_zero_is_identity_object(self) -> None:
        a = LowerChainValue.from_raw_points([(1, 1), (2, 2)])
        assert (a + LowerChainValue.zero) is a
        assert (LowerChainValue.zero + a) is a
        assert (a * LowerChainValue.zero) is LowerChainValue.zero
        # one is an ordinary one-point value: an identity by value only.
        assert LowerChainValue.one * a == a == a * LowerChainValue.one

    def test_product_appends_the_right_index(self) -> None:
        edge = LowerChainValue.singleton(1.0, 2.0, (7,))
        tail = LowerChainValue.from_raw_points([(0, 0), (1, -1), (3, 0)])
        got = edge * tail
        assert (got.xs, got.ys) == ([1.0, 2.0, 4.0], [2.0, 1.0, 2.0])
        assert got.back == [(7, 0), (7, 1), (7, 2)]
        two = LowerChainValue([0.0, 1.0], [0.0, 0.0], [(3, 0), (3, 1)])
        assert (two * tail).back == [(3, 0, 0), (3, 0, 1), (3, 1, 1), (3, 1, 2)]

    @given(raw_chains, raw_chains)
    def test_sum_is_the_lower_hull_of_the_union(self, a, b) -> None:
        got = a + b
        assert chain_points(got) == lower_hull(chain_points(a) + chain_points(b)).points
        assert len(got) <= len(a) + len(b)
        got.chain().check_lower()

    @given(chain_pairs())
    @settings(max_examples=300)
    def test_sum_equals_merge_then_strict_lower(self, pair) -> None:
        # The predecessor of the one-loop sum: a stable merge by (x, y),
        # ties to the left operand, then one monotone-chain pass.
        for a, b in (pair, pair[::-1]):
            got = a + b
            merged = sorted(
                zip(a.xs + b.xs, a.ys + b.ys, a.back + b.back), key=lambda p: (p[0], p[1])
            )
            want = _strict_lower(*(list(c) for c in zip(*merged))) if merged else a
            assert [x.hex() for x in got.xs] == [x.hex() for x in want.xs]
            assert [y.hex() for y in got.ys] == [y.hex() for y in want.ys]
            assert got.back == want.back
            assert chain_points(got) == lower_hull(chain_points(a) + chain_points(b)).points

    @given(chain_pairs())
    @settings(max_examples=300)
    def test_sum_and_product_sizes_are_bounded(self, pair) -> None:
        # The paper's size facts: |a + b| <= |a| + |b|, and for non-empty
        # operands |a * b| <= |a| + |b| - 1.
        for a, b in (pair, pair[::-1]):
            assert len(a + b) <= len(a) + len(b)
            if len(a) and len(b):
                assert len(a * b) <= len(a) + len(b) - 1

    @given(raw_values, raw_values)
    def test_operations_keep_the_lower_face_of_hull_operations(self, a, b) -> None:
        # Reference: the hull semiring, lowered afterwards.
        la = LowerChainValue.from_raw_points(a.points)
        lb = LowerChainValue.from_raw_points(b.points)
        assert chain_points(la + lb) == lower_hull((a + b).points).points
        assert chain_points(la * lb) == lower_hull((a * b).points).points
        (la * lb).chain().check_lower()

    def test_random_integer_values_satisfy_all_laws(self, rng) -> None:
        values = [
            LowerChainValue.from_raw_points(
                rng.integers(-20, 21, size=(rng.integers(1, 7), 2)).tolist()
            )
            for _ in range(8)
        ]
        values += [LowerChainValue.zero, LowerChainValue.one]
        report = check_axioms(values)
        assert report.ok, report.failures
        assert report.n_triples == len(values) ** 3

    def test_non_canonical_value_is_caught(self) -> None:
        # The identity elements come from the values' own type, so the
        # collinear middle point is seen by LowerChainValue's operations.
        bad = LowerChainValue([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [()] * 3)
        report = check_axioms([bad])
        assert "plus_idempotent" in report.failed_laws()

    def test_overflowing_product_raises(self) -> None:
        big = LowerChainValue.from_raw_points([(0, 1e308), (1, 1.5e308)])
        with pytest.raises(InvalidGeometryError):
            big * big
        wide = LowerChainValue.singleton(1.5e308, 0.0, (0,))
        with pytest.raises(InvalidGeometryError):
            wide * wide

    def test_product_rounding_x_together_stays_strict(self) -> None:
        # Adding 1e20 rounds the tail's x values 0 and 1 onto one float.
        edge = LowerChainValue.singleton(1e20, 0.0, (0,))
        tail = LowerChainValue([0.0, 1.0], [0.0, -1.0], [(1,), (2,)])
        got = edge * tail
        assert (got.xs, got.ys, got.back) == ([1e20], [-1.0], [(0, 1)])


# t1 - t2 equals EPS_GEOM * (|t1| + |t2|) exactly: a difference on the edge
# of difference_sign's zero band.  Both are exact in every operation below.
EDGE_T1 = float.fromhex("0x1.ff973cb83d43fp-2")
EDGE_T2 = float.fromhex("0x1.ff973ca712bbfp-2")


def band_edge_cases():
    """(t1, t2, difference_sign(t1, t2)) on the band edge, one ulp inside
    it and one ulp outside it, on the positive and the negative side."""
    up, down = math.nextafter(EDGE_T1, 1.0), math.nextafter(EDGE_T1, 0.0)
    return [
        (EDGE_T1, EDGE_T2, 0), (up, EDGE_T2, 1), (down, EDGE_T2, 0),
        (EDGE_T2, EDGE_T1, 0), (EDGE_T2, up, -1), (EDGE_T2, down, 0),
    ]


class TestInlineSignTest:
    """The hot loops inline difference_sign; the reference calls it."""

    def test_cases_sit_on_the_band_edge(self) -> None:
        assert EDGE_T1 - EDGE_T2 == EPS_GEOM * (abs(EDGE_T1) + abs(EDGE_T2))
        for t1, t2, sign in band_edge_cases():
            assert difference_sign(t1, t2) == sign

    @pytest.mark.parametrize("t1, t2, sign", band_edge_cases())
    def test_strict_lower_matches_lower_hull(self, t1, t2, sign) -> None:
        # Vertex (1, t2 / 2) between (0, 0) and (2, t1): its turn is
        # difference_sign((1 - 0) * (t1 - 0), (t2 / 2 - 0) * (2 - 0)).
        points = [Point2(0.0, 0.0), Point2(1.0, t2 / 2), Point2(2.0, t1)]
        got = _strict_lower([p.x for p in points], [p.y for p in points], [0, 1, 2])
        want = lower_hull(points).points
        assert chain_points(got) == want
        assert got.back == [points.index(p) for p in want]
        assert len(want) == (3 if sign > 0 else 2)

    @pytest.mark.parametrize("t1, t2, sign", band_edge_cases())
    def test_product_matches_minkowski_indexed(self, t1, t2, sign) -> None:
        # Edge angles (1, t2) and (1, t1): the merge compares 1 * t1 with t2 * 1.
        # _edge_product merges alike: translating a by (0, 0) is exact, and
        # edge 0's back-pointers (0, i, j) are a.back[i] + (j,).
        a = LowerChainValue([0.0, 1.0], [0.0, t2], [(0, 0), (0, 1)])
        b = LowerChainValue([0.0, 1.0], [0.0, t1], [(), ()])
        pts, pairs = minkowski_indexed(a.chain(), b.chain())
        # The closed merge ends its open part at the two last vertices.
        end = pairs.index((1, 1)) + 1
        for got in (a * b, _edge_product(0.0, 0.0, 0, a, b)):
            assert chain_points(got) == pts[:end]
            assert got.back == [a.back[i] + (j,) for i, j in pairs[:end]]
        assert pairs[1] == {1: (1, 0), 0: (1, 1), -1: (0, 1)}[sign]

    def test_overflowing_edge_angle_advances_the_right_chain(self) -> None:
        # The left edge's x step overflows to inf, and inf * 0 = NaN: a NaN
        # sign reads as -1, so the merge steps the right chain only.
        a = LowerChainValue([-1e308, 1e308], [0.0, 5.0], [(0, 0), (0, 1)])
        b = LowerChainValue([0.0, 1.0, 2.0], [0.0, 0.0, 1.0], [()] * 3)
        got = a * b
        assert got.xs == [-1e308, 1e308]
        assert got.ys == [0.0, 6.0]
        assert got.back == [(0, 0, 0), (0, 1, 2)]


class TestConvexifyEquivalence:
    def test_known_pair(self) -> None:
        assert convexify_equivalence(
            [(0, 0), (2, 0), (1, 1), (1, 0.25)], [(0, 0), (1, -1), (0.5, -0.25)]
        )

    @given(
        st.lists(int_pairs, min_size=1, max_size=10),
        st.lists(int_pairs, min_size=1, max_size=10),
    )
    @settings(max_examples=80)
    def test_holds_on_random_integer_sets(self, a, b) -> None:
        assert convexify_equivalence(a, b)


def outcome(fn, *args) -> tuple:
    """A value's bits and back-pointers, or the error it raised."""
    try:
        return ("value", chain_bits(fn(*args)))
    except Exception as exc:  # compared, never swallowed
        return ("error", type(exc), str(exc))


# Band-edge triples as in ``band_edge_cases``: the middle vertex of each
# sits on, just inside or just outside the sign test's band.
BAND_TRIPLES = [
    [(0.0, 0.0), (1.0, t2 / 2), (2.0, t1)] for t1, t2, _ in band_edge_cases()
]


@st.composite
def point_lists(draw, huge: bool = False) -> list[tuple[float, float]]:
    """Points for the hot loops: small integers (equal x and identical
    points), floats, nearly collinear runs, band-edge triples, and a
    convex run that one low point drains to a single vertex followed by
    a lower point at the same x.  ``huge`` adds coordinates of 1e308,
    whose differences overflow, so an edge angle is inf * 0 = NaN."""
    choices = [
        st.integers(-6, 6).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    ]
    if huge:
        choices.append(st.sampled_from([-1e308, 1e308]))
    coords = st.one_of(*choices)
    points = draw(st.lists(st.tuples(coords, coords), max_size=7))
    step = draw(st.sampled_from([1.0, 1e-3]))
    slope = draw(st.sampled_from([1e6, 1.0, -7.5]))
    for t in draw(st.lists(st.integers(0, 4), max_size=3)):
        nudge = draw(st.sampled_from([0.0, 2e-6, -2e-6, 1e-12]))
        points.append((t * step, t * step * slope + nudge))
    if draw(st.booleans()):
        points += draw(st.sampled_from(BAND_TRIPLES))
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))
        points += [(float(t), float(t * t)) for t in range(k)]
        points += [(float(k), -100.0), (float(k), -101.0)]
    return points


def sorted_operand(draw, points, tag: str) -> tuple[list, list, list]:
    """The points sorted by x alone (equal x keep their drawn order), with
    labelled or empty back-pointers."""
    points = sorted(points, key=lambda p: p[0])
    raw = draw(st.booleans())
    back = [() if raw else (tag, i) for i in range(len(points))]
    return [p[0] for p in points], [p[1] for p in points], back


@st.composite
def merge_operands(draw):
    """Two x-sorted operands of ``_lower_merge`` split from one point set,
    with some of a's points repeated in b."""
    points = draw(point_lists())
    left = draw(st.lists(st.booleans(), min_size=len(points), max_size=len(points)))
    a = [p for p, f in zip(points, left) if f]
    b = [p for p, f in zip(points, left) if not f]
    b += draw(st.lists(st.sampled_from(a), max_size=3)) if a else []
    return sorted_operand(draw, a, "a"), sorted_operand(draw, b, "b")


@st.composite
def product_operand(draw) -> LowerChainValue:
    """A lower chain, an x-sorted point list that is not one, a single
    point, or the identity ``one``."""
    kind = draw(st.sampled_from(["chain", "raw", "point", "one"]))
    if kind == "one":
        return LowerChainValue.one
    points = draw(point_lists(huge=True))
    if kind == "point" or not points:
        points = points[:1] or [(0.0, 0.0)]
    if kind == "chain":
        chain = lower_hull(Point2(*p) for p in points)
        points = [(p.x, p.y) for p in chain]
    xs, ys, back = sorted_operand(draw, points, "p")
    return LowerChainValue(xs, ys, back)


class TestHotLoopsMatchTheirReferences:
    """``_lower_merge`` and ``LowerChainValue.__mul__`` keep their state in
    locals; the frozen references in ``helpers`` read it from the lists.
    Every point, back-pointer and error must be the same."""

    @given(merge_operands())
    @settings(max_examples=200, deadline=None)
    def test_union_matches_the_reference(self, operands) -> None:
        a, b = operands
        assert outcome(_lower_merge, *a, *b) == outcome(reference_lower_merge, *a, *b)
        assert outcome(_strict_lower, *a) == outcome(reference_lower_merge, *a, (), (), ())

    @given(product_operand(), product_operand())
    @settings(max_examples=200, deadline=None)
    def test_product_matches_the_reference(self, a, b) -> None:
        assert outcome(LowerChainValue.__mul__, a, b) == outcome(reference_mul, a, b)

    def test_drained_stack_reloads_its_second_point(self) -> None:
        # (2, -1.5) pops, and (1, -1) must then be tested against (0, 0),
        # which keeps it; a stale second point would pop it too.
        xs, ys = [0.0, 1.0, 2.0, 3.0], [0.0, -1.0, -1.5, -2.5]
        got = _strict_lower(xs, ys, [0, 1, 2, 3])
        assert (got.xs, got.ys, got.back) == ([0.0, 1.0, 3.0], [0.0, -1.0, -2.5], [0, 1, 3])
        assert chain_bits(got) == chain_bits(reference_lower_merge(xs, ys, [0, 1, 2, 3], (), (), ()))


# Translations of an edge point: exact ties with small-integer chains,
# floats, 1e17 (spacing 16, which rounds small x values together) and
# 1e308 (translates and sums overflow).
TRANSLATIONS = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e17, -1e17, 1e308, -1e308]),
)


class TestEdgeProductMatchesTranslateThenMultiply:
    """``_edge_product`` reads a's points translated by the edge's point;
    the reference builds the translate through ``_product`` and multiplies
    it by b.  Every point, back-pointer and error must be the same."""

    @given(TRANSLATIONS, TRANSLATIONS, product_operand(), product_operand())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_back_pointers_and_errors(self, x, y, a, b) -> None:
        want = outcome(reference_edge_product, x, y, 7, a, b)
        assert outcome(_edge_product, x, y, 7, a, b) == want

    @pytest.mark.parametrize(
        "x, y, a, b, fallback",
        [
            (1.0, 0.0, [(0.0, 0.0), (1.0, -1.0), (3.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], False),
            (1e17, 0.0, [(0.0, 0.0), (1.0, -1.0), (3.0, 0.0)], [(0.0, 0.0), (1.0, 0.0)], True),
            (1e17, 0.0, [(0.0, 0.0), (1.0, -1.0), (3.0, 0.0)], [(0.0, 0.0)], True),
            (1e308, 0.0, [(0.0, 0.0), (1e308, -1.0)], [(0.0, 0.0), (1.0, 0.0)], False),
            (0.0, 1e308, [(0.0, 0.0), (1.0, 1e308)], [(0.0, 0.0), (1.0, 0.0)], False),
            (1e308, 0.0, [(0.0, 0.0)], [(0.0, 0.0), (1e308, 0.0)], False),
        ],
        ids=[
            "distinct-translate", "rounded-together", "rounded-together-one-point-b",
            "translate-overflows", "translate-y-overflows", "sum-overflows",
        ],
    )
    def test_fallback_is_taken_only_where_it_must_be(
        self, monkeypatch, x, y, a, b, fallback
    ) -> None:
        # The merge itself multiplies nothing; the fallback builds the
        # translate by ``__mul__``.
        calls = []
        mul = LowerChainValue.__mul__
        monkeypatch.setattr(
            LowerChainValue, "__mul__", lambda *args: calls.append(args) or mul(*args)
        )
        a = LowerChainValue([p[0] for p in a], [p[1] for p in a], [()] * len(a))
        b = LowerChainValue([p[0] for p in b], [p[1] for p in b], [()] * len(b))
        want = outcome(reference_edge_product, x, y, 3, a, b)
        assert outcome(_edge_product, x, y, 3, a, b) == want
        assert bool(calls) == fallback
