import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmert.errors import InvalidGeometryError
from hullmert.geometry import ConvexChain, Point2, full_hull, lower_hull
from hullmert.oracle import Tropical, check_axioms, convexify_equivalence
from hullmert.semiring import (
    ConvexHullValue,
    LeafProvenance,
    LowerChainValue,
    ProductProvenance,
)

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
        a = ConvexHullValue.singleton(1, 2, LeafProvenance(3))
        b = ConvexHullValue.singleton(1, 2, LeafProvenance(9))
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
        a = ConvexHullValue.singleton(1, 1, LeafProvenance(1))
        b = ConvexHullValue.singleton(1, 1, LeafProvenance(2))
        assert (a + b).provenance == (LeafProvenance(1),)
        assert (b + a).provenance == (LeafProvenance(2),)
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
        e = ConvexHullValue.singleton(0, 0, LeafProvenance(7))
        a = ConvexHullValue.from_raw_points([(1, 1), (4, 0)])
        got = e * a
        assert got == a
        assert all(isinstance(p, ProductProvenance) for p in got.provenance)
        left = got.provenance[0]
        assert left.left is e and left.left.provenance == (LeafProvenance(7),)

    def test_product_provenance_indices_point_at_summands(self) -> None:
        a = ConvexHullValue.from_raw_points([(0, 0), (2, 0), (1, 2)])
        b = ConvexHullValue.from_raw_points([(0, 0), (1, -1)])
        got = a * b
        for point, rec in zip(got.points, got.provenance):
            assert isinstance(rec, ProductProvenance)
            assert point == rec.left.points[rec.left_index] + rec.right.points[rec.right_index]

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
        assert v.back == [None, None, None]

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
        assert (LowerChainValue.one * a) is a

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
        bad = LowerChainValue([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [None] * 3)
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
