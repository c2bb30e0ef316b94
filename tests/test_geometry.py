import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull as QhullHull

from hullmert.errors import InvalidGeometryError, NoHypothesesError
from hullmert.geometry import (
    ConvexChain,
    Point2,
    cross,
    envelope_boundaries,
    full_hull,
    lower_chain,
    lower_hull,
    minkowski_indexed,
    orientation,
)
from hullmert.semiring import LowerChainValue

int_points = st.builds(
    Point2, st.integers(-50, 50).map(float), st.integers(-50, 50).map(float)
)
point_lists = st.lists(int_points, min_size=1, max_size=14)


def chain_of(*pairs: tuple[float, float]) -> ConvexChain:
    return ConvexChain(tuple(Point2(x, y) for x, y in pairs))


class TestPoint2:
    def test_negative_zero_is_canonicalized(self) -> None:
        p = Point2(-0.0, -0.0)
        assert math.copysign(1.0, p.x) == 1.0
        assert math.copysign(1.0, p.y) == 1.0
        assert p == Point2(0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coordinates_rejected(self, bad: float) -> None:
        with pytest.raises(InvalidGeometryError):
            Point2(bad, 0.0)
        with pytest.raises(InvalidGeometryError):
            Point2(0.0, bad)

    def test_lexicographic_order_and_arithmetic(self) -> None:
        assert Point2(0, 1) < Point2(1, 0) < Point2(1, 2)
        assert Point2(1, 2) + Point2(3, -1) == Point2(4, 1)
        assert Point2(1, 2) - Point2(3, -1) == Point2(-2, 3)


class TestOrientation:
    def test_signs(self) -> None:
        o, a = Point2(0, 0), Point2(1, 0)
        assert orientation(o, a, Point2(1, 1)) == 1
        assert orientation(o, a, Point2(1, -1)) == -1
        assert orientation(o, a, Point2(2, 0)) == 0

    def test_integer_inputs_are_exact(self) -> None:
        o = Point2(0, 0)
        a = Point2(1e8, 1)
        assert orientation(o, a, Point2(2e8, 2)) == 0
        assert orientation(o, a, Point2(2e8, 3)) == 1
        assert orientation(o, a, Point2(2e8, 1)) == -1

    def test_tolerance_is_relative(self) -> None:
        # A perturbation far below the product magnitudes collapses to zero.
        o = Point2(0, 0)
        a = Point2(1e9, 1e9)
        assert orientation(o, a, Point2(2e9, 2e9 + 1e-3)) == 0

    @given(int_points, int_points, int_points)
    def test_antisymmetry(self, o: Point2, a: Point2, b: Point2) -> None:
        assert orientation(o, a, b) == -orientation(o, b, a)
        assert orientation(o, a, b) == (
            0 if cross(o, a, b) == 0 else (1 if cross(o, a, b) > 0 else -1)
        )


class TestLowerHull:
    def test_drops_points_above_the_chain(self) -> None:
        got = lower_hull([Point2(0, 0), Point2(1, 1), Point2(2, 0)])
        assert got.as_tuples() == ((0.0, 0.0), (2.0, 0.0))

    def test_equal_x_keeps_minimum_y(self) -> None:
        got = lower_hull([Point2(0, 3), Point2(0, -1), Point2(2, 0)])
        assert got.as_tuples() == ((0.0, -1.0), (2.0, 0.0))

    def test_collinear_interior_point_removed(self) -> None:
        got = lower_hull([Point2(0, 0), Point2(1, 1), Point2(2, 2)])
        assert got.as_tuples() == ((0.0, 0.0), (2.0, 2.0))

    def test_empty_and_singleton(self) -> None:
        assert lower_hull([]).points == ()
        assert lower_hull([Point2(5, 7)]).as_tuples() == ((5.0, 7.0),)

    @given(point_lists)
    def test_invariants_and_membership(self, pts: list[Point2]) -> None:
        got = lower_hull(pts)
        got.check_lower()
        assert set(got.points) <= set(pts)
        # Every input point lies on or above the chain.
        for p in pts:
            assert chain_min_at(got, p.x) <= p.y + 1e-12

    @given(point_lists)
    def test_matches_lower_chain_of_full_hull(self, pts: list[Point2]) -> None:
        assert lower_chain(full_hull(pts)).points == lower_hull(pts).points


def chain_min_at(chain: ConvexChain, x: float) -> float:
    """Value of the piecewise-linear lower chain at x (inf outside its span)."""
    pts = chain.points
    if x < pts[0].x or x > pts[-1].x:
        return -math.inf  # outside the span nothing constrains the point
    for p, q in zip(pts, pts[1:]):
        if p.x <= x <= q.x:
            t = (x - p.x) / (q.x - p.x)
            return p.y + t * (q.y - p.y)
    return pts[-1].y if x == pts[-1].x else -math.inf


class TestFullHull:
    def test_strict_hull_drops_interior_and_collinear(self) -> None:
        got = full_hull(
            [Point2(0, 0), Point2(2, 0), Point2(1, 1), Point2(1, 0.5)]
        )
        assert got.as_tuples() == ((0.0, 0.0), (2.0, 0.0), (1.0, 1.0))

    def test_duplicates_collapse(self) -> None:
        got = full_hull([Point2(1, 1), Point2(1, 1)])
        assert got.as_tuples() == ((1.0, 1.0),)

    def test_collinear_input_yields_segment(self) -> None:
        got = full_hull([Point2(0, 0), Point2(1, 1), Point2(3, 3)])
        assert got.as_tuples() == ((0.0, 0.0), (3.0, 3.0))

    @given(point_lists)
    def test_canonical_and_idempotent(self, pts: list[Point2]) -> None:
        got = full_hull(pts)
        got.check_full_hull()
        assert full_hull(got.points).points == got.points
        assert set(got.points) <= set(pts)

    @given(point_lists)
    def test_matches_qhull_vertices(self, pts: list[Point2]) -> None:
        got = full_hull(pts)
        if len(got) < 3:
            # Degenerate input; qhull rejects flat point sets.
            assert all(orientation(*c) == 0 for c in itertools.combinations(pts, 3))
            return
        qh = QhullHull([(p.x, p.y) for p in pts])
        verts = [Point2(*qh.points[i]) for i in qh.vertices]
        start = verts.index(min(verts))
        assert tuple(verts[start:] + verts[:start]) == got.points


class TestLowerChain:
    def test_prefix_of_full_hull(self) -> None:
        hull = full_hull([Point2(0, 0), Point2(2, 0), Point2(2, 2), Point2(0, 2)])
        assert hull.as_tuples() == ((0, 0), (2, 0), (2, 2), (0, 2))
        assert lower_chain(hull).as_tuples() == ((0, 0), (2, 0))

    def test_vertical_right_edge_excluded(self) -> None:
        hull = full_hull([Point2(0, 0), Point2(1, -1), Point2(1, 1)])
        assert lower_chain(hull).as_tuples() == ((0, 0), (1, -1))

    def test_singleton_passthrough(self) -> None:
        hull = full_hull([Point2(3, 4)])
        assert lower_chain(hull).points == hull.points


class TestMinkowskiSum:
    def test_unit_square_from_two_segments(self) -> None:
        a = full_hull([Point2(0, 0), Point2(1, 0)])
        b = full_hull([Point2(0, 0), Point2(0, 1)])
        got = ConvexChain(minkowski_indexed(a, b)[0])
        assert got.as_tuples() == ((0, 0), (1, 0), (1, 1), (0, 1))

    def test_parallelogram_with_negative_slope(self) -> None:
        a = full_hull([Point2(0, 0), Point2(2, 0)])
        b = full_hull([Point2(0, 0), Point2(1, -1)])
        got = ConvexChain(minkowski_indexed(a, b)[0])
        assert got.as_tuples() == ((0, 0), (1, -1), (3, -1), (2, 0))

    def test_empty_operand_annihilates(self) -> None:
        a = full_hull([Point2(0, 0), Point2(1, 0)])
        assert minkowski_indexed(a, ConvexChain()) == ((), ())
        assert minkowski_indexed(ConvexChain(), a) == ((), ())

    def test_singleton_translates(self) -> None:
        a = full_hull([Point2(0, 0), Point2(2, 0), Point2(1, 1)])
        b = full_hull([Point2(5, -3)])
        got = ConvexChain(minkowski_indexed(a, b)[0])
        assert got.as_tuples() == ((5, -3), (7, -3), (6, -2))

    def test_indexed_vertices_are_input_sums(self) -> None:
        a = full_hull([Point2(0, 0), Point2(2, 0), Point2(1, 1)])
        b = full_hull([Point2(0, 0), Point2(1, 0), Point2(0, 1)])
        pts, idx = minkowski_indexed(a, b)
        for p, (i, j) in zip(pts, idx):
            assert p == a[i] + b[j]

    @given(point_lists, point_lists)
    def test_matches_all_pairs_hull(self, pa: list[Point2], pb: list[Point2]) -> None:
        a, b = full_hull(pa), full_hull(pb)
        got = ConvexChain(minkowski_indexed(a, b)[0])
        want = full_hull(p + q for p in pa for q in pb)
        assert got.points == want.points
        assert len(got) <= len(a) + len(b)

    @given(point_lists, point_lists)
    def test_lower_chain_variant_matches(self, pa: list[Point2], pb: list[Point2]) -> None:
        # The lower-chain sum the inside pass runs, against all pairs.
        got = LowerChainValue.from_raw_points(pa) * LowerChainValue.from_raw_points(pb)
        want = lower_hull(p + q for p in pa for q in pb)
        assert got.chain().points == want.points


class TestEnvelopeBoundaries:
    def test_single_crossing(self) -> None:
        assert envelope_boundaries(chain_of((0, 0), (1, -2))) == (-2.0,)

    def test_two_crossings(self) -> None:
        got = envelope_boundaries(chain_of((0, 0), (1, -2), (3, -2)))
        assert got == (-2.0, 0.0)

    def test_singleton_has_no_boundaries(self) -> None:
        assert envelope_boundaries(chain_of((4, 4))) == ()

    def test_empty_chain_rejected(self) -> None:
        with pytest.raises(NoHypothesesError):
            envelope_boundaries(ConvexChain())

    def test_repeated_x_rejected(self) -> None:
        chain = ConvexChain((Point2(0, 0), Point2(0, 1)))
        with pytest.raises(InvalidGeometryError, match=r"x not increasing at .* -> "):
            envelope_boundaries(chain)

    def test_decreasing_x_rejected(self) -> None:
        # Its one crossing, -1.0, would be read as a valid boundary.
        chain = ConvexChain((Point2(1, 0), Point2(0, 1)))
        with pytest.raises(InvalidGeometryError, match=r"x not increasing at .* -> "):
            envelope_boundaries(chain)

    def test_chain_that_is_not_convex_rejected(self) -> None:
        # Its crossings, 1.0 then -1.0, would not increase.
        chain = chain_of((0, 0), (1, 1), (2, 0))
        with pytest.raises(InvalidGeometryError, match=r"not convex at .*-1\.0 after 1\.0"):
            envelope_boundaries(chain)

    def test_equal_crossings_pass(self) -> None:
        # Collinear points, as rounding can leave them in a product, give
        # equal crossings; the banded orientation test is not applied.
        assert envelope_boundaries(chain_of((0, 0), (1, 1), (2, 2))) == (1.0, 1.0)

    @given(point_lists)
    @settings(max_examples=60)
    def test_boundaries_strictly_increase_and_pick_argmax(
        self, pts: list[Point2]
    ) -> None:
        chain = lower_hull(pts)
        cuts = envelope_boundaries(chain)
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        # Strictly inside segment i, dual line i beats every other chain line.
        probes = [cuts[0] - 1.0] if cuts else [0.0]
        probes += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        if cuts:
            probes.append(cuts[-1] + 1.0)
        for i, eta in enumerate(probes):
            scores = [p.x * eta - p.y for p in chain]
            assert scores[i] == max(scores)
            assert all(scores[i] > s for k, s in enumerate(scores) if k != i)


class TestChainChecks:
    def test_lower_check_rejects_non_increasing_x(self) -> None:
        with pytest.raises(InvalidGeometryError):
            chain_of((0, 0), (0, 1)).check_lower()

    def test_lower_check_rejects_concavity(self) -> None:
        with pytest.raises(InvalidGeometryError):
            chain_of((0, 0), (1, 1), (2, 0)).check_lower()

    def test_full_check_rejects_wrong_start(self) -> None:
        with pytest.raises(InvalidGeometryError):
            chain_of((1, 0), (0, 0), (1, 1)).check_full_hull()

    def test_full_check_rejects_degenerate_two_point_hull(self) -> None:
        with pytest.raises(InvalidGeometryError, match="degenerate two-point hull"):
            chain_of((0, 0), (0, 0)).check_full_hull()
        chain_of((0, 0), (1, 0)).check_full_hull()

    def test_full_check_rejects_collinear_triple(self) -> None:
        with pytest.raises(InvalidGeometryError):
            chain_of((0, 0), (1, 0), (2, 0)).check_full_hull()
