import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmert.errors import CapExceededError, NoHypothesesError
from hullmert.forest import Edge, Hypergraph, realize
from hullmert.geometry import Point2, minkowski_sum
from hullmert.linesearch import build_envelope
from hullmert.metrics import ExactMatch
from hullmert.oracle import (
    DEFAULT_GRID_POINTS,
    DEFAULT_REL_TOL,
    best_derivation,
    dual_points,
    duality_report,
    grid_line_search,
    naive_envelope,
    naive_minkowski,
    probe_etas,
    score,
    tropical_best,
    viterbi_derivation,
)
from hullmert.sampling import random_forest, random_hull_value, random_lattice


class TestNaiveMinkowski:
    def test_matches_merge_based_sum(self, rng) -> None:
        for _ in range(50):
            a = random_hull_value(rng)
            b = random_hull_value(rng)
            want = minkowski_sum(a.hull, b.hull)
            got = naive_minkowski(a.points, b.points)
            assert got.points == want.points

    def test_cap(self) -> None:
        pts = [Point2(i, i * i) for i in range(101)]
        with pytest.raises(CapExceededError):
            naive_minkowski(pts, pts, cap=10_000)


class TestNaiveEnvelope:
    def test_argmax_per_sample(self) -> None:
        lines = [(0.0, 0.0), (1.0, 0.0)]
        got = naive_envelope(lines, n_samples=5, lo=-2, hi=2)
        assert [idx for _, idx in got] == [0, 0, 0, 1, 1]

    def test_exact_tie_takes_lowest_index(self) -> None:
        got = naive_envelope([(0.0, 1.0), (0.0, 1.0)], n_samples=3, lo=-1, hi=1)
        assert [idx for _, idx in got] == [0, 0, 0]

    def test_no_lines_rejected(self) -> None:
        with pytest.raises(NoHypothesesError):
            naive_envelope([])


class TestBestDerivation:
    def test_tie_keeps_enumeration_order(self) -> None:
        g = Hypergraph(
            1,
            [Edge.make(0, (), {0: 1.0}, ("first",)), Edge.make(0, (), {0: 1.0}, ("second",))],
            goal=0,
            n_features=1,
        )
        s, d = best_derivation(g, np.array([2.0]))
        assert s == 2.0 and d.tokens == ("first",)

    def test_empty_language(self) -> None:
        g = Hypergraph(2, [Edge.make(0, (), {}, ())], goal=1, n_features=1)
        with pytest.raises(NoHypothesesError):
            best_derivation(g, np.ones(1))


class TestViterbi:
    def test_agrees_with_enumeration(self, rng) -> None:
        for _ in range(40):
            g = random_forest(rng, n_nodes=6)
            w = rng.normal(size=3)
            want_score, want = best_derivation(g, w)
            got_score, tree = viterbi_derivation(g, w)
            assert got_score == pytest.approx(want_score, rel=1e-12)
            assert score(realize(g, tree), w) == pytest.approx(want_score, rel=1e-12)

    def test_matches_tropical_inside_score(self, rng) -> None:
        for _ in range(20):
            g = random_forest(rng, n_nodes=6)
            w = rng.normal(size=3)
            assert viterbi_derivation(g, w)[0] == pytest.approx(
                tropical_best(g, w), rel=1e-12
            )

    def test_empty_language(self) -> None:
        g = Hypergraph(2, [Edge.make(0, (), {}, ())], goal=1, n_features=1)
        with pytest.raises(NoHypothesesError):
            viterbi_derivation(g, np.ones(1))


class TestDualPoints:
    def test_keeps_duplicates(self, diamond_graph) -> None:
        # Both paths have opposite features, but with v = 0 both project to
        # the same dual point; the list keeps one entry per derivation.
        pts = dual_points(diamond_graph, np.zeros(1), np.zeros(1))
        assert pts == [Point2(0.0, 0.0), Point2(0.0, 0.0)]

    def test_projection_formula(self, two_line_graph) -> None:
        pts = dual_points(two_line_graph, np.array([2.0]), np.array([1.0]))
        assert set(pts) == {Point2(0.0, 0.0), Point2(1.0, -2.0)}


class TestGridLineSearch:
    def test_default_grid_shape(self, two_line_graph) -> None:
        corpus = [(two_line_graph, ("steep",))]
        etas, losses = grid_line_search(corpus, np.array([2.0]), np.array([1.0]), ExactMatch())
        assert len(etas) == len(losses) == DEFAULT_GRID_POINTS
        assert etas[0] == -10.0 and etas[-1] == 10.0

    def test_losses_follow_the_crossing(self, two_line_graph) -> None:
        corpus = [(two_line_graph, ("steep",))]
        etas, losses = grid_line_search(
            corpus, np.array([2.0]), np.array([1.0]), ExactMatch(), etas=[-3.0, -1.0]
        )
        assert losses == [1.0, 0.0]


class TestDualityReport:
    def test_probe_etas_cover_every_segment(self, rng) -> None:
        g = random_forest(rng, n_nodes=6)
        env = build_envelope(g, rng.normal(size=3), rng.normal(size=3))
        etas = probe_etas(env)
        assert len(etas) == len(env.chain)
        assert [env.segment_at(e) for e in etas] == list(range(len(env.chain)))

    def test_reports_ok_on_random_forests(self, rng) -> None:
        for _ in range(30):
            g = random_forest(rng, n_nodes=6)
            report = duality_report(g, rng.normal(size=3), rng.normal(size=3))
            assert report.ok, report
            assert report.max_score_err <= 1e-9
            assert report.max_point_err <= 1e-9
            assert report.n_segments >= 1

    def test_boundaries_match_the_envelope(self, two_line_graph) -> None:
        report = duality_report(two_line_graph, np.array([2.0]), np.array([1.0]))
        assert report.boundaries == (-2.0,)
        assert report.n_segments == 2


def scaled(graph: Hypergraph, scale: float) -> Hypergraph:
    edges = [
        Edge.make(e.head, e.tails, {i: v * scale for i, v in e.features}, e.template)
        for e in graph.edges
    ]
    return Hypergraph(graph.n_nodes, edges, graph.goal, graph.n_features)


class TestExactnessFuzz:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        forest=st.booleans(),
        scale_exp=st.integers(-20, 40),
        tilt_exp=st.integers(0, 10),
        eta_exp=st.integers(0, 16),
        eta_steps=st.lists(st.integers(-(2**12), 2**12), min_size=1, max_size=8),
    )
    def test_envelope_equals_max_plus_scoring(
        self, seed, forest, scale_exp, tilt_exp, eta_exp, eta_steps
    ):
        # Integer features times 2**scale_exp span about 1e-6 to 1e12.  With
        # integer weights and etas on a 2**-eta_exp grid every score on both
        # sides is exact, so any gap is an envelope error.  The direction is
        # w0 * 2**tilt_exp plus a unit nudge: for large tilts it is nearly
        # parallel to w0 and the crossings crowd together.
        rng = np.random.default_rng(seed)
        if forest:
            graph = random_forest(rng, n_nodes=10, integer_features=True)
        else:
            graph = random_lattice(rng, n_nodes=10, max_parallel=3, integer_features=True)
        graph = scaled(graph, 2.0**scale_exp)
        w0 = rng.integers(-3, 4, size=3).astype(float)
        v = w0 * 2.0**tilt_exp + rng.integers(-1, 2, size=3)
        env = build_envelope(graph, w0, v)
        grid = 2.0**eta_exp
        etas = [k / grid for k in eta_steps]
        # Every segment's probe point, snapped to the grid.
        etas += [round(e * 2**16) / 2**16 for e in probe_etas(env) if abs(e) < 2**12]
        for eta in etas:
            best, _ = viterbi_derivation(graph, w0 + eta * v)
            got = env.max_at(eta)
            assert abs(got - best) <= DEFAULT_REL_TOL * max(1.0, abs(got), abs(best))
