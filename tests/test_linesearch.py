import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullmert.linesearch as linesearch_module
from hullmert import MertEstimator, cli
from hullmert.errors import (
    ConfigError,
    DegenerateDirectionWarning,
    DimensionMismatchError,
    InvalidGeometryError,
    NoHypothesesError,
)
from hullmert.forest import Derivation, Edge, Hypergraph, realize
from hullmert.io import load_corpus
from hullmert.linesearch import (
    DEFAULT_MERGE_EPS,
    CorpusSurface,
    ErrorSurface,
    OptimizeStep,
    build_envelope,
    build_envelopes,
    corpus_surface,
    decode_loss,
    line_search,
    optimize,
    pick_eta,
    sentence_surface,
    sweep,
)
from hullmert.metrics import Bleu, ExactMatch, get_metric
from hullmert.oracle import (
    DEFAULT_REL_TOL,
    decode_corpus_loss,
    grid_line_search,
    naive_envelope,
    probe_etas,
    viterbi_derivation,
)
from hullmert.sampling import random_corpus, random_derivation, random_forest, random_lattice
from hullmert.semiring import ConvexHullValue

from helpers import LINE_V, LINE_W0, UNBOUNDED_ETAS, make_line_graph

INF = float("inf")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def surface_with(metric, boundaries, stats_values) -> CorpusSurface:
    """Corpus surface whose interval statistics are the given scalars."""
    s = ErrorSurface(tuple(boundaries), tuple(np.array([v]) for v in stats_values))
    return CorpusSurface(metric, [s], merge_eps=1e-9)


def two_hypothesis_sentence(good: str, bad: str) -> tuple[Hypergraph, tuple[str, ...]]:
    """One-feature sentence where the correct word has feature +1."""
    g = Hypergraph(
        1,
        [Edge.make(0, (), {0: 1.0}, (good,)), Edge.make(0, (), {0: -1.0}, (bad,))],
        goal=0,
        n_features=2,
    )
    return g, (good,)


def crossing_sentence(c: float) -> tuple[Hypergraph, tuple[str, ...]]:
    """Sentence whose reference edge overtakes the other one at eta = c
    along w0 = [0, 1], v = [1, 0]."""
    g = Hypergraph(
        1,
        [Edge.make(0, (), {0: 1.0, 1: -c}, ("good",)), Edge.make(0, (), {}, ("bad",))],
        goal=0,
        n_features=2,
    )
    return g, ("good",)


class TestBuildEnvelope:
    def test_single_derivation_single_segment(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1.0}, ("w",))], goal=0, n_features=1)
        env = build_envelope(g, np.array([1.0]), np.array([1.0]))
        assert env.boundaries == ()
        [(lo, hi, point, d)] = env.segments()
        assert (lo, hi) == (-INF, INF)
        assert d.tokens == ("w",)

    def test_two_lines_cross_at_minus_two(self, two_line_graph) -> None:
        env = build_envelope(two_line_graph, np.array([2.0]), np.array([1.0]))
        assert env.boundaries == (-2.0,)
        segs = env.segments()
        assert [(lo, hi) for lo, hi, _, _ in segs] == [(-INF, -2.0), (-2.0, INF)]
        # The steeper line wins on the right.
        assert [d.tokens for _, _, _, d in segs] == [("flat",), ("steep",)]
        assert [p.x for _, _, p, _ in segs] == [0.0, 1.0]

    def test_dominated_line_is_absent(self) -> None:
        g = make_line_graph([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.2)])
        env = build_envelope(g, LINE_W0, LINE_V)
        assert env.boundaries == (-1.0, 1.0)
        assert [d.tokens for d in env.derivations] == [("h0",), ("h1",), ("h2",)]

    def test_empty_language_rejected(self) -> None:
        g = Hypergraph(2, [Edge.make(0, (), {}, ())], goal=1, n_features=1)
        with pytest.raises(NoHypothesesError):
            build_envelope(g, np.zeros(1), np.ones(1))

    def test_max_at_agrees_with_sampled_argmax(self, rng) -> None:
        lines = [(float(m), float(b)) for m, b in rng.integers(-4, 5, size=(7, 2))]
        env = build_envelope(make_line_graph(lines), LINE_W0, LINE_V)
        for eta, best in naive_envelope(lines, n_samples=200, lo=-6, hi=6):
            if any(abs(eta - b) < 1e-6 for b in env.boundaries):
                continue
            want = lines[best][0] * eta + lines[best][1]
            assert env.max_at(eta) == pytest.approx(want, rel=1e-9)

    def test_envelope_size_bounded_by_edge_count(self, rng) -> None:
        for graph, _ in random_corpus(rng, n_sentences=10, n_nodes=7):
            env = build_envelope(graph, rng.normal(size=3), rng.normal(size=3))
            assert len(env.chain) <= graph.n_edges

    @pytest.mark.parametrize(
        "w0, v",
        [([1.0, 1.0], [1.0, 0.5]), ([1.0, 0.0], [0.0, 1.0])],
        ids=["nan", "inf"],
    )
    def test_crossing_that_is_not_finite_is_a_data_error(self, w0, v) -> None:
        # Every dual point is finite, but the crossing divides -inf by inf
        # (NaN) or overflows (inf); no eta can be placed around it.
        g = Hypergraph(
            1,
            [
                Edge.make(0, (), {0: 1e308, 1: 0.0}, ("a",)),
                Edge.make(0, (), {0: -1e308, 1: 1.0}, ("b",)),
            ],
            goal=0,
            n_features=2,
        )
        corpus = [(g, ("a",))]
        w0, v = np.array(w0), np.array(v)
        with pytest.raises(InvalidGeometryError, match="not finite"):
            line_search(corpus, w0, v, ExactMatch())
        with pytest.raises(InvalidGeometryError, match="not finite"):
            sweep(corpus, w0, v, ExactMatch(), -1.0, 1.0, 3)


class TestBuildEnvelopes:
    def test_shape_mismatch_rejected(self, two_line_graph) -> None:
        with pytest.raises(DimensionMismatchError):
            build_envelopes([(two_line_graph, ())], np.zeros(1), np.zeros(2))

    def test_zero_direction_warns(self, two_line_graph) -> None:
        with pytest.warns(DegenerateDirectionWarning):
            build_envelopes([(two_line_graph, ())], np.array([2.0]), np.array([0.0]))

    def test_threads_preserve_order_and_results(self, rng) -> None:
        corpus = random_corpus(rng, n_sentences=6, n_nodes=6)
        w0, v = rng.normal(size=3), rng.normal(size=3)
        serial = build_envelopes(corpus, w0, v, threads=1)
        pooled = build_envelopes(corpus, w0, v, threads=4)
        assert [e.chain for e in serial] == [e.chain for e in pooled]
        assert [e.boundaries for e in serial] == [e.boundaries for e in pooled]


class TestSentenceSurface:
    def test_single_segment(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1.0}, ("w",))], goal=0, n_features=1)
        env = build_envelope(g, np.ones(1), np.ones(1))
        surf = sentence_surface(env, ("w",), ExactMatch())
        assert surf.boundaries == ()
        assert [s.tolist() for s in surf.stats] == [[0.0]]

    def test_right_segment_matches_gold(self, two_line_graph) -> None:
        env = build_envelope(two_line_graph, np.array([2.0]), np.array([1.0]))
        surf = sentence_surface(env, ("steep",), ExactMatch())
        assert [s.tolist() for s in surf.stats] == [[1.0], [0.0]]

    def test_equal_adjacent_counts_not_merged(self) -> None:
        g = make_line_graph([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        env = build_envelope(g, LINE_W0, LINE_V)
        surf = sentence_surface(env, ("h1",), ExactMatch())
        assert surf.boundaries == (-1.0, 1.0)
        assert [s.tolist() for s in surf.stats] == [[1.0], [0.0], [1.0]]


class TestCorpusSurface:
    def test_single_surface_passthrough(self) -> None:
        metric = ExactMatch()
        s = ErrorSurface((2.0,), (np.array([1.0]), np.array([0.0])))
        corpus = CorpusSurface(metric, [s], merge_eps=1e-9)
        assert corpus.boundaries == (2.0,)
        assert corpus.interval_losses() == (1.0, 0.0)

    def test_interval_refinement(self) -> None:
        metric = ExactMatch()
        s1 = ErrorSurface((1.0,), (np.array([1.0]), np.array([0.0])))
        s2 = ErrorSurface((2.0,), (np.array([3.0]), np.array([5.0])))
        corpus = CorpusSurface(metric, [s1, s2], merge_eps=1e-9)
        assert corpus.boundaries == (1.0, 2.0)
        assert [s.tolist() for s in corpus.stats] == [[4.0], [3.0], [5.0]]

    def test_identical_boundaries_coalesce(self) -> None:
        metric = ExactMatch()
        s1 = ErrorSurface((1.0,), (np.array([1.0]), np.array([0.0])))
        s2 = ErrorSurface((1.0,), (np.array([1.0]), np.array([0.0])))
        corpus = CorpusSurface(metric, [s1, s2], merge_eps=1e-9)
        assert corpus.boundaries == (1.0,)
        assert [s.tolist() for s in corpus.stats] == [[2.0], [0.0]]

    def test_chained_cluster_reads_correct_sides(self) -> None:
        # Three boundaries spaced under eps chain into one cluster wider
        # than eps; statistics after it must see all sentences flipped.
        metric = ExactMatch()
        eps = 1e-9
        bs = [1.0, 1.0 + 0.8 * eps, 1.0 + 1.6 * eps]
        surfaces = [
            ErrorSurface((b,), (np.array([1.0]), np.array([0.0]))) for b in bs
        ]
        corpus = CorpusSurface(metric, surfaces, merge_eps=eps)
        assert corpus.boundaries == (1.0,)
        assert [s.tolist() for s in corpus.stats] == [[3.0], [0.0]]

    @pytest.mark.parametrize("merge_eps", [0.0, 1e-9, 0.05, INF])
    @pytest.mark.parametrize("metric_name", ["exact", "bleu"])
    def test_refinement_invariant_off_boundaries(self, rng, metric_name, merge_eps) -> None:
        # 60 sentences, two of them identical so that boundaries repeat; at
        # merge_eps = 0.05 clusters chain, and at inf all form one cluster.
        # Off every cluster, interval statistics are the definition: each
        # sentence's stats_at, summed.
        metric = get_metric(metric_name)
        corpus = random_corpus(rng, n_sentences=59, n_nodes=6)
        corpus.append(corpus[0])
        surface = corpus_surface(
            corpus, rng.normal(size=3), rng.normal(size=3), metric, merge_eps
        )
        spans: list[list[float]] = []
        for b in sorted(b for s in surface.surfaces for b in s.boundaries):
            if spans and b - spans[-1][1] <= merge_eps:
                spans[-1][1] = b
            else:
                spans.append([b, b])
        assert surface.boundaries == tuple(lo for lo, _ in spans)
        etas = [spans[0][0] - 1.0, spans[-1][1] + 1.0]
        etas += [0.5 * (a[1] + b[0]) for a, b in zip(spans, spans[1:])]
        etas += [float(x) for x in rng.uniform(-8, 8, size=200)]
        checked = 0
        for eta in etas:
            if any(lo - 1e-6 < eta < hi + 1e-6 for lo, hi in spans):
                continue
            want = metric.zero_stats()
            for s in surface.surfaces:
                want += s.stats_at(eta)
            assert surface.stats[surface.interval_of(eta)].tolist() == want.tolist()
            checked += 1
        assert checked > len(spans)
        assert len(surface.boundaries) <= sum(
            len(s.boundaries) for s in surface.surfaces
        )


class TestPickEta:
    def test_single_interval_stays_home(self) -> None:
        surface = surface_with(ExactMatch(), (), [2.0])
        assert pick_eta(surface) == (0, 0.0)

    def test_midpoint_of_bounded_best_interval(self) -> None:
        surface = surface_with(ExactMatch(), (0.0, 1.0), [3.0, 1.0, 2.0])
        assert pick_eta(surface) == (1, 0.5)

    def test_unbounded_left_interval_steps_off_the_boundary(self) -> None:
        surface = surface_with(ExactMatch(), (2.0,), [1.0, 5.0])
        assert pick_eta(surface) == (0, pytest.approx(1.9))

    def test_unbounded_right_interval(self) -> None:
        surface = surface_with(ExactMatch(), (2.0,), [5.0, 1.0])
        assert pick_eta(surface) == (1, pytest.approx(2.1))

    def test_tie_prefers_interval_containing_zero(self) -> None:
        surface = surface_with(ExactMatch(), (-2.0, -1.0), [1.0, 3.0, 1.0])
        chosen, eta = pick_eta(surface)
        assert chosen == 2 and eta == pytest.approx(-0.9)

    def test_tie_falls_back_to_leftmost(self) -> None:
        surface = surface_with(ExactMatch(), (-3.0, -2.0, -1.0), [5.0, 1.0, 1.0, 5.0])
        chosen, eta = pick_eta(surface)
        assert chosen == 1 and eta == pytest.approx(-2.5)

    @pytest.mark.parametrize(
        "crossings, merge_eps",
        [((0.0, 0.04, 0.08, 0.12), 0.05)],
        ids=["wide-merge-eps"],
    )
    def test_right_unbounded_eta_clears_a_chained_last_cluster(
        self, crossings, merge_eps
    ) -> None:
        # The crossings chain into one cluster reported at its minimum, and a
        # step from the minimum stays inside it: the chosen eta must lie
        # beyond the cluster's maximum, or the reported loss is not the loss
        # at the returned weights.
        corpus = [crossing_sentence(c) for c in crossings]
        w0, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        metric = ExactMatch()
        result = line_search(corpus, w0, v, metric, merge_eps=merge_eps)
        assert result.boundaries == (crossings[0],)
        assert result.best_interval == 1 and result.loss == 0.0
        assert result.eta > crossings[-1]
        assert decode_loss(corpus, result.weights, metric) == result.loss

    @pytest.mark.parametrize("first, second", [("b", "a"), ("a", "b")])
    def test_unbounded_eta_does_not_round_onto_its_boundary(self, first, second) -> None:
        # The crossing is at eta = 1e17, where the 0.1 step is below the
        # float spacing of 16: a plain step would land on the boundary
        # itself, in the neighbouring interval.
        feats = {"a": {1: 1.0}, "b": {0: 1.0}}
        g = Hypergraph(
            1,
            [Edge.make(0, (), feats[first], (first,)), Edge.make(0, (), feats[second], (second,))],
            goal=0,
            n_features=2,
        )
        corpus = [(g, ("a",))]
        w0, v = np.array([0.0, 1e17]), np.array([1.0, 0.0])
        metric = ExactMatch()
        result = line_search(corpus, w0, v, metric)
        assert result.boundaries == (1e17,)
        assert result.best_interval == 0 and result.loss == 0.0
        assert result.eta == math.nextafter(1e17, -INF)
        assert result.surface.interval_of(result.eta) == result.best_interval
        assert decode_loss(corpus, result.weights, metric) == result.loss

    def test_right_unbounded_eta_does_not_round_onto_its_boundary(self) -> None:
        surface = surface_with(ExactMatch(), (1e17,), [1.0, 0.0])
        chosen, eta = pick_eta(surface)
        assert chosen == 1 and eta == math.nextafter(1e17, INF)
        assert surface.interval_of(eta) == chosen

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("crossing", list(UNBOUNDED_ETAS))
    def test_unbounded_eta_is_a_fixed_step_beyond_the_crossing(self, crossing, side) -> None:
        # The reference edge wins right of the crossing, the other one left
        # of it; either way the eta is 0.1 beyond the crossing, or the next
        # float where the step rounds back onto it.
        c, left, right = UNBOUNDED_ETAS[crossing]
        g, good = crossing_sentence(c)
        corpus = [(g, good if side == "right" else ("bad",))]
        w0, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        metric = ExactMatch()
        result = line_search(corpus, w0, v, metric)
        assert result.boundaries == (c,)
        assert result.best_interval == ["left", "right"].index(side)
        assert result.loss == 0.0
        assert result.eta == (left if side == "left" else right)
        assert decode_loss(corpus, result.weights, metric) == result.loss

    def test_unbounded_interval_with_no_finite_float_beyond_is_not_chosen(self) -> None:
        # Beyond the largest float there is only inf, which is no eta: the
        # other interval is chosen although its loss is higher.
        surface = surface_with(ExactMatch(), (sys.float_info.max,), [1.0, 0.0])
        chosen, eta = pick_eta(surface)
        assert chosen == 0 and math.isfinite(eta)
        assert surface.interval_of(eta) == chosen

    def test_midpoint_between_huge_clusters_does_not_overflow(self) -> None:
        # 1e308 + 1.5e308 overflows, but the interval holds many floats.
        surface = surface_with(ExactMatch(), (1e308, 1.5e308), [1.0, 0.0, 1.0])
        chosen, eta = pick_eta(surface)
        assert chosen == 1 and eta == 1.25e308
        assert surface.interval_of(eta) == chosen

    def test_surface_with_no_finite_eta_is_a_data_error(self) -> None:
        # One cluster spanning every finite float: nothing lies beyond it.
        big = sys.float_info.max
        s = ErrorSurface((-big, big), tuple(np.array([v]) for v in (1.0, 0.0, 1.0)))
        surface = CorpusSurface(ExactMatch(), [s], merge_eps=INF)
        assert surface.boundaries == (-big,)
        with pytest.raises(InvalidGeometryError, match="no interval .* finite eta"):
            pick_eta(surface)

    def test_bounded_interval_holding_no_float_is_not_chosen(self) -> None:
        # Crossings at c and the next float are further apart than
        # merge_eps, so they stay two clusters, but no eta lies strictly
        # between them: the middle interval's midpoint rounds onto one.
        def sentence(crossing: float, ref: str, order: str):
            feats = {"a": {1: crossing}, "b": {0: 1.0}}
            edges = [Edge.make(0, (), feats[t], (t,)) for t in order]
            return Hypergraph(1, edges, goal=0, n_features=2), (ref,)

        c = 12345678.9
        corpus = [sentence(c, "b", "ab"), sentence(math.nextafter(c, INF), "a", "ba")]
        w0, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        metric = ExactMatch()
        result = line_search(corpus, w0, v, metric)
        assert result.interval_losses == (1.0, 0.0, 1.0)
        assert result.best_interval != 1
        assert result.surface.interval_of(result.eta) == result.best_interval
        assert decode_loss(corpus, result.weights, metric) == result.loss

    def test_never_worse_than_staying_put(self, rng) -> None:
        metric = ExactMatch()
        for _ in range(20):
            corpus = random_corpus(rng, n_sentences=3, n_nodes=5)
            surface = corpus_surface(corpus, rng.normal(size=3), rng.normal(size=3), metric)
            chosen, eta = pick_eta(surface)
            assert surface.loss_at(eta) <= surface.loss_at(0.0)
            assert surface.interval_of(eta) == chosen


class TestLineSearch:
    def test_one_hypothesis_keeps_weights(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1.0}, ("w",))], goal=0, n_features=1)
        result = line_search([(g, ("w",))], np.array([3.0]), np.array([1.0]), ExactMatch())
        assert result.eta == 0.0
        assert result.weights.tolist() == [3.0]
        assert result.envelope_sizes == (1,)

    def test_matches_grid_oracle(self, rng) -> None:
        metric = get_metric("bleu")
        for _ in range(5):
            corpus = random_corpus(rng, n_sentences=2, n_nodes=5)
            w0, v = rng.normal(size=3), rng.normal(size=3)
            result = line_search(corpus, w0, v, metric)
            etas, losses = grid_line_search(
                corpus, w0, v, metric, etas=[float(x) for x in np.linspace(-10, 10, 401)]
            )
            assert result.loss <= min(losses) + 1e-12
            assert decode_corpus_loss(corpus, result.weights, metric) == pytest.approx(
                result.loss, abs=1e-12
            )

    def test_zero_direction_warns_and_keeps_weights(self, two_line_graph) -> None:
        with pytest.warns(DegenerateDirectionWarning):
            result = line_search(
                [(two_line_graph, ("steep",))],
                np.array([2.0]),
                np.array([0.0]),
                ExactMatch(),
            )
        assert result.eta == 0.0 and result.weights.tolist() == [2.0]

    def test_report_fields_are_consistent(self, rng) -> None:
        metric = ExactMatch()
        corpus = random_corpus(rng, n_sentences=3, n_nodes=5)
        result = line_search(corpus, rng.normal(size=3), rng.normal(size=3), metric)
        assert len(result.interval_losses) == len(result.boundaries) + 1
        assert result.loss == result.interval_losses[result.best_interval]
        assert len(result.envelopes) == len(corpus)
        assert result.surface.boundaries == result.boundaries


class TestDecodeLoss:
    def test_agrees_with_tropical_decode(self, rng) -> None:
        metric = get_metric("bleu")
        for _ in range(10):
            corpus = random_corpus(rng, n_sentences=3, n_nodes=5)
            w = rng.normal(size=3)
            assert decode_loss(corpus, w, metric) == pytest.approx(
                decode_corpus_loss(corpus, w, metric), abs=1e-12
            )


class TestOptimize:
    def test_already_optimal_stops_after_one_sweep(self) -> None:
        corpus = [two_hypothesis_sentence("yes", "no")]
        w0 = np.array([5.0, 0.0])
        result = optimize(corpus, w0, ExactMatch(), iterations=4)
        assert result.weights.tolist() == [5.0, 0.0]
        assert result.loss == result.initial_loss == 0.0
        assert result.steps == () and result.iterations_run == 1

    def test_axis_moves_reach_the_optimum(self) -> None:
        corpus = [two_hypothesis_sentence("good", "bad")]
        result = optimize(corpus, np.array([-1.0, 0.0]), ExactMatch(), iterations=5)
        assert result.initial_loss == 1.0
        assert result.loss == 0.0
        assert result.weights[0] > 0
        losses = [s.loss for s in result.steps]
        assert losses == sorted(losses, reverse=True)
        assert result.iterations_run == 2  # one improving sweep, one to confirm

    def test_zero_iterations_returns_start(self) -> None:
        corpus = [two_hypothesis_sentence("good", "bad")]
        w0 = np.array([-1.0, 0.0])
        result = optimize(corpus, w0, ExactMatch(), iterations=0)
        assert result.weights.tolist() == w0.tolist()
        assert result.iterations_run == 0
        assert result.loss == result.initial_loss == 1.0

    def test_loss_trace_non_increasing_on_random_corpus(self, rng) -> None:
        metric = get_metric("bleu")
        corpus = random_corpus(rng, n_sentences=3, n_nodes=6)
        result = optimize(corpus, rng.normal(size=3), metric, iterations=3)
        trace = [result.initial_loss] + [s.loss for s in result.steps]
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert result.loss == trace[-1]
        assert decode_loss(corpus, result.weights, metric) == pytest.approx(
            result.loss, abs=1e-12
        )

    def test_user_supplied_directions(self) -> None:
        corpus = [two_hypothesis_sentence("good", "bad")]
        v = np.array([1.0, 1.0])
        result = optimize(corpus, np.array([-1.0, 0.0]), ExactMatch(), directions=[v])
        assert result.loss == 0.0
        assert all(s.axis == 0 for s in result.steps)
        # Movement happened along the supplied diagonal only.
        delta = result.weights - np.array([-1.0, 0.0])
        assert delta[0] == pytest.approx(delta[1])


class TestSweep:
    def test_single_step_reads_range_start(self, two_line_graph) -> None:
        corpus = [(two_line_graph, ("steep",))]
        result = sweep(corpus, np.array([2.0]), np.array([1.0]), ExactMatch(), -5, 5, 1)
        assert result.etas == (-5.0,)
        assert result.losses == (1.0,)

    def test_validates_arguments(self, two_line_graph) -> None:
        corpus = [(two_line_graph, ("steep",))]
        with pytest.raises(ConfigError):
            sweep(corpus, np.array([2.0]), np.ones(1), ExactMatch(), -5, 5, 0)
        with pytest.raises(ConfigError):
            sweep(corpus, np.array([2.0]), np.ones(1), ExactMatch(), 5, -5, 3)

    @pytest.mark.parametrize("lo, hi", [(-INF, INF), (-1e308, 1e308), (math.nan, 1.0)])
    def test_range_without_finite_width_is_rejected(self, two_line_graph, lo, hi) -> None:
        # linspace over such a range yields nan or inf grid points.
        corpus = [(two_line_graph, ("steep",))]
        with pytest.raises(ConfigError, match="finite width"):
            sweep(corpus, np.array([2.0]), np.ones(1), ExactMatch(), lo, hi, 3)

    def test_reads_the_exact_surface(self, two_line_graph) -> None:
        corpus = [(two_line_graph, ("steep",))]
        result = sweep(corpus, np.array([2.0]), np.array([1.0]), ExactMatch(), -5, 5, 11)
        # Boundary at eta=-2: mismatch on its left, match from there on.
        want = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert list(result.losses) == want
        assert result.best_index == 3  # tie on the right resolved to smallest eta
        assert result.best_eta == -2.0

    def test_grid_agreement_away_from_boundaries(self, rng) -> None:
        metric = ExactMatch()
        corpus = random_corpus(rng, n_sentences=3, n_nodes=5)
        w0, v = rng.normal(size=3), rng.normal(size=3)
        etas = [float(x) for x in np.linspace(-7.03, 7.03, 41)]
        result = sweep(corpus, w0, v, metric, etas[0], etas[-1], len(etas))
        _, want = grid_line_search(corpus, w0, v, metric, etas=etas)
        surface = corpus_surface(corpus, w0, v, metric)
        all_bs = [b for s in surface.surfaces for b in s.boundaries]
        for eta, got, expected in zip(result.etas, result.losses, want):
            if any(abs(eta - b) < 1e-6 for b in all_bs):
                continue
            assert got == pytest.approx(expected, abs=1e-12)


# Each entry point that takes a search setting, as a call on a corpus,
# w0, a direction and a metric, with the settings it takes.
ENTRY_POINTS = {
    "line_search": (
        line_search,
        ("merge_eps", "threads"),
    ),
    "corpus_surface": (
        corpus_surface,
        ("merge_eps", "threads"),
    ),
    "sweep": (
        lambda c, w0, v, m, **kw: sweep(c, w0, v, m, -5.0, 5.0, 11, **kw),
        ("merge_eps", "threads"),
    ),
    "optimize": (
        lambda c, w0, v, m, **kw: optimize(c, w0, m, **kw),
        ("merge_eps", "iterations", "threads"),
    ),
    "build_envelopes": (
        lambda c, w0, v, m, **kw: build_envelopes(c, w0, v, **kw),
        ("threads",),
    ),
    "MertEstimator.fit": (
        lambda c, w0, v, m, **kw: MertEstimator(initial_weights=w0, **kw).fit(c),
        ("merge_eps", "iterations", "threads"),
    ),
    "CorpusSurface": (
        lambda c, w0, v, m, **kw: CorpusSurface(
            m, [ErrorSurface((0.5, 0.5), (np.ones(1), np.zeros(1), np.ones(1)))], **kw
        ),
        ("merge_eps",),
    ),
}
OUT_OF_RANGE = {
    "merge_eps": (-1e-9, math.nan),
    "iterations": (-1,),
    "threads": (0,),
}
LEGAL_EDGES = {
    "merge_eps": (0.0, INF),
    "iterations": (0,),
    "threads": (1,),
}


def settings_cases(values: dict) -> list:
    return [
        pytest.param(entry, setting, value, id=f"{entry}-{setting}={value}")
        for entry, (_, taken) in ENTRY_POINTS.items()
        for setting in taken
        for value in values[setting]
    ]


def call_entry(entry: str, **settings):
    call, _ = ENTRY_POINTS[entry]
    corpus = [two_hypothesis_sentence("good", "bad"), crossing_sentence(0.5)]
    return call(corpus, np.array([-1.0, 1.0]), np.array([1.0, 0.0]), ExactMatch(), **settings)


class TestSettingsAreChecked:
    @pytest.mark.parametrize("entry, setting, value", settings_cases(OUT_OF_RANGE))
    def test_out_of_range_value_raises_before_any_envelope(
        self, monkeypatch, entry, setting, value
    ) -> None:
        def forbidden(*_):
            raise AssertionError("envelope built before the settings were checked")

        monkeypatch.setattr(linesearch_module, "envelope_points", forbidden)
        with pytest.raises(ConfigError, match=setting.replace("_", "-")):
            call_entry(entry, **{setting: value})

    @pytest.mark.parametrize("entry, setting, value", settings_cases(LEGAL_EDGES))
    def test_legal_edge_value_runs(self, entry, setting, value) -> None:
        call_entry(entry, **{setting: value})

    @pytest.mark.parametrize(
        "call",
        [line_search, optimize, pick_eta, MertEstimator, probe_etas],
        ids=lambda call: call.__name__,
    )
    def test_eta_placement_is_not_a_setting(self, call) -> None:
        # Every eta inside the winning interval has its loss, so where the
        # eta lands in an unbounded one is fixed by the line search.
        assert "offset" not in inspect.signature(call).parameters


class TestHotPathRepresentation:
    def test_golden_fixture_runs_without_hull_operations(self, monkeypatch, capsys) -> None:
        # The line search, the decode and the estimator run on lower chains
        # only; ConvexHullValue stays the reference that tests compare with.
        # They read derivation trees and yields, never feature vectors.
        def forbidden(*_):
            raise AssertionError("convex hull semiring operation on the hot path")

        def no_features(_):
            raise AssertionError("derivation features summed on the hot path")

        monkeypatch.setattr(ConvexHullValue, "__add__", forbidden)
        monkeypatch.setattr(ConvexHullValue, "__mul__", forbidden)
        monkeypatch.setattr(Derivation, "features", property(no_features))
        corpus_path = str(FIXTURES / "corpus.jsonl")
        code = cli.run([
            "linesearch", corpus_path,
            "--weights", str(FIXTURES / "weights.json"),
            "--direction", str(FIXTURES / "direction.json"),
            "--metric", "bleu",
        ])
        assert code == 0
        assert capsys.readouterr().out == (FIXTURES / "golden_linesearch.json").read_text()

        corpus = load_corpus(corpus_path)
        pairs = corpus.pairs()
        metric = get_metric("bleu")
        weights = corpus.features.vectorize({"lm": 0.8, "tm": -0.3}, "weights")
        direction = corpus.features.vectorize({"lm": 1.0, "tm": 0.5}, "direction")
        result = line_search(pairs, weights, direction, metric)
        assert decode_loss(pairs, result.weights, metric) == result.loss
        assert decode_loss(pairs, weights, metric) == decode_corpus_loss(pairs, weights, metric)

        est = MertEstimator(metric="bleu").fit(corpus)
        want = [realize(g, viterbi_derivation(g, est.weights_)[1]).tokens for g, _ in pairs]
        assert est.predict(corpus) == want

    def test_corpus_surface_is_one_pass_with_stored_losses(self, monkeypatch, rng) -> None:
        # The corpus surface is a prefix sum over the sorted sentence
        # boundaries: no sentence surface is read at a probe eta, and the
        # metric loss runs once per interval, however often it is read.
        def forbidden(*_):
            raise AssertionError("per-eta sentence lookup on the hot path")

        monkeypatch.setattr(ErrorSurface, "stats_at", forbidden)
        metric = get_metric("bleu")
        calls = []
        loss = metric.loss
        monkeypatch.setattr(metric, "loss", lambda agg: calls.append(1) or loss(agg))
        corpus = random_corpus(rng, n_sentences=6, n_nodes=6)
        w0, v = rng.normal(size=3), rng.normal(size=3)

        surface = corpus_surface(corpus, w0, v, metric)
        intervals = len(surface.stats)
        assert intervals > 2 and len(calls) == intervals

        result = line_search(corpus, w0, v, metric)
        assert len(calls) == 2 * intervals
        assert result.interval_losses == surface.interval_losses()
        assert result.loss == min(result.interval_losses)

        swept = sweep(corpus, w0, v, metric, -10.0, 10.0, 201)
        assert len(calls) == 3 * intervals
        assert swept.losses == tuple(surface.loss_at(eta) for eta in swept.etas)
        assert len(calls) == 3 * intervals


class CountingBleu(Bleu):
    """BLEU that records every (hypothesis, reference) pair it scores,
    one pair at a time or in a batch."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def stats(self, hyp, ref) -> np.ndarray:
        self.calls.append((tuple(hyp), tuple(ref)))
        return super().stats(hyp, ref)

    def stats_many(self, hyps, refs) -> np.ndarray:
        self.calls.extend((tuple(h), tuple(r)) for h, r in zip(hyps, refs))
        return super().stats_many(hyps, refs)


def replay_optimize(sentences, w0, metric, iterations, merge_eps=DEFAULT_MERGE_EPS):
    """``optimize`` along the axes, rebuilt from public calls that each
    score their hypotheses afresh.  Returns the weights, loss and steps,
    every line search, and the last accepted one."""
    w = np.asarray(w0, dtype=float).copy()
    loss = decode_loss(sentences, w, metric)
    steps, searches, accepted = [], [], None
    for it in range(iterations):
        improved = False
        for axis, v in enumerate(np.eye(len(w))):
            result = line_search(sentences, w, v, metric, merge_eps)
            searches.append(result)
            if result.loss < loss:
                w, loss, accepted = result.weights, result.loss, result
                improved = True
                steps.append(OptimizeStep(it, axis, result.eta, loss))
        if not improved:
            break
    return w, loss, tuple(steps), searches, accepted


class TestStatsMemo:
    @pytest.fixture
    def corpus(self, rng):
        # A token of its own in every reference makes a (hypothesis,
        # reference) pair name its sentence.  The first graph comes twice,
        # so equal yields must still be scored once per sentence.
        pairs = random_corpus(rng, n_sentences=5, n_nodes=7, max_parallel=3)
        pairs.append(pairs[0])
        return [(g, ref + (f"<s{n}>",)) for n, (g, ref) in enumerate(pairs)]

    def test_optimize_scores_each_distinct_yield_once(self, corpus, rng) -> None:
        w0 = rng.normal(size=3)
        metric = CountingBleu()
        result = optimize(corpus, w0, metric, iterations=2)
        replayed = CountingBleu()
        weights, loss, steps, searches, _ = replay_optimize(corpus, w0, replayed, 2)
        # Every hypothesis the replay meets: the decode at w0, then each
        # envelope's derivations.
        zero = np.zeros(3)
        decoded = [build_envelope(g, w0, zero) for g, _ in corpus]
        hypotheses = {
            (d.tokens, ref)
            for envelopes in [decoded] + [r.envelopes for r in searches]
            for env, (_, ref) in zip(envelopes, corpus)
            for d in env.derivations
        }
        # The initial decode and every axis search share one memo.
        assert len(metric.calls) == len(set(metric.calls))
        assert set(metric.calls) == hypotheses
        assert len(replayed.calls) > len(metric.calls)
        assert result.weights.tobytes() == weights.tobytes()
        assert result.loss == loss and result.steps == steps

    def test_each_call_starts_with_an_empty_memo(self, corpus, rng) -> None:
        w0, v = rng.normal(size=3), rng.normal(size=3)
        metric = CountingBleu()
        optimize(corpus, w0, metric, iterations=2)
        first = len(metric.calls)
        assert first > 0
        optimize(corpus, w0, metric, iterations=2)
        assert len(metric.calls) == 2 * first
        for search in (
            lambda: line_search(corpus, w0, v, metric),
            lambda: corpus_surface(corpus, w0, v, metric),
            lambda: sweep(corpus, w0, v, metric, -1.0, 1.0, 5),
            lambda: decode_loss(corpus, w0, metric),
        ):
            metric.calls.clear()
            search()
            once = len(metric.calls)
            assert once > 0
            assert once == len(set(metric.calls))
            search()
            assert len(metric.calls) == 2 * once

    def test_shared_statistics_are_read_only(self, corpus, rng) -> None:
        result = line_search(corpus, rng.normal(size=3), rng.normal(size=3), Bleu())
        arrays = [a for s in result.surface.surfaces for a in s.stats]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = 1.0


def assert_loss_is_attained(sentences, result, metric) -> None:
    """The reported loss is the loss of the derivations the envelopes pick
    at eta, scored afresh, and each of them is a best derivation at the
    returned weights up to rounding."""
    total = metric.zero_stats()
    for (graph, ref), env in zip(sentences, result.envelopes):
        d = env.derivations[env.segment_at(result.eta)]
        total = total + metric.stats(d.tokens, ref)
        best, _ = viterbi_derivation(graph, result.weights)
        score = float(d.features @ result.weights)
        assert abs(score - best) <= DEFAULT_REL_TOL * max(1.0, abs(score), abs(best))
    assert metric.loss(total) == result.loss


class TestLossIsAttained:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        forest=st.booleans(),
        integer=st.booleans(),
        bleu=st.booleans(),
        merge_eps=st.sampled_from([DEFAULT_MERGE_EPS, 1e-3, 0.5]),
    )
    def test_reported_loss_is_attained_at_the_returned_weights(
        self, seed, forest, integer, bleu, merge_eps
    ) -> None:
        # A wide merge_eps chains boundaries into clusters.  Re-decoding is
        # not asserted: when two best derivations tie (equal feature
        # vectors) the decode may keep the other one.
        rng = np.random.default_rng(seed)
        corpus = []
        for _ in range(int(rng.integers(1, 3))):
            if forest:
                graph = random_forest(rng, n_nodes=7, integer_features=integer)
            else:
                graph = random_lattice(rng, n_nodes=6, max_parallel=3, integer_features=integer)
            corpus.append((graph, random_derivation(rng, graph).tokens))
        # The first graph again, against a reference of its own.
        corpus.append((corpus[0][0], random_derivation(rng, corpus[0][0]).tokens))
        metric = get_metric("bleu" if bleu else "exact")
        w0, v = rng.normal(size=3), rng.normal(size=3)
        searched = line_search(corpus, w0, v, metric, merge_eps)
        assert_loss_is_attained(corpus, searched, metric)
        # optimize, which scores with one memo, equals its replay from
        # public calls, each scoring afresh.
        result = optimize(corpus, w0, metric, 2, merge_eps=merge_eps)
        weights, loss, steps, _, accepted = replay_optimize(corpus, w0, metric, 2, merge_eps)
        assert result.weights.tobytes() == weights.tobytes()
        assert result.loss == loss and result.steps == steps
        if accepted is None:
            assert loss == decode_loss(corpus, w0, metric)
        else:
            assert_loss_is_attained(corpus, accepted, metric)
