import math
from pathlib import Path

import numpy as np
import pytest

from hullmert import MertEstimator, cli
from hullmert.errors import (
    ConfigError,
    DegenerateDirectionWarning,
    DimensionMismatchError,
    NoHypothesesError,
)
from hullmert.forest import Edge, Hypergraph, realize
from hullmert.io import load_corpus
from hullmert.linesearch import (
    DEFAULT_MERGE_EPS,
    DEFAULT_OFFSET,
    CorpusSurface,
    ErrorSurface,
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
from hullmert.metrics import ExactMatch, get_metric
from hullmert.oracle import (
    decode_corpus_loss,
    grid_line_search,
    naive_envelope,
    viterbi_derivation,
)
from hullmert.sampling import random_corpus
from hullmert.semiring import ConvexHullValue

from helpers import LINE_V, LINE_W0, make_line_graph

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

    def test_refinement_invariant_off_boundaries(self, rng) -> None:
        metric = get_metric("bleu")
        corpus = random_corpus(rng, n_sentences=5, n_nodes=6)
        surface = corpus_surface(corpus, rng.normal(size=3), rng.normal(size=3), metric)
        for _ in range(50):
            eta = float(rng.uniform(-8, 8))
            if any(abs(eta - b) < 1e-6 for s in surface.surfaces for b in s.boundaries):
                continue
            want = metric.zero_stats()
            for s in surface.surfaces:
                want += s.stats_at(eta)
            assert surface.stats[surface.interval_of(eta)].tolist() == want.tolist()
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
        "crossings, merge_eps, offset",
        [
            ((0.0, 0.04, 0.08, 0.12), 0.05, DEFAULT_OFFSET),
            ((0.12, 0.12 + 1e-10), DEFAULT_MERGE_EPS, 1e-11),
        ],
        ids=["wide-merge-eps", "tiny-offset"],
    )
    def test_right_unbounded_eta_clears_a_chained_last_cluster(
        self, crossings, merge_eps, offset
    ) -> None:
        # The crossings chain into one cluster reported at its minimum; the
        # chosen eta must lie beyond the cluster's maximum, or the reported
        # loss is not the loss at the returned weights.
        corpus = [crossing_sentence(c) for c in crossings]
        w0, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        metric = ExactMatch()
        result = line_search(corpus, w0, v, metric, merge_eps=merge_eps, offset=offset)
        assert result.boundaries == (crossings[0],)
        assert result.best_interval == 1 and result.loss == 0.0
        assert result.eta > crossings[-1]
        assert decode_loss(corpus, result.weights, metric) == result.loss

    @pytest.mark.parametrize("first, second", [("b", "a"), ("a", "b")])
    def test_unbounded_eta_does_not_round_onto_its_boundary(self, first, second) -> None:
        # The crossing is at eta = 1e8, where offset 1e-9 is below the float
        # spacing: a plain step would land on the boundary itself, in the
        # neighbouring interval.
        feats = {"a": {1: 1.0}, "b": {0: 1.0}}
        g = Hypergraph(
            1,
            [Edge.make(0, (), feats[first], (first,)), Edge.make(0, (), feats[second], (second,))],
            goal=0,
            n_features=2,
        )
        corpus = [(g, ("a",))]
        w0, v = np.array([0.0, 1e8]), np.array([1.0, 0.0])
        metric = ExactMatch()
        result = line_search(corpus, w0, v, metric, offset=1e-9)
        assert result.boundaries == (1e8,)
        assert result.best_interval == 0 and result.loss == 0.0
        assert result.surface.interval_of(result.eta) == result.best_interval
        assert decode_loss(corpus, result.weights, metric) == result.loss

    def test_right_unbounded_eta_does_not_round_onto_its_boundary(self) -> None:
        surface = surface_with(ExactMatch(), (1e8,), [1.0, 0.0])
        chosen, eta = pick_eta(surface, offset=1e-9)
        assert chosen == 1 and eta > 1e8
        assert surface.interval_of(eta) == chosen

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


class TestHotPathRepresentation:
    def test_golden_fixture_runs_without_hull_operations(self, monkeypatch, capsys) -> None:
        # The line search, the decode and the estimator run on lower chains
        # only; ConvexHullValue stays the reference that tests compare with.
        def forbidden(*_):
            raise AssertionError("convex hull semiring operation on the hot path")

        monkeypatch.setattr(ConvexHullValue, "__add__", forbidden)
        monkeypatch.setattr(ConvexHullValue, "__mul__", forbidden)
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
        assert decode_loss(pairs, weights, metric) == decode_corpus_loss(pairs, weights, metric)

        est = MertEstimator(metric="bleu").fit(corpus)
        want = [realize(g, viterbi_derivation(g, est.weights_)[1]).tokens for g, _ in pairs]
        assert est.predict(corpus) == want
