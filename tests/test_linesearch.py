import inspect
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hullmert.estimator as estimator_module
import hullmert.forest as forest_module
import hullmert.linesearch as linesearch_module
from hullmert import MertEstimator, cli
from hullmert.errors import (
    ConfigError,
    DegenerateDirectionWarning,
    DimensionMismatchError,
    InvalidGeometryError,
    MissingFeatureWarning,
    NoHypothesesError,
)
from hullmert.forest import Derivation, Edge, Hypergraph, realize
from hullmert.geometry import Point2
from hullmert.io import load_corpus
from hullmert.linesearch import (
    DEFAULT_MERGE_EPS,
    CorpusSurface,
    ErrorSurface,
    LineSearchResult,
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
from hullmert.metrics import Bleu, ExactMatch, Metric, get_metric
from hullmert.oracle import (
    DEFAULT_REL_TOL,
    decode_corpus_loss,
    grid_line_search,
    merge_surfaces,
    naive_envelope,
    probe_etas,
    viterbi_derivation,
)
from hullmert.sampling import random_corpus, random_derivation, random_forest, random_lattice
from hullmert.semiring import ConvexHullValue, LowerChainValue

from helpers import LINE_V, LINE_W0, UNBOUNDED_ETAS, make_line_graph

INF = float("inf")
ONE_NAN = float("nan")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def surface_with(metric, boundaries, stats_values) -> CorpusSurface:
    """Corpus surface whose interval statistics are the given scalars."""
    s = ErrorSurface(tuple(boundaries), tuple(np.array([v]) for v in stats_values))
    return CorpusSurface(metric, [s], merge_eps=1e-9)


def composed_line_search(sentences, w0, v, metric, merge_eps) -> LineSearchResult:
    """``line_search`` rebuilt from its public parts, so that boundaries can
    coalesce at any tolerance: ``build_envelopes`` -> ``sentence_surface``
    -> ``CorpusSurface`` -> ``pick_eta``."""
    w0, v = np.asarray(w0, dtype=float), np.asarray(v, dtype=float)
    envelopes = build_envelopes(sentences, w0, v)
    surfaces = [sentence_surface(env, ref, metric) for env, (_, ref) in zip(envelopes, sentences)]
    surface = CorpusSurface(metric, surfaces, merge_eps)
    chosen, eta = pick_eta(surface)
    losses = surface.interval_losses()
    return LineSearchResult(
        surface.boundaries, losses, chosen, eta, losses[chosen], w0 + eta * v,
        tuple(envelopes), surface,
    )


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

    def test_no_thread_is_started_at_any_count(self, rng, monkeypatch) -> None:
        # The inside pass holds the GIL, so a pool over sentences costs
        # time; threads > 1 must run the serial path and give its result.
        corpus = random_corpus(rng, n_sentences=6, n_nodes=6)
        w0, v = rng.normal(size=3), rng.normal(size=3)
        metric = get_metric("bleu")
        serial = line_search(corpus, w0, v, metric, threads=1)

        def refuse(self):
            raise AssertionError("line_search started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        got = line_search(corpus, w0, v, metric, threads=4)
        assert got.boundaries == serial.boundaries
        assert got.interval_losses == serial.interval_losses
        assert (got.best_interval, got.eta, got.loss) == (
            serial.best_interval, serial.eta, serial.loss
        )
        assert got.weights.tobytes() == serial.weights.tobytes()
        assert [e.chain for e in got.envelopes] == [e.chain for e in serial.envelopes]
        assert [[d.tokens for d in e.derivations] for e in got.envelopes] == [
            [d.tokens for d in e.derivations] for e in serial.envelopes
        ]


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


class HalfCounts(Metric):
    """A user metric whose statistics are not integers, so their sums
    round and depend on the order they are taken in."""

    name = "half-counts"
    n_stats = 2

    def loss(self, aggregate: np.ndarray) -> float:
        return float(aggregate[0] - 0.5 * aggregate[1])


# Boundaries that tie across sentences, differ only in sign, are infinite,
# or lie so far apart that their difference overflows.
SPECIAL_BOUNDARIES = [0.0, -0.0, 1.0, 1.0 + 1e-10, 1.5, INF, -INF, 1.7e308, -1.7e308]


@st.composite
def sentence_surfaces(draw):
    """A metric, zero or more sentence surfaces scored by it (some with no
    boundaries), and a merge tolerance."""
    metric = draw(st.sampled_from([ExactMatch(), Bleu(), HalfCounts()]))
    if isinstance(metric, ExactMatch):
        row = st.sampled_from([0.0, 1.0]).map(lambda x: [x])
    elif isinstance(metric, Bleu):
        row = st.lists(st.integers(0, 30).map(float), min_size=10, max_size=10)
    else:
        row = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)
    boundary = st.sampled_from(SPECIAL_BOUNDARIES) | st.floats(allow_nan=False)
    surfaces = []
    for bounds in draw(st.lists(st.lists(boundary, max_size=5), max_size=5)):
        rows = tuple(np.array(draw(row)) for _ in range(len(bounds) + 1))
        surfaces.append(ErrorSurface(tuple(bounds), rows))
    return metric, surfaces, draw(st.sampled_from([0.0, 1e-9, 0.5, INF]))


def merged_bits(boundaries, cluster_max, stats, losses) -> tuple:
    """A merged surface with every float as its bits, -0.0 apart from 0.0."""
    return (
        [b.hex() for b in boundaries],
        [b.hex() for b in cluster_max],
        [(row.dtype.str, row.shape, row.tobytes()) for row in stats],
        [x.hex() for x in losses],
    )


class TestCorpusSurface:
    def test_surface_with_the_wrong_number_of_rows_is_refused(self) -> None:
        # Sentence n's rows are read by position, so an extra row would
        # shift every later sentence's rows and a missing one would run
        # off the end.
        metric = ExactMatch()
        later = ErrorSurface((0.5,), (np.array([0.0]), np.array([1.0])))
        extra = ErrorSurface((), (np.array([1.0]), np.array([5.0])))
        missing = ErrorSurface((0.25,), (np.array([1.0]),))
        for bad in (extra, missing):
            with pytest.raises(InvalidGeometryError, match="sentence surface 0 has"):
                CorpusSurface(metric, [bad, later], merge_eps=1e-9)
            with pytest.raises(InvalidGeometryError, match="sentence surface 1 has"):
                CorpusSurface(metric, [later, bad], merge_eps=1e-9)

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

    @given(sentence_surfaces())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_boundary_order_loop(self, case) -> None:
        # One stable sort and one cumulative sum must reproduce the loop
        # over sorted((b, n, i)) bit for bit, float statistics included.
        metric, surfaces, merge_eps = case
        got = CorpusSurface(metric, surfaces, merge_eps)
        assert merged_bits(
            got.boundaries, got._cluster_max, got.stats, got.interval_losses()
        ) == merged_bits(*merge_surfaces(metric, surfaces, merge_eps))

    def test_nan_boundary_is_refused(self) -> None:
        # No sort reproduces the loop's order around a NaN.
        s = ErrorSurface((1.0, math.nan), tuple(np.array([v]) for v in (0.0, 1.0, 0.0)))
        with pytest.raises(InvalidGeometryError, match="NaN boundary"):
            CorpusSurface(ExactMatch(), [s], merge_eps=1e-9)

    @pytest.mark.parametrize("merge_eps", [0.0, INF])
    @pytest.mark.parametrize(
        "boundaries",
        [(-sys.float_info.max, sys.float_info.max), (-INF, INF, INF)],
        ids=["difference-overflows", "difference-is-nan"],
    )
    def test_boundary_differences_raise_no_warning(self, boundaries, merge_eps) -> None:
        # The first case at inf is TestPickEta's surface with no finite eta.
        stats = tuple(np.array([float(i % 2)]) for i in range(len(boundaries) + 1))
        want = merge_surfaces(ExactMatch(), [ErrorSurface(boundaries, stats)], merge_eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = CorpusSurface(ExactMatch(), [ErrorSurface(boundaries, stats)], merge_eps)
        assert (got.boundaries, got._cluster_max) == want[:2]

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
        surface = composed_line_search(
            corpus, rng.normal(size=3), rng.normal(size=3), metric, merge_eps
        ).surface
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
        result = composed_line_search(corpus, w0, v, metric, merge_eps)
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

    @pytest.mark.parametrize("ref, eta", [("a", "5.1"), ("b", "4.9")])
    def test_weights_that_overflow_are_a_data_error(self, ref, eta) -> None:
        # Feature 1 is 0.0 on every edge, so its direction entry of 1e308
        # moves no score, but it overflows the weights at the chosen eta.
        edges = [Edge.make(0, (), {0: 1.0}, ("a",)), Edge.make(0, (), {0: -1.0, 1: 0.0}, ("b",))]
        corpus = [(Hypergraph(1, edges, goal=0, n_features=2), (ref,))]
        w0, v = np.array([-5.0, 1.0]), np.array([1.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGeometryError, match=f"chosen eta = {eta} are not finite"):
                line_search(corpus, w0, v, ExactMatch())

    def test_report_fields_are_consistent(self, rng) -> None:
        metric = ExactMatch()
        corpus = random_corpus(rng, n_sentences=3, n_nodes=5)
        result = line_search(corpus, rng.normal(size=3), rng.normal(size=3), metric)
        assert len(result.interval_losses) == len(result.boundaries) + 1
        assert result.loss == result.interval_losses[result.best_interval]
        assert len(result.envelopes) == len(corpus)
        assert result.surface.boundaries == result.boundaries

    @pytest.mark.parametrize("metric_name", ["exact", "bleu"])
    def test_composition_at_the_default_tolerance_is_the_line_search(
        self, rng, metric_name
    ) -> None:
        # The first sentence comes twice, so equal boundaries coalesce.
        metric = get_metric(metric_name)
        corpus = random_corpus(rng, n_sentences=20, n_nodes=6)
        corpus.append(corpus[0])
        w0, v = rng.normal(size=3), rng.normal(size=3)
        composed = composed_line_search(corpus, w0, v, metric, DEFAULT_MERGE_EPS)
        result = line_search(corpus, w0, v, metric)
        assert len(result.boundaries) < sum(len(e.boundaries) for e in result.envelopes)
        assert composed.boundaries == result.boundaries
        assert composed.interval_losses == result.interval_losses
        assert composed.best_interval == result.best_interval
        assert composed.eta == result.eta and composed.loss == result.loss


ZERO_DIRECTION_CALLS = {
    "build_envelopes": build_envelopes,
    "line_search": lambda c, w0, v: line_search(c, w0, v, ExactMatch()),
    "corpus_surface": lambda c, w0, v: corpus_surface(c, w0, v, ExactMatch()),
    "sweep": lambda c, w0, v: sweep(c, w0, v, ExactMatch(), -1.0, 1.0, 3),
    "optimize": lambda c, w0, v: optimize(c, w0, ExactMatch(), directions=[v]),
}


class TestWarningsNameTheCaller:
    """A package warning is reported at the caller's line, not at the
    library frame that raised it, however deep that frame is."""

    @pytest.mark.parametrize("entry", ZERO_DIRECTION_CALLS)
    def test_zero_direction(self, two_line_graph, entry) -> None:
        corpus = [(two_line_graph, ("steep",))]
        with pytest.warns(DegenerateDirectionWarning) as record:
            ZERO_DIRECTION_CALLS[entry](corpus, np.array([2.0]), np.array([0.0]))
        assert record[0].filename == __file__

    def test_missing_initial_weight(self) -> None:
        corpus = load_corpus(FIXTURES / "corpus.jsonl")
        with pytest.warns(MissingFeatureWarning) as record:
            MertEstimator(initial_weights={}).fit(corpus)
        assert record[0].filename == __file__


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

    @pytest.mark.parametrize("steps", [1, 2, 2001])
    def test_grid_reads_the_surface_at_each_eta(self, rng, steps) -> None:
        # The grid spans the outermost boundaries, so its ends fall on them
        # and read the interval on their right, as ``loss_at`` does.
        corpus = random_corpus(rng, n_sentences=3, n_nodes=6)
        w0, v = rng.normal(size=3), rng.normal(size=3)
        surface = corpus_surface(corpus, w0, v, Bleu())
        assert len(surface.boundaries) >= 2
        lo, hi = surface.boundaries[0], surface.boundaries[-1]
        result = sweep(corpus, w0, v, Bleu(), lo, hi, steps)
        etas = (lo,) if steps == 1 else tuple(float(x) for x in np.linspace(lo, hi, steps))
        assert result.etas == etas
        assert result.losses == tuple(surface.loss_at(eta) for eta in etas)
        assert result.best_index == min(range(steps), key=lambda i: (result.losses[i], i))

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


# Each search entry point, as a call on a corpus, w0, a direction and a
# metric, with the settings it takes.
ENTRY_POINTS = {
    "line_search": (
        line_search,
        ("threads",),
    ),
    "corpus_surface": (
        corpus_surface,
        (),
    ),
    "sweep": (
        lambda c, w0, v, m, **kw: sweep(c, w0, v, m, -5.0, 5.0, 11, **kw),
        (),
    ),
    "optimize": (
        lambda c, w0, v, m, **kw: optimize(c, w0, m, **kw),
        ("iterations",),
    ),
    "build_envelopes": (
        lambda c, w0, v, m, **kw: build_envelopes(c, w0, v, **kw),
        ("threads",),
    ),
    "MertEstimator.fit": (
        lambda c, w0, v, m, **kw: MertEstimator(initial_weights=w0, **kw).fit(c),
        ("iterations",),
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


def forbid_inside_passes(monkeypatch, message: str) -> None:
    """Make the search's inside pass and the decode's raise ``message``."""
    def forbidden(*_):
        raise AssertionError(message)

    for name in ("_lower_chain_values", "_best_values"):
        monkeypatch.setattr(linesearch_module, name, forbidden)


def call_entry(entry: str, **settings):
    call, _ = ENTRY_POINTS[entry]
    corpus = [two_hypothesis_sentence("good", "bad"), crossing_sentence(0.5)]
    return call(corpus, np.array([-1.0, 1.0]), np.array([1.0, 0.0]), ExactMatch(), **settings)


class TestSettingsAreChecked:
    @pytest.mark.parametrize("entry, setting, value", settings_cases(OUT_OF_RANGE))
    def test_out_of_range_value_raises_before_any_envelope(
        self, monkeypatch, entry, setting, value
    ) -> None:
        forbid_inside_passes(monkeypatch, "envelope built before the settings were checked")
        with pytest.raises(ConfigError, match=setting.replace("_", "-")):
            call_entry(entry, **{setting: value})

    @pytest.mark.parametrize("entry, setting, value", settings_cases(LEGAL_EDGES))
    def test_legal_edge_value_runs(self, entry, setting, value) -> None:
        call_entry(entry, **{setting: value})

    @pytest.mark.parametrize(
        "entry, value",
        [
            pytest.param(entry, value, id=f"{entry}-threads={value}")
            for entry in ("corpus_surface", "sweep", "optimize", "MertEstimator.fit")
            for value in (0, 1)
        ],
    )
    def test_serial_entry_point_takes_no_thread_count(
        self, monkeypatch, entry, value
    ) -> None:
        # The inside pass holds the GIL, so a pool does not pay; only
        # build_envelopes and line_search still take threads. Any count,
        # in the old range or not, is refused before an envelope is built.
        forbid_inside_passes(monkeypatch, "envelope built before the thread count was refused")
        with pytest.raises(TypeError, match="threads"):
            call_entry(entry, threads=value)

    @pytest.mark.parametrize(
        "entry, value",
        [
            pytest.param(entry, value, id=f"{entry}-merge_eps={value}")
            for entry in ENTRY_POINTS
            if entry not in ("build_envelopes", "CorpusSurface")
            for value in OUT_OF_RANGE["merge_eps"] + LEGAL_EDGES["merge_eps"]
        ],
    )
    def test_search_entry_point_takes_no_merge_tolerance(
        self, monkeypatch, entry, value
    ) -> None:
        # Every search coalesces boundaries at DEFAULT_MERGE_EPS; only
        # CorpusSurface takes another tolerance. Any value, in the old
        # range or not, is refused before an envelope is built.
        forbid_inside_passes(monkeypatch, "envelope built before the tolerance was refused")
        with pytest.raises(TypeError, match="merge_eps"):
            call_entry(entry, merge_eps=value)

    @pytest.mark.parametrize(
        "call",
        [line_search, corpus_surface, sweep, optimize, MertEstimator],
        ids=lambda call: call.__name__,
    )
    def test_merge_tolerance_is_not_in_the_signature(self, call) -> None:
        assert "merge_eps" not in inspect.signature(call).parameters

    @pytest.mark.parametrize(
        "call",
        [line_search, optimize, pick_eta, MertEstimator, probe_etas],
        ids=lambda call: call.__name__,
    )
    def test_eta_placement_is_not_a_setting(self, call) -> None:
        # Every eta inside the winning interval has its loss, so where the
        # eta lands in an unbounded one is fixed by the line search.
        assert "offset" not in inspect.signature(call).parameters


# Every search entry point, called on a corpus with two features.  The
# last two take weights and no direction, so only w0 is checked there.
VECTOR_CALLS = {
    "build_envelope": lambda c, w0, v: build_envelope(c[0][0], w0, v),
    "build_envelopes": build_envelopes,
    "corpus_surface": lambda c, w0, v: corpus_surface(c, w0, v, ExactMatch()),
    "line_search": lambda c, w0, v: line_search(c, w0, v, ExactMatch()),
    "sweep": lambda c, w0, v: sweep(c, w0, v, ExactMatch(), -1.0, 1.0, 3),
    "optimize": lambda c, w0, v: optimize(c, w0, ExactMatch(), directions=[v]),
    "decode_loss": lambda c, w0, v: decode_loss(c, w0, ExactMatch()),
    "optimize-axes": lambda c, w0, v: optimize(c, w0, ExactMatch()),
}
BAD_VECTORS = {
    "0-D": (0.5, 1.0),
    "2-D": (np.zeros((1, 2)), np.ones((1, 2))),
    "unequal-lengths": (np.zeros(2), np.ones(3)),
    "2-D-direction": (np.zeros(2), np.ones((1, 2))),
}


class TestVectorsAreChecked:
    """Every search refuses weights and a direction that are not 1-D
    vectors of one length, before any envelope is built.  ``optimize``
    decodes at w0 first, so it refuses a bad direction at its first search."""

    @pytest.mark.parametrize(
        "entry, case",
        [
            pytest.param(entry, case, id=f"{entry}-{case}")
            for entry in VECTOR_CALLS
            for case in BAD_VECTORS
            if case in ("0-D", "2-D") or entry not in ("decode_loss", "optimize-axes")
        ],
    )
    def test_bad_vectors_raise_before_any_envelope(self, monkeypatch, entry, case) -> None:
        w0, v = BAD_VECTORS[case]
        if entry != "optimize" or np.ndim(w0) != 1:
            forbid_inside_passes(monkeypatch, "envelope built before the vectors were checked")
        corpus = [two_hypothesis_sentence("good", "bad"), crossing_sentence(0.5)]
        with pytest.raises(DimensionMismatchError):
            VECTOR_CALLS[entry](corpus, w0, v)


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

    def test_decode_runs_no_lower_chain_operation(self, monkeypatch, rng) -> None:
        # At a zero direction every node's lower chain is one point, so a
        # decode takes no union, product or run hull.  decode_loss,
        # predict and score must still give the zero-direction envelope's
        # yields and loss, ties included (integer features tie exactly).
        fixture = load_corpus(FIXTURES / "corpus.jsonl").pairs()
        sampled = random_corpus(rng, n_sentences=4, integer_features=True)
        for _ in range(3):
            graph = random_forest(rng, n_nodes=12, max_edges_per_node=3, integer_features=True)
            sampled.append((graph, random_derivation(rng, graph).tokens))
        metric = get_metric("bleu")

        def zero_direction(pairs, w):
            envs = [build_envelope(g, w, np.zeros_like(w)) for g, _ in pairs]
            rows = [sentence_surface(env, ref, metric).stats[0] for env, (_, ref) in zip(envs, pairs)]
            return [env.derivations[0].tokens for env in envs], metric.loss(
                sum(rows, metric.zero_stats())
            )

        cases = []
        for pairs, dim in ((fixture, 2), (sampled, 3)):
            est = MertEstimator(metric="bleu").fit(pairs)
            weights = [est.weights_, rng.normal(size=dim), rng.integers(-2, 3, size=dim) * 1.0]
            cases.append((pairs, est, [(w, *zero_direction(pairs, w)) for w in weights]))

        def forbidden(*_):
            raise AssertionError("lower-chain operation in a fixed-weight decode")

        monkeypatch.setattr(LowerChainValue, "__add__", forbidden)
        monkeypatch.setattr(LowerChainValue, "__mul__", forbidden)
        monkeypatch.setattr(forest_module, "_edge_product", forbidden)
        monkeypatch.setattr(forest_module, "_strict_lower", forbidden)
        for pairs, est, wants in cases:
            for w, _, loss in wants:
                assert decode_loss(pairs, w, metric) == loss
            _, tokens, loss = wants[0]
            assert est.predict(pairs) == tokens
            assert est.score(pairs) == -loss

    def test_corpus_surface_is_one_pass_with_stored_losses(self, monkeypatch, rng) -> None:
        # The corpus surface is a cumulative sum over the sorted sentence
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


class TestEnvelopeObjectsOnRead:
    def test_search_entry_points_build_no_point_or_derivation(self, rng, monkeypatch) -> None:
        # Envelopes keep the goal chain's coordinates and one yield per
        # point; a search, a sweep, a decode and a prediction read only
        # those, so no Point2 or Derivation is made until a caller reads
        # Envelope.chain or .derivations.
        corpus = random_corpus(rng, n_sentences=3, integer_features=True)
        for _ in range(2):
            graph = random_forest(rng, n_nodes=12, max_edges_per_node=3)
            corpus.append((graph, random_derivation(rng, graph).tokens))
        w0, v = rng.normal(size=3), rng.normal(size=3)
        metric = get_metric("bleu")
        estimator = MertEstimator(metric="bleu").fit(corpus)
        made = {"Point2": 0, "Derivation": 0}
        post_init, init = Point2.__post_init__, Derivation.__init__

        def counting_post_init(point) -> None:
            made["Point2"] += 1
            post_init(point)

        def counting_init(derivation, *args) -> None:
            made["Derivation"] += 1
            init(derivation, *args)

        monkeypatch.setattr(Point2, "__post_init__", counting_post_init)
        monkeypatch.setattr(Derivation, "__init__", counting_init)
        calls = {
            "line_search": lambda: line_search(corpus, w0, v, metric),
            "optimize": lambda: optimize(corpus, w0, metric, iterations=2),
            "sweep": lambda: sweep(corpus, w0, v, metric, -2.0, 2.0, 41),
            "decode_loss": lambda: decode_loss(corpus, w0, metric),
            "MertEstimator.predict": lambda: estimator.predict(corpus),
        }
        for name, call in calls.items():
            call()
            assert made == {"Point2": 0, "Derivation": 0}, name
        # The counters see the objects a reader asks for.
        env = line_search(corpus, w0, v, metric).envelopes[-1]
        assert len(env.chain) == len(env.derivations) > 0
        assert made == {"Point2": len(env.chain), "Derivation": len(env.chain)}


class TestSweepPick:
    @given(
        table=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.0, "one nan", "fresh nan"]),
            min_size=1,
            max_size=6,
        ),
        steps=st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_best_index_is_the_first_least_loss(self, table, steps) -> None:
        # A user metric's loss per envelope segment: ties, both zeros, and
        # NaN, as one object that every interval repeats or a new object
        # per interval.  The grid repeats each interval's loss object, and
        # (loss, index) tuples compare a repeated object by identity.
        k = len(table)
        # Line i, slope i and intercept -i(i-1)/2, leads on (i, i+1).
        lines = [(float(i), -i * (i - 1) / 2) for i in range(k)]
        corpus = [(make_line_graph(lines), ("h0",))]

        class SegmentLoss(ExactMatch):
            def stats(self, hyp, ref) -> np.ndarray:
                return np.array([float(hyp[0][1:])])

            def loss(self, aggregate) -> float:
                value = table[int(aggregate[0])]
                if value == "fresh nan":
                    return float("nan")
                return ONE_NAN if value == "one nan" else value

        result = sweep(corpus, LINE_W0, LINE_V, SegmentLoss(), -0.5, k - 0.5, steps)
        losses = result.losses
        assert result.best_index == min(range(len(losses)), key=lambda i: (losses[i], i))
        assert result.best_loss is losses[result.best_index]


class CountingBleu(Bleu):
    """BLEU that records every (hypothesis, reference) pair it scores,
    one pair at a time or in a batch, and counts its batches."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        self.batches = 0

    def stats(self, hyp, ref) -> np.ndarray:
        self.calls.append((tuple(hyp), tuple(ref)))
        return super().stats(hyp, ref)

    def stats_many(self, hyps, refs) -> np.ndarray:
        self.calls.extend((tuple(h), tuple(r)) for h, r in zip(hyps, refs))
        self.batches += 1
        return super().stats_many(hyps, refs)


class BatchOnlyBleu(Bleu):
    """BLEU whose per-pair ``stats`` raises, so only the batch can score."""

    def stats(self, hyp, ref) -> np.ndarray:
        raise AssertionError("a yield was scored outside Metric.stats_many")


class RowShort(ExactMatch):
    """``stats_many`` one row short of one per hypothesis."""

    def stats_many(self, hyps, refs) -> np.ndarray:
        return super().stats_many(hyps, refs)[1:]


class RowWide(ExactMatch):
    """``stats_many`` rows twice as wide as ``zero_stats``."""

    def stats_many(self, hyps, refs) -> np.ndarray:
        stats = super().stats_many(hyps, refs)
        return np.concatenate([stats, stats], axis=1)


class RowList(ExactMatch):
    """``stats_many`` rows in a list, not an array."""

    def stats_many(self, hyps, refs):
        return list(super().stats_many(hyps, refs))


def repeated_yield_graph() -> Hypergraph:
    """Three lines, all on the envelope along LINE_W0 + eta * LINE_V (with
    a third, unused feature); the outer two share the yield ``a``."""
    lines = [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    edges = [Edge.make(0, (), {0: m, 1: b}, (tok,)) for (m, b), tok in zip(lines, "aba")]
    return Hypergraph(1, edges, goal=0, n_features=3)


def replay_optimize(sentences, w0, metric, iterations):
    """``optimize`` along the axes, rebuilt from public calls that each
    score their hypotheses afresh.  Returns the weights, loss and steps,
    every line search, and the last accepted one."""
    w = np.asarray(w0, dtype=float).copy()
    loss = decode_loss(sentences, w, metric)
    steps, searches, accepted = [], [], None
    for it in range(iterations):
        improved = False
        for axis, v in enumerate(np.eye(len(w))):
            result = line_search(sentences, w, v, metric)
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


class TestOneScoringPath:
    """A decode, a search, a sweep and ``sentence_surface`` all score
    yields through the same memoized ``stats_many`` batch."""

    @pytest.fixture
    def corpus(self, rng):
        return random_corpus(rng, n_sentences=6, n_nodes=7, max_parallel=3)

    def test_no_yield_is_scored_one_pair_at_a_time(self, corpus, rng, monkeypatch) -> None:
        w0, v = rng.normal(size=3), rng.normal(size=3)
        bleu, batched = Bleu(), BatchOnlyBleu()
        assert decode_loss(corpus, w0, batched) == decode_loss(corpus, w0, bleu)
        got = optimize(corpus, w0, batched, iterations=2)
        want = optimize(corpus, w0, bleu, iterations=2)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert (got.loss, got.initial_loss, got.steps) == (want.loss, want.initial_loss, want.steps)
        assert line_search(corpus, w0, v, batched).loss == line_search(corpus, w0, v, bleu).loss
        assert sweep(corpus, w0, v, batched, -1.0, 1.0, 5) == sweep(corpus, w0, v, bleu, -1.0, 1.0, 5)
        est = MertEstimator(metric="bleu", initial_weights=w0).fit(corpus)
        want_score = est.score(corpus)
        monkeypatch.setattr(estimator_module, "get_metric", lambda name: BatchOnlyBleu())
        assert est.score(corpus) == want_score

    @pytest.mark.parametrize(
        "metric, got",
        [(RowShort(), r"\(\d+, 1\)"), (RowWide(), r"\(\d+, 2\)"), (RowList(), "a list")],
        ids=["short", "wide", "list"],
    )
    def test_a_batch_of_the_wrong_shape_is_refused(self, rng, metric, got) -> None:
        corpus = random_corpus(rng, n_sentences=3)
        w0, v = rng.normal(size=3), rng.normal(size=3)
        name = type(metric).__name__
        message = rf"{name}\.stats_many must return an array of shape \(\d+, 1\), got {got}"
        with pytest.raises(ConfigError, match=message):
            line_search(corpus, w0, v, metric)
        with pytest.raises(ConfigError, match=message):
            decode_loss(corpus, w0, metric)

    def test_decode_scores_the_corpus_in_one_batch(self, corpus, rng) -> None:
        metric = CountingBleu()
        decode_loss(corpus, rng.normal(size=3), metric)
        assert metric.batches == 1 and len(metric.calls) == len(corpus)

    @pytest.mark.parametrize("metric", [ExactMatch(), Bleu()], ids=["exact", "bleu"])
    def test_sentence_surface_is_the_search_surface(self, corpus, metric) -> None:
        corpus = corpus + [(repeated_yield_graph(), ("a",))]
        w0, v = np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])
        result = line_search(corpus, w0, v, metric)
        for env, (_, ref), searched in zip(result.envelopes, corpus, result.surface.surfaces):
            surface = sentence_surface(env, ref, metric)
            assert surface.boundaries == searched.boundaries
            assert [a.tobytes() for a in surface.stats] == [a.tobytes() for a in searched.stats]
            assert not any(a.flags.writeable for a in surface.stats)
        # The repeated yield is scored once; both of its segments share the row.
        assert [d.tokens for d in env.derivations] == [("a",), ("b",), ("a",)]
        assert surface.stats[0] is surface.stats[2]
        with pytest.raises(ValueError):
            surface.stats[0][0] = 1.0


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
        # A wide merge_eps, set through the composition, chains boundaries
        # into clusters.  Re-decoding is not asserted: when two best
        # derivations tie (equal feature vectors) the decode may keep the
        # other one.
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
        searched = composed_line_search(corpus, w0, v, metric, merge_eps)
        assert_loss_is_attained(corpus, searched, metric)
        # optimize, which scores with one memo, equals its replay from
        # public calls, each scoring afresh.
        result = optimize(corpus, w0, metric, 2)
        weights, loss, steps, _, accepted = replay_optimize(corpus, w0, metric, 2)
        assert result.weights.tobytes() == weights.tobytes()
        assert result.loss == loss and result.steps == steps
        if accepted is None:
            assert loss == decode_loss(corpus, w0, metric)
        else:
            assert_loss_is_attained(corpus, accepted, metric)


class TestExactSignDecisions:
    """An envelope must keep every segment on which a derivation wins.

    ``geometry.difference_sign`` reads any difference within 1e-9 of the
    cross products' magnitude as zero, so a vertex that is truly on the
    lower chain is dropped once the products reach about 1e9 (integers)
    or whenever a float vertex lies that close to its neighbours' line.
    These pin the defect until an exact sign test replaces the band.
    """

    @pytest.mark.xfail(strict=True, reason="difference_sign's 1e-9 band drops a true vertex")
    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (1.0, 10.0**9 - 1), (2.0, 2.0 * 10**9)],
            [(0.0, 0.0), (1e-3, 1000 - 2e-6), (2e-3, 2000.0)],
        ],
        ids=["integer", "float"],
    )
    def test_middle_vertex_keeps_its_segment(self, points) -> None:
        # Dual point (x, y) is the line x * eta - y; the middle one wins on
        # a short segment around the other two lines' crossing.
        graph = make_line_graph([(x, -y) for x, y in points])
        corpus = [(graph, ("h1",))]
        result = line_search(corpus, LINE_W0, LINE_V, ExactMatch())
        assert result.loss == 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: a translate that rounding makes collinear stays a chain "
        "that is not strict",
    )
    def test_translate_made_collinear_keeps_no_zero_width_segment(self) -> None:
        # The leaves' chain (0, 0), (1, -0.4), (2, 0) lifted to y = 1e16 by
        # one arc rounds to three points on a line, and all three stay.
        leaves = [{}, {1: 1.0, 2: 1.0}, {1: 2.0}]
        edges = [Edge.make(0, (), f, (f"w{i}",)) for i, f in enumerate(leaves)]
        edges.append(Edge.make(1, (0,), {0: 1.0}, (0,)))
        graph = Hypergraph(2, edges, goal=1, n_features=3)
        envelope = build_envelope(graph, np.array([-1e16, 0.0, 0.4]), np.array([0.0, 1.0, 0.0]))
        assert all(lo < hi for lo, hi in zip(envelope.boundaries, envelope.boundaries[1:]))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: an orientation product that overflows reads inf > inf as "
        "false and drops a true vertex",
    )
    def test_overflowing_turn_keeps_the_winning_derivation(self) -> None:
        # (1 - 0) * (0 - 0) = 0 and (-1.7e308) * 2 = -inf: the band test
        # reads inf > inf as false and drops b, which wins at eta = 0.
        leaves = [{1: 0.0}, {1: 1.0, 2: 1.0}, {1: 2.0}]
        edges = [Edge.make(0, (), f, (w,)) for f, w in zip(leaves, "abc")]
        corpus = [(Hypergraph(1, edges, goal=0, n_features=3), ("b",))]
        w0, v = np.array([0.0, 0.0, 1.7e308]), np.array([0.0, 1.0, 0.0])
        result = line_search(corpus, w0, v, ExactMatch())
        assert result.loss == decode_loss(corpus, result.weights, ExactMatch())


@st.composite
def search_problems(draw, integer=st.booleans()):
    """A seeded corpus of two to four lattices or branching forests, larger
    than any brute-force oracle takes, with float or integer features and
    vectors (as ``integer`` draws), and either metric."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    forest = draw(st.booleans())
    integer = draw(integer)
    corpus = []
    for _ in range(int(rng.integers(2, 5))):
        if forest:
            graph = random_forest(rng, n_nodes=14, max_edges_per_node=3, integer_features=integer)
        else:
            graph = random_lattice(rng, n_nodes=16, max_parallel=3, integer_features=integer)
        corpus.append((graph, random_derivation(rng, graph).tokens))
    w0, v = np.zeros(3), np.zeros(3)
    while not v.any():
        if integer:
            w0, v = (rng.integers(-3, 4, size=3).astype(float) for _ in range(2))
        else:
            w0, v = rng.normal(size=3), rng.normal(size=3)
    return corpus, w0, v, get_metric(draw(st.sampled_from(["bleu", "exact"])))


class TestMetamorphicRelations:
    """Changes of input under which the reported loss must not change.
    They need no oracle, so they run at sizes no brute-force check
    reaches, and they guard bit-level rewrites of the hot loops."""

    @given(search_problems())
    @settings(max_examples=60, deadline=None)
    def test_negating_the_direction(self, problem) -> None:
        corpus, w0, v, metric = problem
        assert line_search(corpus, w0, -v, metric).loss == line_search(corpus, w0, v, metric).loss

    @given(search_problems())
    @settings(max_examples=60, deadline=None)
    def test_reversing_the_sentences(self, problem) -> None:
        corpus, w0, v, metric = problem
        assert (line_search(corpus[::-1], w0, v, metric).loss
                == line_search(corpus, w0, v, metric).loss)

    @given(search_problems())
    @settings(max_examples=60, deadline=None)
    def test_scaling_weights_and_direction_by_two(self, problem) -> None:
        corpus, w0, v, metric = problem
        assert (line_search(corpus, 2 * w0, 2 * v, metric).loss
                == line_search(corpus, w0, v, metric).loss)

    @given(search_problems())
    @settings(max_examples=60, deadline=None)
    def test_shifting_the_weights_along_the_direction(self, problem) -> None:
        # w0 + 10 v + eta v = w0 + (eta + 10) v.  When one interval holds
        # the minimum, the same interval is chosen, 10 to the left.
        corpus, w0, v, metric = problem
        base = line_search(corpus, w0, v, metric)
        shifted = line_search(corpus, w0 + 10 * v, v, metric)
        assert shifted.loss == base.loss
        if base.boundaries and base.interval_losses.count(base.loss) == 1:
            assert math.isclose(shifted.eta, base.eta - 10, rel_tol=1e-9, abs_tol=1e-9)

    @given(
        search_problems(),
        st.integers(0, 3),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_adding_a_feature_that_is_zero_everywhere(self, problem, at, weight, step) -> None:
        # Every edge gets feature `at` = 0.0 (later ids move up by one).
        # Each projection adds a signed zero to a sum that starts at +0.0
        # and is never -0.0, so every bit of the search is the same, unless
        # the new weight overflows at the chosen eta: that search is refused.
        corpus, w0, v, metric = problem

        def widen(graph: Hypergraph) -> Hypergraph:
            edges = [
                Edge.make(
                    e.head, e.tails, {at: 0.0, **{i + (i >= at): x for i, x in e.features}},
                    e.template,
                )
                for e in graph.edges
            ]
            return Hypergraph(graph.n_nodes, edges, graph.goal, graph.n_features + 1)

        wide = [(widen(graph), ref) for graph, ref in corpus]
        base = line_search(corpus, w0, v, metric)
        args = (wide, np.insert(w0, at, weight), np.insert(v, at, step), metric)
        if not math.isfinite(weight + base.eta * step):
            with pytest.raises(InvalidGeometryError, match="chosen eta"):
                line_search(*args)
            return
        got = line_search(*args)
        assert got.boundaries == base.boundaries
        assert got.interval_losses == base.interval_losses
        assert (got.best_interval, got.eta, got.loss) == (base.best_interval, base.eta, base.loss)

    @given(search_problems(integer=st.just(False)))
    @settings(max_examples=60, deadline=None)
    def test_reversing_each_graphs_edges(self, problem) -> None:
        # In-edge order only decides between derivations that tie exactly.
        # Float features put them in general position once no two edges
        # share head, tails and features (two featureless parallel words
        # tie at every eta); then every bit of the search is the same.
        corpus, w0, v, metric = problem
        for graph, _ in corpus:
            keys = [(e.head, e.tails, e.features) for e in graph.edges]
            assume(len(set(keys)) == len(keys))

        def reverse(graph: Hypergraph) -> Hypergraph:
            return Hypergraph(graph.n_nodes, graph.edges[::-1], graph.goal, graph.n_features)

        base = line_search(corpus, w0, v, metric)
        got = line_search([(reverse(g), ref) for g, ref in corpus], w0, v, metric)
        assert got.boundaries == base.boundaries
        assert got.interval_losses == base.interval_losses
        assert (got.best_interval, got.eta, got.loss) == (base.best_interval, base.eta, base.loss)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5: of two derivations that tie exactly, in-edge order picks one",
    )
    def test_reversing_the_edges_of_a_tie_keeps_the_loss(self) -> None:
        # Two words with the same integer features tie at every eta; the
        # envelope keeps the one listed first, so the loss follows the order.
        edges = [Edge.make(0, (), {0: 1.0}, ("a",)), Edge.make(0, (), {0: 1.0}, ("b",))]
        w0, v = np.array([1.0]), np.array([1.0])

        def loss(edge_list) -> float:
            graph = Hypergraph(1, edge_list, goal=0, n_features=1)
            return line_search([(graph, ("a",))], w0, v, ExactMatch()).loss

        assert loss(edges[::-1]) == loss(edges)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: boundaries within an absolute DEFAULT_MERGE_EPS coalesce, "
        "and boundaries scale as 1/|v|",
    )
    def test_scaling_the_direction_keeps_the_loss(self) -> None:
        # Sentence A wants y, which wins for eta > 0; sentence B wants x,
        # which wins for eta < 1e-3.  Along v both are right between the
        # boundaries 0 and 1e-3.  Along 1e6 v the boundaries are 0 and
        # 1e-9, which coalesce, and that interval is lost.
        def sentence(x_features, ref):
            edges = [
                Edge.make(0, (), x_features, ("x",)),
                Edge.make(0, (), {1: 1.0}, ("y",)),
            ]
            return Hypergraph(1, edges, goal=0, n_features=2), (ref,)

        corpus = [sentence({}, "y"), sentence({0: 1e-3}, "x")]
        w0, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert line_search(corpus, w0, v, ExactMatch()).loss == 0.0
        assert line_search(corpus, w0, 1e6 * v, ExactMatch()).loss == 0.0

    @given(search_problems(integer=st.just(True)), st.permutations(range(3)))
    @settings(max_examples=60, deadline=None)
    def test_renumbering_the_features(self, problem, order) -> None:
        # Feature i becomes feature order[i] on every edge, in w0 and in v.
        # Integer projections sum exactly in any order, so every bit of the
        # search is the same; float ones may differ in their last bits.
        corpus, w0, v, metric = problem

        def renumber(graph: Hypergraph) -> Hypergraph:
            edges = [
                Edge.make(e.head, e.tails, {order[i]: x for i, x in e.features}, e.template)
                for e in graph.edges
            ]
            return Hypergraph(graph.n_nodes, edges, graph.goal, graph.n_features)

        moved_w0, moved_v = np.empty(3), np.empty(3)
        moved_w0[order], moved_v[order] = w0, v
        base = line_search(corpus, w0, v, metric)
        got = line_search([(renumber(g), ref) for g, ref in corpus], moved_w0, moved_v, metric)
        assert got.boundaries == base.boundaries
        assert got.interval_losses == base.interval_losses
        assert (got.best_interval, got.eta, got.loss) == (base.best_interval, base.eta, base.loss)

    @given(search_problems())
    @settings(max_examples=60, deadline=None)
    def test_listing_the_corpus_twice_doubles_each_exact_match_loss(self, problem) -> None:
        # ExactMatch counts wrong sentences, so every interval's count
        # doubles and the same interval and eta are chosen.
        corpus, w0, v, _ = problem
        base = line_search(corpus, w0, v, ExactMatch())
        twice = line_search(corpus + corpus, w0, v, ExactMatch())
        assert twice.boundaries == base.boundaries
        assert twice.interval_losses == tuple(2 * x for x in base.interval_losses)
        assert (twice.best_interval, twice.eta) == (base.best_interval, base.eta)
