"""Exact minimum-error line search along one direction in weight space.

For weights w(eta) = w0 + eta * v every derivation's score is a line in
eta, so a sentence's best achievable score is the upper envelope of
finitely many lines.  The convex hull semiring computes that envelope in
dual form: the lower chain of the goal hull lists the envelope's
hypotheses left to right, and consecutive slopes give the eta values where
the argmax changes.  ``build_envelope`` runs the inside pass in the
lower-chain (envelope) semiring, which carries only that face of each
hull; ``ConvexHullValue`` and ``inside_hull`` stay as the reference it
must agree with point for point.  Realizing each chain point's derivation
and scoring its yield turns the envelope into a piecewise-constant error
surface.  Each call scores a distinct yield of a sentence once: a per-call
memo hands out one read-only statistics array per (sentence, yield), and
``optimize`` shares its memo between the initial decode and every axis
search.  A search gathers the chain-point yields of all sentences that the
memo lacks and scores them in one ``Metric.stats_many`` batch; a decode,
with one yield per sentence, scores each through ``Metric.stats``.
Surfaces add across sentences: one sorted pass over all sentence
boundaries takes a prefix sum of each sentence's step in statistics, so
the corpus loss is a step function with one loss per interval, and its
exact minimum is read off those.  Integer statistics sum exactly; float
statistics from a user-defined ``Metric`` are summed in boundary order.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateDirectionWarning,
    DimensionMismatchError,
    InvalidGeometryError,
    NoHypothesesError,
)
from .forest import Derivation, Hypergraph, envelope_points
from .geometry import Point2, envelope_boundaries
from .metrics import Metric

DEFAULT_MERGE_EPS = 1e-9
# The step from the outermost boundary cluster to an unbounded interval's
# eta; every eta in an interval has its loss, so this only fixes the report.
_UNBOUNDED_STEP = 0.1


def _check_settings(merge_eps: float = 0.0, threads: int = 1):
    """Raise ``ConfigError`` unless ``merge_eps >= 0`` and ``threads >= 1``;
    NaN fails every comparison, so it is rejected."""
    if not merge_eps >= 0:
        raise ConfigError(f"merge-eps must be >= 0, got {merge_eps}")
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")


@dataclass(frozen=True)
class Envelope:
    """Upper envelope of one sentence's derivation scores along a direction.

    ``chain`` holds the surviving dual points in order of increasing slope
    coordinate; ``boundaries[i]`` is the eta where segment i hands over to
    segment i+1; ``derivations`` realizes one argmax derivation per segment.
    """

    chain: tuple[Point2, ...]
    boundaries: tuple[float, ...]
    derivations: tuple[Derivation, ...]

    def segment_at(self, eta: float) -> int:
        return bisect_right(self.boundaries, eta)

    def max_at(self, eta: float) -> float:
        p = self.chain[self.segment_at(eta)]
        return p.x * eta - p.y

    def segments(self) -> list[tuple[float, float, Point2, Derivation]]:
        """(lo, hi, dual point, derivation) per piece; the point's x is the
        primal line's slope and -y its intercept."""
        los = (float("-inf"),) + self.boundaries
        his = self.boundaries + (float("inf"),)
        return list(zip(los, his, self.chain, self.derivations))


def build_envelope(graph: Hypergraph, w0: np.ndarray, v: np.ndarray) -> Envelope:
    """Inside pass in the lower-chain semiring, one derivation per point."""
    chain, derivations = envelope_points(graph, w0, v)
    if not chain:
        raise NoHypothesesError("goal node derives nothing; envelope is empty")
    return Envelope(chain.points, envelope_boundaries(chain), derivations)


@dataclass(frozen=True)
class ErrorSurface:
    """Piecewise-constant statistics of one sentence as a function of eta.

    ``stats[i]`` applies on the open interval (boundaries[i-1],
    boundaries[i]); intervals with identical statistics are kept separate.
    """

    boundaries: tuple[float, ...]
    stats: tuple[np.ndarray, ...]

    def stats_at(self, eta: float) -> np.ndarray:
        return self.stats[bisect_right(self.boundaries, eta)]


def sentence_surface(envelope: Envelope, ref: Sequence[str], metric: Metric) -> ErrorSurface:
    """The envelope's surface, its yields scored in one ``stats_many`` call."""
    hyps = [d.tokens for d in envelope.derivations]
    stats = metric.stats_many(hyps, [ref] * len(hyps))
    return ErrorSurface(envelope.boundaries, tuple(stats))


def _interval_point(starts, ends, k: int) -> float | None:
    """A point strictly inside interval k, where boundary cluster j spans
    [starts[j], ends[j]]; no boundaries yield 0.

    Bounded intervals yield the midpoint between their clusters (summed
    as halves when the clusters' sum overflows), or None when no float
    lies strictly between them (the midpoint would round onto a
    boundary).  Unbounded ones step 0.1 beyond the outermost cluster,
    from the last cluster's maximum only when a step from its minimum stays
    inside it; a step below the float spacing becomes the next float beyond
    it, and None when that float is not finite.
    """
    if not starts:
        return 0.0
    if 0 < k < len(starts):
        lo, hi = ends[k - 1], starts[k]
        eta = 0.5 * (lo + hi)
        if math.isinf(eta):  # lo + hi overflowed
            eta = 0.5 * lo + 0.5 * hi
        return eta if lo < eta < hi else None
    if k == 0:
        edge, eta, away = starts[0], starts[0] - _UNBOUNDED_STEP, -math.inf
    else:
        edge, eta, away = ends[-1], starts[-1] + _UNBOUNDED_STEP, math.inf
        if not eta > edge:
            eta = edge + _UNBOUNDED_STEP
    if eta == edge:
        eta = math.nextafter(edge, away)
    return eta if math.isfinite(eta) else None


class CorpusSurface:
    """Sum of per-sentence surfaces on the merged interval decomposition.

    One pass over all sentence boundaries in sorted order: the running
    total starts at the sum of leftmost statistics and adds a sentence's
    step ``stats[i+1] - stats[i]`` at each of its boundaries.  Boundaries
    within ``merge_eps`` of the previous one chain into a cluster reported
    at its minimum; an interval's statistics are the total as its right
    cluster opens (the last interval's, the final total), so every sentence
    is read on the correct side of all of its own boundaries.  Integer
    statistics sum exactly; float ones from a user-defined ``Metric`` are
    summed in boundary order.  Interval losses are computed once, here.
    """

    __slots__ = ("metric", "surfaces", "boundaries", "_cluster_max", "stats", "_losses")

    def __init__(self, metric: Metric, surfaces: Sequence[ErrorSurface], merge_eps: float):
        _check_settings(merge_eps)
        self.metric = metric
        self.surfaces = tuple(surfaces)
        steps = sorted(
            (b, n, i) for n, s in enumerate(self.surfaces) for i, b in enumerate(s.boundaries)
        )
        total = sum((s.stats[0] for s in self.surfaces), metric.zero_stats())
        starts: list[float] = []
        ends: list[float] = []
        stats: list[np.ndarray] = []
        for b, n, i in steps:
            if ends and b - ends[-1] <= merge_eps:
                ends[-1] = b
            else:
                starts.append(b)
                ends.append(b)
                stats.append(total.copy())
            sentence = self.surfaces[n].stats
            total += sentence[i + 1] - sentence[i]
        stats.append(total)
        self.boundaries = tuple(starts)
        self._cluster_max = tuple(ends)
        self.stats = tuple(stats)
        self._losses = tuple(metric.loss(s) for s in self.stats)

    def interval_losses(self) -> tuple[float, ...]:
        return self._losses

    def interval_of(self, eta: float) -> int:
        return bisect_right(self.boundaries, eta)

    def loss_at(self, eta: float) -> float:
        return self._losses[self.interval_of(eta)]


def build_envelopes(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    threads: int = 1,
) -> list[Envelope]:
    """Per-sentence envelopes, in input order regardless of thread count.

    Sentences are independent, so they may be handed to a thread pool; the
    result list follows the input order either way.
    """
    _check_settings(threads=threads)
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    if w0.shape != v.shape:
        raise DimensionMismatchError(
            f"weights have shape {w0.shape}, direction has shape {v.shape}"
        )
    if not np.any(v):
        warnings.warn(
            "direction is all zeros; every derivation's score is constant in eta",
            DegenerateDirectionWarning,
            stacklevel=2,
        )
    graphs = [g for g, _ in sentences]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(
                pool.map(lambda n: _sentence_envelope(n, graphs[n], w0, v), range(len(graphs)))
            )
    return [_sentence_envelope(n, g, w0, v) for n, g in enumerate(graphs)]


def _sentence_envelope(n: int, graph: Hypergraph, w0: np.ndarray, v: np.ndarray) -> Envelope:
    """``build_envelope`` for the sentence at position n.

    A ``DataError`` it raises (an overflowing projection, say) leaves with
    the position in its private ``_sentence`` attribute, so the command
    line, which holds the sentence ids, can name the sentence.
    """
    try:
        return build_envelope(graph, w0, v)
    except DataError as exc:
        exc._sentence = n
        raise


# Per-call metric statistics: one dict per sentence position, from a yield
# to its read-only statistics.  Keying by position never hashes a reference.
_StatsMemo = list[dict[tuple[str, ...], np.ndarray]]


def _stats_memo(sentences: Sequence) -> _StatsMemo:
    return [{} for _ in sentences]


def _memo_stats(memo: _StatsMemo, n: int, tokens: tuple[str, ...], ref, metric: Metric):
    """``metric.stats(tokens, ref)`` for sentence n, scored once per call.

    The array is shared by every later lookup, so it is made read-only.
    """
    table = memo[n]
    stats = table.get(tokens)
    if stats is None:
        stats = metric.stats(tokens, ref)
        stats.flags.writeable = False
        table[tokens] = stats
    return stats


def _merge_surfaces(
    envelopes, sentences, metric: Metric, merge_eps: float, memo: _StatsMemo
) -> CorpusSurface:
    """The corpus surface of the envelopes.

    Every chain-point yield the memo lacks, across all sentences, is
    scored in one ``stats_many`` call; the rows are stored read-only.
    """
    new = [
        dict.fromkeys(d.tokens for d in env.derivations if d.tokens not in table)
        for env, table in zip(envelopes, memo)
    ]
    hyps = [tokens for fresh in new for tokens in fresh]
    if hyps:
        refs = [ref for fresh, (_, ref) in zip(new, sentences) for _ in fresh]
        stats = metric.stats_many(hyps, refs)
        stats.flags.writeable = False
        rows = iter(stats)
        for fresh, table in zip(new, memo):
            for tokens in fresh:
                table[tokens] = next(rows)
    surfaces = [
        ErrorSurface(env.boundaries, tuple(table[d.tokens] for d in env.derivations))
        for env, table in zip(envelopes, memo)
    ]
    return CorpusSurface(metric, surfaces, merge_eps)


def corpus_surface(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    metric: Metric,
    merge_eps: float = DEFAULT_MERGE_EPS,
    threads: int = 1,
) -> CorpusSurface:
    """Per-sentence envelopes and surfaces, merged into one corpus surface."""
    _check_settings(merge_eps)
    envelopes = build_envelopes(sentences, w0, v, threads)
    return _merge_surfaces(envelopes, sentences, metric, merge_eps, _stats_memo(sentences))


@dataclass(frozen=True)
class LineSearchResult:
    boundaries: tuple[float, ...]
    interval_losses: tuple[float, ...]
    best_interval: int
    eta: float
    loss: float
    weights: np.ndarray
    envelopes: tuple[Envelope, ...]
    surface: CorpusSurface

    @property
    def envelope_sizes(self) -> tuple[int, ...]:
        return tuple(len(e.chain) for e in self.envelopes)


def pick_eta(surface: CorpusSurface) -> tuple[int, float]:
    """Choose the minimizing interval and a concrete eta inside it.

    Ties prefer the interval containing eta = 0, then the leftmost one.
    The chosen eta lies strictly beyond every boundary of the clusters
    around its interval: bounded intervals yield their midpoint, unbounded
    ones step 0.1 beyond the outermost cluster (or to the next float, when
    0.1 is below the float spacing), and a surface with no boundaries
    yields 0.  An interval with no finite float strictly inside it holds no
    eta, so it cannot be chosen; ``InvalidGeometryError`` says when no
    interval holds one.
    """
    losses = surface.interval_losses()
    starts, ends = surface.boundaries, surface._cluster_max
    etas = [_interval_point(starts, ends, k) for k in range(len(losses))]
    held = [k for k, eta in enumerate(etas) if eta is not None]
    if not held:
        raise InvalidGeometryError("no interval of the surface holds a finite eta")
    best = min(losses[k] for k in held)
    tied = [k for k in held if losses[k] == best]
    home = surface.interval_of(0.0)
    chosen = home if home in tied else tied[0]
    return chosen, etas[chosen]


def line_search(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    metric: Metric,
    merge_eps: float = DEFAULT_MERGE_EPS,
    threads: int = 1,
) -> LineSearchResult:
    """Exact minimum of the corpus loss along w0 + eta * v."""
    _check_settings(merge_eps)
    return _line_search(sentences, w0, v, metric, merge_eps, threads, _stats_memo(sentences))


def _line_search(
    sentences, w0, v, metric: Metric, merge_eps: float, threads: int, memo: _StatsMemo
) -> LineSearchResult:
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    envelopes = build_envelopes(sentences, w0, v, threads)
    surface = _merge_surfaces(envelopes, sentences, metric, merge_eps, memo)
    losses = surface.interval_losses()
    chosen, eta = pick_eta(surface)
    return LineSearchResult(
        boundaries=surface.boundaries,
        interval_losses=losses,
        best_interval=chosen,
        eta=eta,
        loss=losses[chosen],
        weights=w0 + eta * v,
        envelopes=tuple(envelopes),
        surface=surface,
    )


def _decode(sentences, weights: np.ndarray) -> Iterator[Derivation]:
    """The highest-scoring derivation of each sentence at fixed weights.

    Runs the envelope inside pass with a zero direction: all dual points
    then share x = 0 and only the best-scoring hypothesis survives on the
    lower chain, so the envelope has a single segment.
    """
    weights = np.asarray(weights, dtype=float)
    zero_v = np.zeros_like(weights)
    for n, (graph, _) in enumerate(sentences):
        env = _sentence_envelope(n, graph, weights, zero_v)
        yield env.derivations[env.segment_at(0.0)]


def decode_loss(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    weights: np.ndarray,
    metric: Metric,
) -> float:
    """Corpus loss of the highest-scoring derivations at fixed weights."""
    return _decode_loss(sentences, weights, metric, _stats_memo(sentences))


def _decode_loss(sentences, weights, metric: Metric, memo: _StatsMemo) -> float:
    total = metric.zero_stats()
    for n, (d, (_, ref)) in enumerate(zip(_decode(sentences, weights), sentences)):
        total += _memo_stats(memo, n, d.tokens, ref, metric)
    return metric.loss(total)


@dataclass(frozen=True)
class OptimizeStep:
    iteration: int
    axis: int
    eta: float
    loss: float


@dataclass(frozen=True)
class OptimizeResult:
    weights: np.ndarray
    loss: float
    initial_loss: float
    steps: tuple[OptimizeStep, ...]
    iterations_run: int


def _axis_directions(d: int) -> list[np.ndarray]:
    return [np.eye(d)[i] for i in range(d)]


def optimize(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    metric: Metric,
    iterations: int = 1,
    directions: Sequence[np.ndarray] | None = None,
    merge_eps: float = DEFAULT_MERGE_EPS,
    threads: int = 1,
) -> OptimizeResult:
    """Repeated exact line searches along a fixed direction list.

    Directions default to the coordinate axes.  A step is taken only when
    it strictly lowers the corpus loss, so the loss trace is monotone; an
    iteration with no accepted step stops the search early.
    """
    _check_settings(merge_eps, threads)
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    w = np.asarray(w0, dtype=float).copy()
    if directions is None:
        dirs = _axis_directions(len(w))
    else:
        dirs = [np.asarray(v, dtype=float) for v in directions]
    # One memo serves the initial decode and every axis search: each
    # distinct yield of a sentence is scored once per call.
    memo = _stats_memo(sentences)
    initial_loss = _decode_loss(sentences, w, metric, memo)
    loss = initial_loss
    steps: list[OptimizeStep] = []
    ran = 0
    for it in range(iterations):
        ran = it + 1
        improved = False
        for axis, v in enumerate(dirs):
            result = _line_search(sentences, w, v, metric, merge_eps, threads, memo)
            if result.loss < loss:
                w = result.weights
                loss = result.loss
                improved = True
                steps.append(OptimizeStep(it, axis, result.eta, loss))
            # Release the envelopes and derivations before the next search.
            del result
        if not improved:
            break
    return OptimizeResult(
        weights=w,
        loss=loss,
        initial_loss=initial_loss,
        steps=tuple(steps),
        iterations_run=ran,
    )


@dataclass(frozen=True)
class SweepResult:
    etas: tuple[float, ...]
    losses: tuple[float, ...]
    best_index: int
    best_eta: float
    best_loss: float


def sweep(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    metric: Metric,
    lo: float,
    hi: float,
    steps: int,
    merge_eps: float = DEFAULT_MERGE_EPS,
    threads: int = 1,
) -> SweepResult:
    """Corpus loss on a uniform grid of ``steps`` points over [lo, hi].

    The surface is built once; grid points are read off it, so a sweep
    samples exactly the function the line search minimizes.  Grid ties go
    to the smallest eta.  A single step evaluates the range start only.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if lo > hi:
        raise ConfigError(f"range must not be empty, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"range must have a finite width, got [{lo}, {hi}]")
    surface = corpus_surface(sentences, w0, v, metric, merge_eps, threads)
    if steps == 1:
        etas: tuple[float, ...] = (float(lo),)
    else:
        etas = tuple(float(x) for x in np.linspace(lo, hi, steps))
    losses = tuple(surface.loss_at(eta) for eta in etas)
    best_index = min(range(len(etas)), key=lambda i: (losses[i], i))
    return SweepResult(etas, losses, best_index, etas[best_index], losses[best_index])
