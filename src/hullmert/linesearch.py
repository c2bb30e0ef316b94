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
surface; surfaces add across sentences, so the corpus loss is a step
function whose exact minimum is read off one representative point per
interval.
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
    DegenerateDirectionWarning,
    DimensionMismatchError,
    NoHypothesesError,
)
from .forest import Derivation, Hypergraph, envelope_points
from .geometry import Point2, envelope_boundaries
from .metrics import Metric

DEFAULT_MERGE_EPS = 1e-9
DEFAULT_OFFSET = 0.1


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
    stats = tuple(metric.stats(d.tokens, ref) for d in envelope.derivations)
    return ErrorSurface(envelope.boundaries, stats)


def _coalesce(boundaries: Sequence[float], merge_eps: float) -> list[tuple[float, float]]:
    """Group sorted boundaries into chained clusters of spacing <= merge_eps.

    Returns (min, max) per cluster.  The minimum is the reported boundary;
    the extent matters when placing evaluation points, since a chained
    cluster can spread wider than merge_eps.
    """
    clusters: list[tuple[float, float]] = []
    i = 0
    n = len(boundaries)
    while i < n:
        j = i
        while j + 1 < n and boundaries[j + 1] - boundaries[j] <= merge_eps:
            j += 1
        clusters.append((boundaries[i], boundaries[j]))
        i = j + 1
    return clusters


class CorpusSurface:
    """Sum of per-sentence surfaces on the merged interval decomposition.

    Nearby sentence boundaries (within ``merge_eps``, chained) collapse to
    one reported boundary, the cluster minimum.  Interval statistics are
    the sums of sentence statistics at a point strictly between adjacent
    cluster extents, so every sentence is read on the correct side of all
    of its own boundaries.
    """

    __slots__ = ("metric", "surfaces", "boundaries", "_cluster_max", "stats")

    def __init__(self, metric: Metric, surfaces: Sequence[ErrorSurface], merge_eps: float):
        self.metric = metric
        self.surfaces = tuple(surfaces)
        merged = sorted(b for s in surfaces for b in s.boundaries)
        clusters = _coalesce(merged, merge_eps)
        self.boundaries = tuple(c[0] for c in clusters)
        self._cluster_max = tuple(c[1] for c in clusters)
        self.stats = tuple(
            self._sum_stats(self._interval_point(k)) for k in range(len(clusters) + 1)
        )

    def _interval_point(self, k: int, offset: float = DEFAULT_OFFSET) -> float:
        """A point interior to interval k for every sentence's surface.

        The step right of the last cluster starts from its maximum only
        when a step from its minimum would stay inside the cluster.  An
        unbounded interval's step that rounds back onto its boundary
        (``offset`` below the boundary's float spacing) becomes the next
        float beyond it.
        """
        if not self.boundaries:
            return 0.0
        if k == 0:
            first = self.boundaries[0]
            eta = first - offset
            return eta if eta < first else math.nextafter(first, -math.inf)
        if k == len(self.boundaries):
            last = self._cluster_max[-1]
            eta = self.boundaries[-1] + offset
            if eta > last:
                return eta
            eta = last + offset
            return eta if eta > last else math.nextafter(last, math.inf)
        return 0.5 * (self._cluster_max[k - 1] + self.boundaries[k])

    def _sum_stats(self, eta: float) -> np.ndarray:
        total = self.metric.zero_stats()
        for s in self.surfaces:
            total += s.stats_at(eta)
        return total

    def interval_losses(self) -> tuple[float, ...]:
        return tuple(self.metric.loss(s) for s in self.stats)

    def interval_of(self, eta: float) -> int:
        return bisect_right(self.boundaries, eta)

    def loss_at(self, eta: float) -> float:
        return self.metric.loss(self.stats[self.interval_of(eta)])


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
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s: build_envelope(s[0], w0, v), sentences))
    return [build_envelope(g, w0, v) for g, _ in sentences]


def _merge_surfaces(envelopes, sentences, metric: Metric, merge_eps: float) -> CorpusSurface:
    surfaces = [sentence_surface(env, ref, metric) for env, (_, ref) in zip(envelopes, sentences)]
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
    envelopes = build_envelopes(sentences, w0, v, threads)
    return _merge_surfaces(envelopes, sentences, metric, merge_eps)


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


def pick_eta(surface: CorpusSurface, offset: float = DEFAULT_OFFSET) -> tuple[int, float]:
    """Choose the minimizing interval and a concrete eta inside it.

    Ties prefer the interval containing eta = 0, then the leftmost one.
    The chosen eta lies strictly beyond every boundary of the clusters
    around its interval: bounded intervals yield their midpoint, unbounded
    ones step ``offset`` beyond the outermost cluster, and a surface with
    no boundaries yields 0.
    """
    losses = surface.interval_losses()
    best = min(losses)
    tied = [k for k, loss in enumerate(losses) if loss == best]
    home = surface.interval_of(0.0)
    chosen = home if home in tied else tied[0]
    return chosen, surface._interval_point(chosen, offset)


def line_search(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    metric: Metric,
    merge_eps: float = DEFAULT_MERGE_EPS,
    offset: float = DEFAULT_OFFSET,
    threads: int = 1,
) -> LineSearchResult:
    """Exact minimum of the corpus loss along w0 + eta * v."""
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    envelopes = build_envelopes(sentences, w0, v, threads)
    surface = _merge_surfaces(envelopes, sentences, metric, merge_eps)
    losses = surface.interval_losses()
    chosen, eta = pick_eta(surface, offset)
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

    Runs the hull inside pass with a zero direction: all dual points then
    share x = 0 and only the best-scoring hypothesis survives on the lower
    chain, so the envelope has a single segment.
    """
    weights = np.asarray(weights, dtype=float)
    zero_v = np.zeros_like(weights)
    for graph, _ in sentences:
        env = build_envelope(graph, weights, zero_v)
        yield env.derivations[env.segment_at(0.0)]


def decode_loss(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    weights: np.ndarray,
    metric: Metric,
) -> float:
    """Corpus loss of the highest-scoring derivations at fixed weights."""
    total = metric.zero_stats()
    for d, (_, ref) in zip(_decode(sentences, weights), sentences):
        total += metric.stats(d.tokens, ref)
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
    offset: float = DEFAULT_OFFSET,
    threads: int = 1,
) -> OptimizeResult:
    """Repeated exact line searches along a fixed direction list.

    Directions default to the coordinate axes.  A step is taken only when
    it strictly lowers the corpus loss, so the loss trace is monotone; an
    iteration with no accepted step stops the search early.
    """
    w = np.asarray(w0, dtype=float).copy()
    if directions is None:
        dirs = _axis_directions(len(w))
    else:
        dirs = [np.asarray(v, dtype=float) for v in directions]
    initial_loss = decode_loss(sentences, w, metric)
    loss = initial_loss
    steps: list[OptimizeStep] = []
    ran = 0
    for it in range(iterations):
        ran = it + 1
        improved = False
        for axis, v in enumerate(dirs):
            result = line_search(sentences, w, v, metric, merge_eps, offset, threads)
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
        raise ConfigError(f"a sweep needs at least 1 grid point, got {steps}")
    if lo > hi:
        raise ConfigError(f"empty sweep range [{lo}, {hi}]")
    surface = corpus_surface(sentences, w0, v, metric, merge_eps, threads)
    if steps == 1:
        etas: tuple[float, ...] = (float(lo),)
    else:
        etas = tuple(float(x) for x in np.linspace(lo, hi, steps))
    losses = tuple(surface.loss_at(eta) for eta in etas)
    best_index = min(range(len(etas)), key=lambda i: (losses[i], i))
    return SweepResult(etas, losses, best_index, etas[best_index], losses[best_index])
