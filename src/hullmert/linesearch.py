"""Exact minimum-error line search along one direction in weight space.

For weights w(eta) = w0 + eta * v every derivation's score is a line in
eta, so a sentence's best achievable score is the upper envelope of
finitely many lines.  The convex hull semiring computes that envelope in
dual form: the lower chain of the goal hull lists the envelope's
hypotheses left to right, and consecutive slopes give the eta values where
the argmax changes.  ``build_envelope`` runs the inside pass in the
lower-chain (envelope) semiring, which carries only that face of each
hull; ``ConvexHullValue`` and ``inside_hull`` stay as the reference it
must agree with point for point.  An ``Envelope`` keeps the goal chain's
coordinate lists, the boundaries computed from them and one yield per
point; its ``chain`` and ``derivations`` are cached properties, built
from the kernel's back-pointers on first read, and nothing in this
module reads them.  Scoring each chain point's yield
turns the envelope into a piecewise-constant error surface.  A
fixed-weight decode needs no envelope: at a zero direction every dual
point has x = 0, so each node's lower chain is one point, its lowest y,
and ``forest._best_values`` keeps that point per node, the first in-edge
with the lowest y winning a tie, as the lower-chain pass at v = 0 does.
Every yield is scored in one place, ``_stats``: it gathers the yields of
all sentences that a per-call memo lacks and scores them in one
``Metric.stats_many`` batch, and the memo hands out one read-only
statistics array per (sentence, yield).  A search, a sweep, a decode and
``sentence_surface`` all go through it, and ``optimize`` shares its memo
between the initial decode and every axis search.
Surfaces add across sentences: one stable sort orders all sentence
boundaries, and one cumulative sum adds each sentence's step in
statistics in that order, so the corpus loss is a step function with one
loss per interval, and its exact minimum is read off those.  Integer
statistics sum exactly; float statistics from a user-defined ``Metric``
are summed in boundary order.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateDirectionWarning,
    DimensionMismatchError,
    InvalidGeometryError,
    NoHypothesesError,
    _warn,
)
from .forest import Derivation, Hypergraph, _best_values, _lower_chain_values, _yields
from .geometry import Point2, _crossings
from .metrics import Metric

# Every search coalesces surface boundaries this close (see ``CorpusSurface``).
DEFAULT_MERGE_EPS = 1e-9
# The step from the outermost boundary cluster to an unbounded interval's
# eta; every eta in an interval has its loss, so this only fixes the report.
_UNBOUNDED_STEP = 0.1


class Envelope:
    """Upper envelope of one sentence's derivation scores along a direction.

    ``chain`` holds the surviving dual points in order of increasing slope
    coordinate; ``boundaries[i]`` is the eta where segment i hands over to
    segment i+1; ``derivations`` realizes one argmax derivation per segment.

    Every envelope keeps the chain's coordinate lists and one yield per
    point.  ``chain`` and ``derivations`` are cached properties:
    ``Envelope(chain, boundaries, derivations)`` fills both caches with its
    arguments, and ``build_envelope`` leaves them empty, keeping the
    kernel's back-pointers to build the objects on first read.  A line
    search, a sweep and a decode read neither.  Envelopes are immutable; a
    first read that races another builds an equal value, so they are safe
    to share across threads.
    """

    def __init__(self, chain, boundaries, derivations):
        self.__dict__.update(
            boundaries=boundaries,
            _xs=[p.x for p in chain],
            _ys=[p.y for p in chain],
            _tokens=[d.tokens for d in derivations],
            chain=chain,
            derivations=derivations,
        )

    @classmethod
    def _lazy(cls, xs, ys, boundaries, tokens, graph: Hypergraph, backs) -> "Envelope":
        """The envelope of goal chain ``xs``, ``ys`` with yields ``tokens``,
        whose point i is the root item ``(graph.goal, i)`` over ``backs``."""
        env = object.__new__(cls)
        env.__dict__.update(
            boundaries=boundaries, _xs=xs, _ys=ys, _tokens=tokens, _graph=graph, _backs=backs
        )
        return env

    @cached_property
    def chain(self) -> tuple[Point2, ...]:
        return tuple(map(Point2, self._xs, self._ys))

    @cached_property
    def derivations(self) -> tuple[Derivation, ...]:
        graph, backs = self._graph, self._backs
        goal = graph.goal
        return tuple(
            Derivation(tokens, graph, (goal, i), backs) for i, tokens in enumerate(self._tokens)
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.chain, self.boundaries, self.derivations)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(chain={self.chain!r}, "
            f"boundaries={self.boundaries!r}, derivations={self.derivations!r})"
        )

    def segment_at(self, eta: float) -> int:
        return bisect_right(self.boundaries, eta)

    def max_at(self, eta: float) -> float:
        i = self.segment_at(eta)
        return self._xs[i] * eta - self._ys[i]

    def segments(self) -> list[tuple[float, float, Point2, Derivation]]:
        """(lo, hi, dual point, derivation) per piece; the point's x is the
        primal line's slope and -y its intercept."""
        return list(zip(*self._spans(), self.chain, self.derivations))

    def _spans(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Each segment's lo and hi."""
        return (float("-inf"),) + self.boundaries, self.boundaries + (float("inf"),)


def build_envelope(graph: Hypergraph, w0: np.ndarray, v: np.ndarray) -> Envelope:
    """Inside pass in the lower-chain semiring, one yield per point."""
    return _envelope(graph, *_vectors(w0, v))


def _vectors(w0, v) -> tuple[list[float], list[float]]:
    """w0 and v as lists of floats; ``DimensionMismatchError`` unless both
    are 1-D and of one length.  Every search checks its vectors here."""
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    if w0.ndim != 1:
        raise DimensionMismatchError(f"weights must be a 1-D vector, got shape {w0.shape}")
    if v.shape != w0.shape:
        raise DimensionMismatchError(f"weights have shape {w0.shape}, direction {v.shape}")
    return w0.tolist(), v.tolist()


def _envelope(graph: Hypergraph, w0: list[float], v: list[float]) -> Envelope:
    """``build_envelope`` for w0 and v given as lists of floats: the inside
    pass, the yield walk and the crossings.

    The goal chain equals ``lower_chain(inside_hull(graph, w0, v).hull)``,
    and point i's derivation is the root item ``(goal, i)`` over every
    node's back-pointers, the one ``reconstruct`` recovers for that hull
    point.  Yields come straight from the back-pointers; the lower-chain
    values themselves are not kept.
    """
    values = _lower_chain_values(graph, w0, v)
    goal = graph.goal
    xs, ys = values[goal].xs, values[goal].ys
    if not xs:
        raise NoHypothesesError("goal node derives nothing; envelope is empty")
    backs = [value.back for value in values]
    tokens = list(_yields(graph.edges, backs, [(goal, i) for i in range(len(xs))]))
    return Envelope._lazy(xs, ys, _crossings(xs, ys), tokens, graph, backs)


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
    """The envelope's surface, scored as a line search scores it: each
    distinct yield once, in one ``stats_many`` call, into a read-only row
    that every segment with that yield shares."""
    return _surfaces([envelope], [ref], metric, [{}])[0]


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

    One stable sort orders all sentence boundaries by value, ties in
    sentence order, as ``sorted((b, n, i))`` would; one cumulative sum
    then starts from the sum of the leftmost statistics and adds a
    sentence's step ``stats[i+1] - stats[i]`` at each of its boundaries,
    in that order.  Boundaries within ``merge_eps`` of the previous one
    chain into a cluster reported at its minimum; an interval's
    statistics are the total as its right cluster opens (the last
    interval's, the final total), so every sentence is read on the
    correct side of all of its own boundaries.  Integer statistics sum
    exactly; float ones from a user-defined ``Metric`` are summed in
    boundary order, bit for bit as ``oracle.merge_surfaces`` sums them.
    A NaN boundary, which no sort places as that loop does, raises
    ``InvalidGeometryError``, and so does a surface without one statistics
    row more than it has boundaries.  Interval losses are computed once,
    here.

    This is the one place ``merge_eps`` is set (``>= 0``, ``inf`` allowed;
    ``ConfigError`` otherwise).  The search entry points pass
    ``DEFAULT_MERGE_EPS``; a caller who needs another tolerance composes
    ``build_envelopes``, ``sentence_surface``, this class and ``pick_eta``.
    """

    __slots__ = ("metric", "surfaces", "boundaries", "_cluster_max", "stats", "_losses")

    def __init__(self, metric: Metric, surfaces: Sequence[ErrorSurface], merge_eps: float):
        if not merge_eps >= 0:  # NaN fails too
            raise ConfigError(f"merge-eps must be >= 0, got {merge_eps}")
        self.metric = metric
        self.surfaces = surfaces = tuple(surfaces)
        zero = metric.zero_stats()
        counts = np.array([len(s.boundaries) for s in surfaces], dtype=np.intp)
        bounds = np.fromiter(
            itertools.chain.from_iterable(s.boundaries for s in surfaces), float, int(counts.sum())
        )
        if np.isnan(bounds).any():
            raise InvalidGeometryError("a sentence surface has a NaN boundary")
        for n, s in enumerate(surfaces):
            if len(s.stats) != len(s.boundaries) + 1:
                raise InvalidGeometryError(
                    f"sentence surface {n} has {len(s.stats)} statistics rows "
                    f"for {len(s.boundaries)} boundaries"
                )
        # Boundaries in (b, sentence, index) order: the stable sort keeps
        # equal ones (-0.0 and 0.0 included) in sentence order.
        order = np.argsort(bounds, kind="stable")
        bounds = bounds[order]
        rows = list(itertools.chain.from_iterable(s.stats for s in surfaces))
        rows = np.array(rows) if rows else np.empty((0, *zero.shape), zero.dtype)
        # Boundary j of sentence n lies between rows j + n and j + n + 1.
        below = order + np.repeat(np.arange(len(counts)), counts)[order]
        firsts = np.cumsum(counts) - counts + np.arange(len(counts))
        # Running totals in the loop's order: zero, each sentence's first
        # row, then each step in boundary order.
        totals = np.add.accumulate(
            np.concatenate([zero[None], rows[firsts], rows[below + 1] - rows[below]])
        )
        # A cluster opens at each boundary more than merge_eps beyond the
        # previous one; a difference that overflows or is NaN opens one.
        opens = np.ones(len(bounds), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            np.logical_not(bounds[1:] - bounds[:-1] <= merge_eps, out=opens[1:])
        starts = np.flatnonzero(opens)
        self.boundaries = tuple(bounds[starts].tolist())
        self._cluster_max = tuple(bounds[starts[1:] - 1].tolist() + bounds[-1:].tolist())
        self.stats = tuple(totals[np.append(starts + len(counts), len(totals) - 1)])
        self._losses = tuple(map(metric.loss, self.stats))

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
    """Per-sentence envelopes, built one after another in input order.

    ``threads`` is checked (``ConfigError`` below 1) and otherwise changes
    nothing: the inside pass holds the GIL, so threads over sentences would
    contend for it rather than run in parallel.  Only this function and
    ``line_search`` take it; ``corpus_surface``, ``sweep`` and ``optimize``
    do not.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    w0, v = _vectors(w0, v)
    if not any(v):
        _warn(
            "direction is all zeros; every derivation's score is constant in eta",
            DegenerateDirectionWarning,
        )
    return [_in_sentence(n, _envelope, g, w0, v) for n, (g, _) in enumerate(sentences)]


def _in_sentence(n: int, run, *args):
    """``run(*args)`` for the sentence at position n.

    A ``DataError`` it raises (an overflowing projection, say) leaves with
    the position in its private ``_sentence`` attribute, so the command
    line, which holds the sentence ids, can name the sentence.
    """
    try:
        return run(*args)
    except DataError as exc:
        exc._sentence = n
        raise


# Per-call metric statistics: one dict per sentence position, from a yield
# to its read-only statistics.  Keying by position never hashes a reference.
_StatsMemo = list[dict[tuple[str, ...], np.ndarray]]


def _stats_memo(sentences: Sequence) -> _StatsMemo:
    return [{} for _ in sentences]


def _surfaces(envelopes, refs, metric: Metric, memo: _StatsMemo) -> list[ErrorSurface]:
    """The error surface of each envelope against its reference."""
    rows = _stats([env._tokens for env in envelopes], refs, metric, memo)
    return [ErrorSurface(env.boundaries, r) for env, r in zip(envelopes, rows)]


def _stats(yields, refs, metric: Metric, memo: _StatsMemo) -> list[tuple[np.ndarray, ...]]:
    """The statistics row of each yield of each sentence.

    Every yield the memo lacks, across all sentences, is scored in one
    ``stats_many`` call; the rows are stored read-only and shared by every
    later lookup.  The library scores yields nowhere else.  A result that
    is not an array of one ``zero_stats()``-shaped row per yield raises
    ``ConfigError``.
    """
    new = [
        dict.fromkeys(tokens for tokens in sentence if tokens not in table)
        for sentence, table in zip(yields, memo)
    ]
    hyps = [tokens for fresh in new for tokens in fresh]
    if hyps:
        stats = metric.stats_many(hyps, [ref for fresh, ref in zip(new, refs) for _ in fresh])
        shape = (len(hyps), *metric.zero_stats().shape)
        got = stats.shape if isinstance(stats, np.ndarray) else f"a {type(stats).__name__}"
        if got != shape:
            raise ConfigError(
                f"{type(metric).__name__}.stats_many must return an array of shape "
                f"{shape}, got {got}"
            )
        stats.flags.writeable = False
        rows = iter(stats)
        for fresh, table in zip(new, memo):
            for tokens in fresh:
                table[tokens] = next(rows)
    return [tuple(map(table.__getitem__, sentence)) for sentence, table in zip(yields, memo)]


def corpus_surface(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    metric: Metric,
) -> CorpusSurface:
    """Per-sentence envelopes and surfaces, merged into one corpus surface
    at ``DEFAULT_MERGE_EPS``."""
    return _corpus_surface(sentences, w0, v, metric, 1, _stats_memo(sentences))[1]


def _corpus_surface(sentences, w0, v, metric: Metric, threads: int, memo):
    """The per-sentence envelopes, and their surfaces merged into one."""
    envelopes = build_envelopes(sentences, w0, v, threads)
    surfaces = _surfaces(envelopes, [ref for _, ref in sentences], metric, memo)
    return envelopes, CorpusSurface(metric, surfaces, DEFAULT_MERGE_EPS)


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
        return tuple(len(e._xs) for e in self.envelopes)


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
    threads: int = 1,
) -> LineSearchResult:
    """Exact minimum of the corpus loss along w0 + eta * v.

    ``InvalidGeometryError`` says when the weights at the chosen eta are
    not finite (a direction entry large enough to overflow them).
    """
    return _line_search(sentences, w0, v, metric, threads, _stats_memo(sentences))


def _line_search(
    sentences, w0, v, metric: Metric, threads: int, memo: _StatsMemo
) -> LineSearchResult:
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    envelopes, surface = _corpus_surface(sentences, w0, v, metric, threads, memo)
    losses = surface.interval_losses()
    chosen, eta = pick_eta(surface)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = w0 + eta * v
    if not np.isfinite(weights).all():
        raise InvalidGeometryError(f"weights at the chosen eta = {eta!r} are not finite")
    return LineSearchResult(
        boundaries=surface.boundaries,
        interval_losses=losses,
        best_interval=chosen,
        eta=eta,
        loss=losses[chosen],
        weights=weights,
        envelopes=tuple(envelopes),
        surface=surface,
    )


def _decode(sentences, weights: np.ndarray) -> list[tuple[str, ...]]:
    """Each sentence's decoded yield at fixed weights, in sentence order.

    At a zero direction every dual point has x = 0, so each node's lower
    chain is one point, its lowest y: ``forest._best_values`` keeps that
    point per node, the first in-edge with the lowest y winning a tie, and
    the goal's point is the decoded derivation, the one that the envelope
    at a zero direction holds.
    """
    w, _ = _vectors(weights, np.zeros(np.shape(weights)))
    return [_in_sentence(n, _best_yield, g, w) for n, (g, _) in enumerate(sentences)]


def _best_yield(graph: Hypergraph, w: list[float]) -> tuple[str, ...]:
    """The yield of the goal's one point at weights ``w``."""
    ys, backs = _best_values(graph, w)
    if ys[graph.goal] is None:
        raise NoHypothesesError("goal node derives nothing; envelope is empty")
    return next(_yields(graph.edges, backs, [(graph.goal, 0)]))


def decode_loss(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    weights: np.ndarray,
    metric: Metric,
) -> float:
    """Corpus loss of the highest-scoring derivations at fixed weights."""
    return _decode_loss(sentences, weights, metric, _stats_memo(sentences))


def _decode_loss(sentences, weights, metric: Metric, memo: _StatsMemo) -> float:
    refs = [ref for _, ref in sentences]
    rows = _stats([[tokens] for tokens in _decode(sentences, weights)], refs, metric, memo)
    return metric.loss(sum((r[0] for r in rows), metric.zero_stats()))


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


def optimize(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    metric: Metric,
    iterations: int = 1,
    directions: Sequence[np.ndarray] | None = None,
) -> OptimizeResult:
    """Repeated exact line searches along a fixed direction list.

    Directions default to the coordinate axes.  A step is taken only when
    it strictly lowers the corpus loss, so the loss trace is monotone; an
    iteration with no accepted step stops the search early.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    w = np.asarray(w0, dtype=float).copy()
    # One memo serves the initial decode and every axis search: each
    # distinct yield of a sentence is scored once per call.  The decode
    # checks w before the axes are built from its length.
    memo = _stats_memo(sentences)
    initial_loss = _decode_loss(sentences, w, metric, memo)
    if directions is None:
        dirs = list(np.eye(len(w)))
    else:
        dirs = [np.asarray(v, dtype=float) for v in directions]
    loss = initial_loss
    steps: list[OptimizeStep] = []
    ran = 0
    for it in range(iterations):
        ran = it + 1
        improved = False
        for axis, v in enumerate(dirs):
            result = _line_search(sentences, w, v, metric, 1, memo)
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
) -> SweepResult:
    """Corpus loss on a uniform grid of ``steps`` points over [lo, hi].

    The surface is built once and the grid read off it by one ``searchsorted``,
    so a sweep samples exactly the function the line search minimizes.  Grid
    ties go to the smallest eta.  A single step evaluates the range start only.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if lo > hi:
        raise ConfigError(f"range must not be empty, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"range must have a finite width, got [{lo}, {hi}]")
    surface = corpus_surface(sentences, w0, v, metric)
    if steps == 1:
        etas: tuple[float, ...] = (float(lo),)
    else:
        etas = tuple(np.linspace(lo, hi, steps).tolist())
    at = np.searchsorted(surface.boundaries, etas, side="right")
    losses = tuple(map(surface.interval_losses().__getitem__, at.tolist()))
    best_index = losses.index(min(losses))
    return SweepResult(etas, losses, best_index, etas[best_index], losses[best_index])
