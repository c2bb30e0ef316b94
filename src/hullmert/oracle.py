"""Brute-force and cross-semiring reference computations.

Everything here either evaluates a definition literally (all pairwise
sums, dense argmax sampling, full enumeration) or reruns the problem in
the max-plus semiring.  Exponential or redundant on purpose: the envelope
machinery is trusted only as far as it agrees with these slower, more
obvious computations.  Nothing on the fast path imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceededError, NoHypothesesError
from .forest import (
    DEFAULT_DERIVATION_CAP,
    Derivation,
    DerivationTree,
    Edge,
    Hypergraph,
    edge_dot,
    enumerate_derivations,
    inside,
    realize,
)
from .geometry import ConvexChain, Point2, full_hull
from .linesearch import Envelope, _interval_point, build_envelope
from .metrics import Metric
from .semiring import Tropical

DEFAULT_PAIR_CAP = 10_000
DEFAULT_GRID_POINTS = 2001
DEFAULT_GRID_RANGE = (-10.0, 10.0)
DEFAULT_REL_TOL = 1e-9


def naive_minkowski(
    a: Sequence[Point2], b: Sequence[Point2], cap: int = DEFAULT_PAIR_CAP
) -> ConvexChain:
    """Hull of all |a| * |b| pairwise sums, straight from the definition."""
    if len(a) * len(b) > cap:
        raise CapExceededError(f"{len(a)}*{len(b)} pair sums exceed the cap of {cap}")
    return full_hull([pa + pb for pa in a for pb in b])


def naive_envelope(
    lines: Sequence[tuple[float, float]],
    n_samples: int = 1000,
    lo: float = DEFAULT_GRID_RANGE[0],
    hi: float = DEFAULT_GRID_RANGE[1],
) -> list[tuple[float, int]]:
    """(eta, argmax line index) at uniformly sampled etas; ties take the
    lowest index.  Lines are (slope, intercept) pairs."""
    if not lines:
        raise NoHypothesesError("naive_envelope needs at least one line")
    out = []
    for eta in np.linspace(lo, hi, n_samples):
        values = [m * eta + b for m, b in lines]
        out.append((float(eta), values.index(max(values))))
    return out


def score(derivation: Derivation, weights: np.ndarray) -> float:
    return float(np.dot(np.asarray(weights, dtype=float), derivation.features))


def best_derivation(
    graph: Hypergraph, weights: np.ndarray, cap: int = DEFAULT_DERIVATION_CAP
) -> tuple[float, Derivation]:
    """Highest-scoring derivation by full enumeration.

    Score ties keep the earliest derivation in enumeration order, which is
    fixed by edge and tail ordering, so the answer is deterministic.
    """
    best_s = -np.inf
    best_d: Derivation | None = None
    for d in enumerate_derivations(graph, cap):
        s = score(d, weights)
        if s > best_s:
            best_s, best_d = s, d
    if best_d is None:
        raise NoHypothesesError("goal node derives nothing")
    return best_s, best_d


def viterbi_derivation(graph: Hypergraph, weights: np.ndarray) -> tuple[float, DerivationTree]:
    """Best score and tree by the max-plus inside pass with backpointers.

    Ties keep the first edge in incoming-edge order, matching
    ``best_derivation`` whenever scores are tie-free.
    """
    weights = np.asarray(weights, dtype=float)
    best: list[tuple[float, DerivationTree] | None] = [None] * graph.n_nodes
    for node in graph.topo_order():
        for ei in graph.in_edges[node]:
            e = graph.edges[ei]
            s = edge_dot(e, weights)
            children = []
            for t in e.tails:
                if best[t] is None:
                    break
                s += best[t][0]
                children.append(best[t][1])
            else:
                if best[node] is None or s > best[node][0]:
                    best[node] = (s, (ei, tuple(children)))
    if best[graph.goal] is None:
        raise NoHypothesesError("goal node derives nothing")
    return best[graph.goal]


def dual_points(
    graph: Hypergraph, w0: np.ndarray, v: np.ndarray, cap: int = DEFAULT_DERIVATION_CAP
) -> list[Point2]:
    """Dual projection (v.H, -w0.H) of every derivation, duplicates kept."""
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    return [
        Point2(float(np.dot(v, d.features)), -float(np.dot(w0, d.features)))
        for d in enumerate_derivations(graph, cap)
    ]


def decode_corpus_loss(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    weights: np.ndarray,
    metric: Metric,
) -> float:
    """Corpus loss of per-sentence max-plus argmax derivations."""
    total = metric.zero_stats()
    for graph, ref in sentences:
        _, tree = viterbi_derivation(graph, weights)
        total += metric.stats(realize(graph, tree).tokens, ref)
    return metric.loss(total)


def grid_line_search(
    sentences: Sequence[tuple[Hypergraph, Sequence[str]]],
    w0: np.ndarray,
    v: np.ndarray,
    metric: Metric,
    etas: Sequence[float] | None = None,
) -> tuple[list[float], list[float]]:
    """Corpus loss at each grid eta by decoding every sentence outright.

    The default grid is 2001 points over [-10, 10].  Exhaustive and slow;
    the exact line search must never do worse than this grid's minimum.
    """
    if etas is None:
        lo, hi = DEFAULT_GRID_RANGE
        etas = [float(x) for x in np.linspace(lo, hi, DEFAULT_GRID_POINTS)]
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    losses = [decode_corpus_loss(sentences, w0 + eta * v, metric) for eta in etas]
    return list(etas), losses


def tropical_best(graph: Hypergraph, weights: np.ndarray) -> float:
    """Best derivation score via the max-plus inside pass (score only)."""
    weights = np.asarray(weights, dtype=float)

    def edge_value(_ei: int, e: Edge) -> Tropical:
        return Tropical(edge_dot(e, weights))

    return inside(graph, edge_value, Tropical).score


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class DualityReport:
    """Agreement between the dual envelope and direct max-plus scoring.

    ``max_score_err`` is the worst relative gap between the envelope's
    value and the max-plus inside score at the probe etas (one interior
    point per envelope segment).  ``max_point_err`` is the worst relative
    residual between a chain point and the dual projection of its
    reconstructed derivation's features.
    """

    ok: bool
    n_segments: int
    boundaries: tuple[float, ...]
    max_score_err: float
    max_point_err: float


def probe_etas(envelope: Envelope) -> list[float]:
    """One representative eta strictly inside each envelope segment, placed
    by the rule that places a line search's eta (``linesearch.pick_eta``);
    a segment that holds no finite float has none and is skipped."""
    bs = envelope.boundaries
    etas = (_interval_point(bs, bs, k) for k in range(len(bs) + 1))
    return [eta for eta in etas if eta is not None]


def duality_report(
    graph: Hypergraph,
    w0: np.ndarray,
    v: np.ndarray,
    rel_tol: float = DEFAULT_REL_TOL,
) -> DualityReport:
    w0 = np.asarray(w0, dtype=float)
    v = np.asarray(v, dtype=float)
    env = build_envelope(graph, w0, v)
    max_score_err = 0.0
    for eta in probe_etas(env):
        direct = tropical_best(graph, w0 + eta * v)
        max_score_err = max(max_score_err, _rel_err(env.max_at(eta), direct))
    max_point_err = 0.0
    for point, d in zip(env.chain, env.derivations):
        px = float(np.dot(v, d.features))
        py = -float(np.dot(w0, d.features))
        max_point_err = max(
            max_point_err, _rel_err(point.x, px), _rel_err(point.y, py)
        )
    ok = max_score_err <= rel_tol and max_point_err <= rel_tol
    return DualityReport(ok, len(env.chain), env.boundaries, max_score_err, max_point_err)
