"""Brute-force and cross-semiring reference computations.

Everything here either evaluates a definition literally (all pairwise
sums, dense argmax sampling, full enumeration, one metric pair at a time)
or reruns the problem in the max-plus semiring ``Tropical``.  Exponential
or redundant on purpose: the envelope machinery is trusted only as far as
it agrees with these slower, more obvious computations.  The reference
algebra lives here too: ``check_axioms`` tests the semiring laws on
sample values, and ``convexify_equivalence`` the hull-then-sum identity
that makes hull multiplication well defined.  ``canonical_json`` is the
report writer that ``io.canonical_json`` must match byte for byte (the
latter differs only by its joined float and int lists and its string
encoder), and ``merge_surfaces`` the boundary-order loop that
``CorpusSurface``'s sort and cumulative sum must match bit for bit.
Nothing on the fast path imports this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, NoHypothesesError
from .forest import (
    DEFAULT_DERIVATION_CAP,
    Derivation,
    DerivationTree,
    Edge,
    Hypergraph,
    _inside_values,
    edge_dot,
    enumerate_derivations,
    inside,
    project_edge,
    realize,
)
from .geometry import ConvexChain, Point2, full_hull
from .linesearch import Envelope, ErrorSurface, _interval_point, build_envelope
from .metrics import Metric
from .semiring import ConvexHullValue, LowerChainValue

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


def lower_chain_values(graph: Hypergraph, w0: np.ndarray, v: np.ndarray) -> list[LowerChainValue]:
    """Every node's value by ``inside`` on one ``LowerChainValue`` singleton
    per ``project_edge``: what the kernel of ``build_envelope`` must equal."""
    w0, v = np.asarray(w0, dtype=float), np.asarray(v, dtype=float)

    def leaf(ei: int, edge: Edge) -> LowerChainValue:
        (p,) = project_edge(edge, w0, v).points
        return LowerChainValue.singleton(p.x, p.y, (ei,))

    return _inside_values(graph, leaf, LowerChainValue.zero)


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


def merge_surfaces(
    metric: Metric, surfaces: Sequence[ErrorSurface], merge_eps: float
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[np.ndarray, ...], tuple[float, ...]]:
    """``CorpusSurface``'s boundaries, cluster maxima, interval statistics
    and interval losses, by one Python step per boundary.

    The boundaries are visited in ``sorted((b, n, i))`` order; the running
    total starts at the sum of first rows and adds ``stats[i + 1] -
    stats[i]`` of sentence n at its boundary i.  A boundary within
    ``merge_eps`` of the previous one joins its cluster; any other opens a
    cluster, recording the total before its step.
    """
    steps = sorted((b, n, i) for n, s in enumerate(surfaces) for i, b in enumerate(s.boundaries))
    total = sum((s.stats[0] for s in surfaces), metric.zero_stats())
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
        sentence = surfaces[n].stats
        total += sentence[i + 1] - sentence[i]
    stats.append(total)
    return tuple(starts), tuple(ends), tuple(stats), tuple(metric.loss(s) for s in stats)


@dataclass(frozen=True, slots=True)
class Tropical:
    """Max-plus reals: + is max, * is +, zero is -inf, one is 0."""

    score: float

    def __add__(self, other: "Tropical") -> "Tropical":
        return self if self.score >= other.score else other

    def __mul__(self, other: "Tropical") -> "Tropical":
        return Tropical(self.score + other.score)


Tropical.zero = Tropical(float("-inf"))
Tropical.one = Tropical(0.0)


def tropical_best(graph: Hypergraph, weights: np.ndarray) -> float:
    """Best derivation score via the max-plus inside pass (score only)."""
    weights = np.asarray(weights, dtype=float)

    def edge_value(_ei: int, e: Edge) -> Tropical:
        return Tropical(edge_dot(e, weights))

    return inside(graph, edge_value, Tropical).score


@dataclass(frozen=True)
class AxiomFailure:
    law: str
    indices: tuple[int, ...]
    lhs: ConvexHullValue | LowerChainValue
    rhs: ConvexHullValue | LowerChainValue


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    n_values: int
    n_triples: int
    failures: tuple[AxiomFailure, ...]

    @property
    def first_failure(self) -> AxiomFailure | None:
        return self.failures[0] if self.failures else None

    def failed_laws(self) -> tuple[str, ...]:
        return tuple(f.law for f in self.failures)


def check_axioms(values: Sequence[ConvexHullValue | LowerChainValue]) -> AxiomReport:
    """Empirically verify the semiring laws on a sample of values.

    Checks, in deterministic input-index order: additive/multiplicative
    identity, annihilator, idempotent addition, commutativity of both
    operations, associativity of both operations, and both distributivity
    laws over every (i, j, k) triple.  The report carries the first
    counterexample found for each violated law.

    Intended for small integer-coordinate values, where equality is
    meaningful bit for bit and every hull decision is exact as long as
    the cross products stay below 1e9 in magnitude (see
    ``geometry.difference_sign``).  The values share one type, which
    supplies the identity elements.
    """
    failures: dict[str, AxiomFailure] = {}

    def record(law: str, indices: tuple[int, ...], lhs, rhs):
        if lhs != rhs and law not in failures:
            failures[law] = AxiomFailure(law, indices, lhs, rhs)

    # Fresh identity elements so the shortcut for the canonical `one`
    # object is bypassed and the real code paths get exercised.
    kind = type(values[0]) if values else ConvexHullValue
    zero = kind.from_raw_points(())
    one = kind.from_raw_points([(0.0, 0.0)])

    for i, a in enumerate(values):
        record("plus_identity", (i,), a + zero, a)
        record("plus_identity", (i,), zero + a, a)
        record("times_identity", (i,), a * one, a)
        record("times_identity", (i,), one * a, a)
        record("annihilator", (i,), zero * a, zero)
        record("annihilator", (i,), a * zero, zero)
        record("plus_idempotent", (i,), a + a, a)

    for i, j in combinations(range(len(values)), 2):
        a, b = values[i], values[j]
        record("plus_commutative", (i, j), a + b, b + a)
        record("times_commutative", (i, j), a * b, b * a)

    n_triples = 0
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            for k, c in enumerate(values):
                n_triples += 1
                record("plus_associative", (i, j, k), (a + b) + c, a + (b + c))
                record("times_associative", (i, j, k), (a * b) * c, a * (b * c))
                record("distributive_left", (i, j, k), a * (b + c), (a * b) + (a * c))
                record("distributive_right", (i, j, k), (b + c) * a, (b * a) + (c * a))

    ordered = tuple(failures[law] for law in sorted(failures))
    return AxiomReport(not ordered, len(values), n_triples, ordered)


def convexify_equivalence(
    a: Iterable[tuple[float, float] | Point2], b: Iterable[tuple[float, float] | Point2]
) -> bool:
    """Whether hulling before or after a Minkowski sum gives the same hull.

    Both sides are evaluated by brute force over all pairwise sums (the
    second hulls each operand first); multiplication of hull values is
    well defined exactly because this always holds.
    """
    pa = [p if isinstance(p, Point2) else Point2(*p) for p in a]
    pb = [p if isinstance(p, Point2) else Point2(*p) for p in b]
    direct = full_hull([p + q for p in pa for q in pb])
    hulled = full_hull([p + q for p in full_hull(pa) for q in full_hull(pb)])
    return direct.points == hulled.points


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class DualityReport:
    """Agreement between the dual envelope and direct max-plus scoring.

    ``max_score_err`` is the worst relative gap between the envelope's
    value and the max-plus inside score at the probe etas (one interior
    point per envelope segment).  ``max_point_err`` is the worst relative
    residual between a chain point and the dual projection of its
    reconstructed derivation's features.  ``ok`` holds when both are at
    most ``DEFAULT_REL_TOL``.
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
    ok = max_score_err <= DEFAULT_REL_TOL and max_point_err <= DEFAULT_REL_TOL
    return DualityReport(ok, len(env.chain), env.boundaries, max_score_err, max_point_err)


def _float_repr(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise ValueError("refusing to serialize NaN")
    if x == 0.0:
        return "0"  # -0.0 too: "-0" reads back as the integer 0
    return format(x, ".17g")


def _write_canonical(obj, out: list[str]) -> None:
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_float_repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write_canonical(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError(f"report keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _write_canonical(obj[key], out)
        out.append("}")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """The canonical report, one ``isinstance`` test per value: sorted
    keys, 17-significant-digit floats, no whitespace, infinities as the
    strings "inf"/"-inf"."""
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out)
