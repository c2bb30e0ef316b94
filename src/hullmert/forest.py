"""Packed hypergraphs, the generic inside algorithm, and derivation recovery.

A hypergraph packs exponentially many derivations: each hyperedge rewrites
its head node from an ordered (possibly empty) tuple of tail nodes, carries
a sparse feature vector, and a yield template whose integer entries are
substitution slots for the tails' yields.  A lattice is simply the case
where every edge has at most one tail; no separate code path exists.

``inside`` runs the standard recursion node value = sum over incoming edges
of (edge value * product of tail values) in any semiring.  With the convex
hull semiring (``inside_hull``, the reference) the goal value is the set of
dual points of all envelope hypotheses, each traceable back to its
derivation via provenance.  The line search runs the same recursion in the
lower-chain semiring (``envelope_points``), which keeps only the face of
the hull that reaches the envelope and reads derivations off flat
back-pointers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections import deque
from itertools import product as iter_product
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import (
    CyclicForestError,
    DimensionMismatchError,
    EnumerationOverflowError,
    ForestFormatError,
    InvalidGeometryError,
    ProvenanceError,
)
from .geometry import ConvexChain
from .semiring import ConvexHullValue, LeafProvenance, LowerChainValue, Semiring

K = TypeVar("K", bound=Semiring)

# Trees are nested tuples (edge_id, (child trees in tail order)).
DerivationTree = tuple

DEFAULT_DERIVATION_CAP = 10_000


@dataclass(frozen=True, slots=True)
class Edge:
    """One hyperedge: head <- tails, with features and a yield template.

    ``features`` maps feature ids to values, stored sorted; ``template``
    entries are either terminal tokens (str) or tail slot indices (int).
    """

    head: int
    tails: tuple[int, ...]
    features: tuple[tuple[int, float], ...]
    template: tuple[str | int, ...]

    @classmethod
    def make(
        cls,
        head: int,
        tails: Sequence[int],
        features: Mapping[int, float],
        template: Sequence[str | int] = (),
    ) -> "Edge":
        feats = tuple(sorted((int(i), float(v)) for i, v in features.items()))
        return cls(head, tuple(tails), feats, tuple(template))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    topo_order: tuple[int, ...] | None
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()
    cyclic_node: int | None = None
    goal_derivable: bool = True
    unreachable: tuple[int, ...] = ()


class Hypergraph:
    """An immutable packed forest over nodes 0..n_nodes-1 with one goal node.

    Structural bounds (index ranges, feature ids under ``n_features``, slot
    indices under the tail count) are checked eagerly; acyclicity and
    reachability are checked by ``validate`` and cached.
    """

    __slots__ = ("n_nodes", "edges", "goal", "n_features", "in_edges", "_report")

    def __init__(self, n_nodes: int, edges: Sequence[Edge], goal: int, n_features: int):
        if n_nodes < 1:
            raise ForestFormatError("a forest needs at least one node")
        if not 0 <= goal < n_nodes:
            raise ForestFormatError(f"goal node {goal} out of range 0..{n_nodes - 1}")
        in_edges: list[list[int]] = [[] for _ in range(n_nodes)]
        for ei, e in enumerate(edges):
            if not 0 <= e.head < n_nodes:
                raise ForestFormatError(f"edge {ei}: head {e.head} out of range")
            for t in e.tails:
                if not 0 <= t < n_nodes:
                    raise ForestFormatError(f"edge {ei}: tail {t} out of range")
            for fid, _ in e.features:
                if not 0 <= fid < n_features:
                    raise ForestFormatError(f"edge {ei}: feature id {fid} out of range")
            slots = sorted(item for item in e.template if isinstance(item, int))
            if slots != list(range(len(e.tails))):
                raise ForestFormatError(
                    f"edge {ei}: yield must use each of the {len(e.tails)} tail "
                    f"slots exactly once, got {slots}"
                )
            in_edges[e.head].append(ei)
        object.__setattr__(self, "n_nodes", n_nodes)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "n_features", n_features)
        object.__setattr__(self, "in_edges", tuple(tuple(lst) for lst in in_edges))
        object.__setattr__(self, "_report", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Hypergraph is immutable")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def validate(self) -> ValidationReport:
        """Topological order, goal derivability, and reachability flags."""
        if self._report is not None:
            return self._report
        # Kahn's algorithm on tail -> head arcs; ready nodes in index order.
        indeg = [0] * self.n_nodes
        succs: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for e in self.edges:
            for t in e.tails:
                indeg[e.head] += 1
                succs[t].append(e.head)
        queue = deque(v for v in range(self.n_nodes) if indeg[v] == 0)
        order: list[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for h in succs[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    queue.append(h)
        errors: list[str] = []
        warnings: list[str] = []
        cyclic_node = None
        if len(order) != self.n_nodes:
            cyclic_node = min(v for v in range(self.n_nodes) if indeg[v] > 0)
            errors.append(f"cycle through node {cyclic_node}")
            report = ValidationReport(False, None, tuple(errors), (), cyclic_node, False)
            object.__setattr__(self, "_report", report)
            return report
        derivable = self._derivable(order)
        goal_ok = derivable[self.goal]
        if not goal_ok:
            warnings.append(f"goal node {self.goal} derives nothing (empty language)")
        useful = self._useful(derivable)
        stranded = tuple(
            v for v in range(self.n_nodes) if not (derivable[v] and useful[v])
        )
        if stranded and goal_ok:
            warnings.append(f"nodes not on any leaf-to-goal path: {list(stranded)}")
        report = ValidationReport(
            True, tuple(order), (), tuple(warnings), None, goal_ok, stranded
        )
        object.__setattr__(self, "_report", report)
        return report

    def topo_order(self) -> tuple[int, ...]:
        report = self.validate()
        if not report.ok:
            raise CyclicForestError(report.errors[0], node=report.cyclic_node)
        return report.topo_order

    def _derivable(self, order: Sequence[int]) -> list[bool]:
        out = [False] * self.n_nodes
        for v in order:
            for ei in self.in_edges[v]:
                if all(out[t] for t in self.edges[ei].tails):
                    out[v] = True
                    break
        return out

    def _useful(self, derivable: Sequence[bool]) -> list[bool]:
        """Nodes reachable from the goal through fully derivable edges."""
        out = [False] * self.n_nodes
        if not derivable[self.goal]:
            return out
        out[self.goal] = True
        stack = [self.goal]
        while stack:
            v = stack.pop()
            for ei in self.in_edges[v]:
                e = self.edges[ei]
                if all(derivable[t] for t in e.tails):
                    for t in e.tails:
                        if not out[t]:
                            out[t] = True
                            stack.append(t)
        return out


def _inside_values(
    graph: Hypergraph, edge_value: Callable[[int, Edge], K], semiring: type[K]
) -> list[K]:
    """The inside recursion; every node's value, indexed by node."""
    order = graph.topo_order()
    zero = semiring.zero
    values: list[K] = [zero] * graph.n_nodes
    for node in order:
        total = zero
        for ei in graph.in_edges[node]:
            e = graph.edges[ei]
            k = edge_value(ei, e)
            for t in e.tails:
                k = k * values[t]
            total = total + k
        values[node] = total
    return values


def inside(
    graph: Hypergraph,
    edge_value: Callable[[int, Edge], K],
    semiring: type[K] = ConvexHullValue,
) -> K:
    """Generic inside recursion; returns the goal node's value.

    Nodes with no incoming edges keep the additive identity, which
    annihilates any edge using them as a tail.
    """
    return _inside_values(graph, edge_value, semiring)[graph.goal]


def edge_dot(edge: Edge, vec: np.ndarray) -> float:
    """Sparse dot product of an edge's features with a dense vector."""
    return float(sum(vec[i] * v for i, v in edge.features))


def _dual_coordinates(edge: Edge, w0: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(v.H, -w0.H) for one edge, after the dimension checks."""
    if len(w0) != len(v):
        raise DimensionMismatchError(f"w0 has {len(w0)} features, direction has {len(v)}")
    if edge.features and edge.features[-1][0] >= len(w0):
        raise DimensionMismatchError(
            f"edge uses feature id {edge.features[-1][0]} but vectors have {len(w0)}"
        )
    return edge_dot(edge, v), -edge_dot(edge, w0)


def project_edge(
    edge: Edge, w0: np.ndarray, v: np.ndarray, edge_id: int | None = None
) -> ConvexHullValue:
    """Project one edge onto the dual plane: the singleton {(v.H, -w0.H)}.

    The x coordinate is the edge's score slope along the search direction
    and -y is its score at the starting weights.  A zero-feature edge
    projects to {(0, 0)}, the multiplicative identity value.
    """
    prov = None if edge_id is None else LeafProvenance(edge_id)
    return ConvexHullValue.singleton(*_dual_coordinates(edge, w0, v), prov)


def inside_hull(graph: Hypergraph, w0: np.ndarray, v: np.ndarray) -> ConvexHullValue:
    """Inside computation in the convex hull semiring with edge projections."""
    return inside(graph, lambda ei, e: project_edge(e, w0, v, ei), ConvexHullValue)


def _project_lower(edge: Edge, w0: np.ndarray, v: np.ndarray, edge_id: int) -> LowerChainValue:
    x, y = _dual_coordinates(edge, w0, v)
    # +0.0 canonicalizes -0.0 as Point2 does; sums of canonical coordinates
    # stay canonical, so products need no second pass.
    x += 0.0
    y += 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidGeometryError(f"non-finite point ({x!r}, {y!r})")
    return LowerChainValue.singleton(x, y, (edge_id,))


def envelope_points(
    graph: Hypergraph, w0: np.ndarray, v: np.ndarray
) -> tuple[ConvexChain, tuple["Derivation", ...]]:
    """The goal's lower chain and one derivation per chain point.

    Runs the inside recursion in the lower-chain semiring.  Its goal chain
    equals ``lower_chain(inside_hull(graph, w0, v).hull)``, and each
    derivation is the one ``reconstruct`` recovers for that hull point.
    """
    values = _inside_values(
        graph, lambda ei, e: _project_lower(e, w0, v, ei), LowerChainValue
    )
    edges = graph.edges

    def expand(item: tuple[int, int]) -> tuple[int, list[tuple[int, int]]]:
        node, i = item
        back = values[node].back[i]
        eid = back[0]
        return eid, list(zip(edges[eid].tails, back[1:]))

    goal = graph.goal
    derivations = tuple(
        _build_derivation(graph, (goal, i), expand) for i in range(len(values[goal]))
    )
    return values[goal].chain(), derivations


@dataclass(frozen=True, eq=False)
class Derivation:
    """One tree of edges with its realized yield and dense feature vector."""

    tree: DerivationTree
    tokens: tuple[str, ...]
    features: np.ndarray = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.tree == other.tree

    def __hash__(self) -> int:
        return hash(self.tree)

    def edge_ids(self) -> list[int]:
        """All edge ids in the tree (preorder)."""
        out: list[int] = []
        stack = [self.tree]
        while stack:
            eid, children = stack.pop()
            out.append(eid)
            stack.extend(children)
        return out


def _substitute(template: tuple[str | int, ...], child_tokens: Sequence[tuple[str, ...]]):
    toks: list[str] = []
    for item in template:
        if isinstance(item, int):
            toks.extend(child_tokens[item])
        else:
            toks.append(item)
    return tuple(toks)


def _build_derivation(graph: Hypergraph, root, expand: Callable) -> Derivation:
    """Build a Derivation from ``expand(item) -> (edge_id, child items)``.

    ``expand`` is called in preorder, children left to right.  One iterative
    post-order pass builds the tree and the yield, so derivations thousands
    of edges deep (long lattices) do not hit the recursion limit.
    """
    edges = graph.edges
    post: list[int] = []
    # frame: (edge_id, child items, built child trees, built child yields)
    frames = [(*expand(root), [], [])]
    while True:
        eid, items, trees, yields = frames[-1]
        if len(trees) < len(items):
            frames.append((*expand(items[len(trees)]), [], []))
            continue
        frames.pop()
        post.append(eid)
        tree, tokens = (eid, tuple(trees)), _substitute(edges[eid].template, yields)
        if not frames:
            break
        frames[-1][2].append(tree)
        frames[-1][3].append(tokens)
    # Reversed post-order is the preorder of Derivation.edge_ids, the order
    # features are summed in.
    feats = [0.0] * graph.n_features
    for eid in reversed(post):
        for i, val in edges[eid].features:
            feats[i] += val
    return Derivation(tree, tokens, np.array(feats, dtype=float))


def realize(graph: Hypergraph, tree: DerivationTree) -> Derivation:
    """Build the Derivation for a tree: summed features and substituted yield."""
    return _build_derivation(graph, tree, lambda node: node)


def _resolve_spine(graph: Hypergraph, item) -> tuple[int, list]:
    """Expand one reconstruct item into (edge_id, tail items).

    An item is (value, point index, parent edge id or None, tail slot).
    Inside builds each edge value as edge projection * tail1 * tail2 * ...,
    so the product spine ends at the edge's own leaf record.
    """
    v, i, parent, slot = item
    edges = graph.edges
    sources: list[tuple[ConvexHullValue, int]] = []
    while True:
        if not 0 <= i < len(v.provenance):
            raise ProvenanceError(f"point index {i} out of range")
        prov = v.provenance[i]
        if prov is None:
            raise ProvenanceError("point has opaque provenance; not produced by inside")
        if isinstance(prov, LeafProvenance):
            break
        sources.append((prov.right, prov.right_index))
        v, i = prov.left, prov.left_index
    eid = prov.edge_id
    if not 0 <= eid < len(edges):
        raise ProvenanceError(f"edge id {eid} not in this forest")
    edge = edges[eid]
    if parent is not None and edge.head != edges[parent].tails[slot]:
        raise ProvenanceError(
            f"edge {parent} tail {slot} is node {edges[parent].tails[slot]}, "
            f"provenance supplies node {edge.head}"
        )
    if len(sources) != len(edge.tails):
        raise ProvenanceError(
            f"edge {eid} expects {len(edge.tails)} tails, provenance recorded {len(sources)}"
        )
    sources.reverse()
    return eid, [(value, index, eid, k) for k, (value, index) in enumerate(sources)]


def reconstruct(graph: Hypergraph, value: ConvexHullValue, index: int) -> Derivation:
    """Recover the derivation recorded for one hull point of ``value``.

    The derivation's feature projection reproduces the point's coordinates
    (exactly when features and weights are integral).  Raises
    ProvenanceError when the provenance does not fit this forest.
    """
    return _build_derivation(graph, (value, index, None, 0), lambda it: _resolve_spine(graph, it))


def count_derivations(graph: Hypergraph) -> int:
    """Exact number of complete derivations of the goal node."""
    order = graph.topo_order()
    counts = [0] * graph.n_nodes
    for node in order:
        total = 0
        for ei in graph.in_edges[node]:
            term = 1
            for t in graph.edges[ei].tails:
                term *= counts[t]
                if term == 0:
                    break
            total += term
        counts[node] = total
    return counts[graph.goal]


def enumerate_derivations(
    graph: Hypergraph, cap: int = DEFAULT_DERIVATION_CAP
) -> list[Derivation]:
    """All derivations of the goal, in deterministic (edge, tail-combination)
    order.  Raises EnumerationOverflowError when the count exceeds ``cap``."""
    n = count_derivations(graph)
    if n > cap:
        raise EnumerationOverflowError(f"{n} derivations exceed the cap of {cap}")
    report = graph.validate()
    derivable = graph._derivable(report.topo_order)
    useful = graph._useful(derivable)
    per_node: list[list[tuple[DerivationTree, tuple[str, ...], np.ndarray]]] = [
        [] for _ in range(graph.n_nodes)
    ]
    for node in report.topo_order:
        if not useful[node]:
            continue
        items = per_node[node]
        for ei in graph.in_edges[node]:
            e = graph.edges[ei]
            base = np.zeros(graph.n_features)
            for i, val in e.features:
                base[i] += val
            for combo in iter_product(*(per_node[t] for t in e.tails)):
                tree = (ei, tuple(c[0] for c in combo))
                tokens = _substitute(e.template, [c[1] for c in combo])
                feats = base.copy()
                for c in combo:
                    feats += c[2]
                items.append((tree, tokens, feats))
    return [Derivation(t, tok, f) for t, tok, f in per_node[graph.goal]]
