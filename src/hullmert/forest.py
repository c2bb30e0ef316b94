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
lower-chain semiring (``_lower_chain_values``), which keeps only the face
of the hull that reaches the envelope, with flat back-pointers.  At a
zero direction every dual point has x = 0 and each node's lower chain is
one point, its lowest y: the fixed-weight decode runs ``_best_values``,
which keeps that point per node with no lower-chain operation, the first
in-edge with the lowest y winning a tie, and stays equal to the kernel at
v = 0 node for node.  Every
``Derivation`` is a root item (node, point index) over per-node
back-pointer lists: the kernel's, the table that
``enumerate_derivations`` fills, or those one walk (``_index``) enters for a
checked tree (``realize``) or a random draw (``sampling``).  ``_yields``
writes every yield, copying the yield of an item that several walks share
from its first walk, so a deep lattice path costs linear, not quadratic,
time and memory.  ``tree`` and ``features`` are read off the back-pointers
only when asked for; the line search reads neither, and builds no
``Derivation`` at all (``linesearch.Envelope`` makes them on first read).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections import deque
from functools import cached_property
from itertools import product as iter_product
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import (
    CyclicForestError,
    DimensionMismatchError,
    EnumerationOverflowError,
    ForestFormatError,
    InvalidGeometryError,
    ProvenanceError,
)
from .semiring import (
    ConvexHullValue,
    LowerChainValue,
    _edge_product,
    _strict_lower,
)

# A semiring value type: ``__add__``, ``__mul__`` and class values ``zero``
# and ``one`` obeying the semiring laws (``oracle.check_axioms`` tests them).
K = TypeVar("K")

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
    reachability are checked by ``validate`` and cached.  ``n_nodes`` above
    the goal plus every edge's head and tails would leave a node on no edge.
    """

    __slots__ = ("n_nodes", "edges", "goal", "n_features", "in_edges", "_report")

    def __init__(self, n_nodes: int, edges: Sequence[Edge], goal: int, n_features: int):
        if n_nodes < 1:
            raise ForestFormatError("a forest needs at least one node")
        touched = 1
        for e in edges:
            touched += 1 + len(e.tails)
        if n_nodes > touched:
            raise ForestFormatError(f"{n_nodes} nodes; the goal and edges name at most {touched}")
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
        derivable = [False] * self.n_nodes
        for v in order:
            for ei in self.in_edges[v]:
                if all(derivable[t] for t in self.edges[ei].tails):
                    derivable[v] = True
                    break
        goal_ok = derivable[self.goal]
        if not goal_ok:
            warnings.append(f"goal node {self.goal} derives nothing (empty language)")
        # Useful nodes, reached from the goal through fully derivable edges,
        # are derivable; every other node is stranded.
        useful = [False] * self.n_nodes
        useful[self.goal] = goal_ok
        stack = [self.goal] if goal_ok else []
        while stack:
            v = stack.pop()
            for ei in self.in_edges[v]:
                e = self.edges[ei]
                if all(derivable[t] for t in e.tails):
                    for t in e.tails:
                        if not useful[t]:
                            useful[t] = True
                            stack.append(t)
        stranded = tuple(v for v in range(self.n_nodes) if not useful[v])
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


def _inside_values(graph: Hypergraph, edge_value: Callable[[int, Edge], K], zero: K) -> list[K]:
    """The inside recursion from the additive identity ``zero``; every
    node's value, indexed by node."""
    order = graph.topo_order()
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
    return _inside_values(graph, edge_value, semiring.zero)[graph.goal]


def edge_dot(edge: Edge, vec: Sequence[float]) -> float:
    """Sparse dot product of an edge's features with a dense vector (an
    array or a list), summed left to right in feature-id order (``sum``
    compensates its rounding on Python floats since Python 3.12)."""
    total = 0.0
    for i, v in edge.features:
        total += vec[i] * v
    return float(total)


def _check_dimensions(edge: Edge, w0: Sequence[float], v: Sequence[float]) -> None:
    if len(w0) != len(v):
        raise DimensionMismatchError(f"w0 has {len(w0)} features, direction has {len(v)}")
    if edge.features and edge.features[-1][0] >= len(w0):
        raise DimensionMismatchError(
            f"edge uses feature id {edge.features[-1][0]} but vectors have {len(w0)}"
        )


def project_edge(
    edge: Edge, w0: np.ndarray, v: np.ndarray, edge_id: int | None = None
) -> ConvexHullValue:
    """Project one edge onto the dual plane: the singleton {(v.H, -w0.H)}.

    The x coordinate is the edge's score slope along the search direction
    and -y is its score at the starting weights.  A zero-feature edge
    projects to {(0, 0)}, the multiplicative identity value.
    """
    _check_dimensions(edge, w0, v)
    prov = None if edge_id is None else (edge_id, ())
    return ConvexHullValue.singleton(edge_dot(edge, v), -edge_dot(edge, w0), prov)


def inside_hull(graph: Hypergraph, w0: np.ndarray, v: np.ndarray) -> ConvexHullValue:
    """Inside computation in the convex hull semiring with edge projections."""
    return inside(graph, lambda ei, e: project_edge(e, w0, v, ei), ConvexHullValue)


def _useful_nodes(graph: Hypergraph, w0: list[float], v: list[float]) -> Iterator[int]:
    """The nodes on a leaf-to-goal path, in topological order.  The
    stranded nodes between them, which ``validate`` reports unreachable,
    are skipped; only their edges' feature ids are checked against the
    vectors, in that order."""
    edges = graph.edges
    n = len(w0)
    stranded = set(graph.validate().unreachable)
    for node in graph.topo_order():
        if node not in stranded:
            yield node
            continue
        for ei in graph.in_edges[node]:
            feats = edges[ei].features
            if feats and feats[-1][0] >= n:
                _check_dimensions(edges[ei], w0, v)


def _lower_chain_values(graph: Hypergraph, w0: list[float], v: list[float]) -> list:
    """Every node's ``LowerChainValue`` by the recursion of
    ``oracle.lower_chain_values``, with edges projected on Python floats
    and summed left to right, every bit as ``project_edge`` sums them.
    ``w0`` and ``v`` have the same length; the caller checks this.

    Each group of consecutive in-edges that share one tail tuple of length
    at most one takes one path, the semiring's distributive law
    sum_e ({p_e} * V) = (sum_e {p_e}) * V: the hull of its arcs' points (a
    lone arc is one point) is multiplied once by the tail chain V (leaves
    have no V).  Over a one-point chain (every chain at v = 0) each point is
    translated first, so the group is one hull of translates.  Those
    translates, and the ones of arcs that a group's hull drops, miss
    ``_product``'s finiteness check, so they are checked here; errors and
    their order are the oracle's.  The values
    are the oracle's bit for bit where its per-edge union does not depend
    on the order of its operands (v = 0, small integer coordinates, general
    position).  A group with a turn inside ``EPS_GEOM``'s band may keep
    other points of the same envelope; at a tie that translation rounds
    over a longer chain, the arc whose own point is lower.  An edge with
    two or more tails takes ``_edge_product`` for its first two tails and
    ``__mul__`` for the rest.

    The nodes that ``validate`` reports unreachable, on no leaf-to-goal
    path, are neither projected nor computed: each keeps the zero value.
    No useful node changes, since an edge into one whose tails are all
    derivable makes those tails useful, and any other edge meets a zero
    tail either way.  So a stranded edge's overflow cannot fail a search,
    while its feature ids are still checked against the vectors, in
    topological order with every other edge's."""
    edges = graph.edges
    n = len(w0)
    zero = LowerChainValue.zero
    inf = math.inf
    values = [zero] * graph.n_nodes
    for node in _useful_nodes(graph, w0, v):
        ins = graph.in_edges[node]
        total = zero
        last = len(ins) - 1
        run = []
        for pos, ei in enumerate(ins):
            e = edges[ei]
            feats = e.features
            if feats and feats[-1][0] >= n:
                _check_dimensions(e, w0, v)
            # x starts at +0.0 and only accumulates, so it is never -0.0;
            # y gets +0.0 after negation, as Point2 canonicalizes.  Sums of
            # canonical coordinates stay canonical: products need no pass.
            x = y = 0.0
            for i, val in feats:
                x += v[i] * val
                y += w0[i] * val
            y = -y + 0.0
            if not (math.isfinite(x) and math.isfinite(y)):
                raise InvalidGeometryError(f"non-finite point ({x!r}, {y!r})")
            tails = e.tails
            if len(tails) > 1:
                first = values[tails[0]]
                if not first.xs:
                    continue
                k = _edge_product(x, y, ei, first, values[tails[1]])
                for t in tails[2:]:
                    k = k * values[t]
                total = total + k
                continue
            more = pos < last and edges[ins[pos + 1]].tails == tails
            b = (ei,)
            if tails:
                first = values[tails[0]]
                xs, ys = first.xs, first.ys
                if not xs:
                    continue
                # Rounded addition is monotone: a translate is finite
                # exactly when its four extreme sums are.
                if (run or more or len(xs) == 1) and not (
                    -inf < x + xs[0] and x + xs[-1] < inf
                    and -inf < y + min(ys) and y + max(ys) < inf
                ):
                    raise InvalidGeometryError("non-finite point in a product of lower chains")
                if len(xs) == 1:
                    x, y, b = x + xs[0], y + ys[0], (ei, 0)
            if more:
                run.append((x, y, b))
                continue
            if run:
                # Edge ids rise along in_edges: an identical point keeps
                # the earlier arc.
                run.append((x, y, b))
                run.sort()
                k = _strict_lower(*zip(*run))
                run = []
            else:
                k = LowerChainValue([x], [y], [b])
            if tails and len(xs) > 1:
                k = k * first
            total = total + k
        values[node] = total
    return values


def _best_values(graph: Hypergraph, w: list[float]) -> tuple[list, list]:
    """``_lower_chain_values(graph, w, [0.0] * len(w))`` with one point per
    node: each node's lowest y, or None where it derives nothing, and its
    back-pointer list, ``[(edge_id, 0, ..., 0)]`` or empty, as
    ``_yields`` reads them.

    At a zero direction every dual point has x = 0, so each lower chain is
    its lowest point, and the first in-edge with the lowest y wins a tie,
    as the kernel's run sort and left-wins union decide.  Every y and every
    error is the kernel's: an edge's y is projected as there, its tail
    values are added in tail order with a finiteness check after each
    addition, and a tail that derives nothing drops the edge.  Stranded
    nodes are skipped, their edges' feature ids still checked."""
    edges = graph.edges
    n = len(w)
    inf = math.inf
    ys: list = [None] * graph.n_nodes
    backs: list = [[]] * graph.n_nodes
    for node in _useful_nodes(graph, w, w):
        best = None
        for ei in graph.in_edges[node]:
            e = edges[ei]
            feats = e.features
            if feats and feats[-1][0] >= n:
                _check_dimensions(e, w, w)
            y = 0.0
            for i, val in feats:
                y += w[i] * val
            y = -y + 0.0
            if not -inf < y < inf:
                # The kernel's x at v = 0: 0.0, or NaN from a non-finite
                # feature value, which leaves y non-finite too.
                x = 0.0
                for _, val in feats:
                    x += 0.0 * val
                raise InvalidGeometryError(f"non-finite point ({x!r}, {y!r})")
            for t in e.tails:
                ty = ys[t]
                if ty is None:
                    break
                y += ty
                if not -inf < y < inf:
                    raise InvalidGeometryError("non-finite point in a product of lower chains")
            else:
                if best is None or y < best:
                    best, arg = y, ei
        if best is not None:
            ys[node] = best
            backs[node] = [(arg,) + (0,) * len(edges[arg].tails)]
    return ys, backs


def _yields(edges: Sequence[Edge], backs: list, roots: list) -> Iterator[tuple[str, ...]]:
    """The yield of each root item ``(node, j)``, whose edge is
    ``backs[node][j][0]`` and whose tail t is ``(tail node, backs[node][j][t + 1])``.

    One walk per root fills each template left to right; the root fills the
    one slot of a template of its own.  The span of an item's first walk
    (token list, start, end) is recorded, and any later visit copies it, so
    each reached item is expanded once: entered directly, it pushes one
    continuation (itself, its start, back-pointer, tails, template, position).
    """
    spans: dict = {}
    for root in roots:
        toks: list[str] = []
        stack: list = []
        item, start, back, tails, template, k = None, 0, (None, root[1]), (root[0],), (0,), 0
        while True:
            if k < len(template):
                slot = template[k]
                k += 1
                if slot.__class__ is str:
                    toks.append(slot)
                    continue
                child = (tails[slot], back[slot + 1])
                span = spans.get(child)
                if span is not None:
                    src, a, b = span
                    toks += src[a:b]
                    continue
                stack.append((item, start, back, tails, template, k))
                back = backs[child[0]][child[1]]
                edge = edges[back[0]]
                item, start = child, len(toks)
                tails, template, k = edge.tails, edge.template, 0
            elif stack:
                spans[item] = (toks, start, len(toks))
                item, start, back, tails, template, k = stack.pop()
            else:
                break
        yield tuple(toks)


def _derivations(graph: Hypergraph, backs: list, roots: list) -> list["Derivation"]:
    """One Derivation per root item over ``backs``, with its yield."""
    tokens = _yields(graph.edges, backs, roots)
    return [Derivation(t, graph, root, backs) for t, root in zip(tokens, roots)]


@dataclass(frozen=True, eq=False)
class Derivation:
    """One tree of edges with its realized yield and dense feature vector.

    Only this module builds derivations, and each is one root item
    ``(node, j)`` over per-node back-pointer lists: entry j of
    ``_backs[node]`` is ``(edge_id, j of each tail's item...)``.
    ``tree`` is folded from their preorder and ``features`` summed in
    ``edge_ids`` preorder, each on first read; a line search reads neither.
    Equality and hashing look at the tree, read off the back-pointers.
    """

    tokens: tuple[str, ...]
    _graph: Hypergraph = field(repr=False)
    _root: tuple[int, int] = field(repr=False)
    _backs: list = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return list(self._preorder()) == list(other._preorder())

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    @cached_property
    def tree(self) -> DerivationTree:
        """The nested ``(edge_id, child trees)`` tuple of this derivation:
        the reversed ``_preorder``, a postorder, folded on a stack."""
        stack: list = []
        for eid, count in reversed(list(self._preorder())):
            cut = len(stack) - count
            tree = (eid, tuple(stack[cut:]))
            del stack[cut:]
            stack.append(tree)
        return stack[0]

    @cached_property
    def features(self) -> np.ndarray:
        """The sum of the tree's edge feature vectors, dense."""
        edges = self._graph.edges
        feats = [0.0] * self._graph.n_features
        for eid in self.edge_ids():
            for i, val in edges[eid].features:
                feats[i] += val
        return np.array(feats, dtype=float)

    def edge_ids(self) -> list[int]:
        """All edge ids in the tree (preorder, last child first)."""
        return [eid for eid, _ in self._preorder()]

    def _preorder(self) -> Iterator[tuple[int, int]]:
        """``(edge_id, child count)`` of each edge, popped from a stack that
        takes each edge's children in slot order (the last comes first).
        It spells the tree exactly, is read off the back-pointers, and
        never recurses, so any depth can be compared and hashed."""
        backs = self._backs
        edges = self._graph.edges
        stack = [self._root]
        while stack:
            node, j = stack.pop()
            back = backs[node][j]
            yield back[0], len(back) - 1
            stack.extend(zip(edges[back[0]].tails, back[1:]))


def _index(graph: Hypergraph, start, expand: Callable) -> Derivation:
    """The Derivation that ``expand(item) -> (edge_id, child items)`` spells
    from ``start``.  One iterative walk, so no depth hits the recursion
    limit, calls ``expand`` in preorder, children left to right, and appends
    each edge to its head node's back-pointer list."""
    edges = graph.edges
    backs: list[list] = [[] for _ in range(graph.n_nodes)]
    # (item, the parent's back-pointer or None)
    stack = [(start, None)]
    while stack:
        item, parent = stack.pop()
        eid, children = expand(item)
        table = backs[edges[eid].head]
        if parent is None:
            root = (edges[eid].head, 0)
        else:
            parent.append(len(table))
        back = [eid]
        table.append(back)
        stack.extend((child, back) for child in reversed(children))
    return _derivations(graph, backs, [root])[0]


def realize(graph: Hypergraph, tree: DerivationTree) -> Derivation:
    """The Derivation that ``tree``, ``(edge_id, child trees in tail
    order)``, spells; its ``tree`` equals the argument.  ``_index`` walks the
    tree once, checking each record with ``_check_record``.  Raises
    ProvenanceError when a record is not an ``(int, tuple)`` pair or the
    tree does not fit this forest."""
    return _index(graph, (tree, None, 0), lambda item: _check_record(graph, item))


def _check_record(graph: Hypergraph, item) -> tuple[int, list]:
    """(edge_id, child items) of an item (record, parent edge id, tail slot)
    whose record fits the forest."""
    record, parent, slot = item
    if record is None:
        raise ProvenanceError("point has opaque provenance; not produced by inside")
    if not (record.__class__ is tuple and len(record) == 2 and record[0].__class__ is int
            and record[1].__class__ is tuple):
        raise ProvenanceError(f"record {record!r:.60} is not (int edge id, tuple of children)")
    eid, children = record
    edges = graph.edges
    if not 0 <= eid < len(edges):
        raise ProvenanceError(f"edge id {eid} not in this forest")
    edge = edges[eid]
    if parent is not None and edge.head != edges[parent].tails[slot]:
        raise ProvenanceError(
            f"edge {parent} tail {slot} is node {edges[parent].tails[slot]}, "
            f"provenance supplies node {edge.head}"
        )
    if len(children) != len(edge.tails):
        raise ProvenanceError(
            f"edge {eid} expects {len(edge.tails)} tails, provenance recorded {len(children)}"
        )
    return eid, [(child, eid, k) for k, child in enumerate(children)]


def reconstruct(graph: Hypergraph, value: ConvexHullValue, index: int) -> Derivation:
    """The derivation that one hull point of ``value`` records.

    The reference for ``linesearch._envelope``'s yields and the trees that
    ``linesearch.Envelope.derivations`` reads off its back-pointers.
    The point's provenance record is its derivation tree, and the result is
    ``realize(graph, value.provenance[index])``, whose ``tree`` equals it.
    The derivation's feature projection reproduces the point's coordinates
    (exactly when features and weights are integral and every sum stays
    below 2**53 in magnitude, where floats stop holding every integer).
    Which points are on the hull is decided by ``geometry.difference_sign``,
    exact for integers only while its cross products stay below 1e9.
    Raises ProvenanceError when the record does not fit this forest.
    """
    if not 0 <= index < len(value.provenance):
        raise ProvenanceError(f"point index {index} out of range")
    return realize(graph, value.provenance[index])


def count_derivations(graph: Hypergraph) -> int:
    """Exact number of complete derivations of the goal node: the inside
    recursion over Python ints, where every edge counts 1."""
    return _inside_values(graph, lambda ei, e: 1, 0)[graph.goal]


def enumerate_derivations(
    graph: Hypergraph, cap: int = DEFAULT_DERIVATION_CAP
) -> list[Derivation]:
    """All derivations of the goal, in deterministic (edge, tail-combination)
    order, entered in one back-pointer table that the results share; the
    nodes that ``validate`` reports unreachable get no entries.
    Raises EnumerationOverflowError when the count exceeds ``cap``."""
    n = count_derivations(graph)
    if n > cap:
        raise EnumerationOverflowError(f"{n} derivations exceed the cap of {cap}")
    report = graph.validate()
    skip = set(report.unreachable)
    edges = graph.edges
    backs: list[list] = [[] for _ in range(graph.n_nodes)]
    for node in report.topo_order:
        if node in skip:
            continue
        table = backs[node]
        for ei in graph.in_edges[node]:
            for tails in iter_product(*(range(len(backs[t])) for t in edges[ei].tails)):
                table.append((ei, *tails))
    roots = [(graph.goal, j) for j in range(len(backs[graph.goal]))]
    return _derivations(graph, backs, roots)
