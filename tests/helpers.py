"""Shared builders used by several test modules."""

import json
import math
from collections import deque

import numpy as np

from hullmert import Corpus, Edge, FeatureIndex, Hypergraph
from hullmert.errors import DimensionMismatchError, ForestFormatError, InvalidGeometryError
from hullmert.forest import (
    _derivations,
    _inside_values,
    _lower_chain_values,
    ValidationReport,
    project_edge,
)
from hullmert.io import (
    _EDGE_KEYS,
    _SENTENCE_KEYS,
    _SLOT_RE,
    _check_int,
    _check_number,
    _fail,
    _parse_nodes,
    _parse_reference,
)
from hullmert.geometry import EPS_GEOM, _crossings
from hullmert.linesearch import Envelope
from hullmert.metrics import EPS_COUNT
from hullmert.oracle import lower_chain_values
from hullmert.semiring import LowerChainValue, _product


def make_line_graph(lines: list[tuple[float, float]]) -> Hypergraph:
    """Nullary edge per (slope, intercept) line; with LINE_W0/LINE_V the
    edge for line i projects to the dual point (slope_i, -intercept_i)."""
    edges = [
        Edge.make(0, (), {0: m, 1: b}, (f"h{i}",)) for i, (m, b) in enumerate(lines)
    ]
    return Hypergraph(1, edges, goal=0, n_features=2)


LINE_W0 = np.array([0.0, 1.0])
LINE_V = np.array([1.0, 0.0])


def three_node_run(into_1: list, into_2: list, n_features: int) -> Hypergraph:
    """A leaf at node 0, one arc per ``into_1`` entry from node 0 to node 1
    and one per ``into_2`` entry from node 1 to the goal, node 2."""
    return Hypergraph(
        3,
        [Edge.make(0, (), {}, ("s",))]
        + [Edge.make(1, (0,), f, (0, f"a{i}")) for i, f in enumerate(into_1)]
        + [Edge.make(2, (1,), f, (0, f"w{i}")) for i, f in enumerate(into_2)],
        goal=2,
        n_features=n_features,
    )


# A single crossing c, with the etas placed in the unbounded intervals
# left and right of it: 0.1 beyond c, or the next float beyond c where a
# 0.1 step rounds back onto it (at 1e16 and beyond, where the spacing is
# at least 2).
UNBOUNDED_ETAS = {
    "zero": (0.0, -0.1, 0.1),
    "small": (2.0, 1.9, 2.1),
    "negative": (-1e6, -1000000.1, -999999.9),
    "1e15": (1e15, 999999999999999.9, 1000000000000000.1),
    "1e16": (1e16, 9999999999999998.0, 1.0000000000000002e16),
    "-1e17": (-1e17, -1.0000000000000002e17, -9.999999999999998e16),
    "1e300": (1e300, math.nextafter(1e300, -math.inf), math.nextafter(1e300, math.inf)),
}


def chain_bits(value: LowerChainValue) -> tuple:
    """A lower chain's coordinates as hex strings (so -0.0 differs from 0.0)
    and its back-pointers."""
    return [x.hex() for x in value.xs], [y.hex() for y in value.ys], value.back


def on_derivations(graph: Hypergraph) -> tuple[set[int], set[int]]:
    """The useful nodes and the edges that lie on some leaf-to-goal
    derivation of an acyclic graph, by brute force.

    A node derives something once one of its in-edges has only such tails;
    the scan repeats until nothing changes.  A depth-first search from a
    goal that derives something then follows every edge whose tails all
    derive something: the nodes it reaches are the useful ones, and the
    edges it follows lie on a derivation."""
    derivable: set[int] = set()
    grown = True
    while grown:
        grown = False
        for edge in graph.edges:
            if edge.head not in derivable and derivable.issuperset(edge.tails):
                derivable.add(edge.head)
                grown = True
    useful: set[int] = set()
    used: set[int] = set()
    stack = [graph.goal] if graph.goal in derivable else []
    while stack:
        node = stack.pop()
        if node in useful:
            continue
        useful.add(node)
        for ei in graph.in_edges[node]:
            if derivable.issuperset(graph.edges[ei].tails):
                used.add(ei)
                stack.extend(graph.edges[ei].tails)
    return useful, used


def oracle_bits(graph: Hypergraph, w0, v) -> list:
    """Each node's ``chain_bits`` as ``forest._lower_chain_values`` must
    give them, or the error it must raise.

    A cycle raises first.  Then vectors that do not cover every feature id
    of the graph, an edge's on no derivation too, raise
    ``DimensionMismatchError`` before any edge is projected.  The kernel
    projects only the edges on some leaf-to-goal derivation
    (``on_derivations``), so the oracle's recursion runs with every other
    edge valued zero: a node on no such derivation holds
    ``LowerChainValue.zero``, and an overflow that only such an edge meets
    fails the full oracle and not the kernel.  The full oracle must agree
    on every useful node whenever it succeeds."""
    w0, v = np.asarray(w0, dtype=float), np.asarray(v, dtype=float)
    graph.topo_order()
    top = max((fid for edge in graph.edges for fid, _ in edge.features), default=-1)
    if top >= len(w0):
        raise DimensionMismatchError(f"edge uses feature id {top} but vectors have {len(w0)}")
    useful, used = on_derivations(graph)

    def edge_value(ei: int, edge: Edge) -> LowerChainValue:
        if ei not in used:
            return LowerChainValue.zero
        (p,) = project_edge(edge, w0, v).points
        return LowerChainValue.singleton(p.x, p.y, (ei,))

    want = [chain_bits(x) for x in _inside_values(graph, edge_value, LowerChainValue.zero)]
    try:
        full = lower_chain_values(graph, w0, v)
    except InvalidGeometryError:
        return want
    for node in useful:
        assert chain_bits(full[node]) == want[node], f"node {node}"
    return want


# Frozen references for the hot loops of ``semiring``, ``forest`` and
# ``metrics``: the same algorithms in the form they had before their state
# moved into locals, before a binary edge's translate stopped being built,
# or before BLEU's floors stopped calling builtins.  The differential tests
# require the same bits, back-pointers and errors from the rewritten loops.


def reference_lower_merge(xa, ya, ba, xb, yb, bb) -> LowerChainValue:
    """``semiring._lower_merge`` reading the top two stack points from the
    lists at every step."""
    cx: list[float] = []
    cy: list[float] = []
    cb: list = []
    n = i = j = 0
    na, nb = len(xa), len(xb)
    while True:
        if j < nb and (i == na or xb[j] < xa[i] or (xb[j] == xa[i] and yb[j] < ya[i])):
            x, y, b = xb[j], yb[j], bb[j]
            j += 1
        elif i < na:
            x, y, b = xa[i], ya[i], ba[i]
            i += 1
        else:
            return LowerChainValue(cx, cy, cb)
        if n and cx[-1] == x:
            if not y < cy[-1]:
                continue
            del cx[-1], cy[-1], cb[-1]
            n -= 1
        while n >= 2:
            ox, oy, ax, ay = cx[-2], cy[-2], cx[-1], cy[-1]
            t1 = (ax - ox) * (y - oy)
            t2 = (ay - oy) * (x - ox)
            if t1 - t2 > EPS_GEOM * (abs(t1) + abs(t2)):
                break
            del cx[-1], cy[-1], cb[-1]
            n -= 1
        cx.append(x)
        cy.append(y)
        cb.append(b)
        n += 1


def reference_mul(a: LowerChainValue, b: LowerChainValue) -> LowerChainValue:
    """``LowerChainValue.__mul__`` indexing both chains at every step and
    stepping through an exhausted chain one point at a time."""
    xa, xb = a.xs, b.xs
    if not xa or not xb:
        return LowerChainValue.zero
    ya, ba, yb = a.ys, a.back, b.ys
    if len(xa) == 1:
        x0, y0, b0 = xa[0], ya[0], ba[0]
        xs = [x0 + x for x in xb]
        ys = [y0 + y for y in yb]
        back = [b0 + (j,) for j in range(len(xs))]
    else:
        xs = [xa[0] + xb[0]]
        ys = [ya[0] + yb[0]]
        back = [ba[0] + (0,)]
        na, nb = len(xa) - 1, len(xb) - 1
        i = j = 0
        while i < na or j < nb:
            if i == na:
                j += 1
            elif j == nb:
                i += 1
            else:
                # Edge-angle order; both edges point right (x increases).
                # difference_sign(t1, t2) inline; NaN reads as -1.
                t1 = (xa[i + 1] - xa[i]) * (yb[j + 1] - yb[j])
                t2 = (ya[i + 1] - ya[i]) * (xb[j + 1] - xb[j])
                d = t1 - t2
                band = EPS_GEOM * (abs(t1) + abs(t2))
                if d > band:
                    i += 1
                elif abs(d) <= band:
                    i += 1
                    j += 1
                else:
                    j += 1
            xs.append(xa[i] + xb[j])
            ys.append(ya[i] + yb[j])
            back.append(ba[i] + (j,))
    return _product(xs, ys, back)


def reference_edge_product(x, y, ei, a: LowerChainValue, b: LowerChainValue) -> LowerChainValue:
    """``semiring._edge_product`` as the translate {(x, y)} * a, made whole
    through ``_product`` with back-pointers (ei, i), then multiplied by b."""
    back = [(ei, i) for i in range(len(a.xs))]
    return reference_mul(_product([x + t for t in a.xs], [y + t for t in a.ys], back), b)


def reference_yields(edges, backs: list, roots: list):
    """``forest._yields`` pushing a marker, every token and every child of
    an item onto the stack."""
    spans: dict = {}
    for root in roots:
        toks: list[str] = []
        stack = [root]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                toks.append(item)
                continue
            if item.__class__ is list:
                # [item, start]: the item's first walk ends here.
                spans[item[0]] = (toks, item[1], len(toks))
                continue
            span = spans.get(item)
            if span is not None:
                toks.extend(span[0][span[1]:span[2]])
                continue
            stack.append([item, len(toks)])
            back = backs[item[0]][item[1]]
            edge = edges[back[0]]
            tails = edge.tails
            for slot in reversed(edge.template):
                stack.append(slot if slot.__class__ is str else (tails[slot], back[slot + 1]))
        yield tuple(toks)


def reference_bleu_loss(max_n: int, aggregate) -> float:
    """``Bleu.loss`` flooring counts with the ``max`` and ``min`` builtins
    over slices of the statistics."""
    stats = aggregate.tolist()
    log_precision = 0.0
    for m, t in zip(stats[:max_n], stats[max_n : 2 * max_n]):
        log_precision += math.log(max(m, EPS_COUNT) / max(t, EPS_COUNT))
    log_precision /= max_n
    hyp_len, ref_len = stats[-2], stats[-1]
    brevity = min(0.0, 1.0 - ref_len / max(hyp_len, EPS_COUNT))
    return 1.0 - math.exp(brevity + log_precision)


def eager_envelope(graph, w0, v):
    """``build_envelope`` as it was before it kept coordinate lists: the
    goal value's ``chain()``, the crossings of its ``Point2``s and
    ``_derivations`` over the kernel's back-pointers, all built at once
    through the eager ``Envelope`` constructor.  The crossings are
    ``geometry._crossings``, which ``build_envelope`` computes too, and not
    ``envelope_boundaries``: where the orientation test's cross products
    overflow, the kernel's chain can give crossings that do not increase,
    and ``envelope_boundaries`` refuses those."""
    w0 = np.asarray(w0, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    values = _lower_chain_values(graph, w0, v)
    goal = values[graph.goal]
    chain = goal.chain()
    backs = [value.back for value in values]
    roots = [(graph.goal, i) for i in range(len(goal))]
    derivations = tuple(_derivations(graph, backs, roots))
    xs, ys = [p.x for p in chain], [p.y for p in chain]
    return Envelope(chain.points, _crossings(xs, ys), derivations)


# A frozen reference for corpus set-up: ``loads_corpus``, the
# ``Hypergraph`` constructor's checks and ``validate`` in the form they had
# before each edge was accepted by class tests alone.  It changes in two
# places only: lines end at "\n" alone, and a yield slot past the
# interpreter's digit limit is a ForestFormatError.  The helpers it imports
# keep their messages; ``_check_number`` checks a value and returns nothing.


def _reference_parse_features(features: dict, where: str) -> dict:
    values = features.values()
    if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
        return features
    for name, val in features.items():
        _check_number(val, where, f"feature {name!r}")
    return {name: float(val) for name, val in features.items()}


def _reference_parse_template(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise _fail(where, f"'yield' must be a list, got {value!r}")
    out: list = []
    for item in value:
        if not isinstance(item, str):
            raise _fail(where, f"yield entries must be strings, got {item!r}")
        m = _SLOT_RE.fullmatch(item) if item[:1] == "$" else None
        try:
            out.append(int(m.group(1)) if m else item)
        except ValueError:
            digits = f"{len(item) - 1} digits, past the digit limit"
            raise _fail(where, f"yield slot {item[:10]}... has {digits}") from None
    return tuple(out)


def _reference_parse_doc(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise _fail(where, "sentence document must be a JSON object")
    missing = _SENTENCE_KEYS - doc.keys()
    if missing:
        raise _fail(where, f"missing keys: {sorted(missing)}")
    unknown = doc.keys() - _SENTENCE_KEYS
    if unknown:
        raise _fail(where, f"unknown keys: {sorted(unknown)}")
    if not isinstance(doc["id"], str):
        raise _fail(where, f"'id' must be a string, got {doc['id']!r}")
    n_nodes = _parse_nodes(doc["nodes"], where)
    goal = _check_int(doc["goal"], where, "'goal'")
    if not isinstance(doc["edges"], list):
        raise _fail(where, "'edges' must be a list")
    edges = []
    for k, e in enumerate(doc["edges"]):
        ewhere = f"{where}, edge {k}"
        if not isinstance(e, dict):
            raise _fail(ewhere, "edge must be a JSON object")
        bad = e.keys() - _EDGE_KEYS
        if bad:
            raise _fail(ewhere, f"unknown keys: {sorted(bad)}")
        if "head" not in e:
            raise _fail(ewhere, "missing 'head'")
        head = _check_int(e["head"], ewhere, "'head'")
        tails = e.get("tails", [])
        if not isinstance(tails, list):
            raise _fail(ewhere, "'tails' must be a list")
        tails = tuple(_check_int(t, ewhere, "tail") for t in tails)
        features = e.get("features", {})
        if not isinstance(features, dict):
            raise _fail(ewhere, "'features' must be an object")
        feats = _reference_parse_features(features, ewhere)
        template = _reference_parse_template(e.get("yield", []), ewhere)
        edges.append((head, tails, feats, template))
    return {
        "id": doc["id"],
        "n_nodes": n_nodes,
        "goal": goal,
        "edges": edges,
        "reference": _parse_reference(doc["reference"], where),
    }


def _reference_graph(n_nodes: int, edges: list, goal: int, n_features: int) -> tuple:
    """The constructor's checks; ``(in_edges, width)``."""
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
    width = 0
    for ei, e in enumerate(edges):
        if not 0 <= e.head < n_nodes:
            raise ForestFormatError(f"edge {ei}: head {e.head} out of range")
        for t in e.tails:
            if not 0 <= t < n_nodes:
                raise ForestFormatError(f"edge {ei}: tail {t} out of range")
        for fid, _ in e.features:
            if not 0 <= fid < n_features:
                raise ForestFormatError(f"edge {ei}: feature id {fid} out of range")
            if fid >= width:
                width = fid + 1
        slots = sorted(item for item in e.template if isinstance(item, int))
        if slots != list(range(len(e.tails))):
            raise ForestFormatError(
                f"edge {ei}: yield must use each of the {len(e.tails)} tail "
                f"slots exactly once, got {slots}"
            )
        in_edges[e.head].append(ei)
    return tuple(tuple(lst) for lst in in_edges), width


def _reference_validate(n_nodes: int, edges: list, in_edges: tuple, goal: int) -> tuple:
    """``validate``'s report and plan (None for a cycle)."""
    indeg = [0] * n_nodes
    succs: list[list[int]] = [[] for _ in range(n_nodes)]
    for e in edges:
        for t in e.tails:
            indeg[e.head] += 1
            succs[t].append(e.head)
    queue = deque(v for v in range(n_nodes) if indeg[v] == 0)
    order: list[int] = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for h in succs[v]:
            indeg[h] -= 1
            if indeg[h] == 0:
                queue.append(h)
    warnings: list[str] = []
    if len(order) != n_nodes:
        cyclic_node = min(v for v in range(n_nodes) if indeg[v] > 0)
        errors = (f"cycle through node {cyclic_node}",)
        return ValidationReport(False, None, errors, (), cyclic_node, False), None
    derivable = [False] * n_nodes
    for v in order:
        for ei in in_edges[v]:
            if all(derivable[t] for t in edges[ei].tails):
                derivable[v] = True
                break
    goal_ok = derivable[goal]
    if not goal_ok:
        warnings.append(f"goal node {goal} derives nothing (empty language)")
    useful = [False] * n_nodes
    useful[goal] = goal_ok
    plan = []
    for v in reversed(order):
        if useful[v]:
            ins = in_edges[v]
            kept = [ei for ei in ins if all(derivable[t] for t in edges[ei].tails)]
            for ei in kept:
                for t in edges[ei].tails:
                    useful[t] = True
            plan.append((v, ins if len(kept) == len(ins) else kept))
    plan.reverse()
    stranded = tuple(v for v in range(n_nodes) if not useful[v])
    if stranded and goal_ok:
        warnings.append(f"nodes not on any leaf-to-goal path: {list(stranded)}")
    report = ValidationReport(True, tuple(order), (), tuple(warnings), None, goal_ok, stranded)
    return report, plan


def _edge_bits(edge: Edge) -> tuple:
    """An edge with each feature value's type and ``float.hex`` and each
    template entry's type."""
    feats = tuple((fid, type(v).__name__, float.hex(v)) for fid, v in edge.features)
    template = tuple((type(x).__name__, x) for x in edge.template)
    return edge.head, edge.tails, feats, template


def reference_setup(text: str) -> tuple:
    """What ``setup_bits`` reads off ``loads_corpus(text)`` after every
    graph is validated, by the frozen reference."""
    docs = []
    for i, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        where = f"line {i}"
        try:
            raw = json.loads(line)
        except ValueError as exc:
            raise _fail(where, f"invalid JSON: {exc}") from None
        docs.append((where, _reference_parse_doc(raw, where)))
    names = {name for _, doc in docs for _, _, feats, _ in doc["edges"] for name in feats}
    index = FeatureIndex(names)
    ids = index.ids
    graphs = []
    for where, doc in docs:
        edges = [
            Edge(head, tails, tuple(sorted([(ids[n], v) for n, v in feats.items()])), template)
            for head, tails, feats, template in doc["edges"]
        ]
        try:
            in_edges, width = _reference_graph(doc["n_nodes"], edges, doc["goal"], len(index))
        except ForestFormatError as exc:
            raise _fail(where, str(exc)) from None
        graphs.append((doc, edges, in_edges, width))
    out = []
    for doc, edges, in_edges, width in graphs:
        report, plan = _reference_validate(doc["n_nodes"], edges, in_edges, doc["goal"])
        out.append((
            doc["id"], doc["reference"], doc["n_nodes"], doc["goal"], len(index),
            [_edge_bits(e) for e in edges], in_edges, width, report, plan,
        ))
    return index.names, out


def setup_bits(corpus: Corpus) -> tuple:
    """A validated corpus as ``reference_setup`` gives it."""
    out = []
    for s in corpus.sentences:
        g = s.graph
        report = g.validate()
        out.append((
            s.sid, s.reference, g.n_nodes, g.goal, g.n_features,
            [_edge_bits(e) for e in g.edges], g.in_edges, g._width, report, g._plan,
        ))
    return corpus.features.names, out
