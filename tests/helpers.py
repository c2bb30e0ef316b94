"""Shared builders used by several test modules."""

import math

import numpy as np

from hullmert import Edge, Hypergraph
from hullmert.forest import _derivations, _lower_chain_values
from hullmert.geometry import EPS_GEOM, envelope_boundaries
from hullmert.linesearch import Envelope
from hullmert.metrics import EPS_COUNT
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
    goal value's ``chain()``, ``envelope_boundaries`` over its ``Point2``s
    and ``_derivations`` over the kernel's back-pointers, all built at
    once through the eager ``Envelope`` constructor."""
    w0 = np.asarray(w0, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    values = _lower_chain_values(graph, w0, v)
    goal = values[graph.goal]
    chain = goal.chain()
    backs = [value.back for value in values]
    roots = [(graph.goal, i) for i in range(len(goal))]
    derivations = tuple(_derivations(graph, backs, roots))
    return Envelope(chain.points, envelope_boundaries(chain), derivations)
