import copy
import dataclasses
import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hullmert import forest, linesearch
from hullmert.errors import (
    CyclicForestError,
    DimensionMismatchError,
    EnumerationOverflowError,
    ForestFormatError,
    InvalidGeometryError,
    NoHypothesesError,
    ProvenanceError,
)
from hullmert.forest import (
    Edge,
    Hypergraph,
    count_derivations,
    edge_dot,
    enumerate_derivations,
    inside,
    inside_hull,
    project_edge,
    realize,
    reconstruct,
)
from hullmert.geometry import full_hull, lower_chain
from hullmert.linesearch import (
    LineSearchResult,
    build_envelope,
    decode_loss,
    line_search,
    optimize,
    sweep,
)
from hullmert.metrics import get_metric
from hullmert.oracle import Tropical, dual_points, lower_chain_values, probe_etas
from hullmert.sampling import random_corpus, random_derivation, random_forest, random_lattice
from hullmert.semiring import ConvexHullValue, LowerChainValue

from helpers import chain_bits, eager_envelope, oracle_bits, reference_yields


def binary_forest() -> Hypergraph:
    """Goal = binary edge over a 2-way node and a 3-way node."""
    edges = [
        Edge.make(0, (), {0: 1.0}, ("a0",)),
        Edge.make(0, (), {0: 2.0}, ("a1",)),
        Edge.make(1, (), {1: 1.0}, ("b0",)),
        Edge.make(1, (), {1: 2.0}, ("b1",)),
        Edge.make(1, (), {1: 3.0}, ("b2",)),
        Edge.make(2, (0, 1), {0: -1.0}, (0, "x", 1)),
    ]
    return Hypergraph(3, edges, goal=2, n_features=2)


def chain_graph(n: int) -> Hypergraph:
    """A single path of n edges: a start edge, then one word per node."""
    edges = [Edge.make(0, (), {}, ("s",))]
    edges += [Edge.make(i, (i - 1,), {}, (0, "w")) for i in range(1, n)]
    return Hypergraph(n, edges, goal=n - 1, n_features=0)


def chain_tree(n: int) -> tuple:
    tree = (0, ())
    for ei in range(1, n):
        tree = (ei, (tree,))
    return tree


class TestConstruction:
    def test_feature_maps_are_sorted(self) -> None:
        e = Edge.make(0, (), {3: 1.0, 1: 2.0}, ())
        assert e.features == ((1, 2.0), (3, 1.0))

    def test_goal_out_of_range(self) -> None:
        with pytest.raises(ForestFormatError):
            Hypergraph(1, [], goal=1, n_features=0)

    def test_head_and_tail_bounds(self) -> None:
        with pytest.raises(ForestFormatError):
            Hypergraph(1, [Edge.make(1, (), {}, ())], goal=0, n_features=0)
        with pytest.raises(ForestFormatError):
            Hypergraph(1, [Edge.make(0, (1,), {}, (0,))], goal=0, n_features=0)

    def test_feature_id_bound(self) -> None:
        with pytest.raises(ForestFormatError):
            Hypergraph(1, [Edge.make(0, (), {2: 1.0}, ())], goal=0, n_features=2)

    @pytest.mark.parametrize("template", [(), (0, 0), (1,), (0, 1)])
    def test_tail_slots_must_appear_exactly_once(self, template) -> None:
        with pytest.raises(ForestFormatError):
            Hypergraph(
                2, [Edge.make(1, (0,), {}, template)], goal=1, n_features=0
            )

    def test_node_count_is_bounded_by_the_edges(self) -> None:
        # The goal, two heads and one tail: a fifth node would be touched by
        # no edge.  The count is refused before a list per node is built.
        edges = [Edge.make(1, (), {}, ()), Edge.make(2, (1,), {}, (0,))]
        assert Hypergraph(4, edges, goal=3, n_features=0).n_nodes == 4
        for n in (5, 10**5):
            message = f"{n} nodes; the goal and edges name at most 4"
            with pytest.raises(ForestFormatError, match=message):
                Hypergraph(n, edges, goal=0, n_features=0)

    def test_immutable(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {}, ())], goal=0, n_features=0)
        with pytest.raises(AttributeError):
            g.goal = 0


class TestValidate:
    def test_single_nullary_edge(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {}, ("w",))], goal=0, n_features=0)
        report = g.validate()
        assert report.ok and report.topo_order == (0,)
        assert report.goal_derivable and not report.warnings

    def test_self_loop_is_cyclic(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (0,), {}, (0,))], goal=0, n_features=0)
        report = g.validate()
        assert not report.ok and report.cyclic_node == 0
        with pytest.raises(CyclicForestError) as err:
            g.topo_order()
        assert err.value.node == 0

    def test_two_node_cycle_reports_smallest_node(self) -> None:
        g = Hypergraph(
            3,
            [
                Edge.make(0, (), {}, ()),
                Edge.make(1, (2,), {}, (0,)),
                Edge.make(2, (1,), {}, (0,)),
            ],
            goal=2,
            n_features=0,
        )
        assert g.validate().cyclic_node == 1

    def test_goal_without_incoming_edges_warns_empty_language(self) -> None:
        g = Hypergraph(2, [Edge.make(0, (), {}, ())], goal=1, n_features=0)
        report = g.validate()
        assert report.ok and not report.goal_derivable
        assert any("empty language" in w for w in report.warnings)

    def test_stranded_node_listed(self) -> None:
        g = Hypergraph(
            3,
            [Edge.make(0, (), {}, ()), Edge.make(2, (0,), {}, (0,))],
            goal=2,
            n_features=0,
        )
        report = g.validate()
        assert report.ok and report.goal_derivable
        assert report.unreachable == (1,)
        assert any("1" in w for w in report.warnings)

    def test_report_is_cached(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {}, ())], goal=0, n_features=0)
        assert g.validate() is g.validate()


class TestInside:
    def test_single_edge_returns_its_value(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {}, ())], goal=0, n_features=0)
        got = inside(g, lambda ei, e: Tropical(7.0), Tropical)
        assert got == Tropical(7.0)

    def test_two_parallel_edges_add(self) -> None:
        g = Hypergraph(
            1,
            [Edge.make(0, (), {}, ("a",)), Edge.make(0, (), {}, ("b",))],
            goal=0,
            n_features=0,
        )
        vals = [Tropical(2.0), Tropical(5.0)]
        assert inside(g, lambda ei, e: vals[ei], Tropical) == Tropical(5.0)

    def test_chain_multiplies(self) -> None:
        g = Hypergraph(
            2,
            [Edge.make(0, (), {}, ("w",)), Edge.make(1, (0,), {}, (0,))],
            goal=1,
            n_features=0,
        )
        vals = [Tropical(2.0), Tropical(5.0)]
        assert inside(g, lambda ei, e: vals[ei], Tropical) == Tropical(7.0)
        hulls = [ConvexHullValue.singleton(1, 1), ConvexHullValue.singleton(2, -1)]
        got = inside(g, lambda ei, e: hulls[ei], ConvexHullValue)
        assert got.hull.as_tuples() == ((3.0, 0.0),)

    def test_underivable_tail_annihilates(self) -> None:
        # Node 0 has no incoming edges, so the goal's only edge produces 0̄.
        g = Hypergraph(2, [Edge.make(1, (0,), {}, (0,))], goal=1, n_features=0)
        got = inside(g, lambda ei, e: ConvexHullValue.one, ConvexHullValue)
        assert got.is_zero()


class TestProjectEdge:
    def test_zero_features_project_to_identity(self) -> None:
        e = Edge.make(0, (), {}, ())
        got = project_edge(e, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert got == ConvexHullValue.one

    def test_slope_two_intercept_three(self) -> None:
        e = Edge.make(0, (), {0: 1.0}, ())
        got = project_edge(e, np.array([3.0]), np.array([2.0]), edge_id=0)
        assert got.hull.as_tuples() == ((2.0, -3.0),)
        assert got.provenance == ((0, ()),)

    def test_hand_computed_dot_products(self) -> None:
        e = Edge.make(0, (), {0: 3.0, 1: 5.0}, ())
        got = project_edge(e, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got.hull.as_tuples() == ((5.0, -3.0),)

    def test_dimension_mismatch(self) -> None:
        e = Edge.make(0, (), {1: 1.0}, ())
        with pytest.raises(DimensionMismatchError):
            project_edge(e, np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            project_edge(e, np.array([1.0]), np.array([1.0]))

    def test_edge_dot(self) -> None:
        e = Edge.make(0, (), {0: 2.0, 2: -1.0}, ())
        assert edge_dot(e, np.array([1.0, 9.0, 4.0])) == -2.0
        # Left to right on a Python list too, where sum() compensates its
        # rounding since Python 3.12: (1e16 + 1.0) rounds to 1e16.
        cancel = Edge.make(0, (), {0: 1e16, 1: 1.0, 2: -1e16}, ())
        assert edge_dot(cancel, [1.0, 1.0, 1.0]) == 0.0


class TestInsideHull:
    def test_two_line_graph(self, two_line_graph) -> None:
        got = inside_hull(two_line_graph, np.array([2.0]), np.array([1.0]))
        assert got.hull.as_tuples() == ((0.0, 0.0), (1.0, -2.0))

    def test_matches_enumerated_dual_points(self, rng) -> None:
        for _ in range(25):
            g = random_forest(rng, n_nodes=6, integer_features=True)
            w0 = rng.integers(-3, 4, size=3).astype(float)
            v = rng.integers(-3, 4, size=3).astype(float)
            value = inside_hull(g, w0, v)
            want = full_hull(dual_points(g, w0, v))
            assert value.hull.points == want.points
            assert len(value) <= g.n_edges

    def test_tropical_agreement_at_random_eta(self, rng) -> None:
        for _ in range(25):
            g = random_lattice(rng, n_nodes=5)
            w0, v = rng.normal(size=3), rng.normal(size=3)
            value = inside_hull(g, w0, v)
            eta = float(rng.uniform(-5, 5))
            w = w0 + eta * v
            best = inside(g, lambda ei, e: Tropical(edge_dot(e, w)), Tropical)
            envelope_max = max(p.x * eta - p.y for p in value.points)
            assert best.score == pytest.approx(envelope_max, rel=1e-9)


class TestRealize:
    def test_slot_substitution_and_feature_sum(self) -> None:
        g = binary_forest()
        d = realize(g, (5, ((1, ()), (4, ()))))
        assert d.tokens == ("a1", "x", "b2")
        assert d.features.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda g: realize(g, chain_tree(g.n_nodes)), id="realize"),
            pytest.param(
                lambda g: reconstruct(g, inside_hull(g, np.zeros(0), np.zeros(0)), 0),
                id="reconstruct",
            ),
            pytest.param(
                lambda g: random_derivation(np.random.default_rng(0), g),
                id="random_derivation",
            ),
            pytest.param(
                lambda g: build_envelope(g, np.zeros(0), np.zeros(0)).derivations[0],
                id="build_envelope",
            ),
        ],
    )
    def test_deep_chain_does_not_recurse(self, build) -> None:
        n = 4000
        d = build(chain_graph(n))
        assert len(d.tokens) == n - 1 + 1  # start token plus one word per step
        assert d.edge_ids() == list(range(n - 1, -1, -1))

    @pytest.mark.parametrize(
        "tree, message",
        [
            ((-1, ((0, ()), (2, ()))), "edge id -1 not in this forest"),
            ((6, ()), "edge id 6 not in this forest"),
            ((0, ((1, ()),)), "edge 0 expects 0 tails, provenance recorded 1"),
            ((5, ((5, ()), (2, ()))), "edge 5 tail 0 is node 0, provenance supplies node 2"),
            (None, "point has opaque provenance"),
            ((1,), r"record \(1,\) is not \(int edge id, tuple of children\)"),
            ((0, 5), r"record \(0, 5\) is not"),
            ((1.0, ()), r"record \(1.0, \(\)\) is not"),
            ((True, ()), r"record \(True, \(\)\) is not"),
        ],
        ids=["negative-edge-id", "edge-id-past-the-end", "leaf-with-a-child",
             "child-heads-another-node", "opaque", "one-element-record",
             "children-not-a-tuple", "float-edge-id", "bool-edge-id"],
    )
    def test_tree_that_does_not_fit_is_refused(self, tree, message) -> None:
        with pytest.raises(ProvenanceError, match=message):
            realize(binary_forest(), tree)

    def test_derivation_equality_is_by_tree(self) -> None:
        g = binary_forest()
        a = realize(g, (5, ((0, ()), (2, ()))))
        b = realize(g, (5, ((0, ()), (2, ()))))
        c = realize(g, (5, ((1, ()), (2, ()))))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert sorted(a.edge_ids()) == [0, 2, 5]

    def test_deep_derivations_compare_and_hash(self) -> None:
        # Two parallel edges per step (ids 2i - 1 and 2i into node i), 5000
        # edges deep: equality, hashing and set membership must not recurse.
        n = 5000
        edges = [Edge.make(0, (), {}, ("s",))]
        for i in range(1, n):
            edges.append(Edge.make(i, (i - 1,), {0: 1.0}, (0, "a")))
            edges.append(Edge.make(i, (i - 1,), {0: -1.0}, (0, "b")))
        g = Hypergraph(n, edges, goal=n - 1, n_features=1)
        # Every derivation is at y = 0, so the chain keeps the two ends:
        # all "b" edges, then all "a" edges.
        low, high = build_envelope(g, np.zeros(1), np.ones(1)).derivations
        tree = (0, ())
        for i in range(1, n):
            tree = (2 * i - 1 if i == 1 else 2 * i, (tree,))
        near = realize(g, tree)  # low, except for the edge into node 1
        same = realize(g, low.tree)
        assert low == same and hash(low) == hash(same)
        assert low != high and high == realize(g, high.tree)
        assert low != near and near == realize(g, tree)
        assert same in {low, high} and near not in {low, high}
        assert len({low, high, same, near}) == 3


class TestReconstruct:
    def test_single_edge_point(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 2.0}, ("w",))], goal=0, n_features=1)
        value = inside_hull(g, np.array([1.0]), np.array([1.0]))
        d = reconstruct(g, value, 0)
        assert d.tree == (0, ()) and d.tokens == ("w",)

    def test_chain_point_sums_features(self) -> None:
        g = Hypergraph(
            2,
            [
                Edge.make(0, (), {0: 1.0}, ("w",)),
                Edge.make(1, (0,), {0: 2.0, 1: -1.0}, (0,)),
            ],
            goal=1,
            n_features=2,
        )
        value = inside_hull(g, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        d = reconstruct(g, value, 0)
        assert d.tree == (1, ((0, ()),))
        assert d.features.tolist() == [3.0, -1.0]

    def test_binary_point_rebuilds_both_children(self) -> None:
        g = binary_forest()
        w0 = np.array([0.0, 0.0])
        v = np.array([1.0, -1.0])
        value = inside_hull(g, w0, v)
        for i in range(len(value)):
            d = reconstruct(g, value, i)
            assert d.tokens[1] == "x" and len(d.tokens) == 3
            p = value.points[i]
            assert float(v @ d.features) == p.x
            assert float(-(w0 @ d.features)) == p.y

    def test_every_goal_point_projects_back(self, rng) -> None:
        for _ in range(20):
            g = random_forest(rng, n_nodes=6, integer_features=True)
            w0 = rng.integers(-3, 4, size=3).astype(float)
            v = rng.integers(-3, 4, size=3).astype(float)
            value = inside_hull(g, w0, v)
            for i, p in enumerate(value.points):
                d = reconstruct(g, value, i)
                assert d.tree == value.provenance[i]
                assert d == realize(g, d.tree) and d.tokens == realize(g, d.tree).tokens
                assert float(v @ d.features) == p.x
                assert float(-(w0 @ d.features)) == p.y

    def test_opaque_provenance_rejected(self) -> None:
        g = binary_forest()
        value = ConvexHullValue.from_raw_points([(0, 0), (1, 1)])
        with pytest.raises(ProvenanceError, match="point has opaque provenance"):
            reconstruct(g, value, 0)
        # An opaque tail record inside an edge's record, too.
        value = ConvexHullValue.singleton(0, 0, (5, ((0, ()), None)))
        with pytest.raises(ProvenanceError, match="point has opaque provenance"):
            reconstruct(g, value, 0)

    def test_point_index_out_of_range(self) -> None:
        g = binary_forest()
        value = inside_hull(g, np.zeros(2), np.array([1.0, -1.0]))
        for index in (-1, len(value)):
            with pytest.raises(ProvenanceError, match=f"point index {index} out of range"):
                reconstruct(g, value, index)

    def test_foreign_provenance_rejected(self) -> None:
        g = binary_forest()
        value = inside_hull(g, np.zeros(2), np.array([1.0, -1.0]))
        small = Hypergraph(1, [Edge.make(0, (), {}, ("w",))], goal=0, n_features=2)
        with pytest.raises(ProvenanceError, match="edge id 5 not in this forest"):
            reconstruct(small, value, 0)


    def test_provenance_arity_must_match_the_edge(self) -> None:
        value = ConvexHullValue.singleton(0, 0, (5, ()))
        with pytest.raises(ProvenanceError, match="edge 5 expects 2 tails, provenance recorded 0"):
            reconstruct(binary_forest(), value, 0)

    def test_provenance_tails_must_head_the_edge_tails(self) -> None:
        # Edge 5 rewrites node 2 from (node 0, node 1); supply them swapped.
        leaf = [ConvexHullValue.singleton(0, 0, (ei, ())) for ei in (5, 2, 0)]
        value = leaf[0] * leaf[1] * leaf[2]
        with pytest.raises(
            ProvenanceError, match="edge 5 tail 0 is node 0, provenance supplies node 1"
        ):
            reconstruct(binary_forest(), value, 0)


def assert_matches_hull_reference(graph: Hypergraph, w0, v) -> None:
    """The lower-chain pass against the hull semiring, bit for bit; every
    useful node's chain and back-pointers against the generic recursion,
    which the yields read, and zero at every stranded node."""
    got = forest._lower_chain_values(
        graph, np.asarray(w0, dtype=float).tolist(), np.asarray(v, dtype=float).tolist()
    )
    assert [chain_bits(x) for x in got] == oracle_bits(graph, w0, v)
    env = build_envelope(graph, w0, v)
    chain, derivations = env.chain, env.derivations
    value = inside_hull(graph, w0, v)
    want = lower_chain(value.hull)
    assert [(p.x.hex(), p.y.hex()) for p in chain] == [
        (p.x.hex(), p.y.hex()) for p in want
    ]
    assert len(derivations) == len(want)
    for i, d in enumerate(derivations):
        ref = reconstruct(graph, value, i)
        assert d.tree == ref.tree
        assert d.tokens == ref.tokens
        assert d.features.tobytes() == ref.features.tobytes()


def copy_parallel_features(rng, graph: Hypergraph) -> Hypergraph:
    """``graph`` with one arc's features copied onto the next in-edge of its
    head when both leave the same node, so the two arcs tie exactly."""
    pairs = [
        (a, b)
        for ins in graph.in_edges
        for a, b in zip(ins, ins[1:])
        if graph.edges[a].tails == graph.edges[b].tails
    ]
    if not pairs:
        return graph
    a, b = pairs[rng.integers(len(pairs))]
    edges = list(graph.edges)
    edges[b] = dataclasses.replace(edges[b], features=edges[a].features)
    return Hypergraph(graph.n_nodes, edges, graph.goal, graph.n_features)


@st.composite
def shuffled_lattices(draw):
    """A random lattice with its edge list permuted, which interleaves the
    in-edges of a node from different tails, and vectors for it: small
    integers (exact ties across tails) or floats, and v = 0 at times."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    graph = random_lattice(
        rng,
        n_nodes=draw(st.integers(3, 20)),
        max_parallel=draw(st.integers(2, 4)),
        p_skip=0.6,
        integer_features=integer,
    )
    edges = [graph.edges[i] for i in rng.permutation(graph.n_edges)]
    w0, v = random_vectors(rng, 3, integer)
    if draw(st.booleans()):
        v = np.zeros(3)
    return Hypergraph(graph.n_nodes, edges, graph.goal, graph.n_features), w0, v


@st.composite
def multi_tail_forests(draw):
    """A forest whose edges have zero to three tails over lower-numbered
    nodes, with small-integer or float features and vectors.  Feature 3,
    1e17 or 1e308 on some edges with two or more tails and 1 in v, moves
    their points far beyond their tails' spread: 1e17 rounds a translate's
    x values together, 1e308 makes translates and sums overflow.  No two
    consecutive in-edges share a tail tuple of length at most one: such a
    run is summed before its product, which keeps the per-edge recursion's
    bits only in general position, and the lattice tests cover it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    huge = draw(st.sampled_from([0.0, 1e17, -1e17, 1e308]))
    n_nodes = draw(st.integers(3, 12))
    edges = []
    for head in range(n_nodes):
        previous = None
        for _ in range(1 if head < 2 else int(rng.integers(1, 5))):
            feats = {
                i: float(rng.integers(-3, 4)) if integer else float(rng.normal())
                for i in range(3)
                if rng.random() < 0.75
            }
            arity = 0 if head < 2 else int(rng.integers(0, 4))
            tails = tuple(int(rng.integers(0, head)) for _ in range(arity))
            if arity < 2 and tails == previous:
                tails += (int(rng.integers(0, head)),)
            elif arity >= 2 and huge and rng.random() < 0.3:
                feats[3] = huge
            previous = tails
            edges.append(Edge.make(head, tails, feats, (f"w{head}", *range(len(tails)))))
    w0, v = random_vectors(rng, 3, integer)
    w0 = np.append(w0, draw(st.sampled_from([0.0, 1.0])))
    v = np.append(v, 1.0)
    return Hypergraph(n_nodes, edges, n_nodes - 1, 4), w0, v


def random_vectors(rng, n: int, integer: bool):
    if integer:
        return (rng.integers(-3, 4, size=n).astype(float),
                rng.integers(-3, 4, size=n).astype(float))
    return rng.normal(size=n), rng.normal(size=n)


@st.composite
def sampled_graphs(draw):
    """A random lattice or branching forest from ``sampling``, float or
    integer, with vectors for it and v = 0 at times."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integer = draw(st.booleans())
    if draw(st.booleans()):
        graph = random_forest(rng, n_nodes=14, max_edges_per_node=3, integer_features=integer)
    else:
        graph = random_lattice(rng, n_nodes=16, max_parallel=3, integer_features=integer)
    w0, v = random_vectors(rng, 3, integer)
    if draw(st.booleans()):
        v = np.zeros(3)
    return graph, w0, v


def subtrees(tree: tuple):
    """Every subtree of a derivation tree, root first."""
    stack = [tree]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(t[1])


def outcome(values, *args):
    """``values(*args)``, or the type and message of what it raised."""
    try:
        return values(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def best_bits(graph: Hypergraph, w: list[float]) -> list:
    """Each node's y as hex and back-pointers from ``_best_values``, or None."""
    ys, backs = forest._best_values(graph, w)
    return [None if y is None else (y.hex(), back) for y, back in zip(ys, backs)]


def kernel_best_bits(graph: Hypergraph, w: list[float]) -> list:
    """``best_bits`` read off the lower-chain kernel at a zero direction."""
    values = forest._lower_chain_values(graph, w, [0.0] * len(w))
    assert all(x.xs in ([], [0.0]) for x in values)
    return [(x.ys[0].hex(), x.back) if x.xs else None for x in values]


class TestEnvelopePoints:
    @pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
    @pytest.mark.parametrize(
        "make, size, graphs",
        [
            pytest.param(random_lattice, {"n_nodes": 14, "max_parallel": 3}, 25, id="lattice"),
            pytest.param(random_forest, {"n_nodes": 14, "max_edges_per_node": 3}, 25, id="forest"),
            # Goal derivations here share most of their subtrees.
            pytest.param(
                random_forest, {"n_nodes": 120, "max_edges_per_node": 4}, 3, id="shared-forest"
            ),
        ],
    )
    def test_goal_chain_matches_hull_reference(self, rng, make, size, graphs, integer) -> None:
        for _ in range(graphs):
            graph = make(rng, integer_features=integer, **size)
            w0, v = random_vectors(rng, 3, integer)
            assert_matches_hull_reference(graph, w0, v)
            # v = 0 is the fixed-weight decode: one point per node.
            assert_matches_hull_reference(graph, w0, np.zeros(3))

    @given(
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
        still=st.booleans(),
        tie=st.booleans(),
        n_nodes=st.integers(2, 30),
        max_parallel=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_lattice_goal_chain_is_at_most_the_edge_count(
        self, seed, integer, still, tie, n_nodes, max_parallel
    ) -> None:
        # Macherey et al. (2008): a lattice's envelope has at most |E|
        # segments.  still=True is v = 0, the fixed-weight decode.
        # tie=True gives two parallel arcs one point, an exact tie in a run.
        rng = np.random.default_rng(seed)
        graph = random_lattice(
            rng, n_nodes=n_nodes, max_parallel=max_parallel, integer_features=integer
        )
        w0, v = random_vectors(rng, 3, integer)
        if tie:
            graph = copy_parallel_features(rng, graph)
        if still:
            v = np.zeros(3)
        chain = build_envelope(graph, w0, v).chain
        assert 1 <= len(chain) <= graph.n_edges
        # Runs of parallel arcs are summed before the product.  These draws
        # are small integers or floats in general position, where every
        # node must still equal the per-edge recursion, bit for bit.
        got = forest._lower_chain_values(graph, w0.tolist(), v.tolist())
        assert [chain_bits(x) for x in got] == oracle_bits(graph, w0, v)

    @given(lattice=shuffled_lattices())
    @settings(max_examples=150, deadline=None)
    def test_interleaved_in_edges_keep_the_oracle_values(self, lattice) -> None:
        # A lattice's in-edges come grouped by tail; shuffled, a skip arc
        # sits between two parallel arcs.  Only consecutive arcs with one
        # tail tuple form a run, so every node's chain and back-pointers
        # must still be the per-edge recursion's.
        graph, w0, v = lattice
        got = forest._lower_chain_values(graph, w0.tolist(), v.tolist())
        assert [chain_bits(x) for x in got] == oracle_bits(graph, w0, v)

    @given(problem=multi_tail_forests())
    @settings(max_examples=200, deadline=None)
    def test_multi_tail_edges_keep_the_oracle_values(self, problem) -> None:
        # An edge's point is multiplied into its first two tails by one
        # merge that builds no translate, and later tails by ``__mul__``.
        # Every useful node's bits and back-pointers, or the error, are the
        # per-edge recursion's; stranded nodes hold zero.
        graph, w0, v = problem

        def kernel_bits(w0, v):
            return [chain_bits(x) for x in forest._lower_chain_values(graph, w0, v)]

        assert outcome(kernel_bits, w0.tolist(), v.tolist()) == outcome(oracle_bits, graph, w0, v)

    def test_projection_bits_do_not_depend_on_the_vector_type(self, rng) -> None:
        # Edges are projected on Python floats; float64 arrays, lists and
        # integer arrays must all give the float64 array path's bits.
        def bits(chain):
            return [(p.x.hex(), p.y.hex()) for p in chain]

        for integer in (False, True):
            graph = random_forest(rng, n_nodes=14, max_edges_per_node=3, integer_features=integer)
            w0, v = random_vectors(rng, 3, integer)
            want = bits(lower_chain(inside_hull(graph, w0, v).hull))
            kinds = [(w0, v), (w0.tolist(), v.tolist())]
            if integer:
                kinds.append((w0.astype(np.int64), v.astype(np.int64)))
            for a, b in kinds:
                assert bits(build_envelope(graph, a, b).chain) == want

    def test_projection_sums_left_to_right(self) -> None:
        # (1e16 + 1.0) rounds to 1e16, so the left-to-right sum of the first
        # edge's terms is 0.0 where math.fsum, and some np.dot or pairwise
        # orders, give 1.0.
        g = Hypergraph(
            1,
            [
                Edge.make(0, (), {0: 1e16, 1: 1.0, 2: -1e16}, ("cancel",)),
                Edge.make(0, (), {0: 1.0}, ("one",)),
            ],
            goal=0,
            n_features=3,
        )
        ones = np.ones(3)
        for w0, v in [(ones, ones), ([1.0] * 3, [1.0] * 3), (np.ones(3, dtype=np.int64),) * 2]:
            chain = build_envelope(g, w0, v).chain
            assert [(p.x.hex(), p.y.hex()) for p in chain] == [
                ((0.0).hex(), (0.0).hex()),
                ((1.0).hex(), (-1.0).hex()),
            ]

    def test_products_rounding_together_match_the_reference(self) -> None:
        # Adding the leaf chain (0, 0), (1, -1), (2, 5) to a goal edge at
        # x = 1e20 rounds all three x values onto one float; the point
        # (1e20, -1) scores highest at every eta.
        g = Hypergraph(
            2,
            [
                Edge.make(0, (), {}, ("p",)),
                Edge.make(0, (), {0: 1.0, 1: 1.0}, ("q",)),
                Edge.make(0, (), {0: 2.0, 1: -5.0}, ("r",)),
                Edge.make(1, (0,), {0: 1e20}, (0,)),
            ],
            goal=1,
            n_features=2,
        )
        w0, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert_matches_hull_reference(g, w0, v)
        env = build_envelope(g, w0, v)
        assert [(p.x, p.y) for p in env.chain] == [(1e20, -1.0)]
        assert env.derivations[0].tokens == ("q",)

    def test_search_path_builds_no_tree(self, rng, monkeypatch) -> None:
        # Yields come straight from the back-pointers; a tree is built only
        # when a caller reads Derivation.tree.
        sentences = random_corpus(rng, n_sentences=3, integer_features=True)
        graph = random_forest(rng, n_nodes=30, max_edges_per_node=3, integer_features=True)
        sentences.append((graph, random_derivation(rng, graph).tokens))
        w0, v = random_vectors(rng, 3, integer=True)

        def forbidden(_):
            raise AssertionError("derivation tree built on the search path")

        monkeypatch.setattr(forest.Derivation, "tree", property(forbidden))
        metric = get_metric("bleu")
        result = line_search(sentences, w0, v, metric)
        sweep(sentences, w0, v, metric, -2.0, 2.0, 9)
        assert decode_loss(sentences, result.weights, metric) == result.loss
        optimize(sentences, w0, metric, iterations=1)

    def test_yield_walker_expands_each_reached_item_once(self, monkeypatch) -> None:
        # Seeded so that the goal chain reaches deep into the forest.
        rng = np.random.default_rng(0)
        graph = random_forest(rng, n_nodes=120, max_edges_per_node=4, integer_features=True)
        w0, v = random_vectors(rng, 3, integer=True)
        calls: list[tuple[int, int]] = []
        yields = forest._yields

        class CountingBacks(list):
            """One node's back-pointer list; reading entry j expands (node, j)."""

            def __init__(self, node, back):
                super().__init__(back)
                self.node = node

            def __getitem__(self, j):
                calls.append((self.node, j))
                return list.__getitem__(self, j)

        def counting_yields(edges, backs, roots):
            return yields(edges, [CountingBacks(n, b) for n, b in enumerate(backs)], roots)

        monkeypatch.setattr(linesearch, "_yields", counting_yields)
        derivations = build_envelope(graph, w0, v).derivations
        assert len(derivations) > 1
        # Each reached (node, point index) once in all: distinct items are
        # distinct subtrees, since distinct chain points of a node differ in x.
        reached = {t for d in derivations for t in subtrees(d.tree)}
        visits = sum(len(d.edge_ids()) for d in derivations)
        assert len(calls) == len(set(calls)) == len(reached) < visits / 2
        # Yields match the lazily built trees, realized afresh, and those
        # trees match the reconstruct-over-inside_hull reference.
        assert all(d.tokens == realize(graph, d.tree).tokens for d in derivations)
        assert_matches_hull_reference(graph, w0, v)

    def test_derivations_hold_no_chain_values(self, rng) -> None:
        # A derivation keeps its root and the per-node back-pointer lists;
        # the lower-chain values, with their coordinate lists, are freed.
        def chain_values() -> int:
            gc.collect()
            return sum(isinstance(o, LowerChainValue) for o in gc.get_objects())

        graph = random_forest(rng, n_nodes=20, max_edges_per_node=3)
        w0, v = random_vectors(rng, 3, integer=False)
        before = chain_values()
        derivations = build_envelope(graph, w0, v).derivations
        assert chain_values() == before
        for i, d in enumerate(derivations):
            assert vars(d).keys() == {"tokens", "_graph", "_root", "_backs"}
            assert d._root == (graph.goal, i)
            assert all(b.__class__ is list for b in d._backs)

    def test_features_and_equality_build_no_tree(self, rng, monkeypatch) -> None:
        # edge_ids, features, == and hash read the back-pointers; the order
        # and the result equal those of the realized tree.
        graph = random_forest(rng, n_nodes=40, max_edges_per_node=3)
        w0, v = random_vectors(rng, 3, integer=False)
        derivations = build_envelope(graph, w0, v).derivations
        again = build_envelope(graph, w0, v).derivations
        built = forest.Derivation.tree
        no_tree = property(lambda _: pytest.fail("tree built"))
        monkeypatch.setattr(forest.Derivation, "tree", no_tree)
        ids = [d.edge_ids() for d in derivations]
        features = [d.features.tobytes() for d in derivations]
        assert list(derivations) == list(again) and len(set(derivations + again)) == len(again)
        assert [hash(d) for d in derivations] == [hash(d) for d in again]
        monkeypatch.setattr(forest.Derivation, "tree", built)
        trees = [realize(graph, d.tree) for d in derivations]
        assert ids == [t.edge_ids() for t in trees]
        assert features == [t.features.tobytes() for t in trees]
        assert trees == list(derivations) and set(trees) == set(derivations)

    def test_feature_bytes_are_pinned(self) -> None:
        # Features are summed over edge_ids() preorder; summing the same
        # trees bottom-up or in post-order moves bits in all four vectors.
        rng = np.random.default_rng(11)
        graph = random_forest(rng, n_nodes=12, max_edges_per_node=3)
        w0, v = rng.normal(size=3), rng.normal(size=3)
        derivations = build_envelope(graph, w0, v).derivations
        assert [[x.hex() for x in d.features] for d in derivations] == [
            ["0x1.192b0e63cf878p+0", "0x1.6e06b00b9a7a7p+0", "0x1.ac7f4a90c91dbp+2"],
            ["-0x1.448d7e113e288p-3", "-0x1.fcfd5518fd0f4p-1", "0x1.d1ae28444b1b9p+2"],
            ["-0x1.91626a730b43dp-1", "-0x1.8872be3e20f42p-2", "0x1.ee5eb3a031e68p+1"],
            ["0x1.ab47d3e8734c9p+0", "-0x1.311eeb65a1130p-2", "-0x1.b94019f6c70cep+0"],
        ]

    def test_duplicate_dual_points_resolve_like_the_reference(self, rng) -> None:
        # Two small integer features make many derivations share a point;
        # which derivation a shared point keeps must follow the reference.
        with_duplicates = 0
        for _ in range(40):
            graph = random_forest(
                rng, n_nodes=8, n_features=2, max_edges_per_node=3, integer_features=True
            )
            w0, v = random_vectors(rng, 2, integer=True)
            if count_derivations(graph) <= 2000:
                points = dual_points(graph, w0, v)
                with_duplicates += len(set(points)) < len(points)
            assert_matches_hull_reference(graph, w0, v)
        assert with_duplicates >= 10

    def test_points_project_back_to_their_derivations(self, rng) -> None:
        for _ in range(10):
            graph = random_forest(rng, n_nodes=10, integer_features=True)
            w0, v = random_vectors(rng, 3, integer=True)
            env = build_envelope(graph, w0, v)
            for p, d in zip(env.chain, env.derivations):
                assert (p.x, p.y) == (float(v @ d.features), -float(w0 @ d.features))

    def test_empty_language_has_no_envelope(self) -> None:
        g = Hypergraph(2, [Edge.make(0, (), {}, ())], goal=1, n_features=1)
        goal = forest._lower_chain_values(g, [0.0], [1.0])[g.goal]
        assert goal.xs == goal.ys == goal.back == []
        with pytest.raises(NoHypothesesError, match="goal node derives nothing"):
            build_envelope(g, np.zeros(1), np.ones(1))

    @given(st.one_of(sampled_graphs(), shuffled_lattices(), multi_tail_forests()))
    @settings(max_examples=150, deadline=None)
    def test_every_back_pointer_is_an_in_edge_and_one_index_per_tail(self, problem) -> None:
        # The product extends back-pointers by concatenation, with no
        # case for a point that has none.
        graph, w0, v = problem
        try:
            values = forest._lower_chain_values(graph, w0.tolist(), v.tolist())
        except InvalidGeometryError:
            return  # multi_tail_forests' far points can overflow
        for node, value in enumerate(values):
            assert len(value.back) == len(value.xs)
            for back in value.back:
                assert type(back) is tuple
                assert back[0] in graph.in_edges[node]
                tails = graph.edges[back[0]].tails
                assert len(back) == 1 + len(tails)
                assert all(0 <= j < len(values[t].xs) for t, j in zip(tails, back[1:]))

    def test_overflowing_sum_raises(self) -> None:
        g = Hypergraph(
            2,
            [Edge.make(0, (), {0: 1e308}, ("a",)), Edge.make(1, (0,), {0: 1e308}, (0, "b"))],
            goal=1,
            n_features=1,
        )
        with pytest.raises(InvalidGeometryError):
            build_envelope(g, np.zeros(1), np.ones(1))
        with pytest.raises(InvalidGeometryError):
            build_envelope(g, np.ones(1), np.zeros(1))

    @pytest.mark.parametrize(
        "n_features, into_1, into_2",
        [
            (2, [{0: 1.0}], [{}, {0: 1.0, 1: 1.0}, {1: 2.0}]),
            (3, [{0: 1.0}], [{}, {0: 1.0, 1: 1.0}, {2: 1.0}]),
            (2, [{0: 1.0}, {1: 1.0}], [{0: 1.0}]),
        ],
        ids=["dominated-arc", "before-a-bad-feature-id", "lone-arc-over-two-points"],
    )
    def test_run_raises_as_the_oracle_raises(self, n_features, into_1, into_2) -> None:
        # With one 0 -> 1 arc, node 1's chain is {(0, 1e308)}.  The 1 -> 2
        # arcs project to (0, 0), (1, 1e308) and (2, 0); the middle one lies
        # above the chord, off the run's hull, yet its translate (1, 2e308)
        # overflows.  With n_features=3 the last arc uses feature id 2,
        # beyond the vectors: the earlier arc's overflow must raise first.
        # With two 0 -> 1 arcs, node 1's chain is {(0, 1e308), (1, 0)}, and
        # the lone 1 -> 2 arc at (0, 1e308) translates its first point to
        # (0, 2e308).
        g = Hypergraph(
            3,
            [Edge.make(0, (), {}, ("s",))]
            + [Edge.make(1, (0,), f, (0, f"a{i}")) for i, f in enumerate(into_1)]
            + [Edge.make(2, (1,), f, (0, f"w{i}")) for i, f in enumerate(into_2)],
            goal=2,
            n_features=n_features,
        )
        w0, v = np.array([-1e308, 0.0]), np.array([0.0, 1.0])
        with pytest.raises(InvalidGeometryError) as want:
            lower_chain_values(g, w0, v)
        with pytest.raises(InvalidGeometryError) as got:
            forest._lower_chain_values(g, w0.tolist(), v.tolist())
        assert str(got.value) == str(want.value)
        with pytest.raises(InvalidGeometryError, match=re.escape(str(want.value))):
            build_envelope(g, w0, v)

    @pytest.mark.parametrize(
        "w0, v, arcs",
        [
            ([-1.0, 1e-17, 0.0], [0.0, 0.0, 0.0], [{}, {1: 1.0}]),
            ([-1e16, 0.0, 0.4], [0.0, 1.0, 0.0], [{}, {1: 1.0, 2: 1.0}, {1: 2.0}]),
        ],
        ids=["tie-that-rounding-makes", "collinear-after-rounding"],
    )
    def test_run_over_a_one_point_chain_is_the_oracle(self, w0, v, arcs) -> None:
        # Node 1's chain is one point, (0, 1) or (0, 1e16), and translation
        # rounds the 1 -> 2 arcs together.  At v = 0 both arcs land on
        # (0, 1), though the second one's own point is 1e-17 lower; at v the
        # points (0, 0), (1, -0.4) and (2, 0) land on one line.  Such a run
        # is hulled on its translates: the earlier arc keeps the tie and the
        # middle point drops, as in the per-edge recursion.
        g = Hypergraph(
            3,
            [Edge.make(0, (), {}, ("s",)), Edge.make(1, (0,), {0: 1.0}, (0, "a"))]
            + [Edge.make(2, (1,), f, (0, f"w{i}")) for i, f in enumerate(arcs)],
            goal=2,
            n_features=3,
        )
        w0, v = np.array(w0), np.array(v)
        got = forest._lower_chain_values(g, w0.tolist(), v.tolist())
        assert [chain_bits(x) for x in got] == oracle_bits(g, w0, v)
        derivations = build_envelope(g, w0, v).derivations
        assert derivations[0].tokens == ("s", "a", "w0")

    @pytest.mark.parametrize(
        "edges, w0, v",
        [
            (
                [
                    (0, (), {0: -2.0, 1: 1.8969819276895477}),
                    (1, (0,), {0: -2.0, 1: -3.369827681106118}),
                    (1, (0,), {0: 4.0, 1: 6.739655377762362}),
                    (1, (0,), {0: 0.0, 1: 3.778854393749608e-09}),
                    (1, (0,), {0: -3.0, 1: -5.054741528574713}),
                ],
                [0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0],
            ),
            (
                [
                    (0, (), {}),
                    (1, (0,), {0: 1.0}),
                    (1, (0,), {0: 1.0, 1: 3.0, 2: -20.0}),
                    (2, (1,), {}),
                    (2, (1,), {1: 1.0, 2: 1.0}),
                    (2, (1,), {1: 2.0}),
                ],
                [-1e16, 0.0, 0.4],
                [0.0, 1.0, 0.0],
            ),
        ],
        ids=["turn-inside-the-band", "collinear-after-rounding-over-two-points"],
    )
    def test_near_degenerate_run_keeps_the_oracle_envelope(self, edges, w0, v) -> None:
        # Where a turn lies inside EPS_GEOM's band, the per-edge union
        # depends on the order of its operands, and a summed run may keep
        # other points of the same envelope.  In the first graph the four
        # arcs' translates lie on a line but for 4e-9, and the per-edge
        # recursion keeps a middle point that one hull drops.  In the
        # second, node 1's chain is (0, 1e16), (3, 1e16 + 8), and the run's
        # own hull (0, 0), (1, -0.4), (2, 0) reaches it through the product,
        # where rounding makes three of the sums collinear.
        g = Hypergraph(
            1 + edges[-1][0],
            [Edge.make(h, t, f, (*range(len(t)), f"w{i}")) for i, (h, t, f) in enumerate(edges)],
            goal=edges[-1][0],
            n_features=3,
        )
        w0, v = np.array(w0), np.array(v)
        got = forest._lower_chain_values(g, w0.tolist(), v.tolist())
        for a, b in zip(got, lower_chain_values(g, w0, v)):
            assert (a.xs[0], a.xs[-1]) == (b.xs[0], b.xs[-1])
            tol = 1e-8 * (1.0 + max(a.ys + b.ys) - min(a.ys + b.ys))
            for p, q in ((a, b), (b, a)):
                assert np.abs(np.interp(p.xs, q.xs, q.ys) - p.ys).max() <= tol

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_projection_raises(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1e308}, ("a",))], goal=0, n_features=1)
        with pytest.raises(InvalidGeometryError):
            build_envelope(g, np.array([10.0]), np.zeros(1))

    def test_dimension_mismatch(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {1: 1.0}, ())], goal=0, n_features=2)
        with pytest.raises(DimensionMismatchError):
            build_envelope(g, np.array([1.0]), np.array([1.0]))

    def test_negative_zero_is_canonical(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1.0}, ("a",))], goal=0, n_features=1)
        chain = build_envelope(g, np.array([0.0]), np.array([-0.0])).chain
        assert [(p.x.hex(), p.y.hex()) for p in chain] == [("0x0.0p+0", "0x0.0p+0")]


def with_stranded_leaves(*features: dict) -> Hypergraph:
    """Goal 2 over two leaves at node 0; node 1 feeds nothing, so it and
    its leaves (one per ``features`` entry) are on no leaf-to-goal path."""
    edges = [
        Edge.make(0, (), {0: 1.0}, ("a",)),
        Edge.make(0, (), {1: 2.0}, ("b",)),
        Edge.make(2, (0,), {0: -1.0}, (0, "c")),
        *(Edge.make(1, (), f, ("s",)) for f in features),
    ]
    return Hypergraph(3, edges, goal=2, n_features=3)


def stranded_multi_tail_forest() -> Hypergraph:
    """Nodes 3 and 4 are derivable but feed nothing the goal uses; node 3
    has a binary and a ternary in-edge, node 4 a binary one over node 3."""
    leaves = [(0, {0: 1.0}), (0, {1: 1.0}), (1, {0: 2.0}), (1, {1: -1.0})]
    inner = [
        (2, (0, 1), {1: 0.5}),
        (2, (0,), {0: -1.0}),
        (3, (0, 1), {0: 0.5}),
        (3, (0, 1, 2), {1: 2.0}),
        (4, (3, 0), {0: 1.0}),
        (5, (2, 0), {1: -1.0}),
        (5, (2, 1, 0), {0: 1.0}),
    ]
    edges = [Edge.make(h, (), f, (f"l{h}",)) for h, f in leaves] + [
        Edge.make(h, t, f, (*range(len(t)), f"n{h}")) for h, t, f in inner
    ]
    return Hypergraph(6, edges, goal=5, n_features=2)


class TestStrandedNodes:
    """The inside pass computes only the nodes that ``validate`` finds on a
    leaf-to-goal path: a stranded node keeps the zero value, its edges are
    not projected, and only their feature ids are checked against the
    vectors."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_at_a_stranded_leaf_does_not_fail_the_search(self) -> None:
        # The stranded leaf projects to (inf, -inf); the graph without it
        # gives the same envelope and search.
        g = with_stranded_leaves({0: 1.7e308, 1: 1.7e308})
        assert g.validate().unreachable == (1,)
        w0 = v = np.ones(2)
        with pytest.raises(InvalidGeometryError, match=r"non-finite point \(inf, -inf\)"):
            project_edge(g.edges[-1], w0, v)
        without = with_stranded_leaves()
        assert envelope_bits(build_envelope(g, w0, v)) == envelope_bits(
            build_envelope(without, w0, v)
        )
        metric = get_metric("exact")
        got = line_search([(g, ("a", "c"))], w0, v, metric)
        want = line_search([(without, ("a", "c"))], w0, v, metric)
        for field in ("boundaries", "interval_losses", "best_interval", "eta", "loss"):
            assert getattr(got, field) == getattr(want, field)
        assert got.weights.tolist() == want.weights.tolist()

    def test_overflow_at_a_stranded_leaf_does_not_fail_the_decode(self) -> None:
        # Alone, the leaf's y overflows; stranded, it is skipped, and the
        # decode is the one of the graph without it.
        feats = {0: 1.7e308, 1: 1.7e308}
        g = with_stranded_leaves(feats)
        alone = Hypergraph(1, [Edge.make(0, (), feats, ("s",))], 0, 3)
        with pytest.raises(InvalidGeometryError, match=r"non-finite point \(0\.0, -inf\)"):
            forest._best_values(alone, [1.0, 1.0])
        assert best_bits(g, [1.0, 1.0]) == kernel_best_bits(g, [1.0, 1.0])
        metric = get_metric("exact")
        for ref in (("a", "c"), ("b", "c")):
            got = decode_loss([(g, ref)], np.ones(2), metric)
            assert got == decode_loss([(with_stranded_leaves(), ref)], np.ones(2), metric)

    def test_stranded_edge_feature_id_is_still_checked(self) -> None:
        g = with_stranded_leaves({2: 1.0})
        assert g.validate().unreachable == (1,)
        w0 = v = np.ones(2)
        with pytest.raises(DimensionMismatchError, match="feature id 2 but vectors have 2"):
            build_envelope(g, w0, v)
        with pytest.raises(DimensionMismatchError, match="feature id 2 but vectors have 2"):
            line_search([(g, ("a", "c"))], w0, v, get_metric("exact"))
        with pytest.raises(DimensionMismatchError, match="feature id 2 but vectors have 2"):
            forest._best_values(g, w0.tolist())
        with pytest.raises(DimensionMismatchError, match="feature id 2 but vectors have 2"):
            decode_loss([(g, ("a", "c"))], w0, get_metric("exact"))

    def test_no_product_is_taken_into_a_stranded_node(self, monkeypatch) -> None:
        # Every edge the kernel multiplies is recorded: the edge id that
        # ``_edge_product`` gets, and the edges whose points the left
        # operand of ``__mul__`` holds.
        g = stranded_multi_tail_forest()
        stranded = set(g.validate().unreachable)
        assert stranded == {3, 4}
        seen: set[int] = set()
        edge_product, mul = forest._edge_product, LowerChainValue.__mul__

        def recording_edge_product(x, y, ei, a, b):
            seen.add(ei)
            return edge_product(x, y, ei, a, b)

        def recording_mul(self, other):
            seen.update(back[0] for back in self.back)
            return mul(self, other)

        monkeypatch.setattr(forest, "_edge_product", recording_edge_product)
        monkeypatch.setattr(LowerChainValue, "__mul__", recording_mul)
        w0, v = np.array([1.0, -2.0]), np.array([1.0, 3.0])
        got = forest._lower_chain_values(g, w0.tolist(), v.tolist())
        monkeypatch.undo()
        multi_tail = {ei for ei, e in enumerate(g.edges) if len(e.tails) > 1}
        assert not {g.edges[ei].head for ei in seen} & stranded
        assert {ei for ei in multi_tail if g.edges[ei].head not in stranded} <= seen
        assert [chain_bits(x) for x in got] == oracle_bits(g, w0, v)


@st.composite
def decode_problems(draw):
    """A lattice or forest from ``sampling`` (with stranded nodes at
    times), a shuffled lattice or a forest with up to three tails per edge,
    at times with two adjacent arcs tied exactly, and weights scaled so
    that entries reach 1.7e308 and sums overflow."""
    graph, w, _ = draw(st.one_of(sampled_graphs(), shuffled_lattices(), multi_tail_forests()))
    if draw(st.booleans()):
        graph = copy_parallel_features(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), graph)
    scale = draw(st.sampled_from([1.0, 1e307, 1.7e308 / 3]))
    return graph, [x * scale for x in w.tolist()]


class TestBestValues:
    """The fixed-weight pass keeps one point per node, and every value and
    error must be the lower-chain kernel's at v = 0, node for node."""

    @given(problem=decode_problems())
    @settings(max_examples=400, deadline=None)
    def test_every_node_is_the_kernel_one_at_a_zero_direction(self, problem) -> None:
        graph, w = problem
        assert outcome(best_bits, graph, w) == outcome(kernel_best_bits, graph, w)

    def test_first_partial_sum_overflowing_raises_though_the_next_tail_is_empty(self) -> None:
        # Edge 1 adds node 0's y, 1.5e308, to its own; node 1 derives
        # nothing, yet the partial sum's overflow raises, as in the kernel.
        edges = [
            Edge.make(0, (), {0: 1.0}, ("a",)),
            Edge.make(2, (0, 1), {0: 1.0}, (0, 1)),
            Edge.make(2, (0,), {}, (0,)),
        ]
        g = Hypergraph(3, edges, goal=2, n_features=1)
        w = [-1.5e308]
        message = "non-finite point in a product of lower chains"
        for values in (best_bits, kernel_best_bits):
            with pytest.raises(InvalidGeometryError, match=message):
                values(g, w)
        with pytest.raises(InvalidGeometryError, match=message):
            decode_loss([(g, ("a",))], np.array(w), get_metric("exact"))


@st.composite
def far_leaves(draw):
    """One node with two to five leaves at any finite dual points, so that
    adjacent chain points can lie so far apart that their crossing
    overflows to inf or, when their x values do too, reads inf / inf."""
    coords = st.one_of(
        st.integers(-3, 3).map(float),
        st.sampled_from([-1.7e308, -1e308, 1e308, 1.7e308]),
        st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False),
    )
    points = draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=5))
    edges = [Edge.make(0, (), {0: x, 1: -y}, (f"h{i}",)) for i, (x, y) in enumerate(points)]
    return Hypergraph(1, edges, 0, 2), [0.0, 1.0], [1.0, 0.0]


@st.composite
def envelope_problems(draw):
    """Far leaves, or a lattice (in-edges interleaved) or a branching
    forest, float or integer, with v = 0 at times, and w0 and v each scaled
    so that its points overflow or lie far apart."""
    if draw(st.booleans()):
        return draw(far_leaves())
    graph, w0, v = draw(st.one_of(shuffled_lattices(), multi_tail_forests()))
    if draw(st.booleans()):
        v = np.zeros_like(v)
    scales = st.sampled_from([1.0, 1e307, 4e307])
    a, b = draw(scales), draw(scales)
    return graph, [x * a for x in w0.tolist()], [x * b for x in v.tolist()]


def envelope_bits(env) -> tuple:
    """Everything an envelope reports, floats as hex strings."""
    return (
        [(p.x.hex(), p.y.hex()) for p in env.chain],
        [b.hex() for b in env.boundaries],
        [(d.tree, d.tokens) for d in env.derivations],
        [
            (lo.hex(), hi.hex(), p.x.hex(), p.y.hex(), d.tree, d.tokens)
            for lo, hi, p, d in env.segments()
        ],
    )


class TestLazyEnvelope:
    """``build_envelope`` keeps the goal chain's coordinate lists and makes
    its ``Point2`` and ``Derivation`` objects on first read; everything it
    reports must be the eager route's (``helpers.eager_envelope``) bit for
    bit, and a crossing that is not finite must raise its error."""

    @given(problem=envelope_problems())
    @settings(max_examples=300, deadline=None)
    def test_lazy_envelope_is_the_eager_one(self, problem) -> None:
        graph, w0, v = problem
        try:
            want = eager_envelope(graph, w0, v)
        except InvalidGeometryError as exc:
            with pytest.raises(InvalidGeometryError) as got:
                build_envelope(graph, w0, v)
            assert str(got.value) == str(exc)
            return
        assert hash(build_envelope(graph, w0, v)) == hash(want)
        assert build_envelope(graph, w0, v) == want
        got = build_envelope(graph, w0, v)
        etas = [*probe_etas(want), *want.boundaries]
        assert [got.max_at(eta).hex() for eta in etas] == [want.max_at(eta).hex() for eta in etas]
        # envelope_sizes reads only the envelopes.
        sizes = LineSearchResult((), (), 0, 0.0, 0.0, None, (got, want), None).envelope_sizes
        assert sizes == (len(want.chain),) * 2
        assert envelope_bits(got) == envelope_bits(want)
        assert repr(got) == repr(want)
        assert got.chain is got.chain and got.derivations is got.derivations

    @pytest.mark.parametrize(
        "edges, crossing",
        [
            ([{0: 1.0}, {0: -1.0, 1: 1.0}], "inf"),
            ([{0: 1.0, 1: -1e308}, {0: -1.0, 1: 1e308}], "nan"),
        ],
        ids=["overflowing-rise", "overflowing-run"],
    )
    def test_crossing_that_is_not_finite_raises_as_the_eager_route(self, edges, crossing) -> None:
        # Dual points (0, -1e308) and (1, 1e308): the rise overflows.  With
        # x at -1e308 and 1e308 too, the crossing is inf / inf.
        g = Hypergraph(1, [Edge.make(0, (), f, (f"h{i}",)) for i, f in enumerate(edges)], 0, 2)
        w0, v = [1e308, 0.0], [0.0, 1.0]
        with pytest.raises(InvalidGeometryError) as want:
            eager_envelope(g, w0, v)
        assert str(want.value).endswith(f"is not finite: {crossing}")
        with pytest.raises(InvalidGeometryError, match=re.escape(str(want.value))):
            build_envelope(g, w0, v)

    def test_envelopes_are_immutable(self, diamond_graph) -> None:
        lazy = build_envelope(diamond_graph, np.ones(1), np.ones(1))
        eager = eager_envelope(diamond_graph, np.ones(1), np.ones(1))
        for env in (lazy, eager):
            for name in ("chain", "boundaries", "derivations", "_xs"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(env, name, ())
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(env, name)
            assert copy.copy(env) == env
        assert lazy == eager and hash(lazy) == hash(eager)


class TestRandomDerivation:
    def test_draws_are_pinned(self) -> None:
        # Benchmark references are drawn with random_derivation from a
        # shared generator: the draw order (root first, then tails left to
        # right, depth first) and the number of draws must not change.
        edges = [
            Edge.make(0, (), {0: 1.0}, ("a0",)),
            Edge.make(0, (), {0: 2.0}, ("a1",)),
            Edge.make(1, (), {1: 1.0}, ("b0",)),
            Edge.make(1, (), {1: 2.0}, ("b1",)),
            Edge.make(1, (), {1: 3.0}, ("b2",)),
            Edge.make(2, (0, 1), {0: -1.0}, (0, "x", 1)),
            Edge.make(2, (1, 0), {1: -1.0}, (1, "y", 0)),
            Edge.make(3, (2, 1), {0: 0.5}, (0, 1)),
            Edge.make(3, (0, 2), {1: 0.5}, (1, "z", 0)),
            Edge.make(3, (), {}, ("leaf",)),
        ]
        g = Hypergraph(4, edges, goal=3, n_features=2)
        rng = np.random.default_rng(0)
        drawn = [random_derivation(rng, g) for _ in range(5)]
        assert [d.tree for d in drawn] == [
            (9, ()),
            (8, ((1, ()), (5, ((0, ()), (2, ()))))),
            (7, ((5, ((0, ()), (4, ()))), (3, ()))),
            (9, ()),
            (8, ((1, ()), (6, ((4, ()), (1, ()))))),
        ]
        assert drawn[1].tokens == ("a0", "x", "b0", "z", "a1")
        assert drawn[2].features.tolist() == [0.5, 5.0]
        assert int(rng.integers(0, 1000)) == 543


class TestEnumeration:
    def test_single_edge_graph(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {}, ("w",))], goal=0, n_features=0)
        assert count_derivations(g) == 1
        (d,) = enumerate_derivations(g)
        assert d.tokens == ("w",)

    def test_diamond_has_two_paths(self, diamond_graph) -> None:
        assert count_derivations(diamond_graph) == 2
        got = enumerate_derivations(diamond_graph)
        assert [d.tokens for d in got] == [("cat",), ("dog",)]

    def test_binary_edge_multiplies_counts(self) -> None:
        g = binary_forest()
        assert count_derivations(g) == 6
        got = enumerate_derivations(g)
        assert len(got) == len(set(got)) == 6
        # oracle.best_derivation keeps the first of tied derivations, so the
        # order is part of the contract: edges in order, last tail fastest.
        assert [d.tree for d in got] == [
            (5, ((0, ()), (2, ()))),
            (5, ((0, ()), (3, ()))),
            (5, ((0, ()), (4, ()))),
            (5, ((1, ()), (2, ()))),
            (5, ((1, ()), (3, ()))),
            (5, ((1, ()), (4, ()))),
        ]
        assert [d.tokens for d in got][:2] == [("a0", "x", "b0"), ("a0", "x", "b1")]

    @pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
    def test_each_derivation_is_its_realized_tree(self, integer) -> None:
        # Enumerated and drawn derivations alike; draws use their own
        # generator, so the graphs stay those of the seed.
        rng, draws = np.random.default_rng(17), np.random.default_rng(23)
        for _ in range(10):
            for g in (
                random_lattice(rng, n_nodes=6, integer_features=integer),
                random_forest(rng, n_nodes=7, max_edges_per_node=3, integer_features=integer),
            ):
                drawn = [random_derivation(draws, g) for _ in range(5)]
                for d in enumerate_derivations(g) + drawn:
                    again = realize(g, d.tree)
                    assert d == again and d.tokens == again.tokens
                    assert d.features.tobytes() == again.features.tobytes()

    def test_deterministic_order(self, rng) -> None:
        g = random_forest(rng, n_nodes=6)
        first = [d.tree for d in enumerate_derivations(g)]
        second = [d.tree for d in enumerate_derivations(g)]
        assert first == second

    def test_cap_overflow(self, diamond_graph) -> None:
        with pytest.raises(EnumerationOverflowError):
            enumerate_derivations(diamond_graph, cap=1)

    def test_count_handles_wide_lattices_exactly(self) -> None:
        # 40 two-way choices: 2^40 paths, far beyond float precision.
        n = 41
        edges = [Edge.make(0, (), {}, ())]
        for i in range(1, n):
            edges.append(Edge.make(i, (i - 1,), {}, (0, "a")))
            edges.append(Edge.make(i, (i - 1,), {}, (0, "b")))
        g = Hypergraph(n, edges, goal=n - 1, n_features=0)
        assert count_derivations(g) == 2 ** 40


@st.composite
def templated_forests(draw):
    """A small forest, a lattice when every edge has at most one tail,
    whose templates put zero to two tokens before, between and after the
    slots, in any slot order, with tails shared between edges."""
    lattice = draw(st.booleans())
    n_nodes = draw(st.integers(1, 7))
    words = st.lists(st.sampled_from(["a", "b", "c"]), max_size=2)
    edges = []
    for node in range(n_nodes):
        for _ in range(draw(st.integers(1, 3))):
            arity = 0 if node == 0 else draw(st.integers(0, 1 if lattice else 3))
            tails = tuple(draw(st.integers(0, node - 1)) for _ in range(arity))
            template = draw(words)
            for slot in draw(st.permutations(range(arity))):
                template += [slot] + draw(words)
            features = {0: float(draw(st.integers(-2, 2))), 1: float(draw(st.integers(-2, 2)))}
            edges.append(Edge.make(node, tails, features, template))
    return Hypergraph(n_nodes, edges, n_nodes - 1, 2)


class TestYieldsMatchTheReference:
    """``_yields`` enters each item's first slot directly and pushes one
    continuation per item; the frozen reference in ``helpers`` pushes a
    marker and every token and child.  Both must spell the same yields
    over every back-pointer table a Derivation can hold."""

    @given(graph=templated_forests(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_yields(self, graph, seed) -> None:
        def check(backs, roots) -> None:
            got = list(forest._yields(graph.edges, backs, roots))
            assert got == list(reference_yields(graph.edges, backs, roots))

        # The kernel's back-pointers, under a random direction.
        rng = np.random.default_rng(seed)
        w0, v = random_vectors(rng, 2, integer=True)
        values = forest._lower_chain_values(graph, w0.tolist(), v.tolist())
        check([x.back for x in values], [(graph.goal, i) for i in range(len(values[graph.goal]))])
        # One table shared by every derivation, each root listed twice.
        if count_derivations(graph) <= 500:
            derivations = enumerate_derivations(graph)
            roots = [d._root for d in derivations]
            check(derivations[0]._backs, roots + roots[::-1])
        # A drawn tree, whose back-pointers are lists.
        drawn = random_derivation(rng, graph)
        check(drawn._backs, [drawn._root])
