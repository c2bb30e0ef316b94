import numpy as np
import pytest

from hullmert.errors import (
    CyclicForestError,
    DimensionMismatchError,
    EnumerationOverflowError,
    ForestFormatError,
    InvalidGeometryError,
    ProvenanceError,
)
from hullmert.forest import (
    Edge,
    Hypergraph,
    count_derivations,
    edge_dot,
    enumerate_derivations,
    envelope_points,
    inside,
    inside_hull,
    project_edge,
    realize,
    reconstruct,
)
from hullmert.geometry import full_hull, lower_chain
from hullmert.oracle import dual_points
from hullmert.sampling import random_derivation, random_forest, random_lattice
from hullmert.semiring import ConvexHullValue, LeafProvenance, Tropical


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
        assert got.provenance == (LeafProvenance(0),)

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
                lambda g: envelope_points(g, np.zeros(0), np.zeros(0))[1][0],
                id="envelope_points",
            ),
        ],
    )
    def test_deep_chain_does_not_recurse(self, build) -> None:
        n = 4000
        d = build(chain_graph(n))
        assert len(d.tokens) == n - 1 + 1  # start token plus one word per step
        assert d.edge_ids() == list(range(n - 1, -1, -1))

    def test_derivation_equality_is_by_tree(self) -> None:
        g = binary_forest()
        a = realize(g, (5, ((0, ()), (2, ()))))
        b = realize(g, (5, ((0, ()), (2, ()))))
        c = realize(g, (5, ((1, ()), (2, ()))))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert sorted(a.edge_ids()) == [0, 2, 5]


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
                assert float(v @ d.features) == p.x
                assert float(-(w0 @ d.features)) == p.y

    def test_opaque_provenance_rejected(self) -> None:
        g = binary_forest()
        value = ConvexHullValue.from_raw_points([(0, 0), (1, 1)])
        with pytest.raises(ProvenanceError):
            reconstruct(g, value, 0)

    def test_foreign_provenance_rejected(self) -> None:
        g = binary_forest()
        value = inside_hull(g, np.zeros(2), np.array([1.0, -1.0]))
        small = Hypergraph(1, [Edge.make(0, (), {}, ("w",))], goal=0, n_features=2)
        with pytest.raises(ProvenanceError):
            reconstruct(small, value, 0)


    def test_provenance_arity_must_match_the_edge(self) -> None:
        value = ConvexHullValue.singleton(0, 0, LeafProvenance(5))
        with pytest.raises(ProvenanceError, match="edge 5 expects 2 tails, provenance recorded 0"):
            reconstruct(binary_forest(), value, 0)

    def test_provenance_tails_must_head_the_edge_tails(self) -> None:
        # Edge 5 rewrites node 2 from (node 0, node 1); supply them swapped.
        leaf = [ConvexHullValue.singleton(0, 0, LeafProvenance(ei)) for ei in (5, 2, 0)]
        value = leaf[0] * leaf[1] * leaf[2]
        with pytest.raises(
            ProvenanceError, match="edge 5 tail 0 is node 0, provenance supplies node 1"
        ):
            reconstruct(binary_forest(), value, 0)


def assert_matches_hull_reference(graph: Hypergraph, w0, v) -> None:
    """The lower-chain pass against the hull semiring, bit for bit."""
    chain, derivations = envelope_points(graph, w0, v)
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


def random_vectors(rng, n: int, integer: bool):
    if integer:
        return (rng.integers(-3, 4, size=n).astype(float),
                rng.integers(-3, 4, size=n).astype(float))
    return rng.normal(size=n), rng.normal(size=n)


class TestEnvelopePoints:
    @pytest.mark.parametrize("integer", [False, True], ids=["float", "integer"])
    @pytest.mark.parametrize(
        "make, size",
        [
            pytest.param(random_lattice, {"max_parallel": 3}, id="lattice"),
            pytest.param(random_forest, {"max_edges_per_node": 3}, id="forest"),
        ],
    )
    def test_goal_chain_matches_hull_reference(self, rng, make, size, integer) -> None:
        for _ in range(25):
            graph = make(rng, n_nodes=14, integer_features=integer, **size)
            w0, v = random_vectors(rng, 3, integer)
            assert_matches_hull_reference(graph, w0, v)
            # v = 0 is the fixed-weight decode: one point per node.
            assert_matches_hull_reference(graph, w0, np.zeros(3))

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
            chain, derivations = envelope_points(graph, w0, v)
            for p, d in zip(chain, derivations):
                assert (p.x, p.y) == (float(v @ d.features), -float(w0 @ d.features))

    def test_empty_language_gives_an_empty_chain(self) -> None:
        g = Hypergraph(2, [Edge.make(0, (), {}, ())], goal=1, n_features=1)
        chain, derivations = envelope_points(g, np.zeros(1), np.ones(1))
        assert not chain and derivations == ()

    def test_overflowing_sum_raises(self) -> None:
        g = Hypergraph(
            2,
            [Edge.make(0, (), {0: 1e308}, ("a",)), Edge.make(1, (0,), {0: 1e308}, (0, "b"))],
            goal=1,
            n_features=1,
        )
        with pytest.raises(InvalidGeometryError):
            envelope_points(g, np.zeros(1), np.ones(1))
        with pytest.raises(InvalidGeometryError):
            envelope_points(g, np.ones(1), np.zeros(1))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_projection_raises(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1e308}, ("a",))], goal=0, n_features=1)
        with pytest.raises(InvalidGeometryError):
            envelope_points(g, np.array([10.0]), np.zeros(1))

    def test_dimension_mismatch(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {1: 1.0}, ())], goal=0, n_features=2)
        with pytest.raises(DimensionMismatchError):
            envelope_points(g, np.array([1.0]), np.array([1.0]))

    def test_negative_zero_is_canonical(self) -> None:
        g = Hypergraph(1, [Edge.make(0, (), {0: 1.0}, ("a",))], goal=0, n_features=1)
        chain, _ = envelope_points(g, np.array([0.0]), np.array([-0.0]))
        assert [(p.x.hex(), p.y.hex()) for p in chain] == [("0x0.0p+0", "0x0.0p+0")]


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
