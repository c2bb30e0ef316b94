"""Seeded random forests, corpora, and hull values for tests and benchmarks.

All generators take a ``numpy.random.Generator`` so callers control
determinism.  Every generated forest is acyclic and fully derivable by
construction: edges only point from lower-numbered nodes to higher ones
and every node has at least one incoming edge.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .forest import Derivation, Edge, Hypergraph, _index
from .semiring import ConvexHullValue

DEFAULT_VOCAB = ("a", "b", "c", "d", "e")


def _features(rng: np.random.Generator, n_features: int, integer: bool) -> dict[int, float]:
    out: dict[int, float] = {}
    for i in range(n_features):
        if rng.random() < 0.75:
            out[i] = float(rng.integers(-3, 4)) if integer else float(rng.normal())
    return out


def random_lattice(
    rng: np.random.Generator,
    n_nodes: int = 6,
    n_features: int = 3,
    max_parallel: int = 2,
    p_skip: float = 0.3,
    integer_features: bool = False,
    vocab: Sequence[str] = DEFAULT_VOCAB,
) -> Hypergraph:
    """A left-to-right lattice: parallel word edges plus occasional skips.

    Node 0 starts with an empty yield; every edge into node i appends one
    word to a path ending at an earlier node, so derivations are exactly
    the start-to-goal paths.
    """
    edges = [Edge.make(0, (), {}, ())]
    for i in range(1, n_nodes):
        for _ in range(int(rng.integers(1, max_parallel + 1))):
            word = str(rng.choice(vocab))
            edges.append(
                Edge.make(i, (i - 1,), _features(rng, n_features, integer_features), (0, word))
            )
        if i >= 2 and rng.random() < p_skip:
            word = str(rng.choice(vocab))
            edges.append(
                Edge.make(i, (i - 2,), _features(rng, n_features, integer_features), (0, word))
            )
    return Hypergraph(n_nodes, edges, n_nodes - 1, n_features)


def random_forest(
    rng: np.random.Generator,
    n_nodes: int = 8,
    n_features: int = 3,
    max_edges_per_node: int = 2,
    integer_features: bool = False,
    vocab: Sequence[str] = DEFAULT_VOCAB,
) -> Hypergraph:
    """A branching forest with binary edges, for multi-tail coverage.

    Nodes 0 and 1 are terminals; later nodes mix leaf edges and binary
    edges over strictly lower-numbered nodes.
    """
    if n_nodes < 3:
        raise ValueError("random_forest needs at least 3 nodes")
    edges: list[Edge] = []
    for i in range(n_nodes):
        if i < 2:
            word = str(rng.choice(vocab))
            edges.append(Edge.make(i, (), _features(rng, n_features, integer_features), (word,)))
            continue
        for _ in range(int(rng.integers(1, max_edges_per_node + 1))):
            feats = _features(rng, n_features, integer_features)
            if rng.random() < 0.25:
                edges.append(Edge.make(i, (), feats, (str(rng.choice(vocab)),)))
            else:
                a = int(rng.integers(0, i))
                b = int(rng.integers(0, i))
                templates = ((0, 1), (0, str(rng.choice(vocab)), 1))
                template = templates[int(rng.integers(0, len(templates)))]
                edges.append(Edge.make(i, (a, b), feats, template))
    return Hypergraph(n_nodes, edges, n_nodes - 1, n_features)


def random_derivation(rng: np.random.Generator, graph: Hypergraph) -> Derivation:
    """One uniform-per-edge top-down sample from a fully derivable forest.

    Edges are drawn root first, then tails left to right, depth first, by
    the walk ``forest.realize`` uses, straight into back-pointers.
    """
    graph.topo_order()
    edges, in_edges = graph.edges, graph.in_edges

    def expand(node: int):
        ei = int(rng.choice(in_edges[node]))
        return ei, edges[ei].tails

    return _index(graph, graph.goal, expand)


def random_corpus(
    rng: np.random.Generator,
    n_sentences: int = 4,
    **lattice_kwargs,
) -> list[tuple[Hypergraph, tuple[str, ...]]]:
    """Lattices paired with references drawn from their own derivations,
    so losses are neither trivially zero nor saturated."""
    corpus = []
    for _ in range(n_sentences):
        graph = random_lattice(rng, **lattice_kwargs)
        ref = random_derivation(rng, graph).tokens
        corpus.append((graph, ref))
    return corpus


def random_hull_value(
    rng: np.random.Generator,
    max_points: int = 5,
    integer: bool = True,
    span: int = 5,
) -> ConvexHullValue:
    """A canonical hull value from 1..max_points random points."""
    n = int(rng.integers(1, max_points + 1))
    if integer:
        pts = [(int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1))) for _ in range(n)]
    else:
        pts = [(float(rng.normal()), float(rng.normal())) for _ in range(n)]
    return ConvexHullValue.from_raw_points(pts)
