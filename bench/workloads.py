"""Seeded benchmark workloads, generated through ``hullmert.sampling``.

A workload is a sequence of small, independent search problems
("batches") of one shape: each is a corpus with its own starting weights
and search directions.  Each round of the benchmark runs the whole
operation mix on the next batch, so a run covers many sentences and many
search lines while every timed call stays short.  Cost depends on the
sentences and on the plane that the weights and direction span, which
every sentence of a batch shares; drawing both afresh per batch lets
their seed-to-seed differences average out over a run.  The seed alone
fixes the text and the vectors; the fingerprint records their hashes so
two commits can be shown to see identical inputs.  The program under test
only ever receives the generated JSONL text and the vectors.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from hullmert import Corpus, FeatureIndex, Sentence, count_derivations, loads_corpus, serialize_corpus
from hullmert.sampling import random_derivation, random_forest, random_lattice

N_FEATURES = 8
N_DIRECTIONS = 2
FEATURE_NAMES = tuple(f"f{i}" for i in range(N_FEATURES))


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    params: dict
    sentences: int  # per batch
    batches: int
    integer: bool
    why: str
    # The traced layer share that justifies the workload: (metric, floor).
    share: tuple[str, float]
    # Only forests whose derivation count has a base-10 log in this range
    # are kept (the generator's spread of forest sizes is very wide).
    log10_derivations: tuple[float, float] | None = None
    # Rounds run optimize only when their index is a multiple of this, so
    # that on a workload where one optimize takes most of a round the
    # other operations still get several samples in a run.
    optimize_every: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lattice-deep",
            generator="random_lattice",
            params={"n_nodes": 40, "n_features": N_FEATURES, "max_parallel": 4},
            sentences=3,
            batches=12,
            integer=False,
            why="deep float lattices: the hull inside pass dominates a line search "
                "and the corpus merge is ~1%, so semiring and geometry work shows",
            share=("forest.inside_hull_share", 0.5),
        ),
        Workload(
            name="forest-int",
            generator="random_forest",
            params={"n_nodes": 120, "n_features": N_FEATURES, "max_edges_per_node": 4,
                    "integer_features": True},
            sentences=2,
            batches=12,
            integer=True,
            why="branching integer forests: Minkowski sums of many-point hulls, deep "
                "multi-tail reconstruct, duplicate dual points and merge_eps ties",
            share=("forest.reconstruct_share", 0.25),
            log10_derivations=(60.0, 120.0),
        ),
        Workload(
            name="corpus-wide",
            generator="random_lattice",
            params={"n_nodes": 8, "n_features": N_FEATURES, "max_parallel": 2},
            sentences=420,
            batches=1,
            integer=False,
            why="many short lattices: the CorpusSurface merge, which grows as "
                "intervals x sentences, dominates; largest corpus text, so it loads setup_s",
            share=("linesearch.merge_share", 0.5),
            optimize_every=3,
        ),
    )
}


@dataclass(frozen=True)
class Batch:
    """One search problem: a JSONL corpus, starting weights, directions."""

    text: str
    w0: np.ndarray
    directions: tuple[np.ndarray, ...]


@dataclass
class Inputs:
    """What the program is fed, plus a fingerprint of it."""

    workload: Workload
    seed: int
    batches: list[Batch]
    fingerprint: dict = field(default_factory=dict)


def _vector(rng: np.random.Generator, integer: bool) -> np.ndarray:
    while True:
        v = rng.integers(-3, 4, N_FEATURES).astype(float) if integer else rng.normal(size=N_FEATURES)
        if np.any(v):
            return v


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _graph(workload: Workload, rng: np.random.Generator):
    while True:
        if workload.generator == "random_forest":
            graph = random_forest(rng, **workload.params)
        else:
            graph = random_lattice(rng, **workload.params)
        band = workload.log10_derivations
        if band is None or band[0] <= math.log10(count_derivations(graph)) <= band[1]:
            return graph


def generate(workload: Workload, seed: int, sentences: int | None = None,
             batches: int | None = None) -> Inputs:
    """Batches of corpus text, each with its own starting weights and
    search directions.

    ``sentences`` and ``batches`` override the workload's sizes (the
    benchmark's own test runs reduced sizes); all else stays as recorded.
    """
    n = workload.sentences if sentences is None else sentences
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(workload.batches if batches is None else batches):
        sentences = []
        for i in range(n):
            graph = _graph(workload, rng)
            sentences.append(Sentence(f"s{i}", graph, random_derivation(rng, graph).tokens))
        text = serialize_corpus(Corpus(tuple(sentences), FeatureIndex(FEATURE_NAMES)))
        w0 = _vector(rng, workload.integer)
        directions = tuple(_vector(rng, workload.integer) for _ in range(N_DIRECTIONS))
        out.append(Batch(text, w0, directions))
    inputs = Inputs(workload, seed, out)
    inputs.fingerprint = fingerprint(inputs)
    return inputs


def fingerprint(inputs: Inputs) -> dict:
    graphs = []
    for batch in inputs.batches:
        corpus = loads_corpus(batch.text)
        if corpus.features.names != FEATURE_NAMES:
            raise ValueError(f"generated corpus uses features {corpus.features.names}")
        graphs.extend(s.graph for s in corpus.sentences)
    log10_derivations = [math.log10(count_derivations(g)) for g in graphs]
    jsonl = "".join(b.text for b in inputs.batches).encode("utf-8")
    weights = np.array([b.w0 for b in inputs.batches], dtype="<f8")
    directions = np.array([b.directions for b in inputs.batches], dtype="<f8")
    return {
        "corpus_sha256": _sha(jsonl),
        "weights_sha256": _sha(weights.tobytes()),
        "directions_sha256": _sha(directions.tobytes()),
        "corpus_bytes": len(jsonl),
        "batches": len(inputs.batches),
        "sentences": len(graphs),
        "edges": sum(g.n_edges for g in graphs),
        "log10_derivations_mean": statistics.fmean(log10_derivations),
        "log10_derivations_max": max(log10_derivations),
    }
