"""End-to-end acceptance gate.

Eleven independent checks, one test each, covering the semiring laws, the
size and hull bounds, oracle and duality agreement, envelope and search
correctness, runtime scaling, and the golden CLI report.  Checks 3 and 10
run on the reference ``inside_hull``; their twins 3b and 10b hold
``build_envelope``, which the line search runs, to the same limits, and
11b and 11c hold a corpus of branching forests to golden ``linesearch``
and ``optimize`` reports of their own.  Every test
prints a single ``PASS`` line with its measured numbers; run with ``-s``
to see them, or rely on the verbose test names.  Thresholds are asserted,
never logged and ignored.
"""

import gc
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from helpers import LINE_V, LINE_W0, make_line_graph
from hullmert.errors import CapExceededError
from hullmert.forest import (
    Edge,
    Hypergraph,
    _lower_chain_values,
    enumerate_derivations,
    inside_hull,
)
from hullmert.io import load_corpus, load_vector_map
from hullmert.geometry import full_hull
from hullmert.linesearch import build_envelope, line_search
from hullmert.metrics import Bleu, ExactMatch
from hullmert.oracle import (
    check_axioms,
    convexify_equivalence,
    decode_corpus_loss,
    dual_points,
    grid_line_search,
    naive_envelope,
    tropical_best,
)
from hullmert.sampling import (
    random_corpus,
    random_forest,
    random_hull_value,
    random_lattice,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _passed(number: int, text: str) -> None:
    print(f"\nPASS {number:2d}. {text}")


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _random_small_forest(rng: np.random.Generator, integer: bool) -> Hypergraph:
    """Alternate lattices and branching forests so both edge shapes count."""
    if rng.random() < 0.5:
        return random_lattice(
            rng,
            n_nodes=int(rng.integers(3, 7)),
            n_features=3,
            integer_features=integer,
            p_skip=0.2,
        )
    return random_forest(
        rng, n_nodes=int(rng.integers(3, 7)), n_features=3, integer_features=integer
    )


def _nonzero_direction(rng: np.random.Generator, n: int, integer: bool) -> np.ndarray:
    while True:
        v = rng.integers(-5, 6, size=n).astype(float) if integer else rng.normal(size=n)
        if np.any(v):
            return v


def test_01_semiring_axioms():
    rng = np.random.default_rng(20240817 + 1)
    values = [random_hull_value(rng, max_points=6) for _ in range(10)]
    start = time.perf_counter()
    report = check_axioms(values)
    elapsed = time.perf_counter() - start
    assert report.ok, f"axiom failures: {report.failed_laws()}"
    assert report.n_triples >= 500
    assert elapsed < 10.0, f"check_axioms took {elapsed:.1f} s"
    _passed(1, f"semiring axioms: {report.n_triples} triples, "
               f"0 counterexamples, {elapsed:.2f} s")


def test_02_size_bounds():
    # __add__ and __mul__ carry their own debug assertions, so every other
    # suite enforces the bound too; this loop guarantees the volume.
    rng = np.random.default_rng(20240817 + 2)
    pool = [random_hull_value(rng, max_points=6) for _ in range(64)]
    n_ops = 0
    for _ in range(50_000):
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        assert len(a + b) <= len(a) + len(b)
        assert len(a * b) <= len(a) + len(b)
        n_ops += 2
    assert n_ops >= 100_000
    _passed(2, f"size bounds: {n_ops} operations, 0 violations")


def test_03_goal_hull_bounded_by_edges():
    rng = np.random.default_rng(20240817 + 3)
    checked = 0
    worst = 0.0
    while checked < 200:
        graph = _random_small_forest(rng, integer=False)
        if graph.n_edges > 50:
            continue
        w0 = rng.normal(size=3)
        v = _nonzero_direction(rng, 3, integer=False)
        value = inside_hull(graph, w0, v)
        assert len(value) <= graph.n_edges, (
            f"goal hull {len(value)} exceeds |E| = {graph.n_edges}"
        )
        worst = max(worst, len(value) / graph.n_edges)
        checked += 1
    _passed(3, f"goal hull size: {checked} forests <= 50 edges, "
               f"max hull/|E| ratio {worst:.2f}")


def test_03b_goal_chain_bounded_by_edges_on_the_hot_path():
    rng = np.random.default_rng(20240817 + 3)
    checked = 0
    worst = 0.0
    while checked < 200:
        graph = _random_small_forest(rng, integer=False)
        if graph.n_edges > 50:
            continue
        w0 = rng.normal(size=3)
        v = _nonzero_direction(rng, 3, integer=False)
        env = build_envelope(graph, w0, v)
        assert len(env.chain) == len(env.derivations) <= graph.n_edges, (
            f"goal chain {len(env.chain)} exceeds |E| = {graph.n_edges}"
        )
        worst = max(worst, len(env.chain) / graph.n_edges)
        checked += 1
    _passed(3, f"hot-path goal chain size: {checked} forests <= 50 edges, "
               f"max chain/|E| ratio {worst:.2f}")


def test_04_convexification_identity():
    rng = np.random.default_rng(20240817 + 4)
    for _ in range(500):
        a = [(int(rng.integers(-50, 51)), int(rng.integers(-50, 51)))
             for _ in range(int(rng.integers(1, 9)))]
        b = [(int(rng.integers(-50, 51)), int(rng.integers(-50, 51)))
             for _ in range(int(rng.integers(1, 9)))]
        assert convexify_equivalence(a, b), f"hull-then-sum mismatch: {a} {b}"
    _passed(4, "convexification identity: 500 random point-set pairs")


def test_05_inside_matches_enumeration():
    rng = np.random.default_rng(20240817 + 5)
    checked = 0
    while checked < 200:
        graph = _random_small_forest(rng, integer=True)
        w0 = rng.integers(-5, 6, size=3).astype(float)
        v = _nonzero_direction(rng, 3, integer=True)
        try:
            points = dual_points(graph, w0, v, cap=1000)
        except CapExceededError:
            continue
        expected = full_hull(points)
        got = inside_hull(graph, w0, v)
        assert got.points == expected.points, (
            f"inside hull {got.points} != enumerated hull {expected.points}"
        )
        checked += 1
    _passed(5, f"oracle equivalence: {checked} integer-feature forests, "
               "exact hull equality")


def test_06_duality_matches_tropical():
    rng = np.random.default_rng(20240817 + 6)
    worst = 0.0
    for _ in range(100):
        graph = _random_small_forest(rng, integer=False)
        w0 = rng.normal(size=3)
        v = _nonzero_direction(rng, 3, integer=False)
        env = build_envelope(graph, w0, v)
        for eta in rng.uniform(-10.0, 10.0, size=100):
            err = _rel_err(env.max_at(float(eta)), tropical_best(graph, w0 + eta * v))
            worst = max(worst, err)
            assert err <= 1e-9, f"envelope vs tropical gap {err} at eta={eta}"
    _passed(6, f"duality: 100 forests x 100 etas, max relative error {worst:.2e}")


def test_07_envelope_matches_dense_sampling():
    rng = np.random.default_rng(20240817 + 7)
    skipped = 0
    for _ in range(100):
        lines = [(float(rng.normal()), float(rng.normal()))
                 for _ in range(int(rng.integers(3, 11)))]
        graph = make_line_graph(lines)
        env = build_envelope(graph, LINE_W0, LINE_V)
        for eta, j in naive_envelope(lines, n_samples=1000):
            if any(abs(eta - b) <= 1e-9 for b in env.boundaries):
                skipped += 1
                continue
            values = sorted(m * eta + b for m, b in lines)
            best = values[-1]
            scale = max(1.0, abs(best))
            assert abs(env.max_at(eta) - best) <= 1e-9 * scale
            # An index comparison is only meaningful when the dense argmax
            # is unique with a clear margin.
            if len(values) > 1 and best - values[-2] > 1e-7 * scale:
                seg = env.segment_at(eta)
                assert env.derivations[seg].tokens == (f"h{j}",), (
                    f"argmax line {j} not chosen at eta={eta}"
                )
    _passed(7, f"envelope argmax: 100 instances x 1000 samples, "
               f"{skipped} boundary-adjacent samples excluded")


def test_08_line_search_beats_grid_and_origin():
    rng = np.random.default_rng(20240817 + 8)
    for i in range(50):
        corpus = random_corpus(rng, n_sentences=3, n_nodes=5, n_features=3)
        w0 = rng.normal(size=3)
        v = _nonzero_direction(rng, 3, integer=False)
        metric = ExactMatch() if i % 2 == 0 else Bleu()
        result = line_search(corpus, w0, v, metric)
        _, losses = grid_line_search(corpus, w0, v, metric)
        assert result.loss <= min(losses) + 1e-12, (
            f"search loss {result.loss} above grid minimum {min(losses)}"
        )
        at_origin = decode_corpus_loss(corpus, w0, metric)
        assert result.loss <= at_origin + 1e-12, (
            f"search loss {result.loss} above eta=0 loss {at_origin}"
        )
    _passed(8, "search optimality: 50 corpora, loss <= 2001-point grid "
               "minimum and <= loss at eta=0")


def test_09_forest_envelope_matches_enumeration_envelope():
    rng = np.random.default_rng(20240817 + 9)
    checked = 0
    while checked < 100:
        graph = _random_small_forest(rng, integer=True)
        w0 = rng.integers(-5, 6, size=3).astype(float)
        v = _nonzero_direction(rng, 3, integer=True)
        try:
            derivations = list(enumerate_derivations(graph, 200))
        except CapExceededError:
            continue
        # Coincident dual points make "the winning yield" ambiguous: both
        # passes break the tie deterministically but by different orders.
        points = dual_points(graph, w0, v)
        if len(set(points)) != len(points):
            continue
        edges = [
            Edge.make(0, (), {i: float(f) for i, f in enumerate(d.features) if f},
                      tuple(d.tokens))
            for d in derivations
        ]
        flat = Hypergraph(1, edges, goal=0, n_features=graph.n_features)
        env_forest = build_envelope(graph, w0, v)
        env_flat = build_envelope(flat, w0, v)
        assert env_forest.chain == env_flat.chain
        assert len(env_forest.boundaries) == len(env_flat.boundaries)
        for bf, be in zip(env_forest.boundaries, env_flat.boundaries):
            assert abs(bf - be) <= 1e-9
        yields_forest = tuple(d.tokens for d in env_forest.derivations)
        yields_flat = tuple(d.tokens for d in env_flat.derivations)
        assert yields_forest == yields_flat
        checked += 1
    _passed(9, f"n-best/DP agreement: {checked} forests, identical "
               "segments and winning yields")


def _two_way_chain(rng: np.random.Generator, n_edges: int) -> Hypergraph:
    """Chain lattice with exactly two parallel edges per position and two
    small integer features, so |E| is controlled exactly."""
    n_nodes = n_edges // 2
    edges = []
    for node in range(n_nodes):
        tails = () if node == 0 else (node - 1,)
        for word in ("a", "b"):
            feats = {0: float(rng.integers(-1, 2)), 1: float(rng.integers(-1, 2))}
            template = (word,) if node == 0 else (0, word)
            edges.append(Edge.make(node, tails, feats, template))
    return Hypergraph(n_nodes, edges, goal=n_nodes - 1, n_features=2)


def _two_way_chains(rng: np.random.Generator) -> dict[int, Hypergraph]:
    """The chains that tests 10 and 10b time, by edge count."""
    graphs = {n_edges: _two_way_chain(rng, n_edges) for n_edges in (100, 1000, 10000)}
    assert all(graph.n_edges == n_edges for n_edges, graph in graphs.items())
    return graphs


def test_10_inside_scales_near_linearly():
    rng = np.random.default_rng(20240817 + 10)
    w0 = np.array([1.0, -1.0])
    v = np.array([1.0, 1.0])
    best: dict[int, float] = {}
    graphs = _two_way_chains(rng)
    # As in test 10b: freeze the suite's heap, the graphs included, so that
    # collections do not walk it inside the timings.
    gc.collect()
    gc.freeze()
    try:
        for n_edges, repeats in ((100, 5), (1000, 3), (10000, 2)):
            graph = graphs[n_edges]
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                inside_hull(graph, w0, v)
                timings.append(time.perf_counter() - start)
            best[n_edges] = min(timings)
    finally:
        gc.unfreeze()
    ratio_1 = best[1000] / max(best[100], 1e-9)
    ratio_2 = best[10000] / max(best[1000], 1e-9)
    assert ratio_1 <= 20.0, f"100 -> 1000 edges slowed down {ratio_1:.1f}x"
    assert ratio_2 <= 20.0, f"1000 -> 10000 edges slowed down {ratio_2:.1f}x"
    _passed(10, f"scaling: best-of-run times {best[100]*1e3:.1f} / "
                f"{best[1000]*1e3:.1f} / {best[10000]*1e3:.1f} ms, "
                f"ratios {ratio_1:.1f}x and {ratio_2:.1f}x (limit 20x)")


def test_10b_build_envelope_scales_near_linearly():
    # The hot path also writes one yield per chain point; on a long chain
    # those are thousands of tokens long.  Those allocations trigger
    # garbage collections, which would also walk every object left alive
    # by earlier tests, and the input graphs' 10,000 edges, and inflate the
    # 10000-edge time with them.  The graphs are built first, and freezing
    # what exists then keeps that heap out of the timing; collecting the
    # function's own allocations still counts.
    rng = np.random.default_rng(20240817 + 10)
    w0 = np.array([1.0, -1.0])
    v = np.array([1.0, 1.0])
    best: dict[int, float] = {}
    graphs = _two_way_chains(rng)
    gc.collect()
    gc.freeze()
    try:
        for n_edges, repeats in ((100, 5), (1000, 3), (10000, 2)):
            graph = graphs[n_edges]
            timings = []
            for _ in range(repeats):
                start = time.perf_counter()
                build_envelope(graph, w0, v)
                timings.append(time.perf_counter() - start)
            best[n_edges] = min(timings)
    finally:
        gc.unfreeze()
    ratio_1 = best[1000] / max(best[100], 1e-9)
    ratio_2 = best[10000] / max(best[1000], 1e-9)
    assert ratio_1 <= 20.0, f"100 -> 1000 edges slowed down {ratio_1:.1f}x"
    assert ratio_2 <= 20.0, f"1000 -> 10000 edges slowed down {ratio_2:.1f}x"
    _passed(10, f"hot-path scaling: best-of-run times {best[100]*1e3:.1f} / "
                f"{best[1000]*1e3:.1f} / {best[10000]*1e3:.1f} ms, "
                f"ratios {ratio_1:.1f}x and {ratio_2:.1f}x (limit 20x)")


def test_11_golden_report_reproduced_at_any_thread_count():
    golden = (FIXTURES / "golden_linesearch.json").read_bytes()
    for threads in (1, 2, 4):
        proc = subprocess.run(
            [
                sys.executable, "-m", "hullmert", "linesearch",
                str(FIXTURES / "corpus.jsonl"),
                "--weights", str(FIXTURES / "weights.json"),
                "--direction", str(FIXTURES / "direction.json"),
                "--metric", "bleu",
                "--threads", str(threads),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == golden, (
            f"report bytes diverge from golden at --threads {threads}"
        )
    _passed(11, "golden pipeline: byte-identical report at 1, 2, and 4 threads")


def test_11b_forest_golden_report():
    # Float features on branching forests, where an edge's point is
    # multiplied into its first two tails by one merge: the fixture must
    # hold an edge whose first tail's chain has two or more points.
    corpus = load_corpus(str(FIXTURES / "forest_corpus.jsonl"))
    w0 = corpus.features.vectorize(load_vector_map(str(FIXTURES / "weights.json"), "w"), "w")
    v = corpus.features.vectorize(load_vector_map(str(FIXTURES / "direction.json"), "v"), "v")
    merged = 0
    for sentence in corpus.sentences:
        values = _lower_chain_values(sentence.graph, w0.tolist(), v.tolist())
        merged += sum(
            len(e.tails) >= 2 and len(values[e.tails[0]]) >= 2 for e in sentence.graph.edges
        )
    assert merged >= 1, "no edge multiplies a many-point first tail"
    golden = (FIXTURES / "golden_forest_linesearch.json").read_bytes()
    proc = subprocess.run(
        [
            sys.executable, "-m", "hullmert", "linesearch",
            str(FIXTURES / "forest_corpus.jsonl"),
            "--weights", str(FIXTURES / "weights.json"),
            "--direction", str(FIXTURES / "direction.json"),
            "--metric", "bleu",
        ],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden, "forest report bytes diverge from golden"
    _passed(11, f"forest golden: byte-identical report, {merged} edges merge many-point tails")


def test_11c_forest_golden_optimize_report():
    # optimize on the same branching forests: its initial decode and each
    # axis search run the multi-tail kernel at a zero and an axis direction.
    golden = (FIXTURES / "golden_forest_optimize.json").read_bytes()
    proc = subprocess.run(
        [
            sys.executable, "-m", "hullmert", "optimize",
            str(FIXTURES / "forest_corpus.jsonl"),
            "--weights", str(FIXTURES / "weights.json"),
            "--metric", "bleu",
        ],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden, "forest optimize report bytes diverge from golden"
    _passed(11, "forest optimize golden: byte-identical report")
