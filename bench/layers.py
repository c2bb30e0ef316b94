"""The traced run: per-layer times and counters for one workload.

The line search is recomposed from the public calls that make it up
(per-sentence inside pass, lower chain, reconstruction and boundaries,
then sentence surfaces, the corpus merge and the pick), each wrapped in a
span, and must reproduce ``line_search`` exactly.  A second, separate
pass splits the inside pass into edge projection and the semiring
recursion.  Counters come from the untimed first pass; every later pass
is timed, and each time metric is a median over the traced runs.
"""

from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter

from hullmert import (
    ConvexHullValue,
    CorpusSurface,
    Envelope,
    MertEstimator,
    build_envelopes,
    canonical_json,
    envelope_boundaries,
    get_metric,
    inside,
    inside_hull,
    line_search,
    loads_corpus,
    lower_chain,
    pick_eta,
    project_edge,
    reconstruct,
    sentence_surface,
)
from hullmert.linesearch import DEFAULT_MERGE_EPS

import checks
from measure import METRIC, SETUP_PER_ROUND, Ledger, run_cli, summarize, write_cli_files
from spans import Tracer

# Batches that the untimed first pass of a traced run covers; the counters
# are sums over them.
COUNTED_BATCHES = 4


def composed_line_search(tr: Tracer, pairs, w0, v, metric, counts: dict, hulls: list):
    """``line_search`` rebuilt from its public parts, one span per part."""
    with tr.span("line_search"):
        envelopes = []
        for graph, _ in pairs:
            with tr.span("build_envelope"):
                with tr.span("inside_hull"):
                    value = inside_hull(graph, w0, v)
                with tr.span("lower_chain"):
                    chain = lower_chain(value.hull)
                derivations = []
                for i in range(len(chain)):
                    with tr.span("reconstruct"):
                        derivations.append(reconstruct(graph, value, i))
                with tr.span("envelope_boundaries"):
                    bounds = envelope_boundaries(chain)
            envelopes.append(Envelope(chain.points, bounds, tuple(derivations)))
            hulls.append(value.hull.points)
            counts["forest.edges"] += graph.n_edges
            counts["semiring.goal_hull_points"].append(len(value.hull))
            counts["geometry.chain_points"].append(len(chain))
        surfaces = []
        for env, (_, ref) in zip(envelopes, pairs):
            with tr.span("sentence_surface"):
                surfaces.append(sentence_surface(env, ref, metric))
        with tr.span("corpus_surface"):
            surface = CorpusSurface(metric, surfaces, DEFAULT_MERGE_EPS)
        with tr.span("pick_eta"):
            losses = surface.interval_losses()
            chosen, eta = pick_eta(surface)
    counts["forest.reconstruct_calls"] += sum(len(e.derivations) for e in envelopes)
    counts["metrics.stats_calls"] += sum(len(e.derivations) for e in envelopes)
    counts["linesearch.boundaries_raw"] += sum(len(s.boundaries) for s in surfaces)
    counts["linesearch.boundaries_merged"] += len(surface.boundaries)
    counts["linesearch.intervals"] += len(surface.stats)
    counts["linesearch.ties_at_pick"] += sum(1 for x in losses if x == min(losses))
    return surface.boundaries, losses, chosen, eta


def split_inside(tr: Tracer, pairs, w0, v, hulls: list) -> None:
    """Edge projection, then inside over the pre-projected values."""
    for (graph, _), expected in zip(pairs, hulls):
        with tr.span("project_edge"):
            projected = [project_edge(e, w0, v, ei) for ei, e in enumerate(graph.edges)]
        with tr.span("inside"):
            value = inside(graph, lambda ei, e: projected[ei], ConvexHullValue)
        checks.require(value.hull.points == expected,
                       "inside over projected edges differs from inside_hull")


def _new_counts() -> dict:
    counts = {name: 0 for name in (
        "forest.edges", "forest.reconstruct_calls", "metrics.stats_calls",
        "linesearch.boundaries_raw", "linesearch.boundaries_merged",
        "linesearch.intervals", "linesearch.ties_at_pick")}
    counts["semiring.goal_hull_points"] = []
    counts["geometry.chain_points"] = []
    return counts


def _timed(fn):
    gc.collect()
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


def traced_pass(tr, pairs, batch, metric, ledger, counts) -> tuple[dict, list]:
    """Every direction once on one batch: the untraced line search, the
    traced composition (checked against it), the split inside pass, and
    ``build_envelopes`` at one and two threads."""
    w0 = batch.w0
    record = {"untraced": [], "composed": [], "split": [], "pool1": [], "pool2": []}
    results = []
    for k, v in enumerate(batch.directions):
        ledger.attempted += 1
        try:
            expected, elapsed = _timed(lambda: line_search(pairs, w0, v, metric, threads=1))
            record["untraced"].append(elapsed)
            hulls: list = []
            gc.collect()
            record["composed"].append(tr.new_run())
            got = composed_line_search(tr, pairs, w0, v, metric, counts, hulls)
            checks.require(
                got == (expected.boundaries, expected.interval_losses,
                        expected.best_interval, expected.eta),
                f"composed pipeline differs from line_search along direction {k}")
            gc.collect()
            record["split"].append(tr.new_run())
            split_inside(tr, pairs, w0, v, hulls)
            for threads, key in ((1, "pool1"), (2, "pool2")):
                _, elapsed = _timed(lambda: build_envelopes(pairs, w0, v, threads=threads))
                record[key].append(elapsed)
            results.append(expected)
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            ledger.fail(f"traced linesearch[{k}]", exc)
    return record, results


def _checked(ledger: Ledger, what: str, fn) -> None:
    ledger.attempted += 1
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - a failed check counts as failed
        ledger.fail(what, exc)


def run_traced(inputs, seconds: float, workdir) -> tuple[dict, dict, Ledger]:
    """Per-layer metrics and exact counters for one workload.

    The untimed first pass covers the first COUNTED_BATCHES batches and
    yields the counters; timed passes then rotate through the batches for
    about ``seconds``.
    """
    ledger = Ledger()
    metric = get_metric(METRIC)
    tr = Tracer()
    texts = [batch.text for batch in inputs.batches]

    setup_runs = []
    for b in range(max(len(texts), SETUP_PER_ROUND)):
        gc.collect()
        setup_runs.append(tr.new_run())
        with tr.span("loads_corpus"):
            corpus = loads_corpus(texts[b % len(texts)])
        with tr.span("validate"):
            for s in corpus.sentences:
                s.graph.validate()
    batches = [loads_corpus(text).pairs() for text in texts]

    counts = _new_counts()
    warm = [traced_pass(tr, pairs, batch, metric, ledger, counts)
            for pairs, batch in zip(batches[:COUNTED_BATCHES], inputs.batches)]
    timed_runs = []
    start = perf_counter()
    deadline = start + seconds
    while not timed_runs or perf_counter() + 0.5 * (perf_counter() - start) / len(timed_runs) < deadline:
        b = (len(warm) + len(timed_runs)) % len(batches)
        timed_runs.append(traced_pass(tr, batches[b], inputs.batches[b], metric, ledger,
                                      _new_counts())[0])

    # Oracle checks of the first pass, then the remaining public calls on
    # the first batch: the estimator and the canonical CLI report.
    start = perf_counter()
    for b, (pairs, batch, (_, results)) in enumerate(zip(batches, inputs.batches, warm)):
        for k, result in enumerate(results):
            _checked(ledger, f"check linesearch[{k}]", lambda: checks.line_search(
                pairs, batch.w0, batch.directions[k], metric, result, b == 0, ledger.ties))
    check_time = perf_counter() - start
    pairs = batches[0]
    weights = warm[0][1][0].weights if warm[0][1] else inputs.batches[0].w0
    est = MertEstimator(metric=METRIC, iterations=0, initial_weights=weights).fit(pairs)
    gc.collect()
    est_run = tr.new_run()
    with tr.span("predict"):
        est.predict(pairs)
    with tr.span("score"):
        score = est.score(pairs)
    code, stdout = run_cli(write_cli_files(inputs.batches[0], workdir)[0])
    gc.collect()
    report_run = tr.new_run()
    with tr.span("canonical_json"):
        text = canonical_json(json.loads(stdout))
    start = perf_counter()
    _checked(ledger, "estimator score",
             lambda: checks.decode(pairs, weights, metric, -score, ledger.ties))
    _checked(ledger, "cli report", lambda: checks.require(
        code == 0 and text + "\n" == stdout,
        "canonical_json does not reproduce the CLI report bytes"))
    check_time += perf_counter() - start

    runs = timed_runs
    totals = tr.totals_by_run()

    def per_ls(name, key="composed"):
        return statistics.median(totals[name][r] for rec in runs for r in rec[key])

    def share(name):
        return statistics.median(
            totals[name][r] / totals["line_search"][r] for rec in runs for r in rec["composed"])

    composed_runs = {r for rec in runs for r in rec["composed"]}
    env_ms = [d * 1e3 for d in tr.durations("build_envelope", composed_runs)]
    env_summary = summarize(env_ms)
    tail_key = next(k for k in ("p99", "p95", "p90", "p75", "max") if k in env_summary)
    untraced = statistics.median(x for rec in runs for x in rec["untraced"])
    pool1 = statistics.median(x for rec in runs for x in rec["pool1"])
    pool2 = statistics.median(x for rec in runs for x in rec["pool2"])
    hull_pts = counts["semiring.goal_hull_points"] or [0]
    chain_pts = counts["geometry.chain_points"] or [0]

    metrics = {
        "io.parse_s": statistics.median(totals["loads_corpus"][r] for r in setup_runs),
        "io.corpus_mb": statistics.fmean(len(t.encode("utf-8")) for t in texts) / 2**20,
        "io.report_s": totals["canonical_json"][report_run],
        "forest.validate_s": statistics.median(totals["validate"][r] for r in setup_runs),
        "forest.project_s": per_ls("project_edge", "split"),
        "forest.inside_hull_s": per_ls("inside_hull"),
        "forest.inside_hull_share": share("inside_hull"),
        "forest.reconstruct_s": per_ls("reconstruct"),
        "forest.reconstruct_share": share("reconstruct"),
        "forest.reconstruct_calls": counts["forest.reconstruct_calls"],
        "forest.edges": counts["forest.edges"],
        "semiring.inside_s": per_ls("inside", "split"),
        "semiring.goal_hull_points_mean": statistics.fmean(hull_pts),
        "semiring.goal_hull_points_max": max(hull_pts),
        "geometry.chain_points_mean": statistics.fmean(chain_pts),
        "geometry.chain_over_hull": sum(chain_pts) / max(sum(hull_pts), 1),
        "geometry.lower_chain_s": per_ls("lower_chain"),
        "geometry.envelope_boundaries_s": per_ls("envelope_boundaries"),
        "linesearch.build_envelope_s": per_ls("build_envelope"),
        "linesearch.envelope_ms_p50": env_summary["median"],
        "linesearch.envelope_ms_tail": env_summary[tail_key],
        "linesearch.pool_speedup": pool1 / pool2,
        "linesearch.merge_s": per_ls("corpus_surface"),
        "linesearch.merge_share": share("corpus_surface"),
        "linesearch.pick_s": per_ls("pick_eta"),
        "linesearch.boundaries_raw": counts["linesearch.boundaries_raw"],
        "linesearch.boundaries_merged": counts["linesearch.boundaries_merged"],
        "linesearch.intervals": counts["linesearch.intervals"],
        "linesearch.ties_at_pick": counts["linesearch.ties_at_pick"],
        "metrics.stats_s": per_ls("sentence_surface"),
        "metrics.stats_calls": counts["metrics.stats_calls"],
        "estimator.predict_s": totals["predict"][est_run],
        "estimator.score_s": totals["score"][est_run],
        "oracle.check_s": check_time,
        "trace.overhead_s": per_ls("line_search") - untraced,
    }
    counters = {name: metrics[name] for name in COUNTERS}
    detail = {
        "passes": len(runs),
        "envelope_ms_tail_percentile": tail_key,
        "linesearch_untraced_s": untraced,
        "linesearch_traced_s": per_ls("line_search"),
        "self_time_s": tr.self_times(),
        "oracle_ties": ledger.ties.count,
    }
    return metrics, {"counters": counters, "detail": detail, "tracer": tr}, ledger


# Metrics that are counts of work, so two runs on one seed must agree exactly.
COUNTERS = (
    "io.corpus_mb",
    "forest.reconstruct_calls",
    "forest.edges",
    "semiring.goal_hull_points_mean",
    "semiring.goal_hull_points_max",
    "geometry.chain_points_mean",
    "geometry.chain_over_hull",
    "linesearch.boundaries_raw",
    "linesearch.boundaries_merged",
    "linesearch.intervals",
    "linesearch.ties_at_pick",
    "metrics.stats_calls",
)
