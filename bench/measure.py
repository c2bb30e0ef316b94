"""End-to-end timings: the operation mix, run in round-robin rounds.

Every round runs each operation once on the next batch (set-up and decode
three times), in a fixed order, so slow spells of a shared host fall on
all operations alike.  A full garbage collection precedes every timed
call, so a collection of garbage left by an earlier operation is not
charged to the next one; the collector stays on while the call runs.

Each call's time is divided by the host's pace around it: how much
slower than nominal the host ran the fixed reference computation
(``reference.py``) in the short windows around the call.  A shared host
runs the same code at different speeds from one moment to the next, and
calls and runs must be comparable.  A timing is
the mean of these paced times over the run's calls: the mean, not the
median, because each round runs on a different batch and the mean uses
every batch's cost.  The raw mean, the raw median, a raw tail percentile,
the sample count and the run's overall slowdown are reported beside it.

Rounds alternate between the allowed CPUs, pinning the single-threaded
operations to one CPU per round.  On a small virtual machine one vCPU can
run much slower than another (on the 2-vCPU development machine, 145 ms
against 100 ms for the same line search), and a process tends to stay
where it started, so without this a run's timings depended on where the
scheduler put it.  The threaded CLI call runs unpinned, so a parallel
speed-up can still show.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from hullmert import decode_loss, get_metric, line_search, loads_corpus, optimize, sweep
from hullmert import cli as hullmert_cli

import checks
from reference import Reference
from workloads import N_DIRECTIONS

METRIC = "bleu"
SETUP_PER_ROUND = 3
DECODE_PER_ROUND = 3
SWEEP_GRID = (-10.0, 10.0, 2001)
CLI_THREADS = 2
REF_SHARE = 0.08
# corpus-wide's first round, with optimize, can take most of a run on a
# slow host; a second round keeps every other operation at two samples.
MIN_ROUNDS = 2


@dataclass
class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    ties: checks.Ties = field(default_factory=checks.Ties)

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Op:
    """One operation of the mix on one batch: the call, the oracle check
    of its first result, and the signature every repeat must reproduce."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    signature: Callable[[object], object]
    first: object = None  # the first result, held until it is checked
    first_sig: object = None

    def run(self, ledger: Ledger) -> tuple[float, float] | None:
        """(start, elapsed seconds), or None when the call raised or
        returned a result that differs from its first one."""
        ledger.attempted += 1
        gc.collect()
        try:
            start = perf_counter()
            result = self.call()
            elapsed = perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            ledger.fail(self.name, exc)
            return None
        if self.first_sig is None:
            self.first, self.first_sig = result, self.signature(result)
            return start, elapsed
        try:
            checks.same(self.first_sig, self.signature(result), self.name)
        except checks.CheckFailed as exc:
            ledger.fail(self.name, exc)
            return None
        return start, elapsed

    def verify(self, ledger: Ledger) -> None:
        """The oracle checks on the first result, after it was timed."""
        if self.first is None:
            return
        try:
            self.check(self.first)
        except Exception as exc:  # noqa: BLE001 - a failed check counts as failed
            ledger.fail(self.name, exc)


def setup_corpus(text: str):
    """What every CLI command pays before search: parse, then validate."""
    corpus = loads_corpus(text)
    for s in corpus.sentences:
        s.graph.validate()
    return corpus


def write_cli_files(batch, workdir: Path) -> list[list[str]]:
    """Corpus, weights and direction files, and per direction the CLI
    arguments that use them."""
    workdir.mkdir(parents=True, exist_ok=True)
    names = [f"f{i}" for i in range(len(batch.w0))]
    (workdir / "corpus.jsonl").write_text(batch.text, encoding="utf-8")
    (workdir / "weights.json").write_text(json.dumps(dict(zip(names, map(float, batch.w0)))))
    argvs = []
    for k, v in enumerate(batch.directions):
        (workdir / f"direction{k}.json").write_text(json.dumps(dict(zip(names, map(float, v)))))
        argvs.append([
            "linesearch", str(workdir / "corpus.jsonl"),
            "--weights", str(workdir / "weights.json"),
            "--direction", str(workdir / f"direction{k}.json"),
            "--metric", METRIC, "--threads", str(CLI_THREADS),
        ])
    return argvs


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = hullmert_cli.run(argv)
    return code, out.getvalue()


def build_ops(batch, workdir: Path, duality: bool, ties: checks.Ties) -> dict[str, Op]:
    """The operation mix on one batch."""
    metric = get_metric(METRIC)
    text, w0, dirs = batch.text, batch.w0, batch.directions
    corpus = setup_corpus(text)
    pairs = corpus.pairs()
    expected_setup = checks.sig_setup(corpus)
    cli_argvs = write_cli_files(batch, workdir)
    ops: dict[str, Op] = {}

    def add(op: Op) -> None:
        ops[op.name] = op

    add(Op("setup", lambda: setup_corpus(text),
           lambda c: checks.same(expected_setup, checks.sig_setup(c), "setup"),
           checks.sig_setup))
    for k, v in enumerate(dirs):
        add(Op(f"linesearch[{k}]",
               lambda v=v: line_search(pairs, w0, v, metric, threads=1),
               lambda r, v=v: checks.line_search(pairs, w0, v, metric, r, duality, ties),
               checks.sig_line_search))
    add(Op("optimize", lambda: optimize(pairs, w0, metric, iterations=1),
           lambda r: checks.optimize(pairs, metric, r, ties), checks.sig_optimize))
    for k, v in enumerate(dirs):
        add(Op(f"sweep[{k}]", lambda v=v: sweep(pairs, w0, v, metric, *SWEEP_GRID),
               lambda r, k=k, v=v: checks.sweep(pairs, w0, v, metric, r,
                                                ops[f"linesearch[{k}]"].first, ties),
               lambda r: r.losses))

    def optimized() -> np.ndarray:
        return np.array(ops["optimize"].first_sig[0])

    add(Op("decode", lambda: decode_loss(pairs, optimized(), metric),
           lambda loss: checks.decode(pairs, optimized(), metric, loss, ties),
           lambda loss: loss))
    for k, argv in enumerate(cli_argvs):
        add(Op(f"cli_linesearch[{k}]", lambda argv=argv: run_cli(argv),
               lambda r, k=k: checks.cli(r[0], r[1], ops[f"linesearch[{k}]"].first),
               lambda r: r))
    return ops


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            idx = min(len(ordered) - 1, int(round(pct / 100 * (len(ordered) - 1))))
            out[f"p{pct}"] = ordered[idx]
            break
    else:
        out["max"] = ordered[-1]
    return out


class Placement:
    """Pins the calling thread, round by round, to each allowed CPU in turn."""

    def __init__(self):
        can_pin = hasattr(os, "sched_setaffinity")
        self.cpus = sorted(os.sched_getaffinity(0)) if can_pin else []

    def pin(self, round_index: int) -> int | None:
        if len(self.cpus) < 2:
            return None
        cpu = self.cpus[round_index % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        return cpu

    def release(self) -> None:
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, set(self.cpus))


def run_round(ops: dict[str, Op], ledger: Ledger, samples: dict, placement: Placement,
              round_index: int, ref: Reference, optimize_every: int) -> None:
    """The mix once on one batch (optimize only on every optimize_every-th
    round).  A sample is the list of (start, elapsed) of its calls: one
    call, or for an operation along a direction (line search, sweep, CLI)
    one per direction of the batch.  Samples are keyed by (metric, CPU).
    After every call the reference runs for REF_SHARE of the call's time."""

    def sample(metric: str, names: list[str]) -> None:
        calls = []
        for name in names:
            calls.append(ops[name].run(ledger))
            ref.window(REF_SHARE * (calls[-1][1] if calls[-1] else 0.0))
        samples[metric, cpu].append(None if None in calls else calls)

    directions = range(N_DIRECTIONS)
    cpu = placement.pin(round_index)
    ref.window(0.0)
    for _ in range(SETUP_PER_ROUND):
        sample("setup_s", ["setup"])
    sample("linesearch_s", [f"linesearch[{k}]" for k in directions])
    if round_index % optimize_every == 0:
        sample("optimize_s", ["optimize"])
    sample("sweep_s", [f"sweep[{k}]" for k in directions])
    for _ in range(DECODE_PER_ROUND):
        sample("decode_s", ["decode"])
    placement.release()
    cpu = None
    sample("cli_linesearch_s", [f"cli_linesearch[{k}]" for k in directions])


def warm_up(ops: dict[str, Op], ledger: Ledger) -> None:
    """One untimed call of each operation: set-up, line search, optimize,
    sweep, decode and the CLI (along the first direction)."""
    for name in ("setup", "linesearch[0]", "optimize", "sweep[0]", "decode",
                 "cli_linesearch[0]"):
        ops[name].run(ledger)


def measure(inputs, seconds: float, workdir: Path) -> tuple[dict, Ledger]:
    """Warm up every operation once, then run rounds for about ``seconds``.

    Round r runs the mix on batch r mod B.  After a batch's first round its
    results are checked and released, so memory does not grow with the
    number of batches; the checks do not count against ``seconds``.  A run
    makes at least MIN_ROUNDS rounds; after that a new round starts only
    while at least half of its expected time remains (the mean of earlier
    rounds of its kind, with or without optimize), so the measured time
    stays within half a round of ``seconds``.
    """
    ledger = Ledger()
    placement = Placement()
    every = inputs.workload.optimize_every
    batch_ops = [build_ops(batch, workdir / f"batch{b}", b == 0, ledger.ties)
                 for b, batch in enumerate(inputs.batches)]
    warm_up(batch_ops[0], ledger)
    ref = Reference()
    samples: dict[tuple, list] = defaultdict(list)
    history: list[tuple[float, bool]] = []  # (seconds, ran optimize) per round

    def expected(with_optimize: bool) -> float:
        same = [d for d, o in history if o == with_optimize]
        if same:
            return statistics.fmean(same)
        optimize_calls = [calls[0][1] for key, groups in samples.items()
                          if key[0] == "optimize_s" for calls in groups if calls is not None]
        optimize_s = (1 + REF_SHARE) * statistics.fmean(optimize_calls or [0.0])
        other = statistics.fmean(d for d, _ in history)
        return other + optimize_s if with_optimize else other - optimize_s

    measured = 0.0
    while (len(history) < MIN_ROUNDS
           or measured + 0.5 * expected(len(history) % every == 0) < seconds):
        rounds = len(history)
        ops = batch_ops[rounds % len(batch_ops)]
        start = perf_counter()
        run_round(ops, ledger, samples, placement, rounds, ref, every)
        elapsed = perf_counter() - start
        measured += elapsed
        history.append((elapsed, rounds % every == 0))
        if rounds < len(batch_ops):
            verify(ops, ledger)
    return {"rounds": len(history), "measured_s": measured, "cpus": placement.cpus,
            "timings": timings(samples, ref), "slowdown": ref.slowdown(),
            "oracle_ties": ledger.ties.count}, ledger


def timings(samples: dict[tuple, list], ref: Reference) -> dict[str, dict]:
    """Per metric: the mean paced time ("value"); the raw mean, median,
    tail and count of all samples; and the raw mean per CPU.  A sample's
    times are the means over its calls of the call's seconds and of its
    seconds over the host's pace around it."""
    per_cpu: dict[str, dict] = defaultdict(dict)
    for (name, cpu), groups in samples.items():
        values = [(statistics.fmean(e for _, e in calls),
                   statistics.fmean(e / ref.pace(s, s + e) for s, e in calls))
                  for calls in groups if calls is not None]
        if values:
            per_cpu[name][str(cpu)] = values
    out = {}
    for name, by_cpu in per_cpu.items():
        flat = [v for values in by_cpu.values() for v in values]
        raw = [v[0] for v in flat]
        out[name] = summarize(raw)
        out[name]["mean"] = statistics.fmean(raw)
        out[name]["cpu_means"] = {cpu: statistics.fmean(v[0] for v in values)
                                  for cpu, values in by_cpu.items()}
        out[name]["value"] = statistics.fmean(v[1] for v in flat)
    return out


def verify(ops: dict[str, Op], ledger: Ledger) -> None:
    """Oracle checks on each operation's first result, which is then
    released; its signature stays for comparing repeats."""
    for op in ops.values():
        op.verify(ledger)
    for op in ops.values():
        op.first = None
