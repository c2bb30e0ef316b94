"""Layered benchmark for hullmert's exact line search.

    python3 bench/run.py --workload lattice-deep --seed 1 --seconds 30 --trace 0

Generates the workload's corpus from the seed with ``hullmert.sampling``,
runs the operation mix (set-up, line search, optimize, sweep, decode and
the in-process CLI) through the public API, checks every result against
``hullmert.oracle``, and prints a report followed, on the last line, by
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced composition instead and reports the per-layer metrics.  The exit
code is 0 only when every operation passed its checks.  The library is
imported from ``src/`` of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

def import_library() -> None:
    """Put the checkout's own sources first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "hullmert" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hullmert sources under {src}")
    sys.path.insert(0, str(src))
    import hullmert

    if Path(hullmert.__file__).resolve().parent != (src / "hullmert").resolve():
        raise SystemExit(f"bench: imported hullmert from {hullmert.__file__}, not {src}")


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def spec_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sentences: int | None = None, batches: int | None = None) -> dict:
    """One benchmark run; returns the full report (its ``result`` is the
    object printed on the last line)."""
    import layers
    import measure
    from workloads import WORKLOADS, generate

    workload = WORKLOADS[name]
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(),
              "design": {"generator": workload.generator, "params": workload.params,
                         "sentences_per_batch": workload.sentences, "batches": workload.batches,
                         "optimize_every": workload.optimize_every,
                         "log10_derivations": workload.log10_derivations,
                         "why": workload.why, "share": workload.share}}
    inputs = generate(workload, seed, sentences, batches)
    report["inputs"] = inputs.fingerprint
    workdir = OUT_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    try:
        if trace:
            values, extra, ledger = layers.run_traced(inputs, seconds, workdir)
            OUT_DIR.mkdir(exist_ok=True)
            extra.pop("tracer").dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
            report.update(extra)
        else:
            summary, ledger = measure.measure(inputs, seconds, workdir)
            report.update(summary)
            values = {k: v["value"] for k, v in summary["timings"].items()}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report["ops_failed_frac"] = ledger.failed / max(ledger.attempted, 1)
        units = spec_units("per_layer" if trace else "end_to_end")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"]["loadavg_end"] = os.getloadavg()
    report["failures"] = ledger.failures
    report["result"] = {
        "correct": ledger.failed == 0 and len(metrics) == len(units),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lattice-deep", "forest-int", "corpus-wide"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_library()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
