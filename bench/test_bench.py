"""The benchmark's own test: every workload at reduced size, run twice.

    python3 -m pytest bench/test_bench.py

Each run must pass all of its output checks and report every metric that
BENCHMARK.json names, with its unit; the traced run's counters must repeat
exactly, since they count work, not time.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from layers import COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = {"lattice-deep": (2, 2), "forest-int": (1, 2), "corpus-wide": (40, 1)}
SEED = 3


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _twice(name: str, trace: bool) -> list[dict]:
    reports = [run.run_workload(name, SEED, 0, trace, *SMALL[name]) for _ in range(2)]
    for report in reports:
        result = report["result"]
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert result["attempted"] >= 1
    assert reports[0]["inputs"] == reports[1]["inputs"]
    return reports


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(COUNTERS) <= set(_units("per_layer"))
    design = (BENCH / "DESIGN.md").read_text(encoding="utf-8")
    for name in _units("per_layer"):
        assert f"`{name}`" in design, f"{name} is missing from DESIGN.md"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_run(name):
    for report in _twice(name, trace=False):
        metrics = report["result"]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == _units("end_to_end")
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run(name):
    reports = _twice(name, trace=True)
    for report in reports:
        metrics = report["result"]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
    assert reports[0]["counters"] == reports[1]["counters"]
