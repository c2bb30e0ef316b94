"""Checks on the package's source text."""

import ast
from pathlib import Path

import hullmert

SOURCES = sorted(Path(hullmert.__file__).parent.glob("*.py"))


def test_every_sum_has_a_start_value() -> None:
    # Since Python 3.12, sum() compensates its rounding on Python floats, so
    # a float sum would give other bits there than on 3.11.  Float sums are
    # explicit left-to-right loops; a sum() that passes a start value (the
    # numpy statistics sums, which start at metric.zero_stats()) is allowed.
    bare = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and len(node.args) < 2
                and not any(k.arg == "start" for k in node.keywords)
            ):
                bare.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 10
    assert bare == []
