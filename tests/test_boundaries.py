"""Import boundaries between the package's modules."""

import ast
from pathlib import Path

import hullmert

PACKAGE = Path(hullmert.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Absolute names of every module an import statement in ``path`` names,
    including submodules pulled in by ``from package import name``."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "hullmert" + (f".{base}" if base else "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_only_the_cli_imports_the_oracle() -> None:
    # The oracles are slow references; nothing on the fast path may use them.
    assert "hullmert.oracle" in imported_modules(PACKAGE / "cli.py")
    offenders = sorted(
        p.name
        for p in PACKAGE.glob("*.py")
        if p.name != "cli.py" and "hullmert.oracle" in imported_modules(p)
    )
    assert offenders == []
