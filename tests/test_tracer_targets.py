"""The benchmark's tracer wraps library functions by name; a name it looks
up must not disappear from the library. TARGETS is read from the source,
so perfbench itself is not imported."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign | ast.Assign):
            names = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in names):
                return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_name_exists():
    targets = _targets()
    assert ("harmspec.spectrum", "jacobi_eigenvalues") in targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_closed_forms_exist():
    # The tracer also wraps every charpoly function named closed_form*.
    charpoly = importlib.import_module("harmspec.charpoly")
    assert any(
        name.startswith("closed_form") and callable(value) for name, value in vars(charpoly).items()
    )
