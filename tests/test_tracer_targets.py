"""The benchmark's tracer wraps library functions by name; a name it looks
up must not disappear from the library. TARGETS is read from the source,
so perfbench itself is not imported."""

import ast
import functools
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


BENCH_SCRIPTS = [TRACING.with_name("run.py"), TRACING.with_name("probe.py")]


def _harmspec_names(path: Path) -> list[str]:
    """Each harmspec name the script imports, and each attribute it reads
    from one, as dotted paths: ``harmspec.census.cached_census`` for
    ``from harmspec.census import cached_census``, and
    ``harmspec.cli.main`` for ``from harmspec import cli`` then ``cli.main``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "harmspec":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = [
        f"{bound[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
    ]
    return sorted(set(bound.values()) | set(reads))


def _resolve(dotted: str) -> object:
    """The object a dotted harmspec path names: the longest importable
    module prefix, then attributes. AttributeError if one is missing."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return functools.reduce(getattr, parts[i:], obj)
    raise ImportError(dotted)


def test_every_benchmark_import_exists():
    names = [name for path in BENCH_SCRIPTS for name in _harmspec_names(path)]
    for expected in (
        "harmspec.cli.main",
        "harmspec.cli.build_parser",
        "harmspec.census.cached_census.cache_clear",
        "harmspec.audit.default_baseline",
        "harmspec.graphs.read_graph6_file",
    ):
        assert expected in names
    missing = []
    for name in names:
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []
