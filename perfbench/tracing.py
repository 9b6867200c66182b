"""Outside-in per-layer tracing.

The program is not edited. ``Tracer.install`` rebinds each traced public
function, in every harmspec module that holds a reference to it, to a
wrapper that records one span per call: name, start, end, parent span,
operation id and outcome, plus a few counts read from the arguments and
the result. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its child spans;
calls are properly nested because the program is single-threaded.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from deadline import DeadlineExceeded


def _coeff_bits(args, result) -> dict:
    return {"bits": max(max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in result.coeffs)}


# (module, public function, span name, counts read from (args, result))
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("harmspec.graphs", "decode_graph6", "graphs.decode", None),
    ("harmspec.graphs", "encode_graph6", "graphs.encode", None),
    ("harmspec.harmonic", "harmonic_matrix", "harmonic.matrix", None),
    ("harmspec.charpoly", "char_poly", "charpoly.char_poly", _coeff_bits),
    ("harmspec.charpoly", "rational_roots", "charpoly.rational_roots",
     lambda args, result: {"roots": sum(mult for _, mult in result)}),
    ("harmspec.charpoly", "factored_display", "charpoly.factored_display", None),
    ("harmspec.spectrum", "jacobi_eigenvalues", "spectrum.jacobi",
     lambda args, result: {"order": len(args[0]), "sweeps": result[2]}),
    ("harmspec.spectrum", "eigenvalues_symmetric", "spectrum.eigenvalues_symmetric", None),
    ("harmspec.spectrum", "harmonic_energy", "spectrum.harmonic_energy", None),
    ("harmspec.census", "enumerate_regular", "census.enumerate",
     lambda args, result: {"classes": len(result)}),
    ("harmspec.census", "canonical_form", "census.canonical_form", None),
    ("harmspec.census", "census_from_graphs", "census.census_from_graphs", None),
    ("harmspec.census", "energy_classes", "census.energy_classes", None),
    ("harmspec.audit", "audit_all", "audit.audit_all",
     lambda args, result: {"verdicts": len(result)}),
    ("harmspec.audit", "compare_to_baseline", "audit.compare_to_baseline",
     lambda args, result: {"drift": len(result)}),
    ("harmspec.cli", "main", "cli.main", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    op: Any
    start: float
    end: float = 0.0
    outcome: str = "ok"            # ok | timeout | error
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: Any = None             # set by the caller before each operation
        self._open: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        # Every published closed-form expansion is one layer.
        charpoly = sys.modules["harmspec.charpoly"]
        targets = list(TARGETS) + [
            ("harmspec.charpoly", name, "charpoly.closed_form", None)
            for name in sorted(vars(charpoly))
            if name.startswith("closed_form") and callable(getattr(charpoly, name))
        ]
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "harmspec" or name.startswith("harmspec.")]
        for modname, fname, span, counts in targets:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, span, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, counts: Callable | None) -> Callable:
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else None, self.op, time.perf_counter())
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except DeadlineExceeded:
                span.outcome = "timeout"
                raise
            except BaseException:
                span.outcome = "error"
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


TIMED_LAYERS = (
    "census.canonical_form", "census.enumerate", "census.census_from_graphs",
    "census.energy_classes", "spectrum.jacobi", "spectrum.eigenvalues_symmetric",
    "spectrum.harmonic_energy", "charpoly.rational_roots", "charpoly.factored_display",
    "charpoly.char_poly", "charpoly.closed_form", "audit.audit_all", "graphs.decode",
    "graphs.encode", "harmonic.matrix", "cli.main",
)
COUNTED_LAYERS = (
    "census.canonical_form", "spectrum.jacobi", "charpoly.rational_roots",
    "charpoly.factored_display", "charpoly.char_poly", "charpoly.closed_form",
    "graphs.decode", "graphs.encode", "harmonic.matrix",
)


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans of the Tracer that
    recorded it (parents are indices into that list)."""
    selfs = self_times(spans)
    out: dict[str, float] = {f"{name}_s": 0.0 for name in TIMED_LAYERS}
    out.update({f"{name}_calls": 0 for name in COUNTED_LAYERS})
    for s, own in zip(spans, selfs):
        if f"{s.name}_s" in out:
            out[f"{s.name}_s"] += own
        if f"{s.name}_calls" in out:
            out[f"{s.name}_calls"] += 1

    def total(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    jacobi = [s.counts for s in spans if s.name == "spectrum.jacobi" and s.counts]
    enumerations = {k for k, s in enumerate(spans) if s.name == "census.enumerate"}
    enumerated = sum(1 for s in spans
                     if s.name == "census.canonical_form" and s.parent in enumerations)
    classes = total("census.enumerate", "classes")
    out.update({
        "census.classes": classes,
        "census.dedupe_yield": classes / enumerated if enumerated else 0.0,
        "spectrum.jacobi_order_max": max((j["order"] for j in jacobi), default=0),
        "spectrum.sweeps_total": sum(j["sweeps"] for j in jacobi),
        "spectrum.sweeps_max": max((j["sweeps"] for j in jacobi), default=0),
        "spectrum.rotations_computed": sum(
            j["sweeps"] * j["order"] * (j["order"] - 1) // 2 for j in jacobi),
        "charpoly.rational_roots_timeouts": sum(
            1 for s in spans if s.name == "charpoly.rational_roots" and s.outcome == "timeout"),
        "charpoly.roots_found": total("charpoly.rational_roots", "roots"),
        "charpoly.coeff_bits_max": max(
            (s.counts["bits"] for s in spans if s.name == "charpoly.char_poly" and s.counts),
            default=0),
        "audit.verdicts": total("audit.audit_all", "verdicts"),
        "audit.drift_lines": total("audit.compare_to_baseline", "drift"),
    })
    return out


def combine_passes(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Times (``*_s``) are the median over the traced passes; counts and
    ratios of counts are taken from the first traced pass."""
    return {k: statistics.median(p[k] for p in per_pass) if k.endswith("_s") else v
            for k, v in per_pass[0].items()}
