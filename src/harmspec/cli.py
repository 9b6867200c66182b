"""Command line entry point.

Subcommands: gen, matrix, index, charpoly, energy, census, audit.
Exit status: 0 success, 1 usage or input error, 2 audit baseline drift.
Exact values render as p/q strings in text and as {num, den} objects in
JSON; floats never appear in exact outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import audit as audit_mod
from .census import (
    REFERENCE_CUBIC10_HE,
    census,
    census_from_graphs,
    census_json,
    compare_reference_table,
    records_csv,
    truncate3,
)
from .charpoly import factored_display, graph_char_polys, poly_json, poly_text
from .families import FAMILIES, FamilySpec, generate
from .graphs import Graph, degrees, encode_graph6, read_graph6_file
from .harmonic import harmonic_index, harmonic_matrix, matrix_json, matrix_text
from .spectrum import (
    DEFAULT_TOL,
    JacobiConvergenceError,
    harmonic_energies,
    spectrum_json,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2 for
    # audit baseline drift, so usage errors become exit 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _decimals(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_family_args(sub: argparse.ArgumentParser):
    sub.add_argument("--family", choices=FAMILIES, help="graph family to build")
    sub.add_argument("--n", type=int, help="main size parameter")
    sub.add_argument("--m", type=int, help="second parameter (bipartite part, windmill cycle length)")
    sub.add_argument("--from-file", dest="from_file", help="read graph6 input from a file instead")


def _add_output_args(sub: argparse.ArgumentParser, formats: tuple[str, ...]):
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmspec", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[], help="emit a family graph as graph6")
    _add_family_args(gen)
    _add_output_args(gen, ("text", "graph6", "json"))

    matrix = subs.add_parser("matrix", help="exact harmonic matrix")
    _add_family_args(matrix)
    _add_output_args(matrix, ("text", "json"))

    index = subs.add_parser("index", help="exact harmonic index")
    _add_family_args(index)
    _add_output_args(index, ("text", "json"))

    charpoly = subs.add_parser("charpoly", help="exact harmonic characteristic polynomial")
    _add_family_args(charpoly)
    _add_output_args(charpoly, ("text", "json"))

    energy = subs.add_parser("energy", help="harmonic energy and spectrum")
    _add_family_args(energy)
    _add_output_args(energy, ("text", "json"))
    energy.add_argument("--tol", type=float, default=DEFAULT_TOL, help="eigensolver tolerance")
    energy.add_argument("--decimals", type=_decimals, default=7, help="display precision for text output")

    census = subs.add_parser("census", help="regular-graph census with energies")
    census.add_argument("--n", type=int, help="vertex count")
    census.add_argument("--degree", type=int, help="regular degree")
    census.add_argument("--from-file", dest="from_file", help="graph6 file to use as the census source")
    _add_output_args(census, ("text", "json", "csv"))
    census.add_argument("--quiet", action="store_true", help="suppress progress logs")
    census.add_argument("--decimals", type=_decimals, default=7)

    audit = subs.add_parser("audit", help="audit registered claims against the oracles")
    audit.add_argument("--claim", action="append", help="restrict to this claim id (repeatable)")
    audit.add_argument("--baseline", help="baseline file to compare against (default: packaged)")
    audit.add_argument("--write-baseline", dest="write_baseline",
                       help="write the verdicts to this path as a new baseline")
    _add_output_args(audit, ("text", "json", "csv"))
    audit.add_argument("--quiet", action="store_true")

    return parser


def _family_graphs(args) -> list[Graph]:
    if args.from_file:
        try:
            return read_graph6_file(args.from_file)
        except OSError as exc:
            raise ValueError(f"cannot read {args.from_file}: {exc.strerror or exc}") from exc
    if not args.family:
        raise ValueError("need --family (or --from-file)")
    spec = FamilySpec(args.family, n=args.n, m=args.m)
    return [generate(spec)]


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_blocks(args, blocks: list[str], payloads: list[dict]):
    if args.format == "json":
        data = payloads[0] if len(payloads) == 1 else {"results": payloads}
        _emit(args, json.dumps(data, indent=1))
    else:
        _emit(args, "\n\n".join(blocks))


def _cmd_gen(args) -> int:
    graphs = _family_graphs(args)
    if args.format == "json":
        payloads = [{"graph6": encode_graph6(g)} for g in graphs]
        _emit_blocks(args, [], payloads)
    else:
        _emit(args, "\n".join(encode_graph6(g) for g in graphs))
    return 0


def _cmd_matrix(args) -> int:
    graphs = _family_graphs(args)
    blocks, payloads = [], []
    for g in graphs:
        m = harmonic_matrix(g)
        blocks.append(matrix_text(m))
        payloads.append(matrix_json(m))
    _emit_blocks(args, blocks, payloads)
    return 0


def _cmd_index(args) -> int:
    graphs = _family_graphs(args)
    blocks, payloads = [], []
    for g in graphs:
        h = harmonic_index(g)
        blocks.append(str(h))
        payloads.append({"harmonic_index": {"num": h.numerator, "den": h.denominator}})
    _emit_blocks(args, blocks, payloads)
    return 0


def _cmd_charpoly(args) -> int:
    blocks, payloads = [], []
    for p in graph_char_polys(_family_graphs(args)):
        factored = factored_display(p)
        blocks.append(f"{poly_text(p)}\n  = {factored}")
        payload = poly_json(p)
        payload["factored"] = factored
        payloads.append(payload)
    _emit_blocks(args, blocks, payloads)
    return 0


def _cmd_energy(args) -> int:
    blocks, payloads = [], []
    for report in harmonic_energies(_family_graphs(args), tol=args.tol):
        dec = args.decimals
        # Adding 0.0 turns the -0.0 of a rounded-off zero eigenvalue into 0.0.
        spect = ", ".join(f"{round(x, dec) + 0.0:.{dec}f}" for x in report.spectrum.eigenvalues)
        blocks.append(
            f"graph6: {report.graph6}\nHE = {report.he:.{dec}f}\nspectrum: [{spect}]\n"
            f"method: jacobi, sweeps: {report.spectrum.sweeps}, "
            f"off-norm: {report.spectrum.off_norm:.3e}"
        )
        payloads.append(spectrum_json(report))
    _emit_blocks(args, blocks, payloads)
    return 0


def _cmd_census(args) -> int:
    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    if args.from_file:
        graphs = _family_graphs(args)
        records, classes = census_from_graphs(graphs)
        n = d = None
        cubic10 = all(g.n == 10 and set(degrees(g)) == {3} for g in graphs)
    else:
        if args.n is None or args.degree is None:
            raise ValueError("census needs --n and --degree (or --from-file)")
        n, d = args.n, args.degree
        records, classes = census(n, d, progress=progress)
        cubic10 = (n, d) == (10, 3)

    comparison = None
    if cubic10 and len(records) == len(REFERENCE_CUBIC10_HE):
        comparison = compare_reference_table(records)

    if args.format == "csv":
        _emit(args, records_csv(records))
    elif args.format == "json":
        _emit(args, json.dumps(census_json(records, classes, comparison, n, d), indent=1))
    else:
        dec = args.decimals
        lines = [f"{'idx':>4} {'graph6':<16} {'conn':<5} {'HE':>12}"]
        for r in records:
            lines.append(
                f"{r.index:>4} {r.graph6:<16} {str(r.connected).lower():<5} {r.he:>12.{dec}f}"
            )
        lines.append("")
        lines.append("energy classes (display truncated to 3 decimals):")
        for c in classes:
            diffs = "".join(
                f" [{a} vs {b}: {count} differing eigenvalues]" for a, b, count in c.eigen_diffs
            )
            lines.append(
                f"  HE {truncate3(c.he):.3f}: members {list(c.members)}{diffs}"
            )
        if comparison is not None:
            lines.append("")
            lines.append(
                f"reference comparison: {comparison.match_count}/{comparison.total} matched"
            )
            for ref, got in comparison.entries:
                status = "ok" if got is not None else "MISSING"
                lines.append(f"  reference {ref:.3f}: {status}")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_audit(args) -> int:
    results = audit_mod.audit_all(args.claim if args.claim else None)
    if args.write_baseline:
        audit_mod.write_baseline(args.write_baseline, results)
        if not args.quiet:
            print(f"baseline written to {args.write_baseline}", file=sys.stderr)
        return 0
    if args.baseline:
        baseline = audit_mod.load_baseline(args.baseline)
    else:
        baseline = audit_mod.default_baseline()
    if args.claim:
        # Restricted runs are compared only against the matching slice of
        # the baseline; untouched claims are not drift.
        stems = set(args.claim)
        verdicts = baseline.get("verdicts", {})
        baseline = dict(baseline)
        baseline["verdicts"] = {
            k: v for k, v in verdicts.items() if k.split("|")[0] in stems
        }
    drift = audit_mod.compare_to_baseline(results, baseline)

    if args.format == "json":
        _emit(args, json.dumps(audit_mod.results_json(results, drift), indent=1))
    elif args.format == "csv":
        _emit(args, audit_mod.results_csv(results))
    else:
        text = audit_mod.results_table(results)
        if drift:
            text += "\n\nBASELINE DRIFT:\n" + "\n".join(f"  {line}" for line in drift)
        else:
            text += "\n\nbaseline: no drift"
        _emit(args, text)
    return 2 if drift else 0


_HANDLERS = {
    "gen": _cmd_gen,
    "matrix": _cmd_matrix,
    "index": _cmd_index,
    "charpoly": _cmd_charpoly,
    "energy": _cmd_energy,
    "census": _cmd_census,
    "audit": _cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, JacobiConvergenceError) as exc:
        print(f"harmspec: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
