"""Command line entry point.

Subcommands: gen, matrix, index, charpoly, energy, census, audit.
A command writes its result or its error and nothing else: the result goes
to stdout, or to the --out file with the same bytes, ending in a newline;
an error goes to stderr. A successful command writes nothing on stderr.
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
    census_from_graphs,
    census_json,
    compare_reference_table,
    enumerate_regular,
    records_csv,
    truncate3,
)
from .charpoly import any_size_ints, factored_display, graph_char_polys, poly_json, poly_text
from .families import FAMILIES, generate
from .graphs import Graph, degrees, encode_graph6, read_graph6_file
from .harmonic import harmonic_index, harmonic_matrix, matrix_json, matrix_text
from .spectrum import JacobiConvergenceError, harmonic_energies


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


def _add_output_args(sub: argparse.ArgumentParser, formats: tuple[str, ...]):
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", help="write output to this path instead of stdout")


def _gen(args, graphs: list[Graph]):
    return [code if args.format == "text" else {"graph6": code} for code in map(encode_graph6, graphs)]


def _matrix(args, graphs: list[Graph]):
    form = matrix_text if args.format == "text" else matrix_json
    return [form(harmonic_matrix(g)) for g in graphs]


def _index(args, graphs: list[Graph]):
    return [
        str(h) if args.format == "text" else {"harmonic_index": {"num": h.numerator, "den": h.denominator}}
        for h in map(harmonic_index, graphs)
    ]


def _charpoly(args, graphs: list[Graph]):
    blocks = []
    for p in graph_char_polys(graphs):
        factored = factored_display(p)
        blocks.append(f"{poly_text(p)}\n  = {factored}" if args.format == "text"
                      else {**poly_json(p), "factored": factored})
    return blocks


def _energy(args, graphs: list[Graph]):
    dec = args.decimals
    blocks = []
    for code, spectrum in zip(map(encode_graph6, graphs), harmonic_energies(graphs)):
        eig, off_norm, sweeps = spectrum.eigenvalues, spectrum.off_norm, spectrum.sweeps
        if args.format == "json":
            blocks.append({"graph6": code, "method": "jacobi", "he": spectrum.he, "eigenvalues": list(eig),
                           "off_norm": off_norm, "sweeps": sweeps})
        else:
            # Adding 0.0 turns the -0.0 of a rounded-off zero eigenvalue into 0.0.
            spect = ", ".join(f"{round(x, dec) + 0.0:.{dec}f}" for x in eig)
            blocks.append(f"graph6: {code}\nHE = {spectrum.he:.{dec}f}\nspectrum: [{spect}]\n"
                          f"method: jacobi, sweeps: {sweeps}, off-norm: {off_norm:.3e}")
    return blocks


# The subcommands that read graphs from --family or --from-file: name ->
# (help, formats, function from (args, graphs) to one block per graph in
# args.format: a text block, or a JSON payload).
_GRAPH_COMMANDS = {
    "gen": ("emit a family graph as graph6", ("text", "json"), _gen),
    "matrix": ("exact harmonic matrix", ("text", "json"), _matrix),
    "index": ("exact harmonic index", ("text", "json"), _index),
    "charpoly": ("exact harmonic characteristic polynomial", ("text", "json"), _charpoly),
    "energy": ("harmonic energy and spectrum", ("text", "json"), _energy),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="harmspec", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, formats, _) in _GRAPH_COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--family", choices=FAMILIES, help="graph family to build")
        sub.add_argument("--n", type=int, help="main size parameter")
        sub.add_argument("--m", type=int, help="second parameter (bipartite part, windmill cycle length)")
        sub.add_argument("--from-file", dest="from_file", help="read graph6 input from a file instead")
        _add_output_args(sub, formats)
    energy = subs.choices["energy"]
    energy.add_argument("--decimals", type=_decimals, default=7, help="display precision for text output")

    census = subs.add_parser("census", help="regular-graph census with energies")
    census.add_argument("--n", type=int, help="vertex count")
    census.add_argument("--degree", type=int, help="regular degree")
    census.add_argument("--from-file", dest="from_file", help="graph6 file to use as the census source")
    _add_output_args(census, ("text", "json", "csv"))
    census.add_argument("--decimals", type=_decimals, default=7)

    audit = subs.add_parser("audit", help="audit registered claims against the oracles")
    audit.add_argument("--claim", action="append", help="restrict to this claim id (repeatable)")
    baseline = audit.add_mutually_exclusive_group()
    baseline.add_argument("--baseline", help="baseline file to compare against (default: packaged)")
    baseline.add_argument("--write-baseline", dest="write_baseline",
                          help="write the verdicts to this path as a new baseline")
    _add_output_args(audit, ("text", "json", "csv"))

    return parser


def _file_graphs(args, others: tuple[str, ...]) -> list[Graph] | None:
    """The graphs of --from-file, or None without it. The other input flags,
    the attributes named in others, are a usage error next to it."""
    if args.from_file is None:
        return None
    given = [f"--{name}" for name in others if getattr(args, name) is not None]
    if given:
        raise ValueError(f"--from-file cannot be combined with {', '.join(given)}")
    try:
        return read_graph6_file(args.from_file)
    except OSError as exc:
        raise ValueError(f"cannot read {args.from_file}: {exc.strerror or exc}") from exc


def _emit(args, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_graphs(args) -> int:
    graphs = _file_graphs(args, ("family", "n", "m"))
    if graphs is None:
        if not args.family:
            raise ValueError("need --family (or --from-file)")
        graphs = [generate(args.family, n=args.n, m=args.m)]
    _, _, command = _GRAPH_COMMANDS[args.command]
    blocks = command(args, graphs)
    if args.format == "json":
        _emit(args, json.dumps(blocks[0] if len(blocks) == 1 else {"results": blocks}, indent=1))
    else:
        _emit(args, ("\n" if args.command == "gen" else "\n\n").join(blocks))
    return 0


def _cmd_census(args) -> int:
    graphs = _file_graphs(args, ("n", "degree"))
    if graphs is None:
        if args.n is None or args.degree is None:
            raise ValueError("census needs --n and --degree (or --from-file)")
        graphs = enumerate_regular(args.n, args.degree)
    records, classes = census_from_graphs(graphs)

    comparison = None
    if len(graphs) == len(REFERENCE_CUBIC10_HE) and all(
        g.n == 10 and set(degrees(g)) == {3} for g in graphs
    ):
        comparison = compare_reference_table(records)

    if args.format == "csv":
        _emit(args, records_csv(records))
    elif args.format == "json":
        _emit(args, json.dumps(census_json(records, classes, comparison, args.n, args.degree), indent=1))
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
    baseline = (audit_mod.default_baseline() if args.baseline is None
                else audit_mod.load_baseline(args.baseline))
    results = audit_mod.audit_all(args.claim)
    if args.write_baseline is not None:
        audit_mod.write_baseline(args.write_baseline, results)
        return 0
    if args.claim:
        # Restricted runs are compared only against the matching slice of
        # the baseline; untouched claims are not drift.
        stems = set(args.claim)
        verdicts = {k: v for k, v in baseline["verdicts"].items() if k.split("|")[0] in stems}
        baseline = {**baseline, "verdicts": verdicts}
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


_HANDLERS = {**dict.fromkeys(_GRAPH_COMMANDS, _cmd_graphs), "census": _cmd_census, "audit": _cmd_audit}


# Exact outputs print integers of any length: main lifts Python's limit
# of 4,300 digits on int-to-decimal conversion while it runs.
@any_size_ints()
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
