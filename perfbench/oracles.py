"""Independent checks of every operation's output.

Nothing here imports harmspec. Graphs are decoded with networkx, spectra
come from LAPACK (``numpy.linalg.eigvalsh``), characteristic polynomials
are checked against a Fraction Gaussian-elimination determinant, and the
audit is compared against the packaged baseline file read as plain JSON.
Each checker raises CheckFailed with the reason.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

import jsonschema
import networkx as nx
import numpy as np

EIG_TOL = 1e-9
CP_POINTS = (Fraction(2), Fraction(-1, 3), Fraction(5, 7))


class CheckFailed(Exception):
    pass


def check(op, returncode: int, stdout: str, src_dir: str) -> None:
    """Raise CheckFailed unless the output of ``op`` is correct."""
    if returncode != 0:
        raise CheckFailed(f"exit status {returncode}")
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc
    schema_path = os.path.join(src_dir, "harmspec", "schemas", f"{op.kind}.schema.json")
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"schema: {exc.message}") from exc
    checkers = {
        "census": lambda: _check_census(data, **op.expect),
        "audit": lambda: _check_audit(
            data, os.path.join(src_dir, "harmspec", "data", "audit_baseline.json")),
        "energy": lambda: _check_energy(_payloads(data), op.expect["graph6"]),
        "charpoly": lambda: _check_charpoly(_payloads(data), op.expect["graph6"]),
    }
    try:
        checkers[op.kind]()
    except (ValueError, nx.NetworkXError) as exc:  # e.g. a graph6 or factor string that does not parse
        raise CheckFailed(f"malformed output: {exc}") from exc


def _payloads(data: dict) -> list[dict]:
    return data["results"] if "results" in data else [data]


def _graph(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.encode("ascii"))


def _harmonic_floats(g: nx.Graph) -> np.ndarray:
    n = g.number_of_nodes()
    h = np.zeros((n, n))
    for u, v in g.edges():
        h[u, v] = h[v, u] = 2.0 / (g.degree(u) + g.degree(v))
    return h


def _check_spectrum(g: nx.Graph, eigenvalues: list[float], he: float, what: str) -> None:
    ref = np.sort(np.linalg.eigvalsh(_harmonic_floats(g)))[::-1]
    got = np.array(eigenvalues)
    if got.shape != ref.shape or not np.allclose(got, ref, rtol=0, atol=EIG_TOL):
        raise CheckFailed(f"{what}: eigenvalues differ from eigvalsh")
    if abs(he - float(np.abs(ref).sum())) > EIG_TOL * max(1, len(ref)):
        raise CheckFailed(f"{what}: HE {he!r} differs from eigvalsh")


def _check_energy(payloads: list[dict], lines: list[str]) -> None:
    if len(payloads) != len(lines):
        raise CheckFailed(f"{len(payloads)} results for {len(lines)} input graphs")
    for k, (payload, line) in enumerate(zip(payloads, lines)):
        if payload["graph6"] != line:
            raise CheckFailed(f"graph {k}: fingerprint {payload['graph6']!r} != input {line!r}")
        _check_spectrum(_graph(line), payload["eigenvalues"], payload["he"], f"graph {k}")


def _check_census(data: dict, n: int, degree: int, count: int) -> None:
    records = data["records"]
    if (data["n"], data["degree"]) != (n, degree):
        raise CheckFailed(f"census reports (n, d) = ({data['n']}, {data['degree']})")
    if len(records) != count:
        raise CheckFailed(f"{len(records)} census records, expected {count}")
    graphs = []
    for r in records:
        g = _graph(r["graph6"])
        if g.number_of_nodes() != n or any(dg != degree for _, dg in g.degree()):
            raise CheckFailed(f"record {r['index']} is not {degree}-regular on {n} vertices")
        if r["connected"] != nx.is_connected(g):
            raise CheckFailed(f"record {r['index']}: wrong connected flag")
        _check_spectrum(g, r["spectrum"], r["he"], f"record {r['index']}")
        graphs.append(g)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            if nx.is_isomorphic(graphs[i], graphs[j]):
                raise CheckFailed(f"records {i + 1} and {j + 1} are isomorphic")


def _check_audit(data: dict, baseline_path: str) -> None:
    if data["drift"]:
        raise CheckFailed(f"{len(data['drift'])} baseline drift lines")
    with open(baseline_path, encoding="utf-8") as fh:
        expected = json.load(fh)["verdicts"]
    got = {}
    for r in data["results"]:
        params = ",".join(f"{k}={v}" for k, v in sorted(r["params"].items()))
        got[f"{r['claim']}|{params}" if params else r["claim"]] = r["verdict"]
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))
        raise CheckFailed(f"verdicts differ from the baseline file: {diff[:3]}")


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


def _check_charpoly(payloads: list[dict], lines: list[str]) -> None:
    if len(payloads) != len(lines):
        raise CheckFailed(f"{len(payloads)} results for {len(lines)} input graphs")
    for k, (payload, line) in enumerate(zip(payloads, lines)):
        g = _graph(line)
        n = g.number_of_nodes()
        coeffs = [Fraction(c["num"], c["den"]) for c in payload["coefficients"]]
        if payload["degree"] != n or len(coeffs) != n + 1 or coeffs[-1] != 1:
            raise CheckFailed(f"graph {k}: not a monic polynomial of degree {n}")
        h = [[Fraction(0)] * n for _ in range(n)]
        for u, v in g.edges():
            h[u][v] = h[v][u] = Fraction(2, g.degree(u) + g.degree(v))
        for x in CP_POINTS:
            xi_minus_h = [[(x if i == j else 0) - h[i][j] for j in range(n)] for i in range(n)]
            if _evaluate(coeffs, x) != _determinant(xi_minus_h):
                raise CheckFailed(f"graph {k}: CP({x}) differs from det(xI - H)")
        if parse_factored(payload["factored"]) != coeffs:
            raise CheckFailed(f"graph {k}: factors do not multiply back to the CP")


def _determinant(m: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                row, top = m[r], m[c]
                for j in range(c, n):
                    row[j] -= f * top[j]
    return det


def _evaluate(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_TERM = re.compile(r"^(?:(\d+(?:/\d+)?) ?)?(λ(?:\^(\d+))?)?$")


def parse_poly(text: str) -> list[Fraction]:
    """Ascending coefficients of an expanded polynomial such as
    ``-λ^3 - 1/2 λ + 7/9``."""
    coeffs: dict[int, Fraction] = {}
    for term in re.split(r" (?=[+-] )", text):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+- ")
        m = _TERM.match(body)
        if not body or not m:
            raise CheckFailed(f"cannot parse term {term!r} of {text!r}")
        c = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        power = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * c
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def parse_factored(text: str) -> list[Fraction]:
    """Ascending coefficients of a factored display such as
    ``λ^2(λ - 1/3)^5(λ^2 + 1/2 λ - 1)``, multiplied out exactly."""
    if "(" not in text and " " in text:
        return parse_poly(text)
    product = [Fraction(1)]
    i = 0
    while i < len(text):
        if text[i] == "(":
            j = text.index(")", i)
            factor, i = parse_poly(text[i + 1:j]), j + 1
        elif text[i] == "λ":
            factor, i = [Fraction(0), Fraction(1)], i + 1
        else:
            j = i + 1
            while j < len(text) and text[j] not in "(λ":
                j += 1
            factor, i = [Fraction(text[i:j])], j
        power = 1
        if text.startswith("^", i):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            power, i = int(text[i + 1:j]), j
        for _ in range(power):
            product = _mul(product, factor)
    return product
