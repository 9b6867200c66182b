"""The Jacobi solver's bits, as committed in tests/data/jacobi_bits.json.

The golden holds, per graph, its graph6 code, its eigenvalues and final
off-diagonal norm as float hex, and its sweep count, for two sets of
graphs: seeded G(n, p) graphs of orders 0 to 45 (odd orders and isolated
vertices among them) and every graph whose harmonic energy the audit
takes. Each set is solved as one harmonic_energies call and graph by graph,
and both must give the recorded bits. A change to the solver that moves
one bit of one eigenvalue fails here. Regenerate the golden only for an
intended change, with

    PYTHONPATH=src python tests/test_jacobi_bits.py --write
"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

import pytest

from harmspec.graphs import build_graph, decode_graph6, disjoint_union, encode_graph6
from harmspec.spectrum import Spectrum, harmonic_energies, harmonic_energy

from conftest import audit_spectrum_graphs, random_graph

GOLDEN = Path(__file__).parent / "data" / "jacobi_bits.json"


def seeded_graphs() -> list:
    """The complete graphs of orders 0, 1 and 2, then orders 3, 6,
    ..., 45 at p = 0.05, 0.15, 0.5 and 0.9: per order and p one G(n, p)
    graph and one G(n - 2, p) graph with two isolated vertices added."""
    rng = random.Random(29)
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(2, [(0, 1)])]
    for n in range(3, 46, 3):
        for p in (0.05, 0.15, 0.5, 0.9):
            graphs.append(random_graph(rng, n, p))
            graphs.append(disjoint_union([random_graph(rng, n - 2, p), build_graph(2, [])]))
    return graphs


def record(code: str, spectrum: Spectrum) -> dict:
    return {"graph6": code, "eigenvalues": [x.hex() for x in spectrum.eigenvalues],
            "off_norm": spectrum.off_norm.hex(), "sweeps": spectrum.sweeps}


def records(graphs: list) -> list[dict]:
    return [record(encode_graph6(g), s) for g, s in zip(graphs, harmonic_energies(graphs))]


@functools.cache
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["seeded", "audit"])
def test_batch_and_single_solves_match_golden(name):
    want = golden()[name]
    graphs = [decode_graph6(r["graph6"]) for r in want]
    assert records(graphs) == want
    assert [record(r["graph6"], harmonic_energy(g)) for r, g in zip(want, graphs)] == want


def test_golden_covers_the_documented_graphs():
    assert [r["graph6"] for r in golden()["seeded"]] == [encode_graph6(g) for g in seeded_graphs()]
    assert {g.n for g in seeded_graphs()} == {0, 1, 2, *range(3, 46, 3)}
    assert [r["graph6"] for r in golden()["audit"]] == [encode_graph6(g) for g in audit_spectrum_graphs()]
    assert len(golden()["audit"]) == 77


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_jacobi_bits.py --write")
    bits = {"seeded": records(seeded_graphs()), "audit": records(audit_spectrum_graphs())}
    GOLDEN.write_text("{\n" + ",\n".join(
        f' "{name}": [\n' + ",\n".join(f"  {json.dumps(r)}" for r in rows) + "\n ]"
        for name, rows in bits.items()) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {len(bits['seeded'])} seeded and {len(bits['audit'])} audit spectra")
