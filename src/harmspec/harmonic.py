"""The harmonic matrix of a graph and the harmonic index.

The harmonic matrix has entry 2/(d_i + d_j) for every edge ij and 0
elsewhere; the harmonic index is the same quantity summed over edges.
harmonic_entries computes them once per graph, as a table of distinct
entries and an index into it, which the exact matrix, the harmonic index,
the exact characteristic polynomial and the eigensolver's floats all read.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import Graph, degrees


def harmonic_entries(g: Graph) -> tuple[list[Fraction], np.ndarray]:
    """The harmonic matrix of g as (entries, index): its distinct entries, 0
    and then 2/s for each degree sum s = d_u + d_v of an edge uv, ascending
    in s, and the (n, n) array of each entry's position in them. Isolated
    vertices give zero rows: a factor x of the characteristic polynomial."""
    deg = degrees(g)
    edges = [(u, v, deg[u] + deg[v]) for u, v in g.edges()]
    position = {s: k for k, s in enumerate(sorted({s for _, _, s in edges}), 1)}
    index = np.zeros((g.n, g.n), dtype=np.intp)
    for u, v, s in edges:
        index[u, v] = index[v, u] = position[s]
    return [Fraction(0), *(Fraction(2, s) for s in position)], index


def harmonic_matrix(g: Graph) -> list[list[Fraction]]:
    """Symmetric n x n Fraction matrix with entry 2/(d_i + d_j) on edges."""
    entries, index = harmonic_entries(g)
    return [[entries[k] for k in row] for row in index.tolist()]


def harmonic_index(g: Graph) -> Fraction:
    """Exact sum of 2/(d_u + d_v) over edges; half the matrix entry sum."""
    entries, index = harmonic_entries(g)
    return sum((c * x for c, x in zip(np.bincount(index.ravel()).tolist(), entries)), Fraction(0)) / 2


def matrix_text(m: list[list[Fraction]]) -> str:
    """Render an exact fraction grid with aligned columns."""
    cells = [[str(x) for x in row] for row in m]
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def matrix_json(m: list[list[Fraction]]) -> dict:
    """JSON-ready form: entries as {num, den} objects, never floats."""
    return {
        "n": len(m),
        "entries": [
            [{"num": x.numerator, "den": x.denominator} for x in row] for row in m
        ],
    }
