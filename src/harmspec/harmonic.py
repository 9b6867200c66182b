"""The harmonic matrix of a graph and the harmonic index.

The harmonic matrix has entry 2/(d_i + d_j) for every edge ij and 0
elsewhere; the harmonic index is the same quantity summed over edges.
Both are exact; the eigensolver takes the matrix as correctly rounded
floats built straight from the degrees.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .graphs import Graph, degrees


def harmonic_matrix(g: Graph) -> list[list[Fraction]]:
    """Symmetric n x n matrix with entry 2/(d_i + d_j) on edges.

    Isolated vertices simply produce zero rows (they contribute a factor
    of the variable to the characteristic polynomial, consistent with the
    disjoint union product rule).
    """
    deg = degrees(g)
    m = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v in g.edges():
        w = Fraction(2, deg[u] + deg[v])
        m[u][v] = w
        m[v][u] = w
    return m


def harmonic_float_matrix(g: Graph) -> np.ndarray:
    """harmonic_matrix(g) as floats, built without Fractions. 2.0 / (d_u + d_v)
    divides two exactly represented integers, so IEEE rounds it correctly:
    it is the double float(Fraction(2, d_u + d_v)) returns, bit for bit."""
    deg = degrees(g)
    m = np.zeros((g.n, g.n))
    for u, v in g.edges():
        m[u, v] = m[v, u] = 2.0 / (deg[u] + deg[v])
    return m


def harmonic_index(g: Graph) -> Fraction:
    """Exact sum of 2/(d_u + d_v) over edges; half the matrix entry sum."""
    deg = degrees(g)
    return sum((Fraction(2, deg[u] + deg[v]) for u, v in g.edges()), Fraction(0))


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
