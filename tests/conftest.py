"""Shared strategies, oracles, and fixtures."""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from harmspec.graphs import Graph, build_graph


@st.composite
def graph_strategy(draw, min_n: int = 0, max_n: int = 12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if not pairs:
        return build_graph(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return build_graph(n, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def exact_det(matrix) -> Fraction:
    """Independent exact determinant via fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def brute_force_regular_classes(n: int, d: int) -> list:
    """Independent census oracle: exhaust all edge subsets of the right
    size, keep the d-regular ones, and return one networkx graph per
    isomorphism class, deduplicated by ``networkx.is_isomorphic``."""
    import networkx as nx

    from harmspec.graphs import degrees

    pairs = list(combinations(range(n), 2))
    want = n * d // 2
    reps = []
    for edges in combinations(pairs, want):
        g = build_graph(n, edges)
        if any(x != d for x in degrees(g)):
            continue
        h = to_networkx(g)
        if not any(nx.is_isomorphic(h, other) for other in reps):
            reps.append(h)
    return reps


def to_networkx(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@functools.lru_cache(maxsize=None)
def exhaustive_canonical_form(g: Graph) -> str:
    """Reference canonical form without automorphism pruning: the same
    refinement, target cell and "largest leaf code wins" rule as
    ``canonical_form``, with every vertex of every target cell
    individualized. Its cost grows as n! on symmetric graphs, so results
    are memoized for the tests that share an input."""
    from harmspec.census import _compress, _refine
    from harmspec.graphs import _bits, encode_graph6

    n = g.n
    if n == 0:
        return encode_graph6(g)
    adj = g.adj
    tri = [
        sum((adj[v] & adj[u]).bit_count() for u in _bits(adj[v])) // 2
        for v in range(n)
    ]
    seed = [(adj[v].bit_count(), tri[v]) for v in range(n)]
    colors = _refine(adj, _compress(seed))
    best: list[tuple[int, ...]] = [()]

    def leaf(cols: list[int]):
        rows = [0] * n
        for v in range(n):
            row = 0
            for u in _bits(adj[v]):
                row |= 1 << cols[u]
            rows[cols[v]] = row
        best[0] = max(best[0], tuple(rows))

    def search(cols: list[int]):
        cellmap: dict[int, list[int]] = {}
        for v, c in enumerate(cols):
            cellmap.setdefault(c, []).append(v)
        target = next((cellmap[c] for c in sorted(cellmap) if len(cellmap[c]) > 1), None)
        if target is None:
            leaf(cols)
            return
        for v in target:
            split = [c * 2 + (0 if u == v else 1) for u, c in enumerate(cols)]
            search(_refine(adj, _compress(split)))

    search(colors)
    return encode_graph6(Graph(n, best[0]))


@pytest.fixture(scope="session")
def cubic10():
    from harmspec.census import cached_census

    return cached_census(10, 3)
