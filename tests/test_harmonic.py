import random
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings

from harmspec.families import FAMILIES, complete, generate, path, petersen
from harmspec.graphs import (
    build_graph,
    decode_graph6,
    degrees,
    encode_graph6,
    read_graph6_file,
)
from harmspec.harmonic import (
    harmonic_entries,
    harmonic_index,
    harmonic_matrix,
    matrix_json,
    matrix_text,
)

from conftest import graph_strategy, random_graph

DATA = Path(__file__).parent / "data"


def test_complete_matrix_pattern():
    for n in range(2, 8):
        m = harmonic_matrix(complete(n))
        w = Fraction(1, n - 1)
        for i in range(n):
            for j in range(n):
                assert m[i][j] == (w if i != j else 0)


def test_two_path_matrix():
    m = harmonic_matrix(path(2))
    assert m == [[0, 1], [1, 0]]


def test_petersen_entries_are_one_third():
    m = harmonic_matrix(petersen())
    values = {m[i][j] for i in range(10) for j in range(10) if m[i][j] != 0}
    assert values == {Fraction(1, 3)}


def test_isolated_vertices_zero_rows():
    g = build_graph(3, [(0, 1)])
    m = harmonic_matrix(g)
    assert m[2] == [0, 0, 0]


def test_index_complete():
    for n in range(2, 10):
        assert harmonic_index(complete(n)) == Fraction(n, 2)


def test_index_edgeless():
    assert harmonic_index(build_graph(4, [])) == 0


def test_index_path3():
    # Two edges with degree pair (1, 2), each contributing 2/3.
    assert harmonic_index(path(3)) == Fraction(4, 3)


@given(graph_strategy(max_n=10))
@settings(max_examples=60, deadline=None)
def test_index_is_half_entry_sum(g):
    m = harmonic_matrix(g)
    total = sum(sum(row, Fraction(0)) for row in m)
    assert harmonic_index(g) == total / 2


@given(graph_strategy(max_n=10))
@settings(max_examples=60, deadline=None)
def test_symmetric_zero_diagonal_unit_interval(g):
    m = harmonic_matrix(g)
    for i in range(g.n):
        assert m[i][i] == 0
        for j in range(g.n):
            assert m[i][j] == m[j][i]
            if m[i][j] != 0:
                assert 0 < m[i][j] <= 1


def test_regular_graph_is_scaled_adjacency():
    g = petersen()
    d = degrees(g)[0]
    m = harmonic_matrix(g)
    for i in range(g.n):
        for j in range(g.n):
            assert m[i][j] == Fraction(g.adj[i] >> j & 1, d)


def test_matrix_text_grid():
    text = matrix_text(harmonic_matrix(path(3)))
    rows = text.splitlines()
    assert len(rows) == 3
    assert "2/3" in text


def test_matrix_json_pairs():
    payload = matrix_json(harmonic_matrix(path(2)))
    assert payload["n"] == 2
    assert payload["entries"][0][1] == {"num": 1, "den": 1}
    assert payload["entries"][0][0] == {"num": 0, "den": 1}


def _same_doubles(g) -> bool:
    # The solver's float matrix, read from the entry table, holds the bits
    # of the exact matrix converted entry by entry, including the sign of
    # every zero.
    entries, index = harmonic_entries(g)
    exact = np.array(harmonic_matrix(g), dtype=float).reshape(g.n, g.n)
    return np.array(entries, dtype=float)[index].tobytes() == exact.tobytes()


@given(graph_strategy(max_n=12))
@settings(max_examples=100, deadline=None)
def test_float_matrix_is_rounded_exact_matrix(g):
    assert _same_doubles(g)


def test_float_matrix_random_graphs_through_graph6():
    # Orders 63 and up take the 4-byte graph6 header.
    rng = random.Random(70)
    for n in (0, 1, 2, 5, 12, 30, 62, 63, 64, 70):
        for p in (0.1, 0.5, 0.9):
            g = decode_graph6(encode_graph6(random_graph(rng, n, p)))
            assert _same_doubles(g), (n, p)


def test_float_matrix_every_family():
    # Every member with n <= 12 and m <= 5: a call that sets a parameter
    # its family does not take is rejected, so each graph is built once.
    built = 0
    for family in FAMILIES:
        for n in (None, *range(1, 13)):
            for m in (None, *range(1, 6)):
                try:
                    g = generate(family, n=n, m=m)
                except ValueError:
                    continue
                assert _same_doubles(g), (family, n, m)
                built += 1
    assert built == 166


def test_float_matrix_mixed_orders_file():
    graphs = read_graph6_file(str(DATA / "energy_mixed.g6"))
    assert graphs
    assert all(_same_doubles(g) for g in graphs)
