from fractions import Fraction

from hypothesis import given, settings

from harmspec.families import complete, path, petersen
from harmspec.graphs import build_graph, degrees
from harmspec.harmonic import harmonic_index, harmonic_matrix, matrix_json, matrix_text

from conftest import graph_strategy


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
