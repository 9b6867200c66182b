import random

import pytest
from hypothesis import given, settings

from harmspec.graphs import (
    Graph6Error,
    build_graph,
    components,
    decode_graph6,
    degrees,
    disjoint_union,
    encode_graph6,
    parse_graph6_lines,
    relabel,
)
from harmspec.families import complete, complete_bipartite, friendship, path

from conftest import bitwise_encode_graph6, graph_strategy, random_graph, to_networkx


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.n == 3
        assert g.edge_count == 3

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1
        assert g.edge_count == 0

    def test_friendship_two_blades(self):
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (3, 4)])
        assert g.n == 5
        assert g.edge_count == 6
        assert degrees(g) == [4, 2, 2, 2, 2]

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 7\)"):
            build_graph(3, [(0, 7)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\).*self-loop"):
            build_graph(3, [(0, 1), (2, 2)])


class TestDegrees:
    def test_complete(self):
        assert degrees(complete(4)) == [3, 3, 3, 3]

    def test_path_ends(self):
        assert degrees(path(3)) == [1, 2, 1]

    def test_friendship_apex(self):
        assert degrees(friendship(2)) == [4, 2, 2, 2, 2]

    @given(graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(degrees(g)) == 2 * g.edge_count


class TestComponents:
    def test_two_components(self):
        g = disjoint_union([complete(4), complete_bipartite(3, 3)])
        parts = components(g)
        assert [p.n for p in parts] == [4, 6]

    def test_connected_graph_is_singleton(self):
        assert len(components(complete(5))) == 1

    def test_isolated_vertices(self):
        g = build_graph(4, [])
        parts = components(g)
        assert len(parts) == 4
        assert all(p.n == 1 for p in parts)

    def test_union_then_components_recovers_parts(self):
        from harmspec.census import canonical_form

        parts = [complete(4), path(3), complete_bipartite(2, 3)]
        recovered = components(disjoint_union(parts))
        # Same component multiset up to isomorphism.
        assert sorted(canonical_form(p) for p in parts) == sorted(
            canonical_form(p) for p in recovered
        )

    def test_union_of_one_graph_is_identity(self):
        g = complete(4)
        assert disjoint_union([g]) == g


class TestRelabel:
    def test_roundtrip(self):
        g = friendship(2)
        perm = [3, 0, 4, 1, 2]
        h = relabel(g, perm)
        inverse = [0] * g.n
        for old, new in enumerate(perm):
            inverse[new] = old
        assert relabel(h, inverse) == g

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel(complete(3), [0, 0, 1])


class TestGraph6:
    def test_known_string(self):
        g = decode_graph6("D?{")
        assert g.n == 5
        assert sorted(degrees(g)) == [1, 1, 1, 1, 4]
        assert encode_graph6(g) == "D?{"

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert encode_graph6(g) == "?"
        assert decode_graph6("?").n == 0

    def test_header_stripped(self):
        assert decode_graph6(">>graph6<<D?{").n == 5

    def test_trailing_newline_tolerated(self):
        assert decode_graph6("D?{\n").n == 5

    def test_long_form_size(self):
        g = build_graph(63, [(0, 62)])
        s = encode_graph6(g)
        assert s.startswith(chr(126))
        assert decode_graph6(s) == g

    def test_nonprintable_byte_offset(self):
        with pytest.raises(Graph6Error, match="invalid graph6 byte.*offset 1"):
            decode_graph6("D" + chr(13) + "{")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error, match="trailing garbage"):
            decode_graph6("D?{?")

    def test_truncated(self):
        with pytest.raises(Graph6Error, match="truncated"):
            decode_graph6("D?")

    def test_empty_line(self):
        with pytest.raises(Graph6Error, match="empty"):
            decode_graph6("")

    def test_nonzero_padding_offset(self):
        # "x" is 111001: the three bits of K3, then a set padding bit.
        with pytest.raises(Graph6Error, match="nonzero padding bits.*offset 1"):
            decode_graph6("Bx")

    def test_parse_lines_reports_line_number(self):
        with pytest.raises(Graph6Error, match="line 2"):
            parse_graph6_lines("D?{\nD?\n")

    @given(graph_strategy())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, g):
        assert decode_graph6(encode_graph6(g)) == g

    def test_roundtrip_seeded_up_to_62(self):
        rng = random.Random(62)
        for n in range(63):
            for p in (0.1, 0.5, 0.9):
                g = random_graph(rng, n, p)
                assert decode_graph6(encode_graph6(g)) == g

    @given(graph_strategy(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert encode_graph6(g) == expected

    def test_matches_bitwise_encoder_and_networkx_up_to_70(self):
        # n >= 63 takes the 4-byte size header.
        nx = pytest.importorskip("networkx")
        rng = random.Random(70)
        for n in range(71):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                g = random_graph(rng, n, p)
                expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
                assert encode_graph6(g) == bitwise_encode_graph6(g) == expected
