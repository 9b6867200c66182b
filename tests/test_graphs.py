import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmspec.graphs import (
    Graph,
    Graph6Error,
    build_graph,
    components,
    decode_graph6,
    degrees,
    disjoint_union,
    encode_graph6,
    parse_graph6_lines,
    read_graph6_file,
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


# Pieces of graph6 files: whole lines, fragments, line ends and the bytes
# that other line rules end a line at or skip as whitespace.
_FILE_PIECES = [
    b"D?{", b"A_", b"Bw", b"?", b"@", b"~??Bw", b">>graph6<<", b"D?", b"Bx",
    b"\n", b"\r", b"\r\n", b" ", b"\t", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
    b"\x85", b"\xa0", b"\xff", b"\x00",
]

# decode_graph6 on fixed lines: the graph, or the exact error message.
_LONG_EMPTY_63 = "~??~" + "?" * 326  # 4-byte size field, 1,953 bits, 3 of padding
_K3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
_STAR5 = build_graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
DECODE_TABLE = [
    ("~", "truncated graph6 string (byte offset 1)"),
    ("~?", "truncated graph6 string (byte offset 2)"),
    ("~~", "vertex count beyond the supported range (byte offset 1)"),
    ("~??", "truncated graph6 string (byte offset 3)"),
    ("~~??", "vertex count beyond the supported range (byte offset 1)"),
    ("~??A", "truncated graph6 string (byte offset 4)"),
    ("~?@?", "truncated graph6 string (byte offset 4)"),
    ("~??B", "truncated graph6 string (byte offset 4)"),
    ("~??Bw", _K3),
    ("~??Bx", "nonzero padding bits (byte offset 4)"),
    ("~??Bw?", "trailing garbage after graph6 data (byte offset 5)"),
    ("~??@?", "trailing garbage after graph6 data (byte offset 4)"),
    (_LONG_EMPTY_63, build_graph(63, [])),
    (_LONG_EMPTY_63 + "\r\n", build_graph(63, [])),
    (_LONG_EMPTY_63 + "?", "trailing garbage after graph6 data (byte offset 330)"),
    (_LONG_EMPTY_63[:-1] + "@", "nonzero padding bits (byte offset 329)"),
    (_LONG_EMPTY_63[:-1], "truncated graph6 string (byte offset 329)"),
    (">>graph6<<", "empty graph6 string (byte offset 10)"),
    (">>graph6<<~~", "vertex count beyond the supported range (byte offset 11)"),
    (">>graph6<<D?{", _STAR5),
    (">>graph6<<D?", "truncated graph6 string (byte offset 12)"),
    ("A", "truncated graph6 string (byte offset 1)"),
    ("A\r\n", "truncated graph6 string (byte offset 1)"),
    ("A?", build_graph(2, [])),
    ("A?\r\n", build_graph(2, [])),
    ("A_", build_graph(2, [(0, 1)])),
    ("A_\r\n", build_graph(2, [(0, 1)])),
    ("A`", "nonzero padding bits (byte offset 1)"),
    ("A`\r\n", "nonzero padding bits (byte offset 1)"),
    ("D?", "truncated graph6 string (byte offset 2)"),
    ("D?\r\n", "truncated graph6 string (byte offset 2)"),
    ("D?{?", "trailing garbage after graph6 data (byte offset 3)"),
    ("D?{?\r\n", "trailing garbage after graph6 data (byte offset 3)"),
    ("?", build_graph(0, [])),
    ("??", "trailing garbage after graph6 data (byte offset 1)"),
    ("@", build_graph(1, [])),
    ("Bw", _K3),
    ("Bx", "nonzero padding bits (byte offset 1)"),
    ("D?{", _STAR5),
    ("D?{\r\n", _STAR5),
    ("D?|", "nonzero padding bits (byte offset 2)"),
    ("", "empty graph6 string (byte offset 0)"),
    ("\r\n", "empty graph6 string (byte offset 0)"),
    # A byte outside 63..126: the first one is the error.
    ("D\r{", "invalid graph6 byte 13 (byte offset 1)"),
    ("\xffD?{", "invalid graph6 byte 255 (byte offset 0)"),
    (">>graph6<<\x7f", "invalid graph6 byte 127 (byte offset 10)"),
    ("~?\x80", "invalid graph6 byte 128 (byte offset 2)"),
    ("D?{ ", "invalid graph6 byte 32 (byte offset 3)"),
    ("D?{\x0c", "invalid graph6 byte 12 (byte offset 3)"),
    ("D?{\x85", "invalid graph6 byte 133 (byte offset 3)"),
    ("D?{?\x00", "invalid graph6 byte 0 (byte offset 4)"),
]


def _line_id(line):
    return ascii(line if len(line) < 20 else f"{line[:4]}...{line[-2:]} ({len(line)} bytes)")


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

    @pytest.mark.parametrize("line, expected", [
        pytest.param(line, expected, id=_line_id(line)) for line, expected in DECODE_TABLE
    ])
    def test_decode_table(self, line, expected):
        if isinstance(expected, Graph):
            assert decode_graph6(line) == expected
        else:
            with pytest.raises(Graph6Error) as exc:
                decode_graph6(line)
            assert str(exc.value) == expected

    def test_parse_lines_reports_line_number(self):
        with pytest.raises(Graph6Error, match="line 2"):
            parse_graph6_lines("D?{\nD?\n")

    @pytest.mark.parametrize("data, message", [
        (b"D?{\nD\xff{\n", "line 2: invalid graph6 byte 255 (byte offset 1)"),
        # Decoded as latin-1, 0x85 would end a line and leave two valid ones.
        (b"D?{\x85D?{\n", "line 1: invalid graph6 byte 133 (byte offset 3)"),
        (b"D?{\r\n\x80", "line 2: invalid graph6 byte 128 (byte offset 0)"),
        # A form feed never ends a line.
        (b"D?{\x0c\r\nD?{\xff", "line 1: invalid graph6 byte 12 (byte offset 3)"),
        (b"D?\nD?{\xff\n", "line 1: truncated graph6 string (byte offset 2)"),
    ], ids=["second-line", "nel", "line-start", "form-feed", "earlier-error"])
    def test_file_names_the_line_of_a_non_ascii_byte(self, tmp_path, data, message):
        path = tmp_path / "graphs.g6"
        path.write_bytes(data)
        with pytest.raises(Graph6Error) as exc:
            read_graph6_file(str(path))
        assert str(exc.value) == message

    @pytest.mark.parametrize("data, message", [
        (b"D?{" + bytes([sep]) + b"D?{\n", f"line 1: invalid graph6 byte {sep} (byte offset 3)")
        for sep in (0x0b, 0x0c, 0x1c, 0x1d, 0x1e)
    ] + [
        # Whitespace outside ASCII does not make a line blank.
        (b"D?{\n\x85\n", "line 2: invalid graph6 byte 133 (byte offset 0)"),
        (b"\xa0\r\n", "line 1: invalid graph6 byte 160 (byte offset 0)"),
    ], ids=["vt", "ff", "fs", "gs", "rs", "nel-alone", "nbsp-alone"])
    def test_only_a_newline_ends_a_line(self, tmp_path, data, message):
        path = tmp_path / "graphs.g6"
        path.write_bytes(data)
        with pytest.raises(Graph6Error) as exc:
            read_graph6_file(str(path))
        assert str(exc.value) == message

    @given(st.one_of(
        st.binary(max_size=80),
        st.lists(st.sampled_from(_FILE_PIECES), max_size=12).map(b"".join),
    ))
    @settings(max_examples=400, deadline=None)
    def test_file_gives_a_graph_per_line_or_names_the_line(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "property.g6"
        path.write_bytes(data)
        lines = data.split(b"\n")
        nonblank = [line for line in lines if line.strip(b" \t\r\x0b\x0c")]
        try:
            graphs = read_graph6_file(str(path))
        except Graph6Error as exc:
            found = re.fullmatch(r"line (\d+): .* \(byte offset (\d+)\)", str(exc), re.S)
            assert found, str(exc)
            line = lines[int(found[1]) - 1]
            assert line in nonblank
            assert int(found[2]) <= len(line.removesuffix(b"\r"))
        else:
            assert len(graphs) == len(nonblank)

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

    def test_decode_matches_networkx_up_to_70(self):
        # networkx writes each string and reads it back as the expected
        # graph; n >= 63 takes the 4-byte size field.
        nx = pytest.importorskip("networkx")
        rng = random.Random(71)
        for n in range(71):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                data = nx.to_graph6_bytes(nx.gnp_random_graph(n, p, seed=rng.randrange(2**32)), header=False)
                expected = nx.from_graph6_bytes(data.rstrip(b"\n"))
                g = decode_graph6(data.decode("ascii"))
                assert g.n == expected.number_of_nodes()
                assert g.edges() == sorted(tuple(sorted(e)) for e in expected.edges())

    def test_matches_bitwise_encoder_and_networkx_up_to_70(self):
        # n >= 63 takes the 4-byte size header.
        nx = pytest.importorskip("networkx")
        rng = random.Random(70)
        for n in range(71):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                g = random_graph(rng, n, p)
                expected = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
                assert encode_graph6(g) == bitwise_encode_graph6(g) == expected
