import random

import pytest

from harmspec.census import (
    REFERENCE_CUBIC10_HE,
    canonical_form,
    census,
    census_from_graphs,
    compare_reference_table,
    enumerate_regular,
    isomorphic,
    records_csv,
    spectra_diff_count,
    truncate3,
)
from harmspec.families import complete, complete_bipartite, cycle, petersen
from harmspec.graphs import build_graph, decode_graph6, degrees, encode_graph6, relabel

from conftest import brute_force_regular_classes, random_graph


class TestEnumerate:
    def test_cubic_4(self):
        gs = enumerate_regular(4, 3)
        assert len(gs) == 1
        assert isomorphic(gs[0], complete(4))

    def test_cubic_6(self):
        gs = enumerate_regular(6, 3)
        assert len(gs) == 2
        keys = {canonical_form(g) for g in gs}
        assert canonical_form(complete_bipartite(3, 3)) in keys
        prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        assert canonical_form(prism) in keys

    def test_cubic_8(self):
        gs = enumerate_regular(8, 3)
        assert len(gs) == 6
        from harmspec.graphs import components

        assert sum(1 for g in gs if len(components(g)) <= 1) == 5

    @pytest.mark.parametrize(
        "n,d",
        [(4, 3), (6, 3), (4, 2), (5, 2), (6, 2), (7, 2), (4, 1), (6, 1), (5, 0)],
    )
    def test_against_brute_force_oracle(self, n, d):
        expected = brute_force_regular_classes(n, d)
        got = {canonical_form(g) for g in enumerate_regular(n, d)}
        assert got == expected

    def test_every_graph_is_regular_and_canonical(self):
        for n, d in [(6, 3), (8, 3), (7, 2)]:
            for g in enumerate_regular(n, d):
                assert set(degrees(g)) == {d}
                assert canonical_form(g) == encode_graph6(g)

    def test_sorted_output(self):
        keys = [encode_graph6(g) for g in enumerate_regular(8, 3)]
        assert keys == sorted(keys)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="even"):
            enumerate_regular(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            enumerate_regular(4, 4)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="up to n = 12"):
            enumerate_regular(14, 3)

    def test_zero_degree(self):
        gs = enumerate_regular(5, 0)
        assert len(gs) == 1
        assert gs[0].edge_count == 0


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(3)
        base = petersen()
        expected = canonical_form(base)
        for _ in range(8):
            perm = list(range(10))
            rng.shuffle(perm)
            assert canonical_form(relabel(base, perm)) == expected

    def test_random_graphs_invariant(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_distinguishes_non_isomorphic(self):
        prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
        assert canonical_form(prism) != canonical_form(complete_bipartite(3, 3))

    def test_idempotent(self):
        g = petersen()
        once = canonical_form(g)
        assert canonical_form(decode_graph6(once)) == once

    def test_empty_graph(self):
        assert canonical_form(build_graph(0, [])) == "?"

    def test_size_limit(self):
        with pytest.raises(ValueError, match="up to n = 12"):
            canonical_form(build_graph(13, []))


class TestCensus:
    def test_cubic6_records(self):
        records, classes = census(6, 3)
        assert len(records) == 2
        values = sorted(r.he for r in records)
        # K_{3,3} has adjacency energy 6, the prism 8; HE = E/3.
        assert abs(values[0] - 2.0) < 1e-9
        assert abs(values[1] - 8.0 / 3.0) < 1e-9
        assert all(len(c.members) == 1 for c in classes)

    def test_cubic4_single_class(self):
        records, classes = census(4, 3)
        assert len(records) == 1
        assert abs(records[0].he - 2.0) < 1e-9
        assert classes[0].members == (1,)

    def test_records_consistent(self):
        records, _ = census(8, 3)
        for r in records:
            assert abs(sum(abs(x) for x in r.spectrum) - r.he) < 1e-12
            assert r.index >= 1

    def test_from_graphs_matches_enumeration(self):
        gs = enumerate_regular(6, 3)
        direct = census(6, 3)
        via_list = census_from_graphs(gs)
        assert [r.he for r in direct[0]] == [r.he for r in via_list[0]]

    def test_from_file_roundtrip(self, tmp_path):
        gs = enumerate_regular(6, 3)
        path = tmp_path / "c6.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in gs))
        from harmspec.graphs import read_graph6_file

        records, _ = census_from_graphs(read_graph6_file(str(path)))
        assert [r.graph6 for r in records] == [encode_graph6(g) for g in gs]

    def test_csv_output(self):
        records, _ = census(6, 3)
        text = records_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == "index,graph6,connected,he,spectrum"
        assert len(lines) == 3


class TestCubic10Structure:
    def test_disconnected_members(self, cubic10):
        from harmspec.graphs import disjoint_union

        records, _ = cubic10
        disconnected = {r.graph6 for r in records if not r.connected}
        prism = build_graph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        expected = {
            canonical_form(disjoint_union([complete(4), complete_bipartite(3, 3)])),
            canonical_form(disjoint_union([complete(4), prism])),
        }
        assert disconnected == expected

    def test_count_locked(self, cubic10):
        records, _ = cubic10
        assert len(records) == 21
        assert sum(1 for r in records if r.connected) == 19


class TestSpectraDiff:
    def test_identical(self):
        assert spectra_diff_count([1.0, 0.5, -1.5], [1.0, 0.5, -1.5]) == 0

    def test_three_different(self):
        a = [1.0, 0.5, 0.5, -2.0]
        b = [1.0, 0.4, 0.6, -2.1]
        assert spectra_diff_count(a, b) == 3

    def test_tolerance(self):
        assert spectra_diff_count([1.0], [1.0 + 1e-10]) == 0
        assert spectra_diff_count([1.0], [1.001]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectra_diff_count([1.0], [1.0, 2.0])


class TestReferenceTable:
    def test_wrong_count_rejected(self):
        records, _ = census(6, 3)
        with pytest.raises(ValueError, match="expected 21"):
            compare_reference_table(records)

    def test_truncation_rule(self):
        assert truncate3(16.0 / 3.0) == 5.333
        assert truncate3(4.6666666) == 4.666
        assert truncate3(3.9999999) == 3.999

    def test_reference_multiset_shape(self):
        assert len(REFERENCE_CUBIC10_HE) == 21
        assert REFERENCE_CUBIC10_HE.count(5.333) == 2
        assert REFERENCE_CUBIC10_HE.count(5.041) == 2
        assert REFERENCE_CUBIC10_HE.count(4.666) == 2
