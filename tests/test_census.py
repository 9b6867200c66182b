import random
import time
import types
from itertools import combinations
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmspec.census as census_mod
from harmspec.census import (
    REFERENCE_CUBIC10_HE,
    CensusRecord,
    _labeled_regular,
    _refine,
    cached_census,
    canonical_form,
    census_from_graphs,
    compare_reference_table,
    energy_classes,
    enumerate_regular,
    records_csv,
    spectra_diff_count,
    truncate3,
)
from harmspec.families import complete, complete_bipartite, cycle, petersen
from harmspec.graphs import (
    Graph,
    _bits,
    build_graph,
    complement,
    components,
    decode_graph6,
    degrees,
    disjoint_union,
    encode_graph6,
    read_graph6_file,
    relabel,
)
from harmspec.spectrum import Spectrum, error_bounds

from conftest import (
    brute_force_regular_classes,
    compress_colors,
    exhaustive_canonical_form,
    fresh_first_labeled_regular,
    graph_strategy,
    mp_harmonic_energy,
    random_graph,
    refine_colors,
    seed_colors,
    to_networkx,
)

GOLDEN_CUBIC12 = Path(__file__).parent / "data" / "census_12_3.g6"
CLOSE_ENERGIES = Path(__file__).parent / "data" / "census_close_energies.g6"


class TestEnumerate:
    def test_cubic_4(self):
        gs = enumerate_regular(4, 3)
        assert len(gs) == 1
        assert canonical_form(gs[0]) == canonical_form(complete(4))

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
        got = [to_networkx(g) for g in enumerate_regular(n, d)]
        assert len(got) == len(expected)
        for h in got:
            assert sum(nx.is_isomorphic(h, e) for e in expected) == 1

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


# The reference yields over 70,000 labelings at (10,5) and (10,6) and about
# 250,000 at (11,4); canonicalising them takes 10 to 30 s each.
SLOW_CLASS_SETS = {(10, 5), (10, 6), (11, 4)}

# Labeled graphs _labeled_regular yields, each of which a census
# canonicalises. A stronger pruning may lower these; none may raise them.
LABELED_COUNTS = {
    (8, 3): 9, (9, 4): 51, (10, 3): 52, (10, 4): 176,
    (10, 5): 334, (11, 4): 827, (12, 2): 10, (12, 3): 367,
}


class TestLabeledRegular:
    """The generator, twin-pruned and keeping only labelings whose vertices
    lead their twins, yields a subset of the labelings of the fresh-first
    reference in conftest, and reaches every isomorphism class the
    reference reaches."""

    @pytest.mark.parametrize(
        "n,d",
        [
            pytest.param(n, d, marks=pytest.mark.slow) if (n, d) in SLOW_CLASS_SETS else (n, d)
            for n, d in [(n, d) for n in range(1, 11) for d in range(n) if n * d % 2 == 0] + [(11, 4)]
        ],
    )
    def test_same_classes_as_reference(self, n, d):
        labeled = list(_labeled_regular(n, d))
        reference = set(fresh_first_labeled_regular(n, d))
        assert len(set(labeled)) == len(labeled)
        assert set(labeled) <= reference
        classes = {canonical_form(Graph(n, adj)) for adj in labeled}
        assert classes == {canonical_form(Graph(n, adj)) for adj in reference}

    @pytest.mark.parametrize("n,d", sorted(LABELED_COUNTS))
    def test_labeled_counts_never_rise(self, n, d):
        assert sum(1 for _ in _labeled_regular(n, d)) <= LABELED_COUNTS[n, d]


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


def _cells(colors: list[int]) -> list[int]:
    """The ordered partition of a colouring: cell c is the bitmask of the
    vertices of colour c."""
    cells = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    return cells


def _assert_refinement_matches_reference(g: Graph):
    """The bitmask refinement gives the reference colour order after the
    seed colouring and after every single-vertex individualization of the
    resulting equitable partition."""
    adj = g.adj
    colors = refine_colors(adj, seed_colors(adj))
    start = _cells(seed_colors(adj))
    cells = _refine(adj, start, start)
    assert cells == _cells(colors)
    for t, target in enumerate(cells):
        if not target & (target - 1):
            continue
        for v in _bits(target):
            split = [1 << v, target ^ 1 << v]
            got = _refine(adj, cells[:t] + split + cells[t + 1:], split)
            marked = compress_colors([2 * c + (u != v) for u, c in enumerate(colors)])
            assert got == _cells(refine_colors(adj, marked))


class TestRefinement:
    """``_refine`` reproduces the ordered partitions of the reference colour
    refinement in ``conftest.refine_colors``, so leaf codes and graph6
    representatives do not depend on which of the two computes them."""

    def test_seeded_random_graphs(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 12)
            _assert_refinement_matches_reference(
                random_graph(rng, n, rng.choice((0.15, 0.3, 0.5, 0.7, 0.85)))
            )

    @pytest.mark.parametrize("n,d", [(10, 3), (12, 3), (12, 4)])
    def test_labeled_regular_graphs(self, n, d):
        # Regular inputs start from few cells and refine through many rounds.
        for adj, _ in zip(fresh_first_labeled_regular(n, d), range(300)):
            _assert_refinement_matches_reference(Graph(n, adj))

    @given(graph_strategy(min_n=1, max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_graphs(self, g):
        _assert_refinement_matches_reference(g)


@st.composite
def unions_of_complete_graphs_and_cycles(draw, max_n: int = 9):
    """Relabeled disjoint unions of K2..K5 and C4..C6 (K3 = C3) on at most
    max_n vertices: highly symmetric inputs on which the unpruned
    reference search still finishes quickly."""
    parts = []
    room = max_n
    while room >= 2 and (not parts or draw(st.booleans())):
        if room >= 4 and draw(st.booleans()):
            part = cycle(draw(st.integers(min_value=4, max_value=min(room, 6))))
        else:
            part = complete(draw(st.integers(min_value=2, max_value=min(room, 5))))
        parts.append(part)
        room -= part.n
    g = disjoint_union(parts)
    return relabel(g, draw(st.permutations(range(g.n))))


class TestCanonicalReference:
    """The pruned search agrees byte for byte with the unpruned one."""

    @pytest.mark.parametrize("n,d", [(8, 3), (10, 3), (12, 2), (8, 7), (10, 2)])
    def test_labeled_regular_graphs(self, n, d):
        for adj in fresh_first_labeled_regular(n, d):
            g = Graph(n, adj)
            assert canonical_form(g) == exhaustive_canonical_form(g)

    @pytest.mark.parametrize(
        "g",
        [complete(8), complete_bipartite(4, 4), petersen()],
        ids=["K8", "K4,4", "petersen"],
    )
    def test_symmetric_graphs(self, g):
        assert canonical_form(g) == exhaustive_canonical_form(g)

    def test_random_graphs(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
            assert canonical_form(g) == exhaustive_canonical_form(g)

    @given(unions_of_complete_graphs_and_cycles())
    @settings(max_examples=40, deadline=None)
    def test_unions_of_complete_graphs_and_cycles(self, g):
        assert canonical_form(g) == exhaustive_canonical_form(g)


CANONICAL_12 = Path(__file__).parent / "data" / "canonical_12.txt"

SYMMETRIC_12 = {
    "K12": complete(12),
    "K6,6": complete_bipartite(6, 6),
    "C12": cycle(12),
    "co-C12": complement(cycle(12)),
    "2C6": disjoint_union([cycle(6)] * 2),
    "3C4": disjoint_union([cycle(4)] * 3),
    "4C3": disjoint_union([cycle(3)] * 4),
    "6K2": disjoint_union([complete(2)] * 6),
    "K12-6K2": complement(disjoint_union([complete(2)] * 6)),
}


# The nine 2-regular graphs on 12 vertices, unions of cycles, each under
# a fixed relabeling.
CYCLE_UNIONS_12 = {
    "+".join(f"C{k}" for k in parts): relabel(
        disjoint_union([cycle(k) for k in parts]), random.Random(len(parts)).sample(range(12), 12)
    )
    for parts in ((12,), (9, 3), (8, 4), (7, 5), (6, 6), (6, 3, 3), (5, 4, 3), (4, 4, 4), (3, 3, 3, 3))
}


class TestSymmetric12:
    """Highly symmetric graphs at the top of the supported range, checked
    against networkx isomorphism."""

    def test_keys_golden(self):
        # One "name graph6" line per graph, SYMMETRIC_12 then
        # CYCLE_UNIONS_12, as the search with union-find orbits made them.
        graphs = [*SYMMETRIC_12.items(), *CYCLE_UNIONS_12.items()]
        text = "".join(f"{name} {canonical_form(g)}\n" for name, g in graphs)
        assert text == CANONICAL_12.read_text()

    def test_complete12_refinements(self, monkeypatch):
        # The automorphisms cut K12's search tree to 78 refinements.
        refine = census_mod._refine
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return refine(*args)

        monkeypatch.setattr(census_mod, "_refine", counted)
        canonical_form(complete(12))
        assert calls == 78

    @pytest.mark.parametrize("name", SYMMETRIC_12)
    def test_key_invariant_under_relabeling(self, name):
        g = SYMMETRIC_12[name]
        key = canonical_form(g)
        rng = random.Random(12)
        for _ in range(5):
            perm = list(range(12))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == key

    def test_keys_equal_exactly_when_isomorphic(self):
        rng = random.Random(12)
        graphs = []
        for g in SYMMETRIC_12.values():
            perm = list(range(12))
            rng.shuffle(perm)
            graphs += [g, relabel(g, perm)]
        keys = [canonical_form(g) for g in graphs]
        nxg = [to_networkx(g) for g in graphs]
        for i, j in combinations(range(len(graphs)), 2):
            assert (keys[i] == keys[j]) == nx.is_isomorphic(nxg[i], nxg[j])


def _timed_census_count(n: int, d: int) -> tuple[int, float]:
    start = time.perf_counter()
    count = len(enumerate_regular(n, d))
    return count, time.perf_counter() - start


class TestCensus12:
    """n = 12 censuses finish within stated wall-time bounds. The bounds
    leave a wide margin over the measured times (2-core VM, Python 3.11):
    under 0.01 s for (12,11), (12,10) and (12,2), about 0.2 s for (12,3)
    and (12,8), and, marked slow, about 9 s for (12,4) and 70-110 s each for
    (12,5) and (12,6)."""

    @pytest.mark.parametrize("d,classes", [(11, 1), (2, 9), (10, 1)])
    def test_fast_degrees(self, d, classes):
        # The only 10-regular graph on 12 vertices is K12 minus a perfect matching.
        count, elapsed = _timed_census_count(12, d)
        assert count == classes
        assert elapsed < 5.0

    def test_cubic12_count(self):
        # OEIS A005638: 94 cubic graphs on 12 vertices, 85 of them connected.
        count, elapsed = _timed_census_count(12, 3)
        assert count == 94
        assert elapsed < 20.0

    def test_cubic12_representatives_golden(self):
        # The file holds the 94 representatives as the colour-list
        # refinement produced them, one graph6 line each; the unpruned
        # reference search cannot reach n = 12 in the default run.
        text = "".join(encode_graph6(g) + "\n" for g in enumerate_regular(12, 3))
        assert text == GOLDEN_CUBIC12.read_text()

    @pytest.mark.slow
    def test_quartic12_count(self):
        # OEIS A006820: 1544 connected quartic graphs on 12 vertices. The 3
        # disconnected ones are K5 with each of the 2 quartic graphs on 7
        # vertices, and two octahedra.
        start = time.perf_counter()
        graphs = enumerate_regular(12, 4)
        assert time.perf_counter() - start < 60.0
        assert len(graphs) == 1547
        assert sum(1 for g in graphs if len(components(g)) > 1) == 3
        # Six pairs of distinct energies 1.35e-7 to 9.66e-7 apart stand
        # alone, and no class chains members whose energies differ by
        # more than the sum of their bounds.
        records, classes = census_from_graphs(graphs)
        assert len(classes) == 1344
        for c in classes:
            for i, j in combinations(c.members, 2):
                a, b = records[i - 1], records[j - 1]
                assert abs(a.he - b.he) <= error_bounds(a.spectrum)[1] + error_bounds(b.spectrum)[1]

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "d, count, disconnected, energy_classes", [(5, 7849, 1, 6257), (6, 7849, 0, 6261)]
    )
    def test_degrees_5_and_6(self, d, count, disconnected, energy_classes):
        # OEIS A006821: 7,848 connected quintic graphs on 12 vertices; the
        # disconnected one is two copies of K6. The sextic graphs are their
        # complements, all connected.
        start = time.perf_counter()
        records, classes = census_from_graphs(enumerate_regular(12, d))
        assert time.perf_counter() - start < 150.0
        assert len(records) == count
        assert sum(not r.connected for r in records) == disconnected
        assert len(classes) == energy_classes


def _assert_distinct_regular_classes(graphs, d):
    assert all(x == d for g in graphs for x in degrees(g))
    # Two graphs are isomorphic exactly when their complements are, and
    # networkx decides that far faster on the sparse complements.
    # Graphs whose closed-walk counts differ are not isomorphic, so only
    # pairs with equal counts need networkx.
    sparse = [nx.complement(to_networkx(g)) for g in graphs]
    walks = [_closed_walk_counts(h) for h in sparse]
    for (a, wa), (b, wb) in combinations(zip(sparse, walks), 2):
        assert wa != wb or not nx.is_isomorphic(a, b)


def _closed_walk_counts(h) -> tuple[int, ...]:
    """trace(A^k) for k = 1..n, exact in int64 for n <= 12."""
    a = nx.to_numpy_array(h, nodelist=sorted(h), dtype=np.int64)
    power = np.eye(len(a), dtype=np.int64)
    counts = []
    for _ in range(len(a)):
        power = power @ a
        counts.append(int(power.trace()))
    return tuple(counts)


class TestComplementCensus:
    """Degrees above (n-1)/2 are enumerated through the complements of the
    lower degree: same classes, same representatives."""

    @pytest.mark.parametrize(
        "n,d,classes", [(10, 6, 21), (10, 7, 5), (11, 8, 6), (12, 9, 9)]
    )
    def test_class_counts(self, n, d, classes):
        graphs = enumerate_regular(n, d)
        assert len(graphs) == classes
        _assert_distinct_regular_classes(graphs, d)

    def test_degree8_on_12_vertices(self):
        # The complements of the 94 cubic graphs on 12 vertices.
        start = time.perf_counter()
        graphs = enumerate_regular(12, 8)
        assert time.perf_counter() - start < 20.0
        assert len(graphs) == 94
        _assert_distinct_regular_classes(graphs, 8)

    @pytest.mark.parametrize("n,d", [(8, 4), (8, 5), (9, 6)])
    def test_same_output_as_direct_enumeration(self, n, d):
        keys = sorted({canonical_form(Graph(n, adj)) for adj in fresh_first_labeled_regular(n, d)})
        assert [encode_graph6(g) for g in enumerate_regular(n, d)] == keys


class TestCensus:
    def test_module_is_not_shadowed(self):
        # No function of the package is named census, so the dotted import
        # binds the module.
        assert isinstance(census_mod, types.ModuleType)
        assert census_mod._refine is _refine

    def test_cubic6_records(self):
        records, classes = cached_census(6, 3)
        assert len(records) == 2
        values = sorted(r.he for r in records)
        # K_{3,3} has adjacency energy 6, the prism 8; HE = E/3.
        assert abs(values[0] - 2.0) < 1e-9
        assert abs(values[1] - 8.0 / 3.0) < 1e-9
        assert all(len(c.members) == 1 for c in classes)

    def test_cubic4_single_class(self):
        records, classes = cached_census(4, 3)
        assert len(records) == 1
        assert abs(records[0].he - 2.0) < 1e-9
        assert classes[0].members == (1,)

    def test_records_consistent(self):
        records, _ = cached_census(8, 3)
        for r in records:
            assert abs(sum(abs(x) for x in r.spectrum.eigenvalues) - r.he) < 1e-12
            assert r.index >= 1

    def test_from_graphs_matches_enumeration(self):
        gs = enumerate_regular(6, 3)
        direct = cached_census(6, 3)
        via_list = census_from_graphs(gs)
        assert [r.he for r in direct[0]] == [r.he for r in via_list[0]]

    def test_from_file_roundtrip(self, tmp_path):
        gs = enumerate_regular(6, 3)
        path = tmp_path / "c6.g6"
        path.write_text("".join(encode_graph6(g) + "\n" for g in gs))
        from harmspec.graphs import read_graph6_file

        records, _ = census_from_graphs(read_graph6_file(str(path)))
        assert [r.graph6 for r in records] == [encode_graph6(g) for g in gs]

    def test_mixed_orders_share_a_class(self):
        # K3 and K3 + K1 both have HE = 2; only the pair of equal order
        # gets an eigenvalue comparison.
        k3 = complete(3)
        _, classes = census_from_graphs([k3, disjoint_union([k3, build_graph(1, [])]), k3])
        assert [c.members for c in classes] == [(1, 2, 3)]
        assert classes[0].eigen_diffs == ((1, 3, 0),)

    def test_csv_output(self):
        records, _ = cached_census(6, 3)
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


def _synthetic(index: int, he: float, off_norm: float) -> CensusRecord:
    # A spectrum (he/2, -he/2) after 3 sweeps, whose bounds off_norm sets.
    return CensusRecord(index, "A?", False, he, Spectrum((he / 2, -he / 2), off_norm, 3))


class TestEnergyClasses:
    @staticmethod
    def _chain(scale: float) -> list[CensusRecord]:
        """Records whose neighbouring energies differ by ``scale`` times the
        sum of the two energy bounds, with bounds that differ per record."""
        records = [_synthetic(1, 1.0, 1e-9)]
        for index, off_norm in enumerate((3e-9, 1e-10, 2e-9, 5e-11), start=2):
            last = records[-1]
            step = error_bounds(last.spectrum)[1] + error_bounds(_synthetic(0, last.he, off_norm).spectrum)[1]
            records.append(_synthetic(index, last.he + scale * step, off_norm))
        return records

    def test_chain_just_above_bounds_does_not_join(self):
        # Every gap is under 1e-8, and each is 0.1% over the sum of its
        # neighbours' bounds.
        records = self._chain(1.001)
        assert all(b.he - a.he < 1e-8 for a, b in zip(records, records[1:]))
        assert [c.members for c in energy_classes(records)] == [(i,) for i in range(1, 6)]

    def test_chain_within_bounds_joins(self):
        classes = energy_classes(self._chain(0.999))
        assert [c.members for c in classes] == [(1, 2, 3, 4, 5)]

    def test_close_energies_file(self):
        # Records 1-12 are the pairs 183/599, 414/901, 467/909, 628/1157,
        # 299/722 and 351/853 of census(12,4), whose energies differ by
        # 1.35e-7 to 9.66e-7; records 13-18 are 306, 324, 326, 1293, 1308
        # and 1351 of census(12,7), where 306 and 1293 lie 4.97e-7 and
        # 4.5e-9 from their neighbours. Only the ties of the 40-digit
        # energies form classes.
        graphs = read_graph6_file(str(CLOSE_ENERGIES))
        he = [mp_harmonic_energy(g, 40) for g in graphs]
        ties = [(i + 1, j + 1) for i, j in combinations(range(len(he)), 2) if abs(he[i] - he[j]) < 1e-30]
        assert ties == [(14, 15), (17, 18)]
        _, classes = census_from_graphs(graphs)
        assert len(classes) == 16
        assert sorted(c.members for c in classes if len(c.members) > 1) == ties


class TestSpectraDiff:
    def test_identical(self):
        assert spectra_diff_count([1.0, 0.5, -1.5], [1.0, 0.5, -1.5], 0.0) == 0

    def test_three_different(self):
        a = [1.0, 0.5, 0.5, -2.0]
        b = [1.0, 0.4, 0.6, -2.1]
        assert spectra_diff_count(a, b, 1e-12) == 3

    def test_tolerance(self):
        # Two eigenvalues match when they differ by at most the tolerance
        # given; there is no default.
        assert spectra_diff_count([1.0], [1.0 + 2.0**-30], 2.0**-30) == 0
        assert spectra_diff_count([1.0], [1.0 + 2.0**-30], 2.0**-31) == 1
        assert spectra_diff_count([1.0], [1.001], 1e-8) == 1
        with pytest.raises(TypeError):
            spectra_diff_count([1.0], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectra_diff_count([1.0], [1.0, 2.0], 0.0)


class TestReferenceTable:
    def test_wrong_count_rejected(self):
        records, _ = cached_census(6, 3)
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
