"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them)."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from harmspec.audit import CLAIMS, audit_all, compare_to_baseline, default_baseline
from harmspec.census import (
    canonical_form,
    census_from_graphs,
    compare_reference_table,
    enumerate_regular,
    truncate3,
)
from harmspec.charpoly import (
    RatPoly,
    closed_form_complete,
    closed_form_complete_bipartite,
    closed_form_cycle,
    closed_form_friendship,
    closed_form_path_proof,
    closed_form_star,
    closed_form_windmill4,
    graph_char_poly,
)
from harmspec.families import (
    complete,
    complete_bipartite,
    cycle,
    dutch_windmill,
    friendship,
    path,
    petersen,
    star,
)
from harmspec.graphs import components, decode_graph6, degrees, disjoint_union, relabel
from harmspec.harmonic import harmonic_matrix
from harmspec.spectrum import eigenvalues_symmetric, harmonic_energy

from conftest import random_graph


def _report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_complete_energy():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 13):
        delta = abs(harmonic_energy(complete(n)).he - 2.0)
        worst = max(worst, delta)
        assert delta < 1e-9, f"HE(K_{n}) off by {delta}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _report(1, f"HE(K_n)=2 for n=2..12, worst delta {worst:.2e}, {elapsed * 1000:.0f}ms")


def test_criterion_2_star_energy():
    worst = 0.0
    for n in range(2, 13):
        expected = 4.0 * math.sqrt(n - 1) / n
        delta = abs(harmonic_energy(star(n)).he - expected)
        worst = max(worst, delta)
        assert delta < 1e-9, f"HE(S_{n}) off by {delta}"
    _report(2, f"HE(S_n)=4*sqrt(n-1)/n for n=2..12, worst delta {worst:.2e}")


def test_criterion_3_bipartite_energy():
    worst = 0.0
    count = 0
    for m in range(1, 12):
        for n in range(m, 12):
            if m + n > 12:
                continue
            expected = 4.0 * math.sqrt(m * n) / (m + n)
            delta = abs(harmonic_energy(complete_bipartite(m, n)).he - expected)
            worst = max(worst, delta)
            count += 1
            assert delta < 1e-9, f"HE(K_{m},{n}) off by {delta}"
    _report(3, f"HE(K_mn)=4*sqrt(mn)/(m+n) on {count} pairs, worst delta {worst:.2e}")


def test_criterion_4_petersen():
    x = RatPoly.x()
    expected = (x - 1) * (x + Fraction(2, 3)) ** 4 * (x - Fraction(1, 3)) ** 5
    residual = graph_char_poly(petersen()) - expected
    assert residual.is_zero
    he = harmonic_energy(petersen()).he
    assert abs(he - 16.0 / 3.0) < 1e-9
    assert f"{truncate3(he):.3f}" == "5.333"
    _report(4, f"Petersen charpoly residual 0, HE={he:.12f}, display 5.333")


@pytest.fixture(scope="module")
def census10_timed():
    t0 = time.perf_counter()
    result = census_from_graphs(enumerate_regular(10, 3))
    return result, time.perf_counter() - t0


def test_criterion_5_census_counts(census10_timed):
    (records10, _), elapsed = census10_timed
    counts = {}
    for n, d in [(4, 3), (6, 3), (8, 3)]:
        graphs = enumerate_regular(n, d)
        connected = sum(1 for g in graphs if len(components(g)) <= 1)
        counts[(n, d)] = (len(graphs), connected)
    assert counts[(4, 3)] == (1, 1)
    assert counts[(6, 3)] == (2, 2)
    assert counts[(8, 3)] == (6, 5)
    connected10 = sum(1 for r in records10 if r.connected)
    assert len(records10) == 21
    assert connected10 == 19
    assert elapsed < 300.0, f"(10,3) census took {elapsed:.1f}s, budget 300s"
    _report(5, f"counts 1/2/6(5)/21(19); (10,3) census in {elapsed:.2f}s")


def test_criterion_6_reference_table(census10_timed):
    (records, classes), _ = census10_timed
    comparison = compare_reference_table(records)
    assert comparison.match_count >= 20, (
        f"only {comparison.match_count}/21 reference entries matched"
    )
    pair_classes = [c for c in classes if len(c.members) == 2]
    singleton_classes = [c for c in classes if len(c.members) == 1]
    assert len(pair_classes) == 3
    assert len(singleton_classes) == 15
    assert len(classes) == 18
    _report(
        6,
        f"reference multiset {comparison.match_count}/21 matched; "
        f"3 pair classes + 15 singletons",
    )


def test_criterion_7_max_class_is_petersen(census10_timed):
    (records, classes), _ = census10_timed
    top = max(classes, key=lambda c: c.he)
    assert abs(top.he - 16.0 / 3.0) < 1e-9
    assert len(top.members) == 2
    pet_key = canonical_form(petersen())
    member_keys = {records[i - 1].graph6 for i in top.members}
    assert pet_key in member_keys
    _report(7, f"max class HE={top.he:.12f}, size 2, contains the Petersen graph")


def test_criterion_8_closed_form_equivalence():
    checks = 0

    def exact(claimed, g):
        nonlocal checks
        assert (claimed - graph_char_poly(g)).is_zero
        checks += 1

    for n in range(3, 13):
        exact(closed_form_cycle(n), cycle(n))
    for n in range(2, 13):
        exact(closed_form_star(n), star(n))
        exact(closed_form_complete(n), complete(n))
    for m in range(1, 12):
        for n in range(m, 12):
            if m + n <= 12:
                exact(closed_form_complete_bipartite(m, n), complete_bipartite(m, n))
    for n in range(1, 7):
        exact(closed_form_friendship(n), friendship(n))
        exact(closed_form_windmill4(n), dutch_windmill(4, n))
    for n in range(4, 13):
        exact(closed_form_path_proof(n), path(n))
    _report(8, f"{checks} closed-form identities hold with zero residual")


def test_criterion_9_property_suite(census10_timed):
    rng = random.Random(20260811)

    # Trace and Frobenius identities on random graphs.
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 10))
        spec = eigenvalues_symmetric(harmonic_matrix(g))
        assert abs(sum(spec.eigenvalues)) < 1e-10 * max(g.n, 1)
        deg = degrees(g)
        exact_sq = 2 * sum(Fraction(2, deg[u] + deg[v]) ** 2 for u, v in g.edges())
        assert abs(sum(x * x for x in spec.eigenvalues) - float(exact_sq)) < 1e-9

    # Relabeling invariance.
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert abs(harmonic_energy(g).he - harmonic_energy(relabel(g, perm)).he) < 1e-10

    # Disjoint union lemma on 50 random pairs with n <= 8.
    for _ in range(50):
        a = random_graph(rng, rng.randint(1, 8))
        b = random_graph(rng, rng.randint(1, 8))
        u = disjoint_union([a, b])
        assert (graph_char_poly(u) - graph_char_poly(a) * graph_char_poly(b)).is_zero
        assert abs(harmonic_energy(u).he - harmonic_energy(a).he - harmonic_energy(b).he) < 1e-9

    # On every census graph HE = E/d, the adjacency energy over the degree.
    regular_checked = 0
    (records10, _), _ = census10_timed
    census_graphs = [decode_graph6(r.graph6) for r in records10]
    for n, d in [(4, 3), (6, 3), (8, 3)]:
        census_graphs.extend(enumerate_regular(n, d))
    for g in census_graphs:
        deg = degrees(g)[0]
        a = np.array([[g.adj[i] >> j & 1 for j in range(g.n)] for i in range(g.n)], dtype=float)
        delta = abs(np.abs(np.linalg.eigvalsh(a)).sum() / deg - harmonic_energy(g).he)
        assert delta < 1e-9
        regular_checked += 1
    _report(
        9,
        f"trace/Frobenius/relabeling hold; union lemma on 50 pairs; "
        f"HE = E/d on {regular_checked} census graphs",
    )


def test_criterion_10_audit_stability():
    first = audit_all()
    second = audit_all()

    # Every registered claim produced evidence-backed verdicts.
    produced = {r.claim_id for r in first}
    assert produced == set(CLAIMS)
    assert all(r.evidence for r in first)

    # Deterministic across consecutive runs; exact claims bit-identical.
    assert [(r.key, r.verdict) for r in first] == [(r.key, r.verdict) for r in second]
    for a, b in zip(first, second):
        if CLAIMS[a.claim_id].kind == "exact-polynomial":
            assert a.evidence == b.evidence

    # No drift against the committed baseline.
    drift = compare_to_baseline(first, default_baseline())
    assert drift == [], f"baseline drift: {drift[:5]}"

    verdicts = {}
    for r in first:
        verdicts.setdefault(r.verdict, 0)
        verdicts[r.verdict] += 1
    _report(
        10,
        f"{len(first)} audited points over {len(CLAIMS)} claims, stable twice, "
        f"no baseline drift; verdict counts {verdicts}",
    )
