import dataclasses
import functools
import json

import pytest

from harmspec import audit, spectrum
from harmspec.audit import (
    CLAIMS,
    EXACT_MATCH,
    MISMATCH,
    NUMERIC_MATCH,
    audit_all,
    audit_claim,
    baseline_from_results,
    compare_to_baseline,
    load_baseline,
    results_csv,
    results_json,
    results_table,
    write_baseline,
)
from harmspec.graphs import encode_graph6

FAST_CLAIMS = [
    "thm-complete-charpoly",
    "thm-complete-energy",
    "thm-cycle-charpoly",
    "thm-star-charpoly",
    "thm-star-energy",
]


def test_complete_energy_example():
    r = audit_claim("thm-complete-energy", n=7)
    assert r.verdict == NUMERIC_MATCH
    assert abs(r.evidence["claimed"] - 2.0) < 1e-15
    assert r.evidence["delta"] < 1e-9


def test_cycle_charpoly_example():
    r = audit_claim("thm-cycle-charpoly", n=3)
    assert r.verdict == EXACT_MATCH
    assert r.evidence["residual_is_zero"]


def test_path_variants_disagree():
    statement = audit_claim("thm-path-statement", n=6)
    proof = audit_claim("thm-path-proof", n=6)
    assert statement.verdict == MISMATCH
    assert proof.verdict == EXACT_MATCH


def test_friendship_energy_mismatch_with_eigensum_evidence():
    r = audit_claim("thm-friendship-energy", n=2)
    assert r.verdict == MISMATCH
    # The theorem's claimed value n is off, but the eigenvalues its own
    # proof lists sum to the numeric oracle.
    assert r.evidence["delta"] > 0.5
    assert r.evidence["proof_eigenvalue_sum_delta"] < 1e-9


def test_windmill_product_only_holds_for_one_blade():
    assert audit_claim("thm-windmill-product-charpoly", m=5, n=1).verdict == EXACT_MATCH
    assert audit_claim("thm-windmill-product-charpoly", m=5, n=2).verdict == MISMATCH


def test_windmill5_bound_equality_at_one_blade():
    r = audit_claim("thm-windmill5-energy-bound", n=1)
    assert r.verdict == NUMERIC_MATCH
    assert abs(r.evidence["margin"]) < 1e-9


def test_margin_text_has_no_negative_zero():
    r = audit_claim("thm-windmill5-energy-bound", n=1)
    noisy = [dataclasses.replace(r, evidence={**r.evidence, "margin": m}) for m in (-1e-17, 1e-17)]
    lines = results_table(noisy).splitlines()[1:]
    assert [line.split()[-1] for line in lines] == ["0.000000", "0.000000"]


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim id"):
        audit_claim("thm-does-not-exist", n=1)
    with pytest.raises(ValueError, match="unknown claim id"):
        audit_all(["thm-does-not-exist"])
    with pytest.raises(ValueError, match=r"takes parameters \(n\)"):
        audit_claim("thm-complete-energy", n=7, m=3)
    with pytest.raises(ValueError, match=r"takes parameters \(n\)"):
        audit_claim("thm-cycle-charpoly")


def test_every_claim_has_grid_and_kind():
    kinds = {"exact-polynomial", "numeric-energy", "inequality", "census-structure"}
    for claim in CLAIMS.values():
        assert claim.kind in kinds
        assert len(claim.grid) >= 1


def test_registry_covers_every_theorem_part():
    expected = {
        # Section 2 theorem parts.
        "thm-path-statement",
        "thm-path-proof",
        "thm-cycle-charpoly",
        "thm-star-charpoly",
        "thm-star-energy",
        "thm-complete-charpoly",
        "thm-complete-energy",
        "thm-bipartite-charpoly",
        "thm-bipartite-energy",
        "thm-friendship-charpoly",
        "thm-friendship-energy",
        "thm-windmill-product-charpoly",
        "thm-windmill4-charpoly",
        "thm-windmill4-energy",
        "thm-windmill5-charpoly",
        "thm-windmill5-energy-bound",
        "thm-book-charpoly",
        "thm-book-energy",
        # Section 3: union lemma, census structure, Petersen.
        "lemma-union-charpoly-product",
        "lemma-union-energy-sum",
        "thm-cubic10-he-classes",
        "thm-cubic10-eigdiff",
        "thm-petersen-charpoly",
        "thm-petersen-energy",
        "thm-petersen-not-unique",
        "thm-petersen-max-energy",
        "reference-table-multiset",
    }
    assert expected == set(CLAIMS)


def test_gating_claims_match_on_full_grids():
    # These claims follow from independently checkable linear algebra and
    # must hold everywhere on their default grids.
    gating = [
        "thm-complete-charpoly",
        "thm-complete-energy",
        "thm-star-charpoly",
        "thm-star-energy",
        "thm-bipartite-charpoly",
        "thm-bipartite-energy",
        "thm-cycle-charpoly",
        "thm-petersen-charpoly",
        "thm-petersen-energy",
    ]
    for r in audit_all(gating):
        assert r.verdict in (EXACT_MATCH, NUMERIC_MATCH), f"{r.key}: {r.verdict}"


def test_audit_all_deterministic_on_fast_claims():
    a = audit_all(FAST_CLAIMS)
    b = audit_all(FAST_CLAIMS)
    assert [(r.key, r.verdict) for r in a] == [(r.key, r.verdict) for r in b]
    # Exact claims are bit-identical, evidence included.
    assert [r.evidence for r in a] == [r.evidence for r in b]


def test_every_result_has_evidence():
    for r in audit_all(FAST_CLAIMS):
        assert r.evidence
        if r.verdict == EXACT_MATCH:
            assert r.evidence["residual_is_zero"]


def test_baseline_roundtrip(tmp_path):
    results = audit_all(FAST_CLAIMS)
    path = tmp_path / "baseline.json"
    write_baseline(str(path), results)
    baseline = load_baseline(str(path))
    assert compare_to_baseline(results, baseline) == []


def test_baseline_drift_detected(tmp_path):
    results = audit_all(["thm-complete-energy"])
    baseline = baseline_from_results(results)
    key = results[0].key
    baseline["verdicts"][key] = "MISMATCH"
    drift = compare_to_baseline(results, baseline)
    assert any(key in line for line in drift)
    # Missing and extra keys are both drift.
    baseline["verdicts"]["ghost-claim|n=1"] = "EXACT-MATCH"
    drift = compare_to_baseline(results, baseline)
    assert any("ghost-claim" in line for line in drift)


def test_renderings():
    results = audit_all(["thm-complete-energy"])
    table = results_table(results)
    assert "thm-complete-energy" in table
    payload = results_json(results)
    assert payload["results"][0]["claim"] == "thm-complete-energy"
    json.dumps(payload)  # must be serializable
    csv_text = results_csv(results)
    assert csv_text.splitlines()[0] == "claim,params,verdict,evidence"


@pytest.fixture
def solves(monkeypatch):
    """The inputs of every spectrum and every exact CP call the audit makes:
    the graph6 of each graph given to harmonic_energies as audit reaches it
    (the census keeps its own reference), the orders of each Jacobi stack
    that call solves, and the graph6 of each graph given to
    graph_char_polys."""
    calls = {"spectra": [], "stacks": [], "charpolys": []}
    energies, polys = audit.harmonic_energies, audit.graph_char_polys
    solve_stack = spectrum.jacobi_eigenvalues_stack

    def spy_stack(stack, *args, **kwargs):
        calls["stacks"].append([len(a) for a in stack])
        return solve_stack(stack, *args, **kwargs)

    def spy_energies(graphs, *args, **kwargs):
        calls["spectra"].append([encode_graph6(g) for g in graphs])
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "jacobi_eigenvalues_stack", spy_stack)
            return energies(graphs, *args, **kwargs)

    def spy_polys(graphs):
        graphs = list(graphs)
        calls["charpolys"].append([encode_graph6(g) for g in graphs])
        return polys(graphs)

    monkeypatch.setattr(audit, "harmonic_energies", spy_energies)
    monkeypatch.setattr(audit, "graph_char_polys", spy_polys)
    return calls


def test_audit_all_solves_each_distinct_graph_once(solves):
    audit_all()
    (spectra,) = solves["spectra"]
    (charpolys,) = solves["charpolys"]
    assert len(spectra) == len(set(spectra)) == 77
    assert len(charpolys) == len(set(charpolys)) == 94
    # Sorted by order and cut by spectrum.order_batches: 74 graphs of
    # orders 2 to 17 fit 16 * 40^2 padded entries, then orders 19, 21, 25.
    first, second = solves["stacks"]
    assert len(first) == 74 and (first[0], first[-1]) == (2, 17) and first == sorted(first)
    assert second == [19, 21, 25]


@pytest.mark.parametrize("unknown", ["no-such-claim", "zz-no-such-claim"])
def test_unknown_claim_rejected_before_any_solve(solves, unknown):
    with pytest.raises(ValueError, match=unknown):
        audit_all(["thm-star-energy", unknown])
    assert solves == {"spectra": [], "stacks": [], "charpolys": []}


@pytest.mark.parametrize(
    "claim_id", [c.id for c in CLAIMS.values() if c.kind != "census-structure"]
)
def test_audit_claim_matches_batch(claim_id):
    batch = audit_all([claim_id])
    single = [audit_claim(claim_id, **dict(point)) for point in CLAIMS[claim_id].grid]
    assert single == batch


@pytest.mark.parametrize("shift", [1e-9, -1e-9])
def test_energy_shifted_by_1e9_mismatches(monkeypatch, shift):
    # Each energy row's claimed value, moved by 1e-9 wherever it matched,
    # lies outside the solver's error bound, which is below 2e-11 on these
    # graphs; a fixed 1e-8 tolerance would accept it.
    rows = [c for c in CLAIMS.values() if c.kind == "numeric-energy" and isinstance(c.check, functools.partial)]
    assert len(rows) == 6
    matched = {r.key for r in audit_all(c.id for c in rows) if r.verdict == NUMERIC_MATCH}
    assert len(matched) == 66
    for claim in rows:
        case = claim.check.args[0]
        shifted = lambda case=case, **p: (case(**p)[0] + shift, case(**p)[1])  # noqa: E731
        monkeypatch.setitem(CLAIMS, claim.id, audit._row(claim.id, claim.kind, claim.description, claim.grid, shifted))
    results = [r for r in audit_all(c.id for c in rows) if r.key in matched]
    assert len(results) == 66
    assert {r.verdict for r in results} == {MISMATCH}
