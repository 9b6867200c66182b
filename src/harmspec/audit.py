"""Audit every registered quantitative claim about harmonic spectra of the
named graph families against the exact and numeric oracles, and compare the
verdicts against a frozen baseline.

Claim kinds:
  exact-polynomial  the claimed closed form minus the exact characteristic
                    polynomial of the constructed graph must be identically
                    zero (EXACT-MATCH) or carries the residual (MISMATCH);
  numeric-energy    the claimed energy value is compared against the Jacobi
                    harmonic energy, which matches (NUMERIC-MATCH) when
                    their gap is within the solver's error bound for that
                    spectrum plus the rounding of the claimed float;
  inequality        a lower bound whose signed margin is reported, and
                    which holds when the margin is above minus that bound;
  census-structure  structural facts about the order-10 cubic census.

Every claim is one row of the ``CLAIMS`` table. A row of the first three
kinds names a graph and a claimed value per grid point and shares its
kind's check; the census-structure claims, the disjoint-union lemma and
the friendship energy carry their own evidence and have their own check.

A check solves nothing itself: at a grid point it names the graphs whose
harmonic energy and exact characteristic polynomial it needs, and how its
verdict follows from them. An audit solves each distinct labeled graph
of all its grid points once, the spectra as one stacked Jacobi batch and
the polynomials as one multimodular batch, whose kernel calls share the
lanes of matrices of several orders, and then builds the verdicts.

Verdicts are frozen into a baseline file committed with the package; a
verdict changing between runs is reported as drift.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable

from .census import cached_census, canonical_form, compare_reference_table
from .charpoly import (
    RatPoly,
    closed_form_book,
    closed_form_complete,
    closed_form_complete_bipartite,
    closed_form_cycle,
    closed_form_friendship,
    closed_form_path_proof,
    closed_form_path_statement,
    closed_form_petersen,
    closed_form_star,
    closed_form_windmill4,
    closed_form_windmill5,
    closed_form_windmill_product,
    graph_char_polys,
    poly_text,
)
from .families import (
    book,
    complete,
    complete_bipartite,
    cycle,
    dutch_windmill,
    friendship,
    path,
    petersen,
    star,
)
from .graphs import Graph, disjoint_union
from .spectrum import UNIT_ROUNDOFF, Spectrum, error_bounds, harmonic_energies

EXACT_MATCH = "EXACT-MATCH"
NUMERIC_MATCH = "NUMERIC-MATCH"
MISMATCH = "MISMATCH"

BASELINE_RESOURCE = "audit_baseline.json"


@dataclass(frozen=True)
class AuditResult:
    claim_id: str
    params: tuple[tuple[str, int], ...]
    verdict: str
    evidence: dict

    @property
    def params_key(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)

    @property
    def key(self) -> str:
        return f"{self.claim_id}|{self.params_key}" if self.params else self.claim_id


@dataclass(frozen=True)
class Job:
    """What one grid point of a check needs and how its verdict follows:
    ``finish(spectra, cps)`` gets the spectra of the graphs in ``spectra``
    and the exact characteristic polynomials of the graphs in
    ``charpolys``, in order, and returns the verdict and its evidence."""

    spectra: tuple[Graph, ...]
    charpolys: tuple[Graph, ...]
    finish: Callable[[list[Spectrum], list[RatPoly]], tuple[str, dict]]


@dataclass(frozen=True)
class Claim:
    """A registered claim. ``check`` takes one grid point as keyword
    arguments and returns its Job."""

    id: str
    kind: str
    description: str
    grid: tuple[tuple[tuple[str, int], ...], ...]
    check: Callable[..., Job]


def _numeric(ok: bool) -> str:
    return NUMERIC_MATCH if ok else MISMATCH


def _slack(spectra: Iterable[Spectrum], claimed: float) -> float:
    """How far a float compared with the energies of ``spectra`` may be
    from it while the two agree: the sum of their energy bounds, plus the
    rounding of the claimed float."""
    return math.fsum(error_bounds(s)[1] for s in spectra) + UNIT_ROUNDOFF * abs(claimed)


# ---------------------------------------------------------------------------
# Uniform checks, one per kind
# ---------------------------------------------------------------------------
#
# A uniform row's ``case`` maps a grid point to (claimed value, graph). Cases
# are lambdas that look closed forms and constructors up by name when the
# check runs, so a rebinding of those module attributes (a tracer, a test's
# monkeypatch) reaches the audit; a function object stored in the table
# would not see it.


def _exact_polynomial(case: Callable, **params: int) -> Job:
    claimed, g = case(**params)
    return Job((), (g,), lambda spectra, cps: _residual_evidence(
        claimed - cps[0], claimed=poly_text(claimed)))


def _residual_evidence(residual: RatPoly, **evidence) -> tuple[str, dict]:
    evidence.update(residual=poly_text(residual), residual_is_zero=residual.is_zero)
    return (EXACT_MATCH if residual.is_zero else MISMATCH), evidence


def _numeric_energy(case: Callable, **params: int) -> Job:
    claimed, g = case(**params)
    return Job((g,), (), lambda spectra, cps: _energy_evidence(claimed, spectra[0]))


def _energy_evidence(claimed: float, spectrum: Spectrum) -> tuple[str, dict]:
    delta = abs(spectrum.he - claimed)
    evidence = {"claimed": claimed, "computed": spectrum.he, "delta": delta}
    return _numeric(delta <= _slack([spectrum], claimed)), evidence


def _inequality(case: Callable, **params: int) -> Job:
    bound, g = case(**params)

    def finish(spectra, cps):
        margin = spectra[0].he - bound
        evidence = {"bound": bound, "computed": spectra[0].he, "margin": margin}
        return _numeric(margin >= -_slack(spectra, bound)), evidence

    return Job((g,), (), finish)


_EXACT = "exact-polynomial"
_ENERGY = "numeric-energy"
_BOUND = "inequality"
_CENSUS = "census-structure"

_UNIFORM_CHECKS = {_EXACT: _exact_polynomial, _ENERGY: _numeric_energy, _BOUND: _inequality}


def _row(claim_id: str, kind: str, description: str, grid: tuple, case: Callable) -> Claim:
    return Claim(claim_id, kind, description, grid, functools.partial(_UNIFORM_CHECKS[kind], case))


# ---------------------------------------------------------------------------
# Claims with their own evidence
# ---------------------------------------------------------------------------


def _friendship_energy(n: int) -> Job:
    # The theorem claims HE = n. Its own proof lists the eigenvalues, whose
    # absolute sum is recorded alongside as corroborating evidence.
    eigensum = (2 * n - 1) / 2 + math.sqrt((n + 1) ** 2 + 32 * n) / (2 * (n + 1))

    def finish(spectra, cps):
        verdict, evidence = _energy_evidence(float(n), spectra[0])
        evidence["proof_eigenvalue_sum"] = eigensum
        evidence["proof_eigenvalue_sum_delta"] = abs(spectra[0].he - eigensum)
        return verdict, evidence

    return Job((friendship(n),), (), finish)


# Deterministic pairs for the disjoint union lemma.
_UNION_PAIRS: tuple[tuple[str, Callable[[], Graph], str, Callable[[], Graph]], ...] = (
    ("complete4", lambda: complete(4), "cycle5", lambda: cycle(5)),
    ("path4", lambda: path(4), "star5", lambda: star(5)),
    ("cycle3", lambda: cycle(3), "book2", lambda: book(2)),
    ("friendship2", lambda: friendship(2), "path3", lambda: path(3)),
    ("bipartite23", lambda: complete_bipartite(2, 3), "cycle4", lambda: cycle(4)),
)


def _union_graphs(pair: int) -> tuple[str, tuple[Graph, Graph, Graph]]:
    """The pair's parts label, and its graphs a, b and their union."""
    name_a, make_a, name_b, make_b = _UNION_PAIRS[pair]
    a, b = make_a(), make_b()
    return f"{name_a} + {name_b}", (a, b, disjoint_union([a, b]))


def _union_charpoly(pair: int) -> Job:
    parts, graphs = _union_graphs(pair)
    return Job((), graphs, lambda spectra, cps: _residual_evidence(
        cps[2] - cps[0] * cps[1], parts=parts))


def _union_energy(pair: int) -> Job:
    parts, graphs = _union_graphs(pair)

    def finish(spectra, cps):
        he_sum, he_union = spectra[0].he + spectra[1].he, spectra[2].he
        delta = abs(he_union - he_sum)
        evidence = {"parts": parts, "sum": he_sum, "union": he_union, "delta": delta}
        return _numeric(delta <= _slack(spectra, he_sum)), evidence

    return Job(graphs, (), finish)


def _census(verdict: Callable[[], tuple[str, dict]]) -> Callable[[], Job]:
    """A census-structure check: it needs nothing solved by the audit and
    reads the memoized order-10 cubic census for its verdict."""
    return lambda: Job((), (), lambda spectra, cps: verdict())


def _petersen_index(records) -> int | None:
    pet_key = canonical_form(petersen())
    return next((r.index for r in records if r.graph6 == pet_key), None)


def _cubic10_classes() -> tuple[str, dict]:
    records, classes = cached_census(10, 3)
    sizes = sorted(len(c.members) for c in classes)
    pairs = sum(1 for c in classes if len(c.members) == 2)
    singles = sum(1 for c in classes if len(c.members) == 1)
    ok = len(records) == 21 and pairs == 3 and singles == 15 and len(classes) == 18
    evidence = {
        "record_count": len(records),
        "pair_classes": pairs,
        "singleton_classes": singles,
        "class_sizes": sizes,
    }
    return _numeric(ok), evidence


def _cubic10_eigdiff() -> tuple[str, dict]:
    _, classes = cached_census(10, 3)
    counts = [count for c in classes for _, _, count in c.eigen_diffs]
    ok = bool(counts) and all(count == 3 for count in counts)
    return _numeric(ok), {"observed_diff_counts": sorted(counts)}


def _petersen_not_unique() -> tuple[str, dict]:
    records, classes = cached_census(10, 3)
    pet_index = _petersen_index(records)
    cls = next((c for c in classes if pet_index in c.members), None)
    ok = pet_index is not None and cls is not None and len(cls.members) == 2
    evidence = {
        "petersen_index": pet_index,
        "class_size": len(cls.members) if cls else 0,
        "class_he": cls.he if cls else None,
    }
    return _numeric(ok), evidence


def _petersen_max() -> tuple[str, dict]:
    records, classes = cached_census(10, 3)
    top = max(classes, key=lambda c: c.he)
    pet_index = _petersen_index(records)
    members = [r for r in records if r.index in top.members]
    ok = (
        pet_index is not None
        and pet_index in top.members
        and all(abs(r.he - 16.0 / 3.0) <= _slack([r.spectrum], 16.0 / 3.0) for r in members)
        and len(top.members) == 2
    )
    evidence = {
        "max_he": top.he,
        "max_members": list(top.members),
        "petersen_index": pet_index,
    }
    return _numeric(ok), evidence


def _reference_table() -> tuple[str, dict]:
    records, _ = cached_census(10, 3)
    comparison = compare_reference_table(records)
    evidence = {
        "match_count": comparison.match_count,
        "total": comparison.total,
        "unmatched_computed": list(comparison.unmatched_computed),
        "unmatched_reference": [ref for ref, got in comparison.entries if got is None],
    }
    return _numeric(comparison.match_count >= 20), evidence


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _grid_n(lo: int, hi: int) -> tuple:
    return tuple((("n", n),) for n in range(lo, hi + 1))


_ONCE = ((),)
_GRID_BIPARTITE = tuple(
    (("m", m), ("n", n)) for m in range(1, 12) for n in range(m, 12) if m + n <= 12
)
_GRID_WINDMILL = tuple((("m", m), ("n", n)) for m in range(3, 7) for n in range(1, 4))
_GRID_PAIRS = tuple((("pair", i),) for i in range(len(_UNION_PAIRS)))

CLAIMS: dict[str, Claim] = {c.id: c for c in (
    _row("thm-path-statement", _EXACT, "path closed form, theorem-statement variant",
         _grid_n(5, 12), lambda n: (closed_form_path_statement(n), path(n))),
    _row("thm-path-proof", _EXACT, "path closed form, proof-conclusion variant",
         _grid_n(4, 12), lambda n: (closed_form_path_proof(n), path(n))),
    _row("thm-cycle-charpoly", _EXACT, "cycle closed form",
         _grid_n(3, 12), lambda n: (closed_form_cycle(n), cycle(n))),
    _row("thm-star-charpoly", _EXACT, "star closed form",
         _grid_n(2, 12), lambda n: (closed_form_star(n), star(n))),
    _row("thm-star-energy", _ENERGY, "star energy 4*sqrt(n-1)/n",
         _grid_n(2, 12), lambda n: (4.0 * math.sqrt(n - 1) / n, star(n))),
    _row("thm-complete-charpoly", _EXACT, "complete graph closed form",
         _grid_n(2, 12), lambda n: (closed_form_complete(n), complete(n))),
    _row("thm-complete-energy", _ENERGY, "complete graph energy 2",
         _grid_n(2, 12), lambda n: (2.0, complete(n))),
    _row("thm-bipartite-charpoly", _EXACT, "complete bipartite closed form",
         _GRID_BIPARTITE,
         lambda m, n: (closed_form_complete_bipartite(m, n), complete_bipartite(m, n))),
    _row("thm-bipartite-energy", _ENERGY, "complete bipartite energy 4*sqrt(mn)/(m+n)",
         _GRID_BIPARTITE,
         lambda m, n: (2.0 * math.sqrt(4.0 * m * n / (m + n) ** 2), complete_bipartite(m, n))),
    _row("thm-friendship-charpoly", _EXACT, "friendship closed form",
         _grid_n(1, 6), lambda n: (closed_form_friendship(n), friendship(n))),
    Claim("thm-friendship-energy", _ENERGY, "friendship energy claimed equal to n",
          _grid_n(1, 6), _friendship_energy),
    _row("thm-windmill-product-charpoly", _EXACT, "windmill charpoly as a blade-power times the cycle form",
         _GRID_WINDMILL,
         lambda m, n: (closed_form_windmill_product(m, n), dutch_windmill(m, n))),
    _row("thm-windmill4-charpoly", _EXACT, "4-cycle windmill closed form",
         _grid_n(1, 6), lambda n: (closed_form_windmill4(n), dutch_windmill(4, n))),
    _row("thm-windmill4-energy", _ENERGY, "4-cycle windmill energy formula",
         _grid_n(1, 6), lambda n: (
             math.sqrt(8.0 * (n - 1) ** 2) / 2 + math.sqrt(8.0 * n + 2.0 * (n + 1) ** 2) / (n + 1),
             dutch_windmill(4, n))),
    _row("thm-windmill5-charpoly", _EXACT, "5-cycle windmill closed form (literal reading)",
         _grid_n(1, 6), lambda n: (closed_form_windmill5(n), dutch_windmill(5, n))),
    _row("thm-windmill5-energy-bound", _BOUND, "5-cycle windmill energy lower bound 1+n*sqrt(5)",
         _grid_n(1, 6), lambda n: (1.0 + n * math.sqrt(5.0), dutch_windmill(5, n))),
    _row("thm-book-charpoly", _EXACT, "book closed form",
         _grid_n(1, 6), lambda n: (closed_form_book(n), book(n))),
    _row("thm-book-energy", _ENERGY, "book energy (n^2+n+2)/(n+1)",
         _grid_n(1, 6), lambda n: ((n * n + n + 2) / (n + 1), book(n))),
    _row("thm-petersen-charpoly", _EXACT, "Petersen factored charpoly",
         _ONCE, lambda: (closed_form_petersen(), petersen())),
    _row("thm-petersen-energy", _ENERGY, "Petersen energy 16/3",
         _ONCE, lambda: (16.0 / 3.0, petersen())),
    Claim("lemma-union-charpoly-product", _EXACT, "disjoint union charpoly is the product",
          _GRID_PAIRS, _union_charpoly),
    Claim("lemma-union-energy-sum", _ENERGY, "disjoint union energy is the sum",
          _GRID_PAIRS, _union_energy),
    Claim("thm-cubic10-he-classes", _CENSUS, "order-10 cubic census: three pairs, fifteen singletons",
          _ONCE, _census(_cubic10_classes)),
    Claim("thm-cubic10-eigdiff", _CENSUS, "same-energy cubic pairs differ in exactly three eigenvalues",
          _ONCE, _census(_cubic10_eigdiff)),
    Claim("thm-petersen-not-unique", _CENSUS, "Petersen shares its energy class with one other graph",
          _ONCE, _census(_petersen_not_unique)),
    Claim("thm-petersen-max-energy", _CENSUS, "Petersen's class is the census maximum, 16/3",
          _ONCE, _census(_petersen_max)),
    Claim("reference-table-multiset", _CENSUS, "computed census energies match the reference multiset",
          _ONCE, _census(_reference_table)),
)}


def audit_claim(claim_id: str, **params: int) -> AuditResult:
    """Run a single registered claim at the given parameter values."""
    claim = CLAIMS.get(claim_id)
    if claim is None:
        raise ValueError(f"unknown claim id {claim_id!r}; known: {', '.join(sorted(CLAIMS))}")
    expected = [name for name, _ in claim.grid[0]]
    if sorted(params) != expected:
        raise ValueError(
            f"claim {claim_id!r} takes parameters ({', '.join(expected)}), "
            f"got ({', '.join(sorted(params))})"
        )
    return _audit([(claim, params)])[0]


def audit_all(claim_ids: Iterable[str] | None = None) -> list[AuditResult]:
    """Run every registered claim over its default parameter grid.

    Results come back in a deterministic order (claim id, then parameters);
    a claim id given more than once is run once. Every id is checked before
    anything is solved.
    """
    ids = sorted(CLAIMS) if claim_ids is None else sorted(set(claim_ids))
    for cid in ids:
        if cid not in CLAIMS:
            raise ValueError(f"unknown claim id {cid!r}")
    return _audit([(CLAIMS[cid], dict(point)) for cid in ids for point in CLAIMS[cid].grid])


def _audit(points: list[tuple[Claim, dict[str, int]]]) -> list[AuditResult]:
    """Verdicts at the given grid points. Every distinct graph the checks
    need is solved once: all spectra in one harmonic_energies call, all
    exact characteristic polynomials in one graph_char_polys call."""
    jobs = [claim.check(**params) for claim, params in points]
    spectra = list(dict.fromkeys(g for job in jobs for g in job.spectra))
    charpolys = list(dict.fromkeys(g for job in jobs for g in job.charpolys))
    solved = dict(zip(spectra, harmonic_energies(spectra)))
    cp = dict(zip(charpolys, graph_char_polys(charpolys)))
    results = []
    for (claim, params), job in zip(points, jobs):
        verdict, evidence = job.finish([solved[g] for g in job.spectra], [cp[g] for g in job.charpolys])
        results.append(AuditResult(claim.id, tuple(sorted(params.items())), verdict, evidence))
    return results


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def baseline_from_results(results: Iterable[AuditResult]) -> dict:
    return {
        "version": 1,
        "verdicts": {r.key: r.verdict for r in results},
    }


def write_baseline(path: str, results: Iterable[AuditResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline_from_results(results), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_baseline(path: str) -> dict:
    """The baseline a file holds: a JSON object whose "verdicts" maps result
    keys to verdict strings. Anything else is a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            baseline = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
    verdicts = baseline.get("verdicts") if isinstance(baseline, dict) else None
    if not (isinstance(verdicts, dict) and all(isinstance(v, str) for v in verdicts.values())):
        raise ValueError(f'{path} is not an audit baseline: "verdicts" must map keys to verdict strings')
    return baseline


def default_baseline() -> dict:
    with resources.as_file(resources.files("harmspec").joinpath("data", BASELINE_RESOURCE)) as path:
        return load_baseline(str(path))


def compare_to_baseline(results: Iterable[AuditResult], baseline: dict) -> list[str]:
    """Human-readable drift lines; empty means no drift."""
    verdicts = baseline.get("verdicts", {})
    drift = []
    seen = set()
    for r in results:
        seen.add(r.key)
        expected = verdicts.get(r.key)
        if expected is None:
            drift.append(f"{r.key}: not in baseline (got {r.verdict})")
        elif expected != r.verdict:
            drift.append(f"{r.key}: baseline {expected}, got {r.verdict}")
    for key in sorted(set(verdicts) - seen):
        drift.append(f"{key}: in baseline but not produced")
    return drift


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def results_table(results: Iterable[AuditResult]) -> str:
    lines = [f"{'claim':<34} {'params':<14} {'verdict':<14} evidence"]
    for r in results:
        ev = _short_evidence(r)
        lines.append(f"{r.claim_id:<34} {r.params_key:<14} {r.verdict:<14} {ev}")
    return "\n".join(lines)


def _short_evidence(r: AuditResult) -> str:
    ev = r.evidence
    if "residual" in ev:
        return "residual 0" if ev.get("residual_is_zero") else f"residual {ev['residual']}"
    if "delta" in ev:
        return f"delta {ev['delta']:.3e}"
    if "margin" in ev:
        return f"margin {round(ev['margin'], 6) + 0.0:.6f}"
    return json.dumps(ev, sort_keys=True)


def results_json(results: Iterable[AuditResult], drift: list[str] | None = None) -> dict:
    return {
        "results": [
            {
                "claim": r.claim_id,
                "params": dict(r.params),
                "verdict": r.verdict,
                "evidence": r.evidence,
            }
            for r in results
        ],
        "drift": drift if drift is not None else [],
    }


def results_csv(results: Iterable[AuditResult]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["claim", "params", "verdict", "evidence"])
    for r in results:
        writer.writerow([r.claim_id, r.params_key, r.verdict, json.dumps(r.evidence, sort_keys=True)])
    return out.getvalue()
