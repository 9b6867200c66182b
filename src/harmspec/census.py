"""Exhaustive census of d-regular graphs up to isomorphism at desk scale
(n <= 12), their harmonic energies, and the comparison against the
published reference energies for cubic graphs of order 10.

Enumeration is a backtracking search over adjacency rows with remaining
degree pruning, restricted to labelings that introduce unseen vertices in
increasing order (a sound symmetry reduction); survivors then go through
full isomorph rejection via canonical forms, computed by
individualization-refinement with automorphism pruning.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .graphs import Graph, _bits, components, decode_graph6, encode_graph6
from .spectrum import harmonic_energy

MAX_CENSUS_N = 12

# Reference harmonic energies (3-decimal truncated display) for the 21
# cubic graphs on 10 vertices.
REFERENCE_CUBIC10_HE: tuple[float, ...] = (
    5.041, 4.953, 4.940, 4.504, 4.764, 4.981, 5.025,
    5.041, 5.105, 4.824, 4.900, 5.333, 4.792, 5.172,
    4.931, 4.666, 5.333, 4.518, 5.193, 4.666, 3.999,
)

CLASS_TOL = 1e-6        # absolute gap below which two HE values share a class
EIG_MATCH_TOL = 1e-8    # eigenvalue matching tolerance for multiset diffs


@dataclass(frozen=True)
class CensusRecord:
    index: int            # 1-based position in canonical output order
    graph6: str
    connected: bool
    he: float
    spectrum: tuple[float, ...]


@dataclass(frozen=True)
class EnergyClass:
    he: float                              # representative (mean) energy
    members: tuple[int, ...]               # record indices, ascending
    eigen_diffs: tuple[tuple[int, int, int], ...]  # (i, j, differing count)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_regular(n: int, d: int) -> list[Graph]:
    """All d-regular graphs on n vertices, one canonical representative per
    isomorphism class, sorted by the graph6 string of the canonical form.
    Disconnected graphs are included."""
    if n < 0 or d < 0:
        raise ValueError(f"need n, d >= 0, got n={n}, d={d}")
    if d >= n:
        raise ValueError(f"degree {d} is infeasible on {n} vertices (need d < n)")
    if n * d % 2 != 0:
        raise ValueError(f"infeasible: n*d = {n * d} must be even")
    if n > MAX_CENSUS_N:
        raise ValueError(f"enumeration is supported up to n = {MAX_CENSUS_N}, got {n}")
    reps: dict[str, Graph] = {}
    for adj in _labeled_regular(n, d):
        key = canonical_form(Graph(n, adj))
        if key not in reps:
            reps[key] = decode_graph6(key)
    return [reps[k] for k in sorted(reps)]


def _labeled_regular(n: int, d: int):
    """Yield adjacency bitmask tuples of labeled d-regular graphs whose
    labelings introduce previously untouched vertices in increasing order.

    Every isomorphism class has at least one such labeling, so following
    with isomorph rejection yields the full census.
    """
    adj = [0] * n
    deg = [0] * n

    def feasible(start: int) -> bool:
        # Cheap sanity for the remaining subproblem on vertices >= start.
        open_count = sum(1 for j in range(start, n) if deg[j] < d)
        for j in range(start, n):
            rem = d - deg[j]
            if rem > 0 and rem > open_count - 1:
                return False
        return True

    def rec(i: int):
        if i == n:
            yield tuple(adj)
            return
        need = d - deg[i]
        if need == 0:
            yield from rec(i + 1)
            return
        rest = [j for j in range(i + 1, n) if deg[j] < d]
        if need > len(rest):
            return
        touched = [j for j in rest if deg[j] > 0]
        fresh = [j for j in rest if deg[j] == 0]  # always a suffix i+1..n-1
        for k in range(min(need, len(fresh)), -1, -1):
            new_part = fresh[:k]
            for old_part in combinations(touched, need - k):
                chosen = list(old_part) + new_part
                for j in chosen:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    deg[j] += 1
                deg[i] += need
                if feasible(i + 1):
                    yield from rec(i + 1)
                deg[i] -= need
                for j in chosen:
                    adj[i] &= ~(1 << j)
                    adj[j] &= ~(1 << i)
                    deg[j] -= 1

    yield from rec(0)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def canonical_form(g: Graph) -> str:
    """Relabeling-invariant graph6 string: identical for isomorphic inputs.

    Colors are refined by degree and per-vertex triangle count followed by
    iterated neighborhood color multisets; remaining symmetric cells are
    broken by individualizing the vertices of the first non-singleton cell
    in turn, and the lexicographically largest adjacency encoding over the
    discrete leaves wins.

    The search tree is pruned by automorphisms in the style of nauty
    (McKay & Piperno, J. Symb. Comput. 2014). A leaf whose code equals that
    of the first leaf or of the best leaf so far yields an automorphism. At
    a node with individualized prefix ``path``, a child is skipped when it
    lies in the orbit of an already tried child under the group generated
    by the stored automorphisms that fix ``path`` pointwise. That group maps
    the tried child's subtree onto the skipped one with equal leaf codes,
    so the maximum, and with it the result, is the one the unpruned search
    finds.
    """
    n = g.n
    if n > MAX_CENSUS_N:
        raise ValueError(f"canonical_form is supported up to n = {MAX_CENSUS_N}, got {n}")
    if n == 0:
        return encode_graph6(g)
    adj = g.adj
    tri = [
        sum((adj[v] & adj[u]).bit_count() for u in _bits(adj[v])) // 2
        for v in range(n)
    ]
    seed = [(adj[v].bit_count(), tri[v]) for v in range(n)]
    colors = _refine(adj, _compress(seed))

    # (code, labeling) of the first leaf and of the best leaf so far.
    first: tuple[tuple[int, ...], list[int]] | None = None
    best: tuple[tuple[int, ...], list[int]] | None = None
    automorphisms: list[list[int]] = []

    def leaf(cols: list[int]):
        nonlocal first, best
        rows = [0] * n
        for v in range(n):
            row = 0
            for u in _bits(adj[v]):
                row |= 1 << cols[u]
            rows[cols[v]] = row
        code = tuple(rows)
        if first is None:
            first = best = (code, cols)
            return
        for ref_code, ref_cols in (first, best):
            if code == ref_code:
                ref_inv = [0] * n
                for v, pos in enumerate(ref_cols):
                    ref_inv[pos] = v
                automorphisms.append([ref_inv[cols[v]] for v in range(n)])
                return
        if code > best[0]:
            best = (code, cols)

    def search(cols: list[int], path: list[int]):
        cellmap: dict[int, list[int]] = {}
        for v, c in enumerate(cols):
            cellmap.setdefault(c, []).append(v)
        target = None
        for c in sorted(cellmap):
            if len(cellmap[c]) > 1:
                target = cellmap[c]
                break
        if target is None:
            leaf(cols)
            return
        orbit = list(range(n))  # union-find parent pointers
        used = 0                # automorphisms already merged into orbit

        def find(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        tried: list[int] = []
        for v in target:
            for gamma in automorphisms[used:]:
                if all(gamma[p] == p for p in path):
                    for u in range(n):
                        a, b = find(u), find(gamma[u])
                        if a != b:
                            orbit[max(a, b)] = min(a, b)
            used = len(automorphisms)
            root = find(v)
            if any(find(t) == root for t in tried):
                continue
            tried.append(v)
            split = [c * 2 + (0 if u == v else 1) for u, c in enumerate(cols)]
            search(_refine(adj, _compress(split)), path + [v])

    search(colors, [])
    return encode_graph6(Graph(n, best[0]))


def _compress(values: list) -> list[int]:
    order = {s: i for i, s in enumerate(sorted(set(values)))}
    return [order[s] for s in values]


def _refine(adj: tuple[int, ...], colors: list[int]) -> list[int]:
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in _bits(adj[v]))))
            for v in range(n)
        ]
        new = _compress(sigs)
        if new == colors:
            return colors
        colors = new


def isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism test for small graphs via canonical forms."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# Census records and energy classes
# ---------------------------------------------------------------------------


def census(
    n: int,
    d: int,
    *,
    progress: Callable[[str], None] | None = None,
) -> tuple[list[CensusRecord], list[EnergyClass]]:
    """Full census at (n, d): enumerate, solve every spectrum, and group
    the graphs into harmonic-energy classes."""
    if progress:
        progress(f"enumerating {d}-regular graphs on {n} vertices ...")
    graphs = enumerate_regular(n, d)
    if progress:
        progress(f"{len(graphs)} isomorphism classes; solving spectra ...")
    return census_from_graphs(graphs)


def census_from_graphs(graphs: Sequence[Graph]) -> tuple[list[CensusRecord], list[EnergyClass]]:
    """Census records and energy classes for an externally supplied list of
    graphs (one record per input, in input order)."""
    records = []
    for idx, g in enumerate(graphs, start=1):
        report = harmonic_energy(g)
        records.append(
            CensusRecord(
                index=idx,
                graph6=encode_graph6(g),
                connected=len(components(g)) <= 1,
                he=report.he,
                spectrum=report.spectrum.eigenvalues,
            )
        )
    return records, energy_classes(records)


def energy_classes(records: Sequence[CensusRecord]) -> list[EnergyClass]:
    """Group records into classes of equal harmonic energy (tolerance
    CLASS_TOL) and report eigenvalue multiset differences within classes."""
    by_he = sorted(records, key=lambda r: (r.he, r.index))
    groups: list[list[CensusRecord]] = []
    for rec in by_he:
        if groups and abs(rec.he - groups[-1][-1].he) <= CLASS_TOL:
            groups[-1].append(rec)
        else:
            groups.append([rec])
    classes = []
    for group in groups:
        members = tuple(sorted(r.index for r in group))
        diffs = []
        for a, b in combinations(sorted(group, key=lambda r: r.index), 2):
            diffs.append((a.index, b.index, spectra_diff_count(a.spectrum, b.spectrum)))
        classes.append(
            EnergyClass(
                he=sum(r.he for r in group) / len(group),
                members=members,
                eigen_diffs=tuple(diffs),
            )
        )
    return classes


def spectra_diff_count(
    a: Sequence[float], b: Sequence[float], tol: float = EIG_MATCH_TOL
) -> int:
    """Number of differing eigenvalues between two equal-length spectra:
    half the size of the multiset symmetric difference, matched with the
    given tolerance."""
    if len(a) != len(b):
        raise ValueError("spectra must have equal length")
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    i = j = matched = 0
    while i < len(sa) and j < len(sb):
        if abs(sa[i] - sb[j]) <= tol:
            matched += 1
            i += 1
            j += 1
        elif sa[i] > sb[j]:
            i += 1
        else:
            j += 1
    return len(sa) - matched


@functools.lru_cache(maxsize=None)
def cached_census(n: int, d: int) -> tuple[tuple[CensusRecord, ...], tuple[EnergyClass, ...]]:
    """Memoized census, shared by the audit claims and the test suite."""
    records, classes = census(n, d)
    return tuple(records), tuple(classes)


# ---------------------------------------------------------------------------
# Reference-table comparison
# ---------------------------------------------------------------------------


def truncate3(x: float) -> float:
    """Truncate (not round) to 3 decimals, the reference table's display rule."""
    return math.floor(x * 1000.0) / 1000.0


@dataclass(frozen=True)
class ReferenceComparison:
    entries: tuple[tuple[float, float | None], ...]  # (reference, matched HE or None)
    unmatched_computed: tuple[float, ...]
    match_count: int
    total: int


def compare_reference_table(
    records: Sequence[CensusRecord],
    reference: Sequence[float] = REFERENCE_CUBIC10_HE,
) -> ReferenceComparison:
    """Match the computed HE multiset against the reference multiset.

    Rule: computed value v matches reference entry p when
    -1e-9 <= v - p <= 0.001 + 1e-9, i.e. p is the 3-decimal truncation of v,
    with the boundary case (reference truncated a float sitting just below
    a .001 boundary) allowed.
    """
    if len(records) != len(reference):
        raise ValueError(
            f"expected {len(reference)} census records, got {len(records)}"
        )
    slack = 1e-9
    refs = sorted(reference)
    values = sorted(r.he for r in records)
    used = [False] * len(values)
    matches: dict[int, float] = {}
    vi = 0
    for ri, p in enumerate(refs):
        while vi < len(values) and values[vi] - p < -slack:
            vi += 1
        k = vi
        while k < len(values) and values[k] - p <= 0.001 + slack:
            if not used[k]:
                used[k] = True
                matches[ri] = values[k]
                break
            k += 1
    entries = tuple((p, matches.get(i)) for i, p in enumerate(refs))
    unmatched = tuple(v for v, u in zip(values, used) if not u)
    return ReferenceComparison(
        entries=entries,
        unmatched_computed=unmatched,
        match_count=len(matches),
        total=len(refs),
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def records_csv(records: Sequence[CensusRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "graph6", "connected", "he", "spectrum"])
    for r in records:
        writer.writerow(
            [
                r.index,
                r.graph6,
                str(r.connected).lower(),
                repr(r.he),
                " ".join(repr(x) for x in r.spectrum),
            ]
        )
    return out.getvalue()


def census_json(
    records: Sequence[CensusRecord],
    classes: Sequence[EnergyClass],
    comparison: ReferenceComparison | None = None,
    n: int | None = None,
    d: int | None = None,
) -> dict:
    payload = {
        "n": n,
        "degree": d,
        "records": [
            {
                "index": r.index,
                "graph6": r.graph6,
                "connected": r.connected,
                "he": r.he,
                "spectrum": list(r.spectrum),
            }
            for r in records
        ],
        "classes": [
            {
                "he": c.he,
                "members": list(c.members),
                "eigen_diffs": [
                    {"a": a, "b": b, "count": count} for a, b, count in c.eigen_diffs
                ],
            }
            for c in classes
        ],
        "reference_comparison": None,
    }
    if comparison is not None:
        payload["reference_comparison"] = {
            "match_count": comparison.match_count,
            "total": comparison.total,
            "entries": [
                {"reference": ref, "matched": got} for ref, got in comparison.entries
            ],
            "unmatched_computed": list(comparison.unmatched_computed),
        }
    return payload
