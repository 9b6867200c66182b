"""Exhaustive census of d-regular graphs up to isomorphism at desk scale
(n <= 12), their harmonic energies, and the comparison against the
published reference energies for cubic graphs of order 10.

Enumeration is a backtracking search over adjacency rows with remaining
degree pruning. Each row joins its vertex to only a prefix of every group
of later vertices whose adjacency so far is equal (twins, which a
relabeling swaps without changing the partial graph), and a completed
labeling is kept only when each vertex leads its twins by an
isomorphism-invariant key (see ``_labeled_regular``). Both are sound
symmetry reductions that keep at least one labeling of every class. The
survivors then go through full isomorph rejection via canonical forms,
computed by individualization-refinement with automorphism pruning. A
degree d with 2d > n - 1 is enumerated through the complements of the
labeled (n-1-d)-regular graphs.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graphs import Graph, _bits, complement, components, decode_graph6, encode_graph6
from .spectrum import Spectrum, error_bounds, harmonic_energies

MAX_CENSUS_N = 12

# Reference harmonic energies (3-decimal truncated display) for the 21
# cubic graphs on 10 vertices.
REFERENCE_CUBIC10_HE: tuple[float, ...] = (
    5.041, 4.953, 4.940, 4.504, 4.764, 4.981, 5.025,
    5.041, 5.105, 4.824, 4.900, 5.333, 4.792, 5.172,
    4.931, 4.666, 5.333, 4.518, 5.193, 4.666, 3.999,
)


@dataclass(frozen=True)
class CensusRecord:
    index: int            # 1-based position in canonical output order
    graph6: str
    connected: bool
    he: float
    spectrum: Spectrum


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
    if 2 * d > n - 1:
        # Complementing the labeled (n-1-d)-regular graphs, which are far
        # fewer, reaches every d-regular class; keying each by its own
        # canonical form keeps the representatives of direct enumeration.
        labeled = (complement(Graph(n, adj)) for adj in _labeled_regular(n, n - 1 - d))
    else:
        labeled = (Graph(n, adj) for adj in _labeled_regular(n, d))
    return [decode_graph6(key) for key in sorted({canonical_form(g) for g in labeled})]


def _labeled_regular(n: int, d: int):
    """Yield adjacency bitmask tuples of labeled d-regular graphs, at least
    one labeling of every isomorphism class.

    Rows are filled in order. Row i joins vertex i to vertices j > i that
    are not yet full; those with equal adjacency so far (among vertices
    below i) are twins, and row i takes only a prefix of each twin group.
    Swapping two twins maps the partial graph onto itself, so any
    completion of another choice is isomorphic to a completion of the
    prefix choice. The untouched vertices form one such group.

    A completed labeling is yielded only when every vertex i leads its
    class: no vertex j > i whose adjacency to 0..i-1 equals that of i has
    a larger key (see ``_leads_twins``). This is sound for any key that
    relabeling carries along with the vertex. Take any labeling of a class
    and fix rows in order. Before row i, swap i with a largest-key vertex
    of its class; the swap fixes 0..i-1, and since the two vertices have
    the same adjacency to 0..i-1, every earlier row keeps its set of
    neighbours, so its prefix choices and its own class stand. Then make
    row i a prefix of each twin group by swaps of twins, which fix 0..i.
    Every later swap fixes 0..i and maps the class of i onto itself with
    the keys, so i stays a leader. The result is a labeling the rows above
    reach and the rule keeps.
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
            if _leads_twins(adj):
                yield tuple(adj)
            return
        need = d - deg[i]
        if need == 0:
            yield from rec(i + 1)
            return
        twins: dict[int, list[int]] = {}
        for j in range(i + 1, n):
            if deg[j] < d:
                twins.setdefault(adj[j], []).append(j)
        for chosen in _prefix_choices(list(twins.values()), need):
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


def _leads_twins(adj: list[int]) -> bool:
    """True when every vertex i has the largest key (see ``_twin_key``)
    among the vertices j >= i whose adjacency to 0..i-1 equals its own.
    Keys are computed as the comparisons reach them: most labelings fail
    at vertex 0, whose class is every vertex."""
    n = len(adj)
    keys: list[tuple[int, int] | None] = [None] * n
    for i in range(n - 1):
        below = (1 << i) - 1
        prefix = adj[i] & below
        key = keys[i] or _twin_key(adj, i)
        for j in range(i + 1, n):
            if adj[j] & below == prefix:
                if keys[j] is None:
                    keys[j] = _twin_key(adj, j)
                if keys[j] > key:
                    return False
    return True


def _twin_key(adj: list[int], v: int) -> tuple[int, int]:
    """(triangles through v, vertices at distance exactly two from v); the
    first entry is held doubled, which orders the same."""
    row = adj[v]
    reach = tri = 0
    for u in _bits(row):
        reach |= adj[u]
        tri += (row & adj[u]).bit_count()
    return tri, (reach & ~row & ~(1 << v)).bit_count()


def _prefix_choices(groups: list[list[int]], need: int):
    """Yield every list of ``need`` vertices made of a prefix of each group."""
    if not groups:
        if need == 0:
            yield []
        return
    first, rest = groups[0], groups[1:]
    room = sum(len(g) for g in rest)
    for k in range(min(need, len(first)), max(0, need - room) - 1, -1):
        for tail in _prefix_choices(rest, need - k):
            yield first[:k] + tail


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def canonical_form(g: Graph) -> str:
    """Relabeling-invariant graph6 string: identical for isomorphic inputs.

    The vertices start in cells of equal (degree, triangle count), ordered
    ascending, and the ordered partition is refined to an equitable one
    (see ``_refine``). Remaining symmetric cells are broken by
    individualizing the vertices of the first non-singleton cell in turn,
    each followed by refinement, and the lexicographically largest
    adjacency encoding over the discrete leaves wins. A leaf's labeling is
    the order of its cells.

    The search tree is pruned by automorphisms in the style of nauty
    (McKay & Piperno, J. Symb. Comput. 2014). A leaf whose code equals that
    of the first leaf or of the best leaf so far yields an automorphism. At
    a node with individualized prefix ``path``, a child is skipped when it
    lies in the orbit of an already tried child under the group generated
    by the stored automorphisms that fix ``path`` pointwise. That group maps
    the tried child's subtree onto the skipped one with equal leaf codes,
    so the maximum, and with it the result, is the one the unpruned search
    finds. Each automorphism is stored as its support, the bitmask of the
    vertices it moves, and its moved pairs (u, gamma(u)); it fixes ``path``
    exactly when its support misses the path's bitmask. A node keeps one
    orbit bitmask per vertex, joins two orbits for each moved pair that
    still lies in different ones, and skips a child whose orbit meets the
    bitmask of the tried children.

    An automorphism with the first leaf also ends the search below the
    common ancestor of the two leaves: it fixes the ancestor's path and
    maps the ancestor's first child, whose subtree is done, onto the child
    being searched, so the rest of that child's subtree repeats known
    codes.
    """
    n = g.n
    if n > MAX_CENSUS_N:
        raise ValueError(f"canonical_form is supported up to n = {MAX_CENSUS_N}, got {n}")
    if n == 0:
        return encode_graph6(g)
    adj = g.adj
    nbrs = [list(_bits(a)) for a in adj]
    seed: dict[tuple[int, int], int] = {}
    for v in range(n):
        tri = sum((adj[v] & adj[u]).bit_count() for u in nbrs[v]) // 2
        key = (adj[v].bit_count(), tri)
        seed[key] = seed.get(key, 0) | 1 << v
    cells = [seed[k] for k in sorted(seed)]
    cells = _refine(adj, cells, cells)

    # (code, labeling) of the first leaf and of the best leaf so far.
    first: tuple[tuple[int, ...], list[int]] | None = None
    best: tuple[tuple[int, ...], list[int]] | None = None
    first_path: list[int] = []
    # Each automorphism as (support bitmask, moved pairs (u, gamma(u))).
    automorphisms: list[tuple[int, list[tuple[int, int]]]] = []

    def found(lab: list[int], ref_lab: list[int]):
        # The automorphism sends each vertex of one leaf labeling to the
        # vertex at the same position of the other.
        moved = [(v, u) for v, u in zip(lab, ref_lab) if v != u]
        support = 0
        for v, _ in moved:
            support |= 1 << v
        automorphisms.append((support, moved))

    def leaf(cells: list[int], path: list[int]) -> int | None:
        """Record the leaf; return the depth to jump back to, if any."""
        nonlocal first, best, first_path
        lab = [c.bit_length() - 1 for c in cells]
        pos = [0] * n
        for i, v in enumerate(lab):
            pos[v] = i
        rows = []
        for v in lab:
            row = 0
            for u in nbrs[v]:
                row |= 1 << pos[u]
            rows.append(row)
        code = tuple(rows)
        if first is None:
            first = best = (code, lab)
            first_path = path
            return None
        if code == first[0]:
            found(lab, first[1])
            depth = 0
            while path[depth] == first_path[depth]:
                depth += 1
            return depth
        if code == best[0]:
            found(lab, best[1])
        elif code > best[0]:
            best = (code, lab)
        return None

    def search(cells: list[int], path: list[int], path_mask: int) -> int | None:
        """Search below the node ``path``; return the depth to jump back to
        when an automorphism with the first leaf cuts this subtree short."""
        t = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if t is None:
            return leaf(cells, path)
        target = cells[t]
        orbit = [1 << v for v in range(n)]  # the bitmask of each vertex's orbit
        used = 0                            # automorphisms already merged into orbit
        tried = 0                           # bitmask of the children searched
        for v in _bits(target):
            for support, moved in automorphisms[used:]:
                if support & path_mask:
                    continue
                for u, w in moved:
                    if not orbit[u] >> w & 1:
                        union = orbit[u] | orbit[w]
                        for x in _bits(union):
                            orbit[x] = union
            used = len(automorphisms)
            if orbit[v] & tried:
                continue
            tried |= 1 << v
            split = [1 << v, target ^ 1 << v]
            back = search(_refine(adj, cells[:t] + split + cells[t + 1:], split),
                          path + [v], path_mask | 1 << v)
            if back is not None and back < len(path):
                return back
        return None

    search(cells, [], 0)
    return encode_graph6(Graph(n, best[0]))


def _refine(adj: tuple[int, ...], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition of vertex bitmasks until it is equitable.

    Each round splits every non-singleton cell by the key
    ``tuple(-|N(v) & s| for s in splitters)``, puts the fragments in place
    of the cell in ascending key order, and makes every fragment of the
    round a splitter of the next one. The splitters are in cell order. The
    key is kept as the counts packed four bits each (n <= 12) and sorted
    descending, which is the same order.

    This is the order of the round-by-round refinement by sorted
    neighbour-colour tuples: the vertices of a cell share their degree, so
    the first colour in which two sorted tuples differ is the first cell
    into which their counts differ, and the one with more neighbours there
    sorts first. A cell that did not split in the last round already has
    equal counts into every cell that is not new, so only the new cells can
    order a split. The largest fragment stays a splitter: dropping it, as
    Hopcroft's queue would, can reverse the order of a split.
    """
    while splitters:
        refined: list[int] = []
        created: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                row = adj[bit.bit_length() - 1]
                key = 0
                for s in splitters:
                    key = key << 4 | (row & s).bit_count()
                groups[key] = groups.get(key, 0) | bit
                rest ^= bit
            if len(groups) == 1:
                refined.append(cell)
            else:
                fragments = [groups[k] for k in sorted(groups, reverse=True)]
                refined += fragments
                created += fragments
        cells, splitters = refined, created
    return cells


# ---------------------------------------------------------------------------
# Census records and energy classes
# ---------------------------------------------------------------------------


def census_from_graphs(graphs: Sequence[Graph]) -> tuple[list[CensusRecord], list[EnergyClass]]:
    """Census records and energy classes for an externally supplied list of
    graphs (one record per input, in input order)."""
    records = [
        CensusRecord(
            index=idx,
            graph6=report.graph6,
            connected=len(components(g)) <= 1,
            he=report.he,
            spectrum=report.spectrum,
        )
        for idx, (g, report) in enumerate(zip(graphs, harmonic_energies(graphs)), start=1)
    ]
    return records, energy_classes(records)


def energy_classes(records: Sequence[CensusRecord]) -> list[EnergyClass]:
    """Group records into classes of equal harmonic energy and report
    eigenvalue multiset differences between the members of a class that
    have the same order.

    Sorted by energy, a record joins its lower neighbour's class when their
    gap is at most the sum of their energy bounds E, and two members'
    eigenvalues match within the sum of their eigenvalue bounds e; both
    bounds come from spectrum.error_bounds. A tie is as good as the
    solver's bounds, not an exact certificate."""
    ranked = sorted(records, key=lambda r: (r.he, r.index))
    bounds = [error_bounds(r.spectrum) for r in ranked]
    eigs = [r.spectrum.eigenvalues for r in ranked]
    groups: list[list[int]] = []
    for i, rec in enumerate(ranked):
        if i and rec.he - ranked[i - 1].he <= bounds[i - 1][1] + bounds[i][1]:
            groups[-1].append(i)
        else:
            groups.append([i])
    classes = []
    for group in groups:
        by_index = sorted(group, key=lambda i: ranked[i].index)
        diffs = [
            (ranked[i].index, ranked[j].index,
             spectra_diff_count(eigs[i], eigs[j], bounds[i][0] + bounds[j][0]))
            for i, j in combinations(by_index, 2)
            if len(eigs[i]) == len(eigs[j])
        ]
        classes.append(
            EnergyClass(
                he=sum(ranked[i].he for i in group) / len(group),
                members=tuple(ranked[i].index for i in by_index),
                eigen_diffs=tuple(diffs),
            )
        )
    return classes


def spectra_diff_count(a: Sequence[float], b: Sequence[float], bound: float) -> int:
    """Number of differing eigenvalues between two equal-length spectra:
    half the size of the multiset symmetric difference, where two
    eigenvalues match when they differ by at most bound (in a census, the sum
    of the two spectra's eigenvalue bounds)."""
    if len(a) != len(b):
        raise ValueError("spectra must have equal length")
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    i = j = matched = 0
    while i < len(sa) and j < len(sb):
        if abs(sa[i] - sb[j]) <= bound:
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
    """Memoized full census at (n, d), shared by the audit claims and the
    test suite: enumerate, solve every spectrum, and group the graphs into
    harmonic-energy classes."""
    records, classes = census_from_graphs(enumerate_regular(n, d))
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


def compare_reference_table(records: Sequence[CensusRecord]) -> ReferenceComparison:
    """Match the computed HE multiset against REFERENCE_CUBIC10_HE.

    Rule: computed value v matches reference entry p when
    -1e-9 <= v - p <= 0.001 + 1e-9, i.e. p is the 3-decimal truncation of v,
    with the boundary case (reference truncated a float sitting just below
    a .001 boundary) allowed. The 1e-9 slack models the table's truncation,
    not the solver, so it is not an error bound of the spectra.
    """
    if len(records) != len(REFERENCE_CUBIC10_HE):
        raise ValueError(
            f"expected {len(REFERENCE_CUBIC10_HE)} census records, got {len(records)}"
        )
    slack = 1e-9
    refs = sorted(REFERENCE_CUBIC10_HE)
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
                " ".join(repr(x) for x in r.spectrum.eigenvalues),
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
                "spectrum": list(r.spectrum.eigenvalues),
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
