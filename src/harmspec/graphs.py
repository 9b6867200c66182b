"""Simple undirected graphs: construction, structural queries, disjoint
unions, and the graph6 interchange codec.

Graphs are immutable once built. Adjacency is stored as one integer bitmask
per vertex, so structural operations are cheap set algebra and graphs can be
used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

GRAPH6_HEADER = ">>graph6<<"

# graph6 supports larger orders via an 8-byte size field; everything this
# toolkit targets fits in the 1- and 4-byte forms.
GRAPH6_MAX_N = 258047


class Graph6Error(ValueError):
    """Malformed graph6 input. Carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1.

    ``adj[v]`` is a bitmask of the neighbours of ``v``. The mask is expected
    to be symmetric with an empty diagonal; ``build_graph`` and the other
    constructors in this package guarantee that.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError(
                f"adjacency has {len(self.adj)} rows for {self.n} vertices"
            )

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for off in _bits(higher):
                out.append((u, u + 1 + off))
        return out

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph from an edge list.

    Duplicate edges collapse; self-loops and out-of-range endpoints are
    rejected with the offending pair named.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"edge ({u}, {v}) is a self-loop, which is not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a vertex permutation; ``perm[old]`` is the new label."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    rows = [0] * g.n
    for u in range(g.n):
        for v in _bits(g.adj[u]):
            rows[perm[u]] |= 1 << perm[v]
    return Graph(g.n, tuple(rows))


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are g's non-edges."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def degrees(g: Graph) -> list[int]:
    """Degree of every vertex, indexed by vertex id."""
    return [row.bit_count() for row in g.adj]


def components(g: Graph) -> list[Graph]:
    """Connected components, each re-indexed to 0..k-1.

    Components are ordered by their smallest original vertex id, and the
    re-indexing preserves the relative order of the original ids.
    """
    seen = 0
    out = []
    for start in range(g.n):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = comp
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= g.adj[v]
            frontier = reach & ~comp
            comp |= frontier
        verts = list(_bits(comp))
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for v in verts:
            for u in _bits(g.adj[v]):
                rows[index[v]] |= 1 << index[u]
        out.append(Graph(len(verts), tuple(rows)))
        seen |= comp
    return out


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Disjoint union; part k's vertices are shifted past parts 0..k-1."""
    total = sum(p.n for p in parts)
    rows = []
    offset = 0
    for p in parts:
        rows.extend(row << offset for row in p.adj)
        offset += p.n
    return Graph(total, tuple(rows))


# ---------------------------------------------------------------------------
# graph6 codec
#
# Layout: an optional ">>graph6<<" header, a size field, then the upper
# triangle of the adjacency matrix read column by column ((0,1), (0,2),
# (1,2), (0,3), ...), packed big-endian into 6-bit groups, each stored as
# printable byte value+63.
# ---------------------------------------------------------------------------


# The graph6 byte of each 6-bit group read least significant bit first.
_GRAPH6_GROUP = tuple(chr(63 + int(format(v, "06b")[::-1], 2)) for v in range(64))


def encode_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 encoding supports at most {GRAPH6_MAX_N} vertices, got {g.n}")
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = chr(126) + "".join(
            chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)
        )
    # Bit k of `stream` is bit k of the upper-triangle stream: column j
    # holds the pairs (i, j), i < j, which are the low j bits of row j.
    stream = 0
    shift = 0
    for j, row in enumerate(g.adj):
        stream |= (row & ((1 << j) - 1)) << shift
        shift += j
    return head + "".join([_GRAPH6_GROUP[stream >> k & 63] for k in range(0, shift, 6)])


def decode_graph6(line: str) -> Graph:
    """Decode one graph6 line (an optional header is tolerated and stripped)."""
    s = line.rstrip("\r\n")
    base = 0
    if s.startswith(GRAPH6_HEADER):
        base = len(GRAPH6_HEADER)
        s = s[base:]
    if not s:
        raise Graph6Error("empty graph6 string", base)

    def byte(i: int) -> int:
        if i >= len(s):
            raise Graph6Error("truncated graph6 string", base + len(s))
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid graph6 byte {c!r}", base + i)
        return c - 63

    first = byte(0)
    if first < 63:
        n = first
        pos = 1
    else:
        if byte(1) == 63:
            raise Graph6Error("vertex count beyond the supported range", base + 1)
        n = byte(1) << 12 | byte(2) << 6 | byte(3)
        pos = 4

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - pos < need:
        raise Graph6Error("truncated graph6 string", base + len(s))
    if len(s) - pos > need:
        raise Graph6Error("trailing garbage after graph6 data", base + pos + need)

    rows = [0] * n
    bit = 0
    i, j = 0, 1  # the pair of `bit` in the column-major upper-triangle stream
    for k in range(need):
        group = byte(pos + k)
        for shift in (5, 4, 3, 2, 1, 0):
            if bit >= nbits:
                if group >> shift & 1:
                    raise Graph6Error("nonzero padding bits", base + pos + k)
                continue
            if group >> shift & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(rows))


def parse_graph6_lines(text: str) -> list[Graph]:
    """Decode every nonempty line of a graph6 file body."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(decode_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from exc
    return out


def read_graph6_file(path: str) -> list[Graph]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph6_lines(fh.read())
