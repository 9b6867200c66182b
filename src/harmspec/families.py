"""Deterministic constructors for the named graph families.

Labeling conventions are fixed so that matrices and golden outputs are
stable: apex and hub vertices get id 0 (ids 0 and 1 for the book hub edge),
and blade/page vertices occupy consecutive blocks.
"""

from __future__ import annotations

from .graphs import Graph, build_graph


def _require(cond: bool, family: str, message: str):
    if not cond:
        raise ValueError(f"{family}: {message}")


def path(n: int) -> Graph:
    _require(n >= 1, "path", f"requires n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _require(n >= 3, "cycle", f"requires n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _require(n >= 1, "complete", f"requires n >= 1, got {n}")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    """Star on n vertices total: center 0, leaves 1..n-1."""
    _require(n >= 2, "star", f"requires n >= 2, got {n}")
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    """Parts 0..m-1 and m..m+n-1."""
    _require(m >= 1 and n >= 1, "complete_bipartite", f"requires m, n >= 1, got ({m}, {n})")
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def friendship(n: int) -> Graph:
    """n triangles sharing apex 0; blade i uses vertices 2i+1, 2i+2."""
    _require(n >= 1, "friendship", f"requires n >= 1, got {n}")
    edges = []
    for i in range(n):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (a, b), (b, 0)]
    return build_graph(2 * n + 1, edges)


def dutch_windmill(m: int, n: int) -> Graph:
    """n copies of the m-cycle sharing apex 0; blade i uses the block
    1+(m-1)i .. (m-1)(i+1)."""
    _require(m >= 3, "dutch_windmill", f"requires m >= 3, got m={m}")
    _require(n >= 1, "dutch_windmill", f"requires n >= 1, got n={n}")
    edges = []
    for i in range(n):
        block = [1 + (m - 1) * i + k for k in range(m - 1)]
        ring = [0] + block
        edges += [(ring[k], ring[(k + 1) % m]) for k in range(m)]
    return build_graph((m - 1) * n + 1, edges)


def book(n: int) -> Graph:
    """n quadrilateral pages sharing the hub edge (0, 1); page i uses
    vertices 2+2i (on hub 0) and 3+2i (on hub 1)."""
    _require(n >= 1, "book", f"requires n >= 1, got {n}")
    edges = [(0, 1)]
    for i in range(n):
        a, b = 2 + 2 * i, 3 + 2 * i
        edges += [(0, a), (1, b), (a, b)]
    return build_graph(2 * n + 2, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i to i+5."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


# Each family's constructor and the generate parameters it takes, in call order.
_BUILDERS = {
    "path": (path, ("n",)),
    "cycle": (cycle, ("n",)),
    "complete": (complete, ("n",)),
    "star": (star, ("n",)),
    "complete_bipartite": (complete_bipartite, ("m", "n")),
    "friendship": (friendship, ("n",)),
    "dutch_windmill": (dutch_windmill, ("m", "n")),
    "book": (book, ("n",)),
    "petersen": (petersen, ()),
}
FAMILIES = tuple(_BUILDERS)


def generate(family: str, n: int | None = None, m: int | None = None) -> Graph:
    """Build a member of the named family, validating its parameters.

    ``n`` is the main size parameter. ``m`` is the second parameter for
    complete_bipartite (part sizes m, n) and dutch_windmill (cycle length m,
    blade count n).
    """
    if family not in _BUILDERS:
        raise ValueError(f"unknown family {family!r}; known families: {', '.join(FAMILIES)}")
    build, fields = _BUILDERS[family]
    given = {"n": n, "m": m}
    for name, value in given.items():
        if name not in fields and value is not None:
            raise ValueError(f"{family}: does not take parameter {name}")
    for name in fields:
        if given[name] is None:
            raise ValueError(f"{family}: missing required parameter {name}")
    return build(*(given[name] for name in fields))
