import argparse

import pytest

from harmspec.census import canonical_form
from harmspec.cli import build_parser
from harmspec.families import (
    FAMILIES,
    book,
    complete,
    complete_bipartite,
    cycle,
    dutch_windmill,
    friendship,
    generate,
    path,
    petersen,
    star,
)
from harmspec.graphs import degrees


EXPECTED_COUNTS = [
    # (constructor, vertex count, edge count) for a range of parameters
    (lambda n: path(n), lambda n: (n, n - 1), range(1, 51)),
    (lambda n: cycle(n), lambda n: (n, n), range(3, 51)),
    (lambda n: complete(n), lambda n: (n, n * (n - 1) // 2), range(1, 51)),
    (lambda n: star(n), lambda n: (n, n - 1), range(2, 51)),
    (lambda n: friendship(n), lambda n: (2 * n + 1, 3 * n), range(1, 51)),
    (lambda n: book(n), lambda n: (2 * n + 2, 3 * n + 1), range(1, 51)),
]


@pytest.mark.parametrize("make,expect,params", EXPECTED_COUNTS)
def test_vertex_edge_counts(make, expect, params):
    for n in params:
        g = make(n)
        assert (g.n, g.edge_count) == expect(n)


def test_complete_bipartite_counts():
    for m in range(1, 11):
        for n in range(1, 11):
            g = complete_bipartite(m, n)
            assert (g.n, g.edge_count) == (m + n, m * n)


def test_windmill_counts():
    for m in range(3, 9):
        for n in range(1, 9):
            g = dutch_windmill(m, n)
            assert (g.n, g.edge_count) == ((m - 1) * n + 1, m * n)


def test_windmill4_counts_match_published():
    for n in range(1, 51):
        g = dutch_windmill(4, n)
        assert (g.n, g.edge_count) == (3 * n + 1, 4 * n)


def test_apex_and_hub_degrees():
    for n in range(1, 20):
        assert degrees(friendship(n))[0] == 2 * n
        assert degrees(dutch_windmill(5, n))[0] == 2 * n
        b = degrees(book(n))
        assert b[0] == n + 1 and b[1] == n + 1


def test_windmill_one_blade_is_cycle():
    for m in range(3, 9):
        assert canonical_form(dutch_windmill(m, 1)) == canonical_form(cycle(m))


def test_degenerate_members():
    assert canonical_form(friendship(1)) == canonical_form(complete(3))
    assert canonical_form(book(1)) == canonical_form(cycle(4))
    assert canonical_form(dutch_windmill(3, 2)) == canonical_form(friendship(2))


def test_star_is_complete_bipartite():
    for n in range(2, 10):
        assert canonical_form(star(n)) == canonical_form(complete_bipartite(1, n - 1))


def test_petersen_shape():
    g = petersen()
    assert (g.n, g.edge_count) == (10, 15)
    assert set(degrees(g)) == {3}
    assert _girth(g) == 5


def _girth(g):
    import collections

    best = None
    for src in range(g.n):
        dist = {src: 0}
        parent = {src: None}
        queue = collections.deque([src])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cyc = dist[u] + dist[v] + 1
                    best = cyc if best is None else min(best, cyc)
    return best


# One valid parameter set per family, in the documented family order, with
# the direct constructor call it must build. The two-parameter families use
# m != n, so a swapped argument order builds a different labeling.
DISPATCH_CASES = [
    ("path", {"n": 6}, lambda: path(6)),
    ("cycle", {"n": 5}, lambda: cycle(5)),
    ("complete", {"n": 4}, lambda: complete(4)),
    ("star", {"n": 5}, lambda: star(5)),
    ("complete_bipartite", {"m": 2, "n": 3}, lambda: complete_bipartite(2, 3)),
    ("friendship", {"n": 2}, lambda: friendship(2)),
    ("dutch_windmill", {"m": 4, "n": 3}, lambda: dutch_windmill(4, 3)),
    ("book", {"n": 3}, lambda: book(3)),
    ("petersen", {}, petersen),
]


def test_generate_dispatch():
    assert tuple(family for family, _, _ in DISPATCH_CASES) == FAMILIES
    for family, params, direct in DISPATCH_CASES:
        assert generate(family, **params) == direct(), family


def test_cli_family_choices_follow_families():
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    family_choices = [
        action.choices
        for sub in subcommands.choices.values()
        for action in sub._actions
        if action.dest == "family"
    ]
    assert len(family_choices) == 5
    assert all(list(choices) == list(FAMILIES) for choices in family_choices)


@pytest.mark.parametrize(
    "spec,match",
    [
        (("path", {"n": 0}), "path"),
        (("cycle", {"n": 2}), "cycle"),
        (("star", {"n": 1}), "star"),
        (("complete_bipartite", {"m": 0, "n": 1}), "complete_bipartite"),
        (("friendship", {"n": 0}), "friendship"),
        (("dutch_windmill", {"m": 2, "n": 1}), "dutch_windmill"),
        (("book", {"n": 0}), "book"),
    ],
)
def test_parameter_bounds_enforced(spec, match):
    family, params = spec
    with pytest.raises(ValueError, match=match):
        generate(family, **params)


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate("moebius", n=3)


@pytest.mark.parametrize(
    "spec, message",
    [
        (("cycle", {"n": 5, "m": 3}), "cycle: does not take parameter m"),
        (("petersen", {"n": 7}), "petersen: does not take parameter n"),
        (("petersen", {"m": 2}), "petersen: does not take parameter m"),
        (("book", {"n": 2, "m": 4}), "book: does not take parameter m"),
    ],
)
def test_unused_parameter_rejected(spec, message):
    family, params = spec
    with pytest.raises(ValueError, match=message):
        generate(family, **params)


def test_missing_parameter():
    with pytest.raises(ValueError, match="missing required parameter"):
        generate("path")
    # Parameters are checked in call order: m comes first for complete_bipartite.
    with pytest.raises(ValueError, match="complete_bipartite: missing required parameter m"):
        generate("complete_bipartite")


def test_fixed_labeling_is_stable():
    # Downstream golden outputs rely on these exact edge lists.
    assert friendship(2).edges() == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
    assert book(1).edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert dutch_windmill(4, 1).edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert canonical_form(petersen()) == canonical_form(petersen())
