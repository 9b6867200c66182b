"""The command-line contract: for each covered command, its exit status and
the sha256 of its stdout and of its stderr, as committed in
tests/data/contract.txt. A one-byte change to any covered output fails here.

Each command runs in-process through ``harmspec.cli.main`` from the root of
the repository, so the file names in its argv and in its messages are
relative. The commands of one census (n, d) share one enumeration: the
first of its formats runs enumerate_regular, the others reuse its list, so
each census at n = 11 costs one enumeration, not three. The censuses at
n = 12 with d in 4..7 take from 10 s to 2 min each, so their lines run only
under ``pytest -m slow``. After an intended output change, regenerate the
manifest, these lines included (a few minutes), with

    PYTHONPATH=src python tests/test_contract.py --write

and name every changed line in CHANGES.md: the script prints the argv of
each line that is new or whose exit status or hashes changed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest

from harmspec import cli
from harmspec.cli import main

ROOT = Path(__file__).parents[1]
MANIFEST = ROOT / "tests" / "data" / "contract.txt"
GRAPH6_FILES = sorted(f"tests/data/{p.name}" for p in MANIFEST.parent.glob("*.g6"))


def _degrees(n: int) -> list[int]:
    """The degrees d with a d-regular graph on n vertices."""
    return [d for d in range(n) if n * d % 2 == 0]


def _commands() -> list[tuple[str, ...]]:
    # --write-baseline, which writes a file, is left out.
    census = [
        ("census", "--n", str(n), "--degree", str(d), "--format", fmt)
        for n in range(1, 12) for d in _degrees(n) for fmt in ("text", "json", "csv")
    ]
    census += [
        ("census", "--n", "12", "--degree", str(d), "--format", "json")
        for d in (0, 1, 2, 3, 8, 9, 10, 11)
    ]
    files = []
    for source in GRAPH6_FILES:
        files += [("census", "--from-file", source, "--format", fmt) for fmt in ("text", "json", "csv")]
        files += [
            (command, "--from-file", source, "--format", fmt)
            for command in ("gen", "matrix", "index", "charpoly", "energy")
            for fmt in ("text", "json")
        ]
    audit = [("audit", "--format", fmt) for fmt in ("text", "json", "csv")]
    errors = [
        ("census", "--n", "5", "--degree", "3"),
        ("census", "--n", "4", "--degree", "4"),
        ("gen", "--family", "moebius"),
        ("gen", "--family", "cycle", "--n", "2"),
        ("gen", "--family", "petersen", "--n", "7"),
        ("gen", "--family", "path"),
        ("matrix",),
        ("energy", "--family", "petersen", "--from-file", "tests/data/exact_small.g6"),
        ("census", "--n", "4", "--degree", "3", "--from-file", "tests/data/exact_small.g6"),
        ("energy", "--from-file", "tests/data/missing.g6"),
        ("energy", "--family", "petersen", "--decimals", "-1"),
        ("audit", "--baseline", "tests/data/gen_small.json"),
        ("audit", "--baseline", "tests/data/exact_small.g6"),
        ("audit", "--baseline", "tests/data/missing.json"),
        ("census", "--n", "4", "--degree", "3", "--quiet"),
        ("audit", "--quiet"),
        ("gen", "--family", "petersen", "--format", "graph6"),
        ("audit", "--baseline", "tests/data/missing.json", "--write-baseline", "tests/data/unwritten.json"),
    ]
    return census + files + audit + errors


SLOW_COMMANDS = [
    ("census", "--n", "12", "--degree", str(d), "--format", fmt)
    for d, formats in ((4, ("text", "json", "csv")), (5, ("json",)), (6, ("json",)),
                       (7, ("text", "json", "csv")))
    for fmt in formats
]
COMMANDS = _commands() + SLOW_COMMANDS
_enumerate = functools.cache(cli.enumerate_regular)


def _line(argv: tuple[str, ...]) -> str:
    """One manifest line: exit status, sha256 of stdout, sha256 of stderr,
    argv. Run from ROOT."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.object(cli, "enumerate_regular", _enumerate)):
        code = main(list(argv))
    digests = (hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest() for s in (out, err))
    return " ".join((str(code), *digests, shlex.join(argv)))


@functools.cache
def _manifest() -> dict[tuple[str, ...], str]:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {tuple(shlex.split(line.split(" ", 3)[3])): line for line in lines}


def test_manifest_lists_every_command():
    assert list(_manifest()) == COMMANDS


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, marks=pytest.mark.slow) if argv in SLOW_COMMANDS else argv for argv in COMMANDS],
    ids=shlex.join,
)
def test_contract(monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert _line(argv) == _manifest()[argv]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_contract.py --write")
    os.chdir(ROOT)
    old = _manifest() if MANIFEST.exists() else {}
    lines = [_line(argv) for argv in COMMANDS]
    for argv, line in zip(COMMANDS, lines):
        if old.get(argv) != line:
            print("changed:" if argv in old else "new:", shlex.join(argv))
    MANIFEST.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
