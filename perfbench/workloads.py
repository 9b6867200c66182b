"""The four workloads: which CLI operations one pass runs, and the inputs
they read.

Every operation is one ``harmspec`` command line. The graph6 batches are
drawn from the seed and written to files; the program sees only those
files. census_symmetric and audit take no generated input, so the seed
does not change them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

SIZES = (10, 20, 40)
DENSITIES = (0.15, 0.5)
ENERGY_GRAPHS_PER_CELL = 8

# (n, degree, number of isomorphism classes)
CENSUS_CASES = ((12, 2, 9), (8, 7, 1), (12, 11, 1))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    label: str
    argv: tuple[str, ...]
    kind: str                        # census | audit | energy | charpoly
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # Each CLI run is a fresh process, so the memoized census the audit
    # uses must be recomputed in every pass.
    clear_census_cache: bool = False


NAMES = ("census_symmetric", "audit", "energy_batch", "charpoly_batch")


def build(name: str, seed: int, input_dir: str) -> Workload:
    """Make the workload's operations, writing its input files to input_dir."""
    if name == "census_symmetric":
        ops = tuple(
            Op(
                f"census --n {n} --degree {d}",
                ("census", "--n", str(n), "--degree", str(d), "--format", "json"),
                "census",
                {"n": n, "degree": d, "count": count},
            )
            for n, d, count in CENSUS_CASES
        )
        return Workload(name, ops)
    if name == "audit":
        return Workload(name, (Op("audit", ("audit", "--format", "json"), "audit"),),
                        clear_census_cache=True)
    if name == "energy_batch":
        return Workload(name, _batch_ops("energy", seed, input_dir, ENERGY_GRAPHS_PER_CELL))
    if name == "charpoly_batch":
        return Workload(name, _batch_ops("charpoly", seed, input_dir, 1))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def _batch_ops(command: str, seed: int, input_dir: str, per_cell: int) -> tuple[Op, ...]:
    rng = random.Random(seed)
    ops = []
    for n in SIZES:
        for p in DENSITIES:
            lines = [random_graph6(rng, n, p) for _ in range(per_cell)]
            path = os.path.join(input_dir, f"{command}_n{n}_p{p}.g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
            ops.append(
                Op(
                    f"{command} n={n} p={p}",
                    (command, "--from-file", path, "--format", "json"),
                    command,
                    {"graph6": lines},
                )
            )
    return tuple(ops)


def random_graph6(rng: random.Random, n: int, p: float) -> str:
    """graph6 line of an Erdos-Renyi G(n, p) graph (n <= 62)."""
    bits = [rng.random() < p for j in range(1, n) for _ in range(j)]
    bits += [False] * (-len(bits) % 6)
    body = "".join(
        chr(63 + sum(bit << (5 - k) for k, bit in enumerate(bits[i:i + 6])))
        for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body
