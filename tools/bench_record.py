"""Record the benchmark of one change into BENCH_<pr>.json.

For every workload that BENCHMARK.json names and every seed, this runs
``perfbench/run.py`` (untraced, with BENCHMARK.json's deadlines) as a
fresh process, ``--pairs`` times, for ``--seconds`` timed seconds each
(BENCHMARK.json's run_seconds unless given; the record keeps both).
Given ``--parent DIR``, a checkout of the parent commit, each pair runs
both trees, the parent first in even pairs and this tree first in odd
ones, so slow drift of the machine falls on both alike. Each run's
end-to-end metrics come from the last line of its standard output, the
JSON object run.py prints; its calibration loop and timeouts come from
the report lines above it. Every run writes a new BENCH_<pr>.json.

The record holds every run, and per workload and tree the median and
quartiles of pass_s, setup_s and peak_rss_mb, with the number of pairs in
which this tree's value is the lower, plus calib_ms, nproc, the Python and
numpy versions and the commits of both trees.

usage (from the root of a checkout):
  python tools/bench_record.py --pr 28 --parent ../parent --pairs 10 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("pass_s", "setup_s", "peak_rss_mb")


def parse_run(stdout: str) -> dict:
    """The metrics of one perfbench/run.py run: the end-to-end values and
    outcome counts of its last line, and calib_ms and timed_out from its
    report. ValueError if the last line is not run.py's JSON object."""
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if not isinstance(last, dict) or "metrics" not in last:
        raise ValueError("the run printed no result line")
    calib = re.search(r"^\s*calib_ms\s+([0-9.]+) ms", stdout, re.MULTILINE)
    timed_out = re.search(r"^\s*failed_frac\s+\S+\s+(\d+) timed out", stdout, re.MULTILINE)
    run = {name: last["metrics"][name]["value"] for name in METRICS}
    run.update(
        correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
        timed_out=int(timed_out.group(1)) if timed_out else None,
        calib_ms=float(calib.group(1)) if calib else None,
    )
    return run


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a non-empty list."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summary(runs: list[dict]) -> dict:
    """Per workload and tree, the summary of each metric and of calib_ms;
    with both trees, per metric the pairs in which the change is lower."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        out[workload] = {
            tree: {name: summarize([r[name] for r in mine if r["tree"] == tree])
                   for name in (*METRICS, "calib_ms")}
            for tree in dict.fromkeys(r["tree"] for r in mine)
        }
        pairs: dict = {}
        for r in mine:
            pairs.setdefault((r["seed"], r["pair"]), {})[r["tree"]] = r
        both = [p for p in pairs.values() if len(p) == 2]
        if both:
            out[workload]["change_lower"] = {
                name: sum(p["change"][name] < p["parent"][name] for p in both) for name in METRICS}
            out[workload]["pairs"] = len(both)
    return out


def trees_in_order(pair: int, parent: str | None) -> list[tuple[str, str]]:
    """The (tree, directory) runs of one pair: the parent first in even
    pairs, this tree first in odd ones."""
    if parent is None:
        return [("change", ROOT)]
    trees = [("parent", parent), ("change", ROOT)]
    return trees if pair % 2 == 0 else trees[::-1]


def commit(directory: str) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", directory, *args], capture_output=True,
                              text=True, check=False).stdout.strip()

    return {"head": git("rev-parse", "HEAD") or None,
            "modified_files": len(git("status", "--porcelain", "--untracked-files=no").splitlines())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", help="a checkout of the parent commit, run in alternation")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--note", default="", help="what the change is, stored in the record")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    seeds = [int(s) for s in args.seeds.split(",")]
    parent = os.path.abspath(args.parent) if args.parent else None
    command = [sys.executable, *bench["command"][1:]]

    runs = []
    for workload in workloads:
        for seed in seeds:
            for pair in range(args.pairs):
                for order, (tree, directory) in enumerate(trees_in_order(pair, parent)):
                    proc = subprocess.run(
                        [*command, "--workload", workload, "--seed", str(seed),
                         "--seconds", f"{seconds:g}", "--trace", "0"],
                        cwd=directory, capture_output=True, text=True, stdin=subprocess.DEVNULL)
                    if proc.returncode != 0:
                        sys.stderr.write(proc.stdout + proc.stderr)
                        print(f"bench_record: {tree} {workload} seed {seed} exited "
                              f"{proc.returncode}", file=sys.stderr)
                        return 1
                    run = {"workload": workload, "seed": seed, "pair": pair, "tree": tree,
                           "order": order, **parse_run(proc.stdout)}
                    runs.append(run)
                    print(f"{workload} seed {seed} pair {pair} {tree}: "
                          + "  ".join(f"{name} {run[name]:.4f}" for name in METRICS),
                          file=sys.stderr)

    record = {
        "pr": args.pr,
        "note": args.note,
        "benchmark": " ".join(bench["command"]) + f" --seconds {seconds:g} --trace 0",
        "run_seconds": bench["run_seconds"],
        "method": "each run a fresh perfbench/run.py process; with a parent, pairs alternate "
                  "which tree runs first, the parent in even pairs; quartiles use the "
                  "inclusive method over the runs of one tree",
        "environment": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                        "numpy": metadata.version("numpy")},
        "commits": {"change": commit(ROOT), "parent": commit(parent) if parent else None},
        "summary": summary(runs),
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"bench_record: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
