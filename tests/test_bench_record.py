"""tools/bench_record.py: how it reads a benchmark run and summarises runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

# The shape of perfbench/run.py's untraced report.
REPORT = """workload audit  seed 1  seconds 5  trace 0  deadline_s 6
env {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "HARMSPEC_THREADS": "unset"}
  setup_s      0.1640 s   q1 0.1610  q3 0.1700  n=7
  pass_s       0.0883 s   q1 0.0870  q3 0.0900  n=40 untraced passes of 1 operations
  failed_frac  0.0500     2 timed out + 0 failed of 40 attempted
  peak_rss_mb  31.3 MB   fresh process running the 1 of 1 operations that completed in every pass
  calib_ms     13.16 ms  q1 12.90  q3 13.40  (context only: a fixed loop timed before each pass)
"""
LAST = {"correct": True, "attempted": 40, "failed": 0,
        "metrics": {"pass_s": {"value": 0.0883, "unit": "s"},
                    "setup_s": {"value": 0.164, "unit": "s"},
                    "peak_rss_mb": {"value": 31.296875, "unit": "MB"}}}


BOUNDS = {"pass_s": 0.24, "setup_s": 0.25, "peak_rss_mb": 0.1}


def test_parse_run_reads_last_line_and_report():
    run = bench_record.parse_run(REPORT + json.dumps(LAST) + "\n")
    assert run == {"pass_s": 0.0883, "setup_s": 0.164, "peak_rss_mb": 31.296875,
                   "correct": True, "attempted": 40, "failed": 0, "timed_out": 2,
                   "calib_ms": 13.16}


@pytest.mark.parametrize("stdout", ["", REPORT, REPORT + '{"correct": true}\n',
                                    json.dumps(LAST) + "\n" + REPORT])
def test_parse_run_needs_result_as_last_line(stdout):
    with pytest.raises(ValueError, match="no result line"):
        bench_record.parse_run(stdout)


def test_summarize_inclusive_quartiles():
    assert bench_record.summarize([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_record.summarize([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1}


def test_pairs_alternate_which_tree_goes_first():
    firsts = [bench_record.trees_in_order(k, "/parent")[0][0] for k in range(4)]
    assert firsts == ["parent", "change", "parent", "change"]
    assert [tree for tree, _ in bench_record.trees_in_order(1, None)] == ["change"]


def test_summary_per_tree_and_pairs_won():
    def run(pair, tree, pass_s):
        return {"workload": "audit", "seed": 1, "pair": pair, "tree": tree, "pass_s": pass_s,
                "setup_s": 0.2, "peak_rss_mb": 31.0, "calib_ms": 13.0}

    runs = [run(0, "parent", 1.0), run(0, "change", 0.75),
            run(1, "change", 1.5), run(1, "parent", 1.25),
            run(2, "parent", 2.0), run(2, "change", 0.5)]
    got = bench_record.summary(runs, BOUNDS)["audit"]
    assert got["parent"]["pass_s"] == {"median": 1.25, "q1": 1.125, "q3": 1.625, "n": 3}
    assert got["change"]["pass_s"]["median"] == 0.75
    assert got["change_lower"] == {"pass_s": 2, "setup_s": 0, "peak_rss_mb": 0}
    assert got["pairs"] == 3
    assert got["verdict"] == {"pass_s": "unresolved", "setup_s": "unresolved",
                              "peak_rss_mb": "unresolved"}


def _record(parent: list[float], change: list[float]) -> list[dict]:
    """Synthetic runs of one workload: pair k runs the parent at parent[k]
    and the change at change[k] seconds of pass_s."""
    def run(pair, tree, pass_s):
        return {"workload": "energy_batch", "seed": 1, "pair": pair, "tree": tree,
                "pass_s": pass_s, "setup_s": 0.2, "peak_rss_mb": 32.0, "calib_ms": 14.0}

    return [r for k, (a, b) in enumerate(zip(parent, change))
            for r in (run(k, "parent", a), run(k, "change", b))]


# Ten parent runs: median 0.129, quartiles 0.12725 and 0.13075 (IQR 0.0035).
PARENT = [0.125, 0.127, 0.128, 0.129, 0.130, 0.129, 0.126, 0.131, 0.132, 0.134]


@pytest.mark.parametrize("change, want", [
    # Lower in 9 of 10 pairs, median 0.1195: a gap of 0.0095 > the IQR.
    ([0.118, 0.119, 0.120, 0.121, 0.117, 0.119, 0.120, 0.122, 0.116, 0.140], "gain"),
    # Lower in 8 of 10 pairs: too few, whatever the gap.
    ([0.110, 0.110, 0.110, 0.110, 0.110, 0.110, 0.110, 0.110, 0.140, 0.140], "unresolved"),
    # Lower in every pair, but by 0.003 at the median: within the IQR.
    ([x - 0.003 for x in PARENT], "unresolved"),
    # Higher by 20% at the median: within pass_s's bound of 24%.
    ([x * 1.2 for x in PARENT], "unresolved"),
    # Higher by 30% at the median: beyond the bound.
    ([x * 1.3 for x in PARENT], "worse"),
], ids=["gain", "eight_of_ten", "within_iqr", "within_bound", "beyond_bound"])
def test_verdict_from_synthetic_record(change, want):
    got = bench_record.summary(_record(PARENT, change), BOUNDS)["energy_batch"]
    assert got["pairs"] == 10
    assert got["verdict"] == {"pass_s": want, "setup_s": "unresolved", "peak_rss_mb": "unresolved"}


def test_gain_needs_ten_pairs():
    # Lower in all of 5 pairs by far more than the IQR: still too few pairs.
    got = bench_record.summary(_record(PARENT[:5], [0.05] * 5), BOUNDS)["energy_batch"]
    assert got["verdict"]["pass_s"] == "unresolved"
