"""harmspec benchmark.

Runs one workload as a closed loop: one client, one CLI operation at a
time, each through ``harmspec.cli.main(argv)`` in this process, in passes
over the workload's operations until ``--seconds`` are used. Every
operation runs under a per-operation deadline and every output is checked
against an independent oracle. The last line of standard output is the
result as JSON.

usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \\
      --deadline-s census_symmetric=6,audit=6,energy_batch=6,charpoly_batch=1.5

--workload all runs the four workloads one after another, each in its own
process. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata

import workloads
from deadline import DeadlineExceeded, deadline

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 7          # timed fresh interpreters per run, after one warm-up
MIN_PASSES = 2
CALIBRATION_LOOP = 200_000


@dataclass
class OpRun:
    outcome: str              # done | timeout | error
    elapsed: float
    returncode: int | None = None
    output: str = ""
    error: str = ""


@dataclass
class Pass:
    traced: bool
    calib_s: float
    pass_s: float
    runs: list[OpRun]
    tracer: object = None


def _deadlines(text: str) -> dict[str, float]:
    out = {}
    for item in text.split(","):
        name, _, seconds = item.partition("=")
        if name not in workloads.NAMES or not seconds:
            raise argparse.ArgumentTypeError(f"expected WORKLOAD=SECONDS, got {item!r}")
        out[name] = float(seconds)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline-s", dest="deadline_s", required=True, type=_deadlines,
                   help="per-operation deadline of each workload, as NAME=SECONDS,...")
    return p.parse_args(argv)


def environment() -> dict:
    # The census thread pool stays off: every workload is single-threaded.
    threads = os.environ.pop("HARMSPEC_THREADS", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "HARMSPEC_THREADS": "unset" if threads is None else f"{threads!r}, unset for the run",
    }


def _probe(mode: str, ops, *extra: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "probe.py"), mode, SRC,
            json.dumps([list(op.argv) for op in ops]), *extra]


def measure_setup(wl: workloads.Workload) -> list[float]:
    """Wall seconds for a fresh interpreter to import harmspec.cli, parse
    the operations' arguments and load their inputs."""
    cmd = _probe("setup", wl.ops)
    times = []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        if k:  # the first probe writes bytecode and warms the file cache
            times.append(time.perf_counter() - start)
    return times


def measure_peak_rss(ops, deadline_s: float) -> float:
    """Peak resident MiB of a fresh interpreter that runs the given
    operations once. run.py passes the operations that completed in every
    timed pass: memory an operation allocates before its deadline cuts it
    off depends only on how fast the machine ran until then."""
    proc = subprocess.run(_probe("rss", ops, str(deadline_s)), check=True, text=True,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    return int(proc.stdout.split()[-1]) / 1024


def calibrate() -> float:
    """A fixed pure-Python loop, timed as context for machine-speed drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def run_op(cli, op: workloads.Op, deadline_s: float) -> OpRun:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), deadline(deadline_s):
            rc = cli.main(list(op.argv))
    except DeadlineExceeded:
        return OpRun("timeout", time.perf_counter() - start)
    except Exception as exc:  # a crashing operation is counted, the run goes on
        return OpRun("error", time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return OpRun("done", time.perf_counter() - start, rc, out.getvalue())


def run_passes(wl, deadline_s: float, seconds: float, trace: bool) -> list[Pass]:
    from harmspec import cli
    from harmspec.census import cached_census

    from tracing import Tracer

    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        calib_s = calibrate()
        if wl.clear_census_cache:
            cached_census.cache_clear()
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            runs = []
            start = time.perf_counter()
            for k, op in enumerate(wl.ops):
                if tracer:
                    tracer.op = k
                runs.append(run_op(cli, op, deadline_s))
            pass_s = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
        passes.append(Pass(traced, calib_s, pass_s, runs, tracer))
        elapsed = time.perf_counter() - t0
        longest = max(p.calib_s + p.pass_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            return passes


def check_runs(wl, passes: list[Pass]) -> list[list[str]]:
    """Failure reason of every run ('' when it is correct or timed out).

    The first completed output of an operation is checked by its oracle;
    every later output must be byte-identical to it, which in a traced run
    shows that the wrappers do not change what the program prints."""
    import oracles

    def verdict(op, run: OpRun) -> str:
        try:
            oracles.check(op, run.returncode, run.output, SRC)
        except oracles.CheckFailed as exc:
            return f"check failed: {exc}"
        return ""

    reasons = [["" for _ in p.runs] for p in passes]
    for k, op in enumerate(wl.ops):
        first = first_verdict = None
        for p, row in zip(passes, reasons):
            run = p.runs[k]
            if run.outcome == "error":
                row[k] = run.error
            elif run.outcome == "done":
                result = (run.returncode, run.output)
                if first is None:
                    first, first_verdict = result, verdict(op, run)
                row[k] = (first_verdict if result == first
                          else "output differs from the first completed run")
    return reasons


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def trace_metrics(passes: list[Pass]) -> tuple[dict, list[str]]:
    import tracing

    per_pass = []
    for p in passes:
        if p.traced:
            m = tracing.pass_metrics(p.tracer.spans)
            m["cli.output_bytes"] = sum(len(r.output.encode()) for r in p.runs)
            m["ops.timed_out"] = sum(r.outcome == "timeout" for r in p.runs)
            per_pass.append(m)
    metrics = tracing.combine_passes(per_pass)
    # Untraced and traced passes alternate; pair each traced pass with the
    # untraced one before it, so slow drift of the machine cancels.
    metrics["trace.overhead_s"] = statistics.median(
        b.pass_s - a.pass_s for a, b in zip(passes, passes[1:]) if b.traced)
    unstable = [k for k in per_pass[0]
                if not k.endswith("_s") and len({m[k] for m in per_pass}) > 1]
    return metrics, unstable


def run_workload(args) -> int:
    deadline_s = args.deadline_s.get(args.workload)
    if deadline_s is None:
        print(f"perfbench: --deadline-s gives no deadline for {args.workload}", file=sys.stderr)
        return 2
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    input_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.build(args.workload, args.seed, input_dir)
        setup = measure_setup(wl)
        sys.path.insert(0, SRC)
        import harmspec

        if not os.path.abspath(harmspec.__file__).startswith(SRC + os.sep):
            print(f"perfbench: harmspec imported from {harmspec.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        passes = run_passes(wl, deadline_s, args.seconds, bool(args.trace))
        completed = [op for k, op in enumerate(wl.ops)
                     if all(p.runs[k].outcome == "done" for p in passes)]
        peak_rss_mb = measure_peak_rss(completed, deadline_s)
        reasons = check_runs(wl, passes)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    runs = [(op, run, reason) for p, row in zip(passes, reasons)
            for op, run, reason in zip(wl.ops, p.runs, row)]
    attempted = len(runs)
    failed = sum(1 for _, _, reason in runs if reason)
    timed_out = sum(1 for _, run, _ in runs if run.outcome == "timeout")
    plain = [p.pass_s for p in passes if not p.traced]
    setup_q = quartiles(setup)
    pass_q = quartiles(plain)
    calib_q = quartiles([p.calib_s * 1000 for p in passes])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  deadline_s {deadline_s:g}")
    print("env " + json.dumps(env))
    print(f"  setup_s      {setup_q[1]:.4f} s   q1 {setup_q[0]:.4f}  q3 {setup_q[2]:.4f}  "
          f"n={len(setup)}")
    print(f"  pass_s       {pass_q[1]:.4f} s   q1 {pass_q[0]:.4f}  q3 {pass_q[2]:.4f}  "
          f"n={len(plain)} untraced passes of {len(wl.ops)} operations")
    print(f"  failed_frac  {(failed + timed_out) / attempted:.4f}     "
          f"{timed_out} timed out + {failed} failed of {attempted} attempted")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB   fresh process running the "
          f"{len(completed)} of {len(wl.ops)} operations that completed in every pass")
    print(f"  calib_ms     {calib_q[1]:.2f} ms  q1 {calib_q[0]:.2f}  q3 {calib_q[2]:.2f}  "
          f"(context only: a fixed loop timed before each pass)")
    for label in sorted({op.label for op, run, _ in runs if run.outcome == "timeout"}):
        n = sum(1 for op, run, _ in runs if op.label == label and run.outcome == "timeout")
        print(f"  timed out: {label}  ({n} of {len(passes)} passes, deadline {deadline_s:g} s)")
    for op, _, reason in runs:
        if reason:
            print(f"  FAILED: {op.label}: {reason}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": deadline_s, "env": env, "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "passes": [{"traced": p.traced, "calib_s": p.calib_s, "pass_s": p.pass_s,
                    "ops": [{"label": op.label, "outcome": r.outcome, "elapsed": r.elapsed,
                             "failure": reason}
                            for op, r, reason in zip(wl.ops, p.runs, row)]}
                   for p, row in zip(passes, reasons)],
    }
    if args.trace:
        metrics, unstable = trace_metrics(passes)
        for name in sorted(metrics):
            print(f"  {name:<36} {metrics[name]:.6g}")
        if unstable:
            print(f"  WARNING: counts differ between traced passes: {', '.join(unstable)}")
        record["spans"] = [
            [k, s.name, s.parent, s.op, s.start, s.end, s.outcome, s.counts]
            for k, p in enumerate(passes) if p.traced for s in p.tracer.spans
        ]
        result_metrics = {name: {"value": value, "unit": _unit(name)}
                          for name, value in metrics.items()}
    else:
        result_metrics = {
            "pass_s": {"value": pass_q[1], "unit": "s"},
            "setup_s": {"value": setup_q[1], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    with open(os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_yield"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--deadline-s",
               ",".join(f"{k}={v:g}" for k, v in args.deadline_s.items())]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "harmspec", "__init__.py")):
        print(f"perfbench: no harmspec sources under {SRC}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
