"""One benchmark process: set up a workload, run it as a closed loop, report.

Run by ``run.py`` in a fresh interpreter (``PYTHONPATH`` pointing at the
checkout's ``src``, BLAS thread caps already in the environment).  Prints one
JSON object on its last stdout line.

Set-up time counts from the first line of this file: imports, building the
inputs, and one warm-up cycle.  With ``--phase setup`` the process stops
there.  The measured loop runs whole cycles (one client, next op only after
the previous one returned) until ``--seconds`` have passed.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, which gives the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TAIL_BEYOND = 10
# The op_tail_ms order statistic (TAIL_BEYOND + 1 from the top) falls in the
# second-slowest case for 6 to 10 cycles and in the slowest from 11 on; fewer
# than 6 cycles would move it to a faster case.  A slow spell of the machine
# must not push a timed run below 6 cycles.
MIN_CYCLES = 6


class Checker:
    """Correctness gate: per-case tolerance verdicts, repeated CSV bytes, evidence."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.warmup_failed = 0

    def record(self, case, outcome, counted):
        s = case.stats
        ok, error = outcome.ok, outcome.error
        if not ok and error is None:
            error = f"relative error {outcome.rel_error} above tolerance"
        if outcome.csv_sha256 is not None:
            ref = s.setdefault("csv_sha256", outcome.csv_sha256)
            if outcome.csv_sha256 != ref:
                s["csv_mismatches"] = s.get("csv_mismatches", 0) + 1
                ok, error = False, "table.csv bytes differ from the case's first run"
        if outcome.rel_error is not None:
            s["max_rel_error"] = max(s.get("max_rel_error", 0.0), outcome.rel_error)
        s["ops"] = s.get("ops", 0) + 1
        if not ok:
            s["failed"] = s.get("failed", 0) + 1
            s.setdefault("first_error", error)
        if counted:
            self.attempted += 1
            self.failed += not ok
        else:
            self.warmup_failed += not ok


def run_cycle(cases, checker, tracer=None, counted=True):
    for case in cases:
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            outcome = case.op()
        except Exception as exc:  # a failing op is counted, and the run goes on
            outcome = workloads.Outcome(False, error=f"{type(exc).__name__}: {exc}")
        if counted:
            case.latencies.append(time.perf_counter() - t0)
        checker.record(case, outcome, counted)


def measure(cases, checker, seconds, tracer=None, min_cycles=1):
    """Whole cycles until `seconds` have passed and at least `min_cycles` ran."""
    for case in cases:
        case.latencies.clear()
    start = time.perf_counter()
    cycles = 0
    while True:
        run_cycle(cases, checker, tracer)
        cycles += 1
        wall = time.perf_counter() - start
        if wall >= seconds and cycles >= min_cycles:
            return latency_summary(cases, wall)


def latency_summary(cases, wall):
    """End-to-end latency figures of one measured loop.

    Every case runs equally often, so the mix is fixed.  Throughput is ops
    over wall time.  The median is taken over the cases, each represented by
    its mean latency: the mix's 50th percentile often falls in the gap
    between two cases, where the pooled median would hang on the single
    extreme op on either side, and a case's mean averages out the drift in
    machine speed over the run.  The tail is the highest percentile with at
    least TAIL_BEYOND ops beyond it.
    """
    lat = sorted(t for c in cases for t in c.latencies)
    n = len(lat)
    if n > TAIL_BEYOND:
        tail, beyond = lat[n - TAIL_BEYOND - 1], TAIL_BEYOND
    else:
        tail, beyond = lat[-1], 0
    return {
        "ops_per_s": n / wall,
        "op_p50_ms": statistics.median(statistics.fmean(c.latencies) for c in cases) * 1e3,
        "op_tail_ms": tail * 1e3,
        "op_tail_percentile": 100.0 * (n - beyond) / n,
        "op_tail_beyond": beyond,
        "n_ops": n,
        "cycles": n // len(cases),
        "wall_s": wall,
    }


def case_record(case):
    """Correctness evidence of one case, with its measured latencies."""
    rec = dict(case.stats)
    if case.latencies:
        ms = [t * 1e3 for t in case.latencies]
        rec.update(p50_ms=statistics.median(ms), min_ms=min(ms), max_ms=max(ms),
                   latencies_ms=ms)
    return rec


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), default="run")
    p.add_argument("--quick", action="store_true", help="smallest case only")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="file for the traced run's spans")
    args = p.parse_args(argv)

    workdir = Path(args.workdir)
    try:
        cases = workloads.BUILDERS[args.workload](args.seed, workdir, quick=args.quick)
        checker = Checker()
        run_cycle(cases, checker, counted=False)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s, "env": environment()}
        if args.phase == "run":
            if args.trace:
                untraced = measure(cases, checker, args.seconds / 2)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = measure(cases, checker, args.seconds / 2, tracer)
                finally:
                    tracer.uninstall()
                overhead = 100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0)
                result["untraced"], result["traced"] = untraced, traced
                result["layers"] = tracer.metrics(traced["n_ops"], overhead)
                if args.spans:
                    tracer.write_spans(args.spans)
                    result["spans_file"] = args.spans
                    result["spans"] = len(tracer.span_op)
            else:
                result["timed"] = measure(cases, checker, args.seconds, min_cycles=MIN_CYCLES)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(attempted=checker.attempted, failed=checker.failed,
                      warmup_failed=checker.warmup_failed,
                      cases={c.name: case_record(c) for c in cases})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
