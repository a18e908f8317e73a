"""dynsamp benchmark: end-to-end and per-layer metrics on three seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload recover --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Workloads (see workloads.py for the cases and why each was chosen):

    recover      forward -> reconstruct_* -> relative-error check, L-sweep
    experiments  cli.run over roundtrip, singular_scan, stability_report,
                 noise_sweep and bounds_table configs
    span         cli.run in sis_roundtrip mode, B-spline and sinc generators

Each workload runs as a closed loop with one client in its own fresh process
(worker.py).  ``--trace 0`` prints the end-to-end metrics; set-up is timed
in three fresh processes and reported as the median.  ``--trace 1`` prints
the per-layer metrics of a separate traced run (tracer.py).  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the full record (environment, per-case evidence, tail percentile)
goes to perfbench/results/.  ``--selfcheck`` runs the smallest case of each
workload and checks that every metric is present and well-formed.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
OUT = RESULTS.relative_to(ROOT)      # the same, as workers (run from ROOT) see it

# One BLAS/OpenMP thread (within nproc = 2 on the reference machine): the
# runs are single-client, and a fixed count keeps OpenBLAS from choosing its
# own.  Set before any worker imports numpy.
THREAD_CAPS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}
WORKLOADS = ("recover", "experiments", "span")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchError(Exception):
    pass


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dynsamp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker(workload, seed, seconds, trace, phase, quick, deadline, tag):
    env = dict(os.environ, **THREAD_CAPS, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--phase", phase, "--workdir", str(OUT / f"work-{os.getpid()}-{tag}")]
    if quick:
        cmd.append("--quick")
    if trace and phase == "run":
        cmd += ["--spans", str(OUT / f"{workload}.spans.tsv.gz")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the {DEADLINE_S:.0f} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def run_benchmark(workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (result line, full record)."""
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    setups = []
    if not trace:
        for i in range(1 if quick else SETUP_REPEATS - 1):
            setups.append(_worker(workload, seed, seconds, 0, "setup", quick, deadline, i))
    main = _worker(workload, seed, seconds, trace, "run", quick, deadline, "run")
    attempted, failed = main["attempted"], main["failed"]
    failed_setups = sum(s["warmup_failed"] for s in setups) + main["warmup_failed"]
    # Within a process the worker already compares every CSV with the case's
    # first one; here the fresh set-up processes must have written the same bytes.
    csv_repeat_ok = all(s["cases"][name].get("csv_sha256") == case.get("csv_sha256")
                        for s in setups for name, case in main["cases"].items())
    correct = failed == 0 and failed_setups == 0 and csv_repeat_ok and attempted > 0
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "quick": quick, "correct": correct, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted if attempted else None,
              "warmup_failed": failed_setups, "csv_repeat_ok": csv_repeat_ok,
              "cases": main["cases"],
              "env": dict(main["env"], nproc=os.cpu_count(),
                          nproc_usable=len(os.sched_getaffinity(0)),
                          thread_caps=THREAD_CAPS, git_commit=_git_commit(),
                          source_sha256=_source_digest())}
    if trace:
        units = tracer.metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in main["layers"].items()}
        record.update(untraced=main["untraced"], traced=main["traced"],
                      spans_file=main.get("spans_file"), spans=main.get("spans"))
    else:
        timed = main["timed"]
        setup_all = [s["setup_s"] for s in setups] + [main["setup_s"]]
        values = {"ops_per_s": timed["ops_per_s"], "op_p50_ms": timed["op_p50_ms"],
                  "op_tail_ms": timed["op_tail_ms"], "peak_rss_mb": main["peak_rss_mb"],
                  "ok_ratio": (attempted - failed) / attempted,
                  "setup_s": statistics.median(setup_all)}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        record.update(timed=timed, setup_runs_s=setup_all)
    record["metrics"] = metrics
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, record


def _write_record(record):
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def _print_summary(record):
    for name, m in record["metrics"].items():
        print(f"{record['workload']:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        t = record["timed"]
        print(f"{record['workload']:12s} op_tail_ms is p{t['op_tail_percentile']:.2f} "
              f"of n={t['n_ops']} ops ({t['op_tail_beyond']} beyond it); "
              f"fail_ratio={record['fail_ratio']}")
    env = record["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, commit {env['git_commit']}, "
          f"src sha256 {env['source_sha256'][:12]}")


def selfcheck():
    """Smallest case per workload, both modes; every metric present and well-formed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: list(END_TO_END), 1: list(tracer.metric_units())}
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        if [m["name"] for m in declared[key]] != want[trace]:
            problems.append(f"BENCHMARK.json {key} names differ from what the runs report")
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, record = run_benchmark(workload, 0, 0, trace, quick=True)
            _write_record(record)
            if not line["correct"]:
                problems.append(f"{workload} trace={trace}: smallest case not correct")
            if list(line["metrics"]) != want[trace]:
                problems.append(f"{workload} trace={trace}: metric names differ")
            for name, m in line["metrics"].items():
                v = m["value"]
                if not NAME_RE.match(name) or not isinstance(v, (int, float)) \
                        or not math.isfinite(v) or not m["unit"]:
                    problems.append(f"{workload} trace={trace}: malformed metric {name}: {m}")
            print(f"selfcheck {workload} trace={trace}: {len(line['metrics'])} metrics")
    for p in problems:
        print("selfcheck FAILED:", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "dynsamp" / "__init__.py").is_file():
        print(f"benchmark: no dynsamp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            p.error("--workload is required")
        line, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    path = _write_record(record)
    _print_summary(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
