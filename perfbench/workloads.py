"""Workload definitions: seeded inputs, the op per case, and its correctness gate.

Every workload is a fixed list of cases that the worker runs in whole cycles,
so every run sees the same mix.  The seed only decides the generated inputs
(signals for ``recover``, the config ``seed`` field for the CLI workloads);
the library never sees the workload seed itself.

Calls go through module attributes (``ds.forward``, ``cli.run``) looked up at
call time, so the tracer's wrappers see them.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dynsamp as ds
from dynsamp import cli

# Relative-error tolerances of the two pipelines (the CLI's mode tolerances).
SEQ_TOL = 1e-8
SPAN_TOL = 1e-6

RECOVER_L = (72, 576, 2304, 9216, 36864)


@dataclass
class Outcome:
    """Result of one op: did it pass, and the evidence for it."""

    ok: bool
    rel_error: float = None
    csv_sha256: str = None
    error: str = None


@dataclass
class Case:
    name: str
    op: object                      # callable () -> Outcome
    stats: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)     # seconds, measured ops only


# ---------------------------------------------------------------------------
# recover
#
# Why: the library's main job, forward -> reconstruct -> relative-error check,
# swept over L.  At large L the per-packet loop of reconstruct_extended /
# build_extended dominates; the plain cases take one batched pinv instead, so
# a packet-engine change shows up on the extended cases and any cost it
# pushes onto the plain path shows up on the plain ones.

def _plain_table_filter(L):
    # Non-symmetric complex response exp(-2 pi i xi)(2 + cos 2 pi xi)/3.  A
    # symmetric filter is singular at rho = 0 and rho = L/(2m) by the paper's
    # theorem, so the plain (no extra samples) path needs one like this.
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi) * (2.0 + np.cos(2.0 * np.pi * xi)) / 3.0)


def _signal(rng, L):
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / math.sqrt(2.0)


def _recover_op(f, a, m, n, omega):
    def op():
        samples = ds.forward(f, a, m, m, n, omega)
        if omega:
            rec = ds.reconstruct_extended(samples, a, m, n, omega)
        else:
            rec = ds.reconstruct_plain(samples, a, m)
        rel = float(np.linalg.norm(rec - f) / np.linalg.norm(f))
        return Outcome(rel <= SEQ_TOL, rel_error=rel)
    return op


def recover_specs(quick=False):
    """(name, filter factory, m, n, omega, L) for every recover case."""
    specs = []
    for L in RECOVER_L:
        specs.append((f"plain-L{L}", _plain_table_filter, 3, 1, (), L))
    for L in RECOVER_L:
        specs.append((f"rcos-m3n3-L{L}", lambda L: ds.filter_raised_cosine(L, 1.0),
                      3, 3, (1,), L))
    for L in (560, 8960):
        specs.append((f"heat-m5n7-L{L}", lambda L: ds.filter_heat(L, 0.5), 5, 7, (1, 2), L))
    return specs[:1] if quick else specs


def build_recover(seed, workdir, quick=False):
    cases = []
    for i, (name, make_filter, m, n, omega, L) in enumerate(recover_specs(quick)):
        rng = np.random.default_rng([seed, i])
        cases.append(Case(name, _recover_op(_signal(rng, L), make_filter(L), m, n, omega)))
    return cases


# ---------------------------------------------------------------------------
# CLI workloads: each op is one in-process cli.run(config, out_dir)

def _cli_op(config, out_dir):
    table = out_dir / "table.csv"
    report = out_dir / "report.json"

    def op():
        for p in (table, report):
            p.unlink(missing_ok=True)
        code = cli.run(config, out_dir)
        if code != 0:
            return Outcome(False, error=f"exit code {code}")
        digest = hashlib.sha256(table.read_bytes()).hexdigest()
        rel = json.loads(report.read_text()).get("rel_error")
        ok = rel is None or rel <= (SPAN_TOL if config.mode == "sis_roundtrip" else SEQ_TOL)
        return Outcome(ok, rel_error=rel, csv_sha256=digest)
    return op


def _build_cli(configs, seed, workdir, quick):
    if quick:
        configs = configs[:1]
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=len(configs))
    cases = []
    for (name, cfg), s in zip(configs, seeds):
        cfg = dict(cfg, seed=int(s))
        out_dir = Path(workdir) / name
        out_dir.mkdir(parents=True, exist_ok=True)
        cases.append(Case(name, _cli_op(cli.ExperimentConfig.from_dict(cfg), out_dir)))
    return cases


# experiments
#
# Why: the opposite regime to recover.  L is small and each op makes tens of
# thousands of tiny matrix builds and SVDs (u_row runs ~35k times per
# stability report), so per-call overhead dominates.  It is also the only
# workload that writes the CSV/JSON contract, so validation or diagnostics
# overhead in cli shows here first.
_RCOS72 = {"kind": "raised_cosine", "L": 72, "p": 1.0}
EXPERIMENTS = [
    ("roundtrip-L72", {"mode": "roundtrip", "filter": _RCOS72,
                       "m": 3, "n": 3, "omega": [1], "L": 72}),
    ("singular_scan-L2304", {"mode": "singular_scan",
                             "filter": {"kind": "raised_cosine", "L": 2304, "p": 1.0},
                             "m": 3, "L": 2304}),
    ("stability_report-heat-L840", {"mode": "stability_report",
                                    "filter": {"kind": "heat", "L": 840, "t": 0.5},
                                    "m": 5, "n": 7, "L": 840, "grid": 720,
                                    "sigmas": [1e-3], "trials": 50}),
    ("noise_sweep-L72", {"mode": "noise_sweep", "filter": _RCOS72,
                         "m": 3, "n": 3, "omega": [1], "L": 72, "grid": 720,
                         "sigmas": [1e-4, 1e-3, 1e-2], "trials": 200}),
    ("bounds_table-m3", {"mode": "bounds_table", "filter": _RCOS72,
                         "m": 3, "L": 72, "n_list": [3, 7, 15]}),
]


def build_experiments(seed, workdir, quick=False):
    return _build_cli(EXPERIMENTS, seed, workdir, quick)


# span
#
# Why: the only workload whose time is in sis.  Most of it is the dense
# B-spline synthesis inside sis_forward (O(L^2 P) time and memory); the sinc
# cases take the frequency route and skip it, so they are the control for a
# change to that synthesis.  n = 0 makes the CLI run choose_n.
def _span(name, gen, L):
    return (name, {"mode": "sis_roundtrip", "generator": gen,
                   "line_filter": {"kind": "gaussian", "alpha": 2.0},
                   "m": 3, "n": 0, "L": L, "K": 384, "P": 48})


SPAN = ([_span(f"bspline3-L{L}", {"kind": "bspline", "order": 3}, L) for L in (72, 144, 288, 576)]
        + [_span(f"sinc-L{L}", {"kind": "sinc"}, L) for L in (576, 2304)])


def build_span(seed, workdir, quick=False):
    return _build_cli(SPAN, seed, workdir, quick)


BUILDERS = {"recover": build_recover, "experiments": build_experiments, "span": build_span}
