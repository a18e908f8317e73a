"""Batch experiment driver: JSON config in, JSON report + CSV tables out.

Usage::

    dynsamp <mode> --config cfg.json [--out dir] [--seed 7] [overrides]

Modes: roundtrip, singular_scan, stability_report, noise_sweep,
sis_roundtrip, bounds_table.  Scalar config fields can be overridden by
flags of the same name.  Identical config + seed produce byte-identical
CSV output; every reported number comes from a library operation.  Exit
codes: 0 success, 1 config error, 2 guarantee violation.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DynsampError, PreconditionViolated
from . import sis as sis_mod
from . import spectral
from . import stability as stab
from .filters import filter_from_spec
from .recon import forward, reconstruct_extended, reconstruct_plain
from .systems import PlainSystem, det_plain, plain_family, smin_family, singular_indices


MODES = ("roundtrip", "singular_scan", "stability_report", "noise_sweep",
         "sis_roundtrip", "bounds_table")

_MODE_TOL = {"roundtrip": 1e-8, "singular_scan": 1e-8, "sis_roundtrip": 1e-6}


@dataclass
class ExperimentConfig:
    mode: str = "roundtrip"
    filter: dict = None
    m: int = 3
    n: int = 1
    N: int = None
    omega: list = field(default_factory=list)
    L: int = 72
    grid: int = 720
    sigmas: list = field(default_factory=list)
    trials: int = 200
    seed: int = 0
    tol: float = None
    generator: dict = None
    line_filter: dict = None
    P: int = 48
    K: int = 384
    n_list: list = field(default_factory=lambda: [3, 7, 15])
    out: str = "."

    @classmethod
    def from_dict(cls, obj):
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj)

    def tolerance(self):
        return self.tol if self.tol is not None else _MODE_TOL.get(self.mode, 1e-8)


def validate(config):
    """All config violations as human-readable messages (empty list = valid)."""
    v = []
    if config.mode not in MODES:
        v.append(f"unknown mode {config.mode!r}; expected one of {MODES}")
        return v
    needs_filter = config.mode in ("roundtrip", "singular_scan", "stability_report",
                                   "noise_sweep", "bounds_table")
    if needs_filter and not config.filter:
        v.append("missing filter spec")
    if config.m < 1:
        v.append("m must be a positive integer")
    if config.n < 1 and not (config.mode == "sis_roundtrip" and config.n == 0):
        v.append("n must be a positive integer (sis_roundtrip also takes 0 to choose n)")
    if config.mode == "roundtrip" and config.N is not None and config.N < config.m:
        v.append(f"roundtrip needs N >= m = {config.m} snapshot sequences, got N={config.N}")
    omega = list(config.omega)
    uses_extras = config.mode == "roundtrip" and omega
    uses_extras = uses_extras or config.mode in ("stability_report", "sis_roundtrip",
                                                 "noise_sweep")
    if config.m >= 1:
        # sis_roundtrip's n = 0 picks n at run time, and omega's range depends on it
        shifts = omega if uses_extras and config.n >= 1 else []
        try:
            spectral._layout(config.L, config.m, max(config.n, 1), shifts, packets=uses_extras)
        except DynsampError as exc:
            v.append(str(exc))
    if config.mode in ("stability_report", "bounds_table", "noise_sweep") or omega:
        if config.n % 2 == 0:
            v.append("the stable-recovery guarantee requires odd n")
    if config.mode in ("stability_report", "bounds_table", "noise_sweep") or (
            config.mode == "roundtrip" and omega):
        if config.m % 2 == 0:
            v.append(f"{config.mode} needs odd m")
    if config.mode == "stability_report" and config.grid < 16 * config.m * config.n:
        v.append(f"stability_report needs grid >= 16*m*n = {16 * config.m * config.n} "
                 "to resolve the guard band")
    if config.mode == "noise_sweep" and config.grid < 4 * config.m * config.n:
        v.append(f"noise_sweep needs grid >= 4*m*n = {4 * config.m * config.n}")
    if config.mode in ("stability_report", "bounds_table"):
        required = list(range(config.m))
        if omega and omega != required:
            v.append(f"the upper-bound estimates require the full extra sample set {required}")
    if config.mode == "noise_sweep" and not config.sigmas:
        v.append("noise_sweep needs a nonempty sigmas list")
    uses_trials = config.mode == "noise_sweep" or (config.mode == "stability_report"
                                                   and config.sigmas)
    if uses_trials and config.trials < 1:
        v.append(f"{config.mode} needs at least one noise trial, got trials={config.trials}")
    if config.mode == "sis_roundtrip":
        if not config.generator:
            v.append("sis_roundtrip needs a generator spec")
        elif config.generator.get("kind") == "bspline":
            try:
                sis_mod._bspline_order(config.generator.get("order", 3))
            except PreconditionViolated as exc:
                v.append(str(exc))
        if not config.line_filter:
            v.append("sis_roundtrip needs a line_filter spec")
        if config.P < 1:
            v.append(f"sis_roundtrip needs P >= 1 fine samples per unit, got P={config.P}")
        if config.K < 1:
            v.append(f"sis_roundtrip needs a periodization half-width K >= 1, got K={config.K}")
    if config.mode in ("noise_sweep", "roundtrip", "sis_roundtrip", "stability_report"):
        if config.seed is None:
            v.append("stochastic modes need an explicit seed")
    if config.mode == "bounds_table":
        if not config.n_list:
            v.append("bounds_table needs a nonempty n_list")
        if any(n < 1 or n % 2 == 0 for n in config.n_list):
            v.append("bounds_table needs odd entries in n_list")
        if config.filter and config.filter.get("kind") == "table":
            v.append("bounds_table regenerates the filter per n and needs a closed-form kind")
    return v


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return "%.17g" % x
    if x is None:
        return ""
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _write_report(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _filter_desc(spec):
    items = ",".join(f"{k}={spec[k]}" for k in sorted(spec) if k not in ("kind", "table"))
    return spec["kind"] + (f"({items})" if items else "")


def _run_roundtrip(cfg, out):
    a = filter_from_spec(cfg.filter)
    f = stab._seeded_signal(cfg.L, cfg.seed)
    N = cfg.N if cfg.N is not None else cfg.m
    samples = forward(f, a, cfg.m, N, cfg.n, cfg.omega)
    omega = samples.omega
    if omega:
        rec = reconstruct_extended(samples, a, cfg.m, cfg.n, omega)
    else:
        rec = reconstruct_plain(samples, a, cfg.m)
    rel = float(np.linalg.norm(rec - f) / np.linalg.norm(f))
    ok = rel <= cfg.tolerance()
    report = {"mode": "roundtrip", "config": _echo(cfg), "rel_error": rel,
              "tolerance": cfg.tolerance(), "pass": ok}
    _write_report(out / "report.json", report)
    _write_csv(out / "table.csv",
               ["m", "n", "N", "L", "omega_size", "seed", "rel_error", "pass"],
               [[cfg.m, cfg.n, N, cfg.L, len(omega), cfg.seed, rel, ok]])
    return 0 if ok else 2


def _run_singular_scan(cfg, out):
    a = filter_from_spec(cfg.filter)
    system = PlainSystem(a, cfg.m, cfg.m)
    smins = smin_family(plain_family(system))
    step = cfg.L // cfg.m
    dets = np.abs(det_plain(system, np.arange(step)))
    bad = singular_indices(smins, cfg.tolerance())
    xis = [rho / step for rho in bad]
    _write_csv(out / "spectrum.csv", ["xi", "smin", "det_magnitude"],
               [[rho / step, float(smins[rho]), dets[rho]] for rho in range(step)])
    _write_csv(out / "table.csv", ["singular_xi", "grid_index"],
               [[x, rho] for x, rho in zip(xis, bad)])
    report = {"mode": "singular_scan", "config": _echo(cfg),
              "singular_xi": xis, "singular_indices": bad,
              "grid_points": step, "tolerance": cfg.tolerance()}
    _write_report(out / "report.json", report)
    return 0


def _run_stability_report(cfg, out):
    a = filter_from_spec(cfg.filter)
    sigma = cfg.sigmas[0] if cfg.sigmas else None
    rep = stab.stability_report(a, cfg.m, cfg.n, filter_desc=_filter_desc(cfg.filter),
                                grid=cfg.grid, seed=cfg.seed, noise_sigma=sigma,
                                trials=cfg.trials)
    report = {"mode": "stability_report", "config": _echo(cfg)}
    report.update(rep.to_json_dict())
    _write_report(out / "report.json", report)
    _write_csv(out / "table.csv", stab.StabilityReport.CSV_HEADER, [rep.csv_row()])
    return 0 if rep.sandwich_ok else 2


def _run_noise_sweep(cfg, out):
    a = filter_from_spec(cfg.filter)
    omega = tuple(cfg.omega) or stab.minimal_omega(cfg.m)
    f = stab._seeded_signal(cfg.L, cfg.seed)
    pinv_norm = stab.empirical_pinv_norm(a, cfg.m, cfg.n, omega, cfg.grid)
    rows = []
    means = []
    all_ok = True
    for sigma in cfg.sigmas:
        res = stab.noise_trial(f, a, cfg.m, cfg.n, omega, sigma,
                               trials=cfg.trials, seed=cfg.seed, pinv_norm=pinv_norm)
        rows.append([cfg.m, cfg.n, cfg.L, len(omega), sigma, cfg.trials, cfg.seed,
                     res.mean_error, res.bound, res.ratio, res.bound_ok])
        means.append(res.mean_error)
        all_ok = all_ok and res.bound_ok
    slope_dev = stab.proportionality_deviation(cfg.sigmas, means)
    linear = slope_dev <= 0.05
    report = {"mode": "noise_sweep", "config": _echo(cfg),
              "pinv_norm": pinv_norm,
              "rows": [dict(zip(["m", "n", "L", "omega_size", "sigma", "trials", "seed",
                                 "mean_error", "bound", "ratio", "bound_ok"], r)) for r in rows],
              "slope_deviation": slope_dev, "linear": linear,
              "pass": bool(all_ok and linear)}
    _write_report(out / "report.json", report)
    _write_csv(out / "table.csv",
               ["m", "n", "L", "omega_size", "sigma", "trials", "seed",
                "mean_error", "bound", "ratio", "bound_ok"], rows)
    return 0 if (all_ok and linear) else 2


def _run_sis_roundtrip(cfg, out):
    gen = sis_mod.make_generator(cfg.generator)
    a_hat = sis_mod.line_filter_from_spec(cfg.line_filter)
    m, L = cfg.m, cfg.L
    n, system = cfg.n, None
    if n == 0:
        system = sis_mod.build_sis_system(gen, a_hat, m, L, cfg.K)
        bad = sis_mod.sis_singular_set(system)
        xis = [rho / (L // m) for rho in bad]
        n = sis_mod.choose_n(xis, n_max=15, n_min=2, tol=1.0 / (2.0 * L))
    omega = tuple(cfg.omega) or tuple(range(1, m))
    c = stab._seeded_signal(L, cfg.seed)
    samples = sis_mod.sis_forward(c, gen, a_hat, m, n, omega, P=cfg.P)
    rec = sis_mod.sis_reconstruct(samples, gen, a_hat, m, n, omega, K=cfg.K, system=system)
    rel = float(np.linalg.norm(rec - c) / np.linalg.norm(c))
    ok = rel <= cfg.tolerance()
    report = {"mode": "sis_roundtrip", "config": _echo(cfg), "n_used": n,
              "rel_error": rel, "tolerance": cfg.tolerance(), "pass": ok}
    _write_report(out / "report.json", report)
    _write_csv(out / "table.csv",
               ["m", "n", "L", "omega_size", "P", "K", "seed", "rel_error", "pass"],
               [[m, n, L, len(omega), cfg.P, cfg.K, cfg.seed, rel, ok]])
    return 0 if ok else 2


def _run_bounds_table(cfg, out):
    spec = dict(cfg.filter)
    m = cfg.m
    rows = []
    lowers = []
    for n in cfg.n_list:
        L = ((cfg.L + m * n - 1) // (m * n)) * (m * n)   # smallest multiple >= cfg.L
        spec["L"] = L
        a = filter_from_spec(spec)
        lower = stab.lower_bound_stablow(a, m, n)
        grid = max(cfg.grid, 16 * m * n)      # keeps >= 8mn points inside the guard band
        emp_min = stab.empirical_pinv_norm(a, m, n, stab.minimal_omega(m), grid)
        b1 = stab.bound_beta1(a, m, n, grid)
        rows.append([m, n, L, grid, lower, emp_min, b1.bound])
        lowers.append(lower)
    increasing = all(b > a for a, b in zip(lowers, lowers[1:]))
    report = {"mode": "bounds_table", "config": _echo(cfg),
              "rows": [dict(zip(["m", "n", "L", "grid", "lower_bound",
                                 "empirical_minimal", "beta1_bound"], r)) for r in rows],
              "lower_bound_strictly_increasing": increasing,
              "pass": increasing}
    _write_report(out / "report.json", report)
    _write_csv(out / "table.csv",
               ["m", "n", "L", "grid", "lower_bound", "empirical_minimal", "beta1_bound"],
               rows)
    return 0 if increasing else 2


_RUNNERS = {
    "roundtrip": _run_roundtrip,
    "singular_scan": _run_singular_scan,
    "stability_report": _run_stability_report,
    "noise_sweep": _run_noise_sweep,
    "sis_roundtrip": _run_sis_roundtrip,
    "bounds_table": _run_bounds_table,
}


def _echo(cfg):
    d = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    d["omega"] = list(d["omega"])
    return d


def run(config, out_dir=None):
    """Validate and execute one experiment; returns the process exit code."""
    violations = validate(config)
    if violations:
        print(json.dumps({"error": "ConfigError", "violations": violations},
                         sort_keys=True), file=sys.stderr)
        return 1
    out = Path(out_dir if out_dir is not None else config.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _RUNNERS[config.mode](config, out)
    except DynsampError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 1


def _build_parser():
    p = argparse.ArgumentParser(prog="dynsamp",
                                description="Run reconstruction / stability experiments")
    p.add_argument("mode", choices=MODES)
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--out", default=None, help="output directory (default: config 'out')")
    for name in ("m", "n", "N", "L", "grid", "trials", "seed", "P", "K"):
        p.add_argument(f"--{name}", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 1
    obj["mode"] = args.mode
    try:
        cfg = ExperimentConfig.from_dict(obj)
    except (TypeError, ValueError) as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 1
    for name in ("m", "n", "N", "L", "grid", "trials", "seed", "P", "K", "tol"):
        val = getattr(args, name)
        if val is not None:
            setattr(cfg, name, val)
    return run(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
