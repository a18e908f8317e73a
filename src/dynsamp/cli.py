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

from .errors import DynsampError
from . import sis as sis_mod
from . import spectral, systems
from . import stability as stab
from .filters import filter_from_spec
from .recon import forward, reconstruct_extended, reconstruct_plain
from .systems import PlainSystem, det_plain, plain_family, smin_family, singular_indices


_MODE_TOL = {"roundtrip": 1e-8, "singular_scan": systems.SINGULAR_TOL, "sis_roundtrip": 1e-6}


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
    generator: dict = None
    line_filter: dict = None
    P: int = 48
    K: int = 384
    tol: float = None
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
        return self.tol if self.tol is not None else _MODE_TOL[self.mode]


# scalar config fields that a flag of the same name overrides
_OVERRIDES = {f.name: f.type for f in fields(ExperimentConfig) if f.type in (int, float)}


# JSON types a field of each annotation takes, and their name in a violation
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               str: (str, "a string"), list: ((list, tuple), "a list")}
_ENTRY_TYPES = {"sigmas": float, "n_list": int}


def _is_json(x, t):
    """True when x has the JSON type of annotation t; a bool is no number."""
    return not isinstance(x, bool) and isinstance(x, _JSON_TYPES[t][0])


def _type_violations(config):
    """Fields whose value does not have the JSON type of their annotation.

    Spec objects are left to the library parsers.  None passes where it is
    the default, and for seed, which validate reports per mode."""
    v = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type is dict or (value is None and (f.default is None or f.name == "seed")):
            continue
        entry = _ENTRY_TYPES.get(f.name)
        if not _is_json(value, f.type):
            v.append(f"{f.name} must be {_JSON_TYPES[f.type][1]}, got {value!r}")
        elif entry and not all(_is_json(x, entry) for x in value):
            v.append(f"{f.name} entries must each be {_JSON_TYPES[entry][1]}, got {value!r}")
    return v


def _parse_spec(name, parse, spec, violations):
    """The library's parse of a config spec; None, with a violation added, if it fails."""
    if isinstance(spec, dict) and "kind" not in spec:
        violations.append(f"{name} spec lacks field 'kind'")
        return None
    try:
        return parse(spec)
    except KeyError as exc:
        violations.append(f"{name} spec lacks field {exc.args[0]!r}")
    except (TypeError, ValueError, DynsampError) as exc:
        violations.append(f"bad {name} spec: {exc}")
    return None


def validate(config):
    """All config violations as human-readable messages (empty list = valid).

    A field of the wrong JSON type is reported alone, before any other rule."""
    v = _type_violations(config)
    if v:
        return v
    if config.mode not in MODES:
        v.append(f"unknown mode {config.mode!r}; expected one of {MODES}")
        return v
    if config.mode == "sis_roundtrip":
        for name, parse in (("generator", sis_mod.make_generator),
                            ("line_filter", sis_mod.line_filter_from_spec)):
            if getattr(config, name):
                _parse_spec(name, parse, getattr(config, name), v)
            else:
                v.append(f"sis_roundtrip needs a {name} spec")
        if config.P < 1:
            v.append(f"sis_roundtrip needs P >= 1 fine samples per unit, got P={config.P}")
        if config.K < 1:
            v.append(f"sis_roundtrip needs a periodization half-width K >= 1, got K={config.K}")
    elif not config.filter:
        v.append("missing filter spec")
    elif config.mode == "bounds_table":
        # bounds_table sets the filter's L itself, for each n
        a = _parse_spec("filter", lambda spec: filter_from_spec(dict(spec, L=config.L)),
                        config.filter, v)
        if a is not None and a.kind == "table":
            v.append("bounds_table regenerates the filter per n and needs a closed-form kind")
    else:
        a = _parse_spec("filter", filter_from_spec, config.filter, v)
        if a is not None and a.L != config.L:
            v.append(f"the filter has L = {a.L} but the config has L = {config.L}")
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
    # the stable-recovery guarantee of the extended solve; the span solve needs neither
    guarantee = config.mode in ("stability_report", "bounds_table", "noise_sweep") or (
        config.mode == "roundtrip" and omega)
    if guarantee and config.n % 2 == 0:
        v.append("the stable-recovery guarantee requires odd n")
    if guarantee and config.m % 2 == 0:
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
    if uses_trials and not all(np.isfinite(s) and s >= 0 for s in config.sigmas):
        v.append(f"{config.mode} needs finite sigmas >= 0, got {config.sigmas}")
    if config.mode in ("noise_sweep", "roundtrip", "sis_roundtrip", "stability_report"):
        if config.seed is None:
            v.append("stochastic modes need an explicit seed")
    if config.mode == "bounds_table":
        if not config.n_list:
            v.append("bounds_table needs a nonempty n_list")
        if any(n < 1 or n % 2 == 0 for n in config.n_list):
            v.append("bounds_table needs odd entries in n_list")
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


def _filter_desc(spec):
    items = ",".join(f"{k}={spec[k]}" for k in sorted(spec) if k not in ("kind", "table"))
    return spec["kind"] + (f"({items})" if items else "")


# Each mode computes and writes nothing: it returns (report fields, tables, ok),
# where tables maps a file name to (header, rows) and ok picks exit code 0 or 2.
def _run_roundtrip(cfg):
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
    return ({"rel_error": rel, "tolerance": cfg.tolerance(), "pass": ok},
            {"table.csv": (["m", "n", "N", "L", "omega_size", "seed", "rel_error", "pass"],
                           [[cfg.m, cfg.n, N, cfg.L, len(omega), cfg.seed, rel, ok]])},
            ok)


def _run_singular_scan(cfg):
    a = filter_from_spec(cfg.filter)
    system = PlainSystem(a, cfg.m, cfg.m)
    smins = smin_family(plain_family(system))
    step = cfg.L // cfg.m
    dets = np.abs(det_plain(system, np.arange(step)))
    bad = singular_indices(smins, cfg.tolerance())
    xis = [rho / step for rho in bad]
    return ({"singular_xi": xis, "singular_indices": bad, "grid_points": step,
             "tolerance": cfg.tolerance()},
            {"spectrum.csv": (["xi", "smin", "det_magnitude"],
                              [[rho / step, float(smins[rho]), dets[rho]] for rho in range(step)]),
             "table.csv": (["singular_xi", "grid_index"], [[x, rho] for x, rho in zip(xis, bad)])},
            True)


def _run_stability_report(cfg):
    a = filter_from_spec(cfg.filter)
    sigma = cfg.sigmas[0] if cfg.sigmas else None
    rep = stab.stability_report(a, cfg.m, cfg.n, filter_desc=_filter_desc(cfg.filter),
                                grid=cfg.grid, seed=cfg.seed, noise_sigma=sigma,
                                trials=cfg.trials)
    # the report's config block is the library's, not the CLI echo
    return (rep.to_json_dict(),
            {"table.csv": (stab.StabilityReport.CSV_HEADER, [rep.csv_row()])},
            rep.sandwich_ok)


def _run_noise_sweep(cfg):
    a = filter_from_spec(cfg.filter)
    omega = tuple(cfg.omega) or stab.minimal_omega(cfg.m)
    f = stab._seeded_signal(cfg.L, cfg.seed)
    pinv_norm = stab.empirical_pinv_norm(a, cfg.m, cfg.n, omega, cfg.grid)
    header = ["m", "n", "L", "omega_size", "sigma", "trials", "seed",
              "mean_error", "bound", "ratio", "bound_ok"]
    results = stab.noise_sweep(f, a, cfg.m, cfg.n, omega, cfg.sigmas,
                               trials=cfg.trials, seed=cfg.seed, pinv_norm=pinv_norm)
    rows = [[cfg.m, cfg.n, cfg.L, len(omega), sigma, cfg.trials, cfg.seed,
             res.mean_error, res.bound, res.ratio, res.bound_ok]
            for sigma, res in zip(cfg.sigmas, results)]
    slope_dev = stab.proportionality_deviation(cfg.sigmas, [res.mean_error for res in results])
    linear = slope_dev <= 0.05
    ok = bool(all(res.bound_ok for res in results) and linear)
    return ({"pinv_norm": pinv_norm, "rows": [dict(zip(header, r)) for r in rows],
             "slope_deviation": slope_dev, "linear": linear, "pass": ok},
            {"table.csv": (header, rows)},
            ok)


def _run_sis_roundtrip(cfg):
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
    return ({"n_used": n, "rel_error": rel, "tolerance": cfg.tolerance(), "pass": ok},
            {"table.csv": (["m", "n", "L", "omega_size", "P", "K", "seed", "rel_error", "pass"],
                           [[m, n, L, len(omega), cfg.P, cfg.K, cfg.seed, rel, ok]])},
            ok)


def _run_bounds_table(cfg):
    spec = dict(cfg.filter)
    m = cfg.m
    header = ["m", "n", "L", "grid", "lower_bound", "empirical_minimal", "beta1_bound"]
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
    return ({"rows": [dict(zip(header, r)) for r in rows],
             "lower_bound_strictly_increasing": increasing, "pass": increasing},
            {"table.csv": (header, rows)},
            increasing)


_RUNNERS = {
    "roundtrip": _run_roundtrip,
    "singular_scan": _run_singular_scan,
    "stability_report": _run_stability_report,
    "noise_sweep": _run_noise_sweep,
    "sis_roundtrip": _run_sis_roundtrip,
    "bounds_table": _run_bounds_table,
}

MODES = tuple(_RUNNERS)


def _echo(cfg):
    d = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    d["omega"] = list(d["omega"])
    return d


def _fail(code, error, **detail):
    """Print one JSON error line on stderr; returns the exit code."""
    print(json.dumps({"error": error, **detail}, sort_keys=True), file=sys.stderr)
    return code


def run(config, out_dir=None):
    """Validate and execute one experiment; returns the process exit code.

    The files are written only after the mode has finished, so a config
    error or a mode that raises leaves none behind.  An output path that
    exists but is no directory is a config error; an OSError while writing
    is reported under its own name, with exit code 1.
    """
    violations = validate(config)
    if not violations:
        out = Path(out_dir if out_dir is not None else config.out)
        if out.exists() and not out.is_dir():
            violations = [f"output path {str(out)!r} exists and is not a directory"]
    if violations:
        return _fail(1, "ConfigError", violations=violations)
    try:
        report_fields, tables, ok = _RUNNERS[config.mode](config)
    except DynsampError as exc:
        return _fail(2, type(exc).__name__, message=str(exc))
    except ValueError as exc:
        return _fail(1, "ConfigError", message=str(exc))
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            _write_csv(out / name, header, rows)
        with open(out / "report.json", "w") as fh:
            json.dump({"mode": config.mode, "config": _echo(config), **report_fields}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        return _fail(1, type(exc).__name__, message=str(exc))
    return 0 if ok else 2


def _build_parser():
    p = argparse.ArgumentParser(prog="dynsamp",
                                description="Run reconstruction / stability experiments")
    p.add_argument("mode", choices=MODES)
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--out", default=None, help="output directory (default: config 'out')")
    for name, kind in _OVERRIDES.items():
        p.add_argument(f"--{name}", type=kind, default=None)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
        obj["mode"] = args.mode
        cfg = ExperimentConfig.from_dict(obj)
    except (OSError, TypeError, ValueError) as exc:
        return _fail(1, "ConfigError", message=str(exc))
    for name in _OVERRIDES:
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    return run(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
