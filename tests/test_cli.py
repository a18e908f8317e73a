"""Experiment driver: validation, modes, determinism, exit codes."""

import csv
import json

import pytest

import dynsamp.cli as cli


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def rc_filter(L=72, p=1.0):
    return {"kind": "raised_cosine", "L": L, "p": p}


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_validate_even_n():
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(), m=3, n=2,
                               omega=[1], L=72)
    msgs = cli.validate(cfg)
    assert any("odd n" in m for m in msgs)


def test_validate_divisibility():
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(10), m=3, L=10)
    msgs = cli.validate(cfg)
    assert any("divisible" in m for m in msgs)


def test_validate_bounds_mode_omega():
    cfg = cli.ExperimentConfig(mode="stability_report", filter=rc_filter(), m=3,
                               n=3, omega=[1], L=72)
    msgs = cli.validate(cfg)
    assert any("full extra sample set" in m for m in msgs)


def test_validate_ok_config_passes():
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(), m=3, n=3,
                               omega=[1], L=72)
    assert cli.validate(cfg) == []


def test_validate_grid_resolution():
    cfg = cli.ExperimentConfig(mode="stability_report", filter=rc_filter(), m=3,
                               n=3, L=72, grid=100)
    assert any("guard band" in m for m in cli.validate(cfg))
    cfg = cli.ExperimentConfig(mode="noise_sweep", filter=rc_filter(), m=3, n=3,
                               L=72, grid=30, sigmas=[1e-3])
    assert any("grid" in m for m in cli.validate(cfg))


def test_validate_noise_sweep_divisibility_with_default_omega():
    cfg = cli.ExperimentConfig(mode="noise_sweep", filter=rc_filter(80), m=4, n=3,
                               L=80, sigmas=[1e-3])
    assert any("divisible" in m for m in cli.validate(cfg))


def test_roundtrip_mode(tmp_path):
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(), m=3, n=3,
                               omega=[1], L=72, seed=11)
    code = cli.run(cfg, out_dir=tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["pass"] and report["rel_error"] < 1e-8
    rows = read_csv(tmp_path / "table.csv")
    assert rows[0][:4] == ["m", "n", "N", "L"]
    assert len(rows) == 2


def test_singular_scan_mode(tmp_path):
    cfg = cli.ExperimentConfig(mode="singular_scan", filter=rc_filter(100), m=5,
                               L=100)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    rows = read_csv(tmp_path / "table.csv")
    assert rows[0] == ["singular_xi", "grid_index"]
    assert [r[0] for r in rows[1:]] == ["0", "0.5"]
    spec = read_csv(tmp_path / "spectrum.csv")
    assert spec[0] == ["xi", "smin", "det_magnitude"]
    assert len(spec) == 1 + 20


def test_stability_report_mode(tmp_path):
    cfg = cli.ExperimentConfig(mode="stability_report", filter=rc_filter(), m=3,
                               n=3, L=72, grid=720, seed=4)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sandwich_ok"]
    assert report["lower_bound"] <= report["empirical_norm_minimal"]
    rows = read_csv(tmp_path / "table.csv")
    assert len(rows) == 2 and rows[0][0] == "m"


def test_noise_sweep_deterministic(tmp_path):
    cfg_obj = {"filter": rc_filter(), "m": 3, "n": 3, "omega": [1], "L": 72,
               "grid": 144, "seed": 42, "trials": 40,
               "sigmas": [1e-4, 1e-3, 1e-2]}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        cfg = cli.ExperimentConfig.from_dict(dict(cfg_obj, mode="noise_sweep"))
        assert cli.run(cfg, out_dir=out) == 0
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["pass"] and report["slope_deviation"] < 0.05


def test_bounds_table_mode(tmp_path):
    cfg = cli.ExperimentConfig(mode="bounds_table", filter=rc_filter(), m=3, n=3,
                               L=72, grid=240, n_list=[3, 7, 15])
    assert cli.run(cfg, out_dir=tmp_path) == 0
    rows = read_csv(tmp_path / "table.csv")
    lowers = [float(r[4]) for r in rows[1:]]
    assert lowers == sorted(lowers) and len(set(lowers)) == 3


def test_sis_roundtrip_mode(tmp_path):
    cfg = cli.ExperimentConfig(mode="sis_roundtrip",
                               generator={"kind": "bspline", "order": 3},
                               line_filter={"kind": "gaussian", "alpha": 2.0},
                               m=3, n=0, L=72, seed=5)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_used"] == 3
    assert report["rel_error"] < 1e-6


def test_sis_roundtrip_builds_span_system_once(tmp_path, monkeypatch):
    builds = []
    build = cli.sis_mod.build_sis_system

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(cli.sis_mod, "build_sis_system", counting)
    cfg = cli.ExperimentConfig(mode="sis_roundtrip",
                               generator={"kind": "bspline", "order": 3},
                               line_filter={"kind": "gaussian", "alpha": 2.0},
                               m=3, n=0, L=72, seed=5)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    assert len(builds) == 1


def test_config_error_exit_code(tmp_path, capsys):
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=None, m=3, L=72)
    assert cli.run(cfg, out_dir=tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_main_with_overrides(tmp_path):
    path = write_config(tmp_path, {"filter": rc_filter(36), "m": 3, "n": 3,
                                   "omega": [1], "L": 36, "seed": 1})
    code = cli.main(["roundtrip", "--config", path, "--out", str(tmp_path / "o"),
                     "--seed", "2"])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["seed"] == 2


def test_main_missing_config(tmp_path, capsys):
    code = cli.main(["roundtrip", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "ConfigError" in capsys.readouterr().err


def test_main_unknown_field(tmp_path, capsys):
    path = write_config(tmp_path, {"filter": rc_filter(), "bogus": 1})
    assert cli.main(["roundtrip", "--config", path]) == 1
    assert "bogus" in capsys.readouterr().err


def test_guarantee_violation_exit_code(tmp_path):
    # roundtrip through the degenerate frequencies without extras cannot
    # meet the tolerance; the driver reports a guarantee violation
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(), m=3, n=1,
                               omega=[], L=72, seed=0)
    code = cli.run(cfg, out_dir=tmp_path)
    assert code == 2


def run_violations(tmp_path, capsys, **fields):
    """Exit code of cli.run and the violations it reports on stderr."""
    code = cli.run(cli.ExperimentConfig(**fields), out_dir=tmp_path)
    err = capsys.readouterr().err
    return code, json.loads(err).get("violations", []) if err else []


def test_validate_rejects_negative_n(tmp_path, capsys):
    code, msgs = run_violations(tmp_path, capsys, mode="roundtrip", filter=rc_filter(),
                                m=3, n=-3, omega=[1], L=72)
    assert code == 1 and any("n must be a positive integer" in m for m in msgs)


def test_validate_rejects_too_few_snapshots(tmp_path, capsys):
    code, msgs = run_violations(tmp_path, capsys, mode="roundtrip", filter=rc_filter(),
                                m=3, n=3, N=2, omega=[1], L=72)
    assert code == 1 and any("N >= m" in m for m in msgs)


def test_validate_rejects_zero_trials(tmp_path, capsys):
    code, msgs = run_violations(tmp_path, capsys, mode="noise_sweep", filter=rc_filter(),
                                m=3, n=3, omega=[1], L=72, sigmas=[1e-3], trials=0)
    assert code == 1 and any("noise trial" in m for m in msgs)
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("mode, sigmas", [
    ("noise_sweep", [-1e-3, -1e-2]),
    ("noise_sweep", [1e-3, float("nan")]),
    ("stability_report", [-1e-3]),
    ("stability_report", [float("inf")]),
])
def test_validate_rejects_negative_or_non_finite_sigma(tmp_path, capsys, mode, sigmas):
    # A negative sigma used to exit 0 with a negative bound and "pass": true.
    code, msgs = run_violations(tmp_path, capsys, mode=mode, filter=rc_filter(), m=3, n=3,
                                omega=[1] if mode == "noise_sweep" else [], L=72,
                                sigmas=sigmas, trials=3, seed=1)
    assert code == 1 and msgs == [f"{mode} needs finite sigmas >= 0, got {sigmas}"]
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("omega", [[9], [1, 1], [-1]])
def test_validate_rejects_bad_omega(tmp_path, capsys, omega):
    code, msgs = run_violations(tmp_path, capsys, mode="roundtrip", filter=rc_filter(),
                                m=3, n=3, omega=omega, L=72)
    assert code == 1 and any("omega" in m and "[0, 9)" in m for m in msgs)


@pytest.mark.parametrize("mode, omega", [("noise_sweep", []), ("roundtrip", [1])])
def test_validate_rejects_even_m_with_extras(tmp_path, capsys, mode, omega):
    code, msgs = run_violations(tmp_path, capsys, mode=mode, filter=rc_filter(), m=4, n=3,
                                omega=omega, L=72, sigmas=[1e-3])
    assert code == 1 and any("odd m" in m for m in msgs)


def test_validate_rejects_empty_n_list(tmp_path, capsys):
    code, msgs = run_violations(tmp_path, capsys, mode="bounds_table", filter=rc_filter(),
                                m=3, L=72, n_list=[])
    assert code == 1 and any("nonempty n_list" in m for m in msgs)


def test_validate_keeps_n_zero_for_sis_roundtrip_only():
    sis = cli.ExperimentConfig(mode="sis_roundtrip", generator={"kind": "sinc"},
                               line_filter={"kind": "identity"}, m=3, n=0, L=72)
    assert cli.validate(sis) == []
    rt = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(), m=3, n=0, L=72)
    assert any("n must be a positive integer" in m for m in cli.validate(rt))


def test_sis_roundtrip_chooses_n_with_explicit_omega(tmp_path):
    # the span solve needs no odd n, and n = 0 is chosen at run time
    cfg = cli.ExperimentConfig(mode="sis_roundtrip",
                               generator={"kind": "bspline", "order": 3},
                               line_filter={"kind": "gaussian", "alpha": 2.0},
                               m=3, n=0, omega=[1, 2], L=72, seed=5)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_used"] == 3 and report["pass"]


@pytest.mark.parametrize("mode", ["singular_scan", "roundtrip"])
def test_filter_length_must_match_config(tmp_path, capsys, mode):
    out = tmp_path / "out"
    code, msgs = run_violations(out, capsys, mode=mode, filter=rc_filter(144), m=3, n=3,
                                omega=[1], L=72)
    assert code == 1 and any("L = 144" in m and "L = 72" in m for m in msgs)
    assert not out.exists()


def test_bounds_table_takes_any_filter_length(tmp_path):
    cfg = cli.ExperimentConfig(mode="bounds_table", filter=rc_filter(144), m=3, L=72,
                               n_list=[3])
    assert cli.validate(cfg) == []


@pytest.mark.parametrize("fields, message", [
    (dict(mode="roundtrip", filter={"kind": "heat", "L": 72}, n=3, omega=[1]),
     "filter spec lacks field 't'"),
    (dict(mode="sis_roundtrip", generator={"kind": "table", "L": 72}, n=0,
          line_filter={"kind": "identity"}),
     "generator spec lacks field 'fourier_values'"),
    (dict(mode="sis_roundtrip", generator={"kind": "sinc"}, n=0,
          line_filter={"kind": "gaussian"}),
     "line_filter spec lacks field 'alpha'"),
])
def test_spec_missing_field_is_config_error(tmp_path, capsys, fields, message):
    code, msgs = run_violations(tmp_path, capsys, m=3, L=72, **fields)
    assert code == 1 and message in msgs


def test_unknown_spec_kind_is_violation(tmp_path, capsys):
    code, msgs = run_violations(tmp_path, capsys, mode="singular_scan",
                                filter={"kind": "boxcar", "L": 72}, m=3, L=72)
    assert code == 1 and any("unknown filter kind 'boxcar'" in m for m in msgs)


def test_stability_report_config_block_is_the_library_one(tmp_path):
    cfg = cli.ExperimentConfig(mode="stability_report", filter=rc_filter(), m=3,
                               n=3, L=72, grid=720, seed=4)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["config"]) == {"m", "n", "omega", "filter", "L", "grid", "seed"}
    assert report["mode"] == "stability_report"


def test_failing_mode_writes_no_files(tmp_path, capsys):
    cfg = cli.ExperimentConfig(mode="roundtrip", filter=rc_filter(), m=3, n=1,
                               omega=[], L=72, seed=0)
    assert cli.run(cfg, out_dir=tmp_path) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SingularSystem"
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("generator", [{"kind": "bspline", "order": 3}, {"kind": "sinc"}])
def test_growing_line_filter_is_one_tail_error_line(tmp_path, capfd, generator):
    # The file descriptors are captured, so LAPACK's own error lines would show.
    cfg = cli.ExperimentConfig(mode="sis_roundtrip", generator=generator,
                               line_filter={"kind": "gaussian", "alpha": -0.01},
                               m=3, n=0, L=24, seed=5)
    assert cli.run(cfg, out_dir=tmp_path / "out") == 2
    out, err = capfd.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and out == ""
    assert json.loads(lines[0])["error"] == "TailTooLarge"
    assert not (tmp_path / "out").exists()


def test_main_overrides_tol_and_N(tmp_path):
    path = write_config(tmp_path, {"filter": rc_filter(36), "m": 3, "n": 3,
                                   "omega": [1], "L": 36, "seed": 1})
    code = cli.main(["roundtrip", "--config", path, "--out", str(tmp_path / "o"),
                     "--tol", "1e-6", "--N", "4"])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["tolerance"] == 1e-6 and report["config"]["N"] == 4


README_ROUNDTRIP = {"filter": rc_filter(), "m": 3, "n": 3, "omega": [1], "L": 72, "seed": 11}
README_NOISE = {"filter": rc_filter(), "m": 3, "n": 3, "omega": [1], "L": 72, "grid": 720,
                "sigmas": [1e-4, 1e-3, 1e-2], "trials": 200, "seed": 42}


BASES = {"roundtrip": README_ROUNDTRIP, "noise_sweep": README_NOISE,
         "bounds_table": {"filter": rc_filter(), "m": 3, "L": 72}}


@pytest.mark.parametrize("mode, bad", [
    ("roundtrip", {"m": "3"}),
    ("roundtrip", {"m": 3.0}),
    ("roundtrip", {"n": True}),
    ("roundtrip", {"seed": "11"}),
    ("roundtrip", {"omega": 1}),
    ("roundtrip", {"tol": "1e-8"}),
    ("roundtrip", {"out": 5}),
    ("noise_sweep", {"sigmas": ["x"]}),
    ("noise_sweep", {"sigmas": [1e-3, False]}),
    ("noise_sweep", {"grid": None}),
    ("bounds_table", {"n_list": [3, 7.0]}),
], ids=lambda v: v if isinstance(v, str) else "{}={!r}".format(*next(iter(v.items()))))
def test_wrong_json_type_is_config_error(tmp_path, capsys, mode, bad):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(BASES[mode], **bad))
    assert cli.main([mode, "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    report = json.loads(err)
    (field,) = bad
    assert report["error"] == "ConfigError"
    assert any(m.startswith(f"{field} ") for m in report["violations"])
    assert not out.exists()


def test_json_types_accept_ints_for_floats_and_default_nones():
    cfg = cli.ExperimentConfig.from_dict(dict(README_NOISE, mode="noise_sweep", sigmas=[0, 1e-3],
                                              tol=1, N=None))
    assert cli.validate(cfg) == []


@pytest.mark.parametrize("sub, error", [(None, "ConfigError"), ("sub", "NotADirectoryError")])
def test_out_path_through_a_regular_file(tmp_path, capsys, sub, error):
    # a plain file as --out is rejected before the mode runs; a path below one
    # fails while writing, and both end in one JSON line, not a traceback
    target = tmp_path / "plain.txt"
    target.write_text("keep me\n")
    out = target / sub if sub else target
    path = write_config(tmp_path, README_ROUNDTRIP)
    assert cli.main(["roundtrip", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == error
    assert target.read_text() == "keep me\n"
