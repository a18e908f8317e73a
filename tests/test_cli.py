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
