"""Pseudoinverse norms, explicit bounds, lower bound, noise harness."""

import json

import numpy as np
import pytest

import dynsamp as ds
from dynsamp import stability, systems
from dynsamp.errors import EvenM, GridMiss, HypothesisViolated, RankDeficient

RC72 = ds.filter_raised_cosine(72, 1.0)


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


def test_empirical_norm_trivial_case():
    a = ds.filter_delta(8)
    assert ds.empirical_pinv_norm(a, 1, 1, (), 8) == pytest.approx(1.0, rel=1e-12)


def test_empirical_norm_grid_too_coarse():
    with pytest.raises(ValueError):
        ds.empirical_pinv_norm(RC72, 3, 3, (1,), 20)


def test_more_extra_rows_never_increase_norm():
    full = ds.empirical_pinv_norm(RC72, 3, 3, ds.full_omega(3), 144)
    minimal = ds.empirical_pinv_norm(RC72, 3, 3, ds.minimal_omega(3), 144)
    assert full <= minimal + 1e-12


def test_empirical_norm_regression_baseline():
    # deterministic scan; value frozen at the first verified run
    val = ds.empirical_pinv_norm(RC72, 3, 3, (0, 1, 2), 720)
    assert val == pytest.approx(39.812852489805664, rel=1e-9)


def test_guard_band_contains_endpoints_and_stays_clear():
    pts = ds.guard_band_points(3, 720)
    lo = 1 / 12
    assert lo in pts and 0.5 - lo in pts and 0.5 + lo in pts and 1 - lo in pts
    for x in pts:
        assert min(abs(x - 0), abs(x - 0.5), abs(x - 1)) >= lo - 1e-12


def test_beta1_bound_holds():
    for n in (3, 7):
        L = 24 * n
        a = ds.filter_raised_cosine(L, 1.0)
        b1 = ds.bound_beta1(a, 3, n, 720)
        assert b1.beta >= n
        emp = ds.empirical_pinv_norm(a, 3, n, ds.full_omega(3), 720)
        assert emp <= b1.bound


def test_beta1_bound_heat_m5_n7():
    a = ds.filter_heat(140, 0.5)
    b1 = ds.bound_beta1(a, 5, 7, 1200)
    emp = ds.empirical_pinv_norm(a, 5, 7, ds.full_omega(5), 1200)
    assert emp <= b1.bound


def test_beta1_rejects_unflagged():
    with pytest.raises(HypothesisViolated):
        ds.bound_beta1(ds.filter_delta(72), 3, 3)
    with pytest.raises(HypothesisViolated):
        ds.bound_beta1(RC72, 3, 4)      # even n


def test_beta2_values_and_bound():
    b2 = ds.bound_beta2(RC72, 3, 3, 720)
    assert b2.detail > 0
    assert np.isfinite(b2.bound) and np.isfinite(b2.bound_inflated)
    assert b2.bound_inflated >= b2.bound
    emp = ds.empirical_pinv_norm(RC72, 3, 3, ds.full_omega(3), 720)
    assert emp <= b2.bound and emp <= b2.bound_inflated


def test_beta_bounds_reject_large_response():
    big = ds.filter_table(1.5 * RC72.response)
    assert big.symmetric_decreasing
    with pytest.raises(HypothesisViolated):
        ds.bound_beta2(big, 3, 3)
    with pytest.raises(HypothesisViolated):
        ds.bound_beta3(big, 3, 3)


def test_proportionality_deviation_helper():
    assert ds.proportionality_deviation([1e-4, 1e-3], [2e-4, 2e-3]) < 1e-15
    assert ds.proportionality_deviation([1e-3], [5.0]) == 0.0
    assert ds.proportionality_deviation([1e-4, 1e-3], [2e-4, 3e-3]) > 0.1


def test_beta3_gamma_closed_form():
    # slope of the p=1 kernel is pi sin(2 pi xi); its minimum over
    # [1/(4mn), 1/2 - 1/(4mn)] sits at the endpoints
    m, n = 3, 3
    b3 = ds.bound_beta3(RC72, m, n, 720)
    assert b3.detail == pytest.approx(np.pi * np.sin(2 * np.pi / (4 * m * n)), rel=1e-12)
    emp = ds.empirical_pinv_norm(RC72, m, n, ds.full_omega(m), 720)
    assert emp <= b3.bound and emp <= b3.bound_inflated


def test_beta3_gamma_shrinks_with_n():
    gammas = []
    for n in (3, 7, 15):
        L = 24 * n
        a = ds.filter_raised_cosine(L, 1.0)
        gammas.append(ds.bound_beta3(a, 3, n, 720).detail)
    assert gammas[0] > gammas[1] > gammas[2]


def test_beta3_difference_fallback_matches_closed_form():
    tab = ds.filter_table(RC72.response)     # same profile, no closed-form slope
    assert not tab.has_closed_form_derivative
    ref = ds.bound_beta3(RC72, 3, 3, 720).detail
    num = ds.bound_beta3(tab, 3, 3, 720).detail
    assert num == pytest.approx(ref, rel=1e-6)


def test_gautschi_dominates_on_offset_grid():
    worst = 0.0
    for g in range(240):
        xi = (g + 0.5) / 240
        bound = ds.gautschi_bound(RC72, 3, xi)
        M = ds.build_plain_at(RC72, 3, 3, xi)
        norm = 1 / np.linalg.svd(M, compute_uv=False)[-1]
        worst = max(worst, norm / bound)
    assert worst <= 1.0 + 1e-12


def test_lower_bound_value_and_sandwich():
    m, n = 3, 3
    lower = ds.lower_bound_stablow(RC72, m, n)
    step = 72 // m
    smin = np.linalg.svd(ds.build_plain(RC72, m, m, step // n), compute_uv=False)[-1]
    assert lower == pytest.approx(m / smin, rel=1e-12)
    emp_min = ds.empirical_pinv_norm(RC72, m, n, ds.minimal_omega(m), 720)
    assert lower <= emp_min


def test_lower_bound_grows_without_bound():
    vals = []
    for n in (3, 7, 15, 31):
        L = 12 * n
        a = ds.filter_raised_cosine(L, 1.0)
        vals.append(ds.lower_bound_stablow(a, 3, n))
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("a, m", [(ds.filter_heat(840, 0.5), 5), (RC72, 3)])
def test_lower_bound_rank_rule_at_a_degenerate_frequency(a, m):
    # At n = 2 the frequency 1/n = 1/2 is degenerate.  The heat smin there is
    # tiny but not 0 (the bound read 5.05e17), the raised-cosine smin is 0;
    # both fall under the solve's rule smin <= RANK_TOL * smax.
    rho = a.L // m // 2
    s = np.linalg.svd(ds.build_plain(a, m, m, rho), compute_uv=False)
    assert s[-1] <= systems.RANK_TOL * s[0]
    with pytest.raises(RankDeficient) as err:
        ds.lower_bound_stablow(a, m, 2)
    assert err.value.rho == rho


def test_lower_bound_trivial_m1():
    assert ds.lower_bound_stablow(ds.filter_delta(12), 1, 3) == 0.0


@pytest.mark.parametrize("m", [2, 4])
def test_lower_bound_rejects_even_m(m):
    # An even m has no guarantee regime; m = 2 used to return 6.36 here.
    with pytest.raises(EvenM, match=f"m={m}"):
        ds.lower_bound_stablow(RC72, m, 3)


def test_lower_bound_grid_miss():
    a = ds.filter_raised_cosine(12, 1.0)
    with pytest.raises(GridMiss):
        ds.lower_bound_stablow(a, 3, 5)      # 15 does not divide 12


def test_lower_bound_needs_minimal_omega():
    with pytest.raises(HypothesisViolated):
        ds.lower_bound_stablow(RC72, 3, 3, omega=(0, 1, 2))


def test_interlacing_inequality():
    # smin^2 of the extended matrix is dominated by the (mn-|omega|)-th
    # largest eigenvalue of the block Gram matrix, scaled by 1/m^2
    m, n, omega = 3, 3, (1,)
    step, packet = 72 // m, 72 // (m * n)
    for rho in (0, 2, 5):
        A = ds.build_extended(RC72, m, n, omega, rho)
        smin = np.linalg.svd(A, compute_uv=False)[-1]
        grams = []
        for k in range(n):
            blk = ds.build_plain(RC72, m, m, (rho + k * packet) % step)
            grams.append(blk @ blk.conj().T)
        B = np.zeros((m * n, m * n), dtype=complex)
        for k, g in enumerate(grams):
            B[k * m:(k + 1) * m, k * m:(k + 1) * m] = g
        eig = np.sort(np.linalg.eigvalsh(B))[::-1]
        assert smin ** 2 <= eig[m * n - len(omega) - 1] / m ** 2 + 1e-15


def test_noise_trial_noiseless():
    f = rand_signal(72, 0)
    res = ds.noise_trial(f, RC72, 3, 3, (1,), 0.0, trials=3, seed=1, pinv_norm=1.0)
    assert res.mean_error <= 1e-8 * np.linalg.norm(f) / np.sqrt(72)
    assert res.bound_ok


def test_noise_trial_bound_holds():
    f = rand_signal(72, 42)
    res = ds.noise_trial(f, RC72, 3, 3, (1,), 1e-3, trials=200, seed=42)
    assert res.bound_ok
    assert res.mean_error <= 1.1 * res.bound


def test_noise_trial_fixed_grid_and_slack():
    # without pinv_norm the norm comes from a 720-point scan; bound_ok allows 10% slack
    f, sigma = rand_signal(72, 3), 1e-3
    res = ds.noise_trial(f, RC72, 3, 3, (1,), sigma, trials=20, seed=5)
    assert res.bound == ds.empirical_pinv_norm(RC72, 3, 3, (1,), 720) * sigma / np.sqrt(3)
    for ratio, ok in ((1.09, True), (1.11, False)):
        pinv = res.mean_error * np.sqrt(3) / (sigma * ratio)
        r = ds.noise_trial(f, RC72, 3, 3, (1,), sigma, trials=20, seed=5, pinv_norm=pinv)
        assert r.ratio == pytest.approx(ratio, rel=1e-12) and r.bound_ok == ok


@pytest.mark.parametrize("pinv", [30.0, np.float64(30.0), np.float64(0.1)])
def test_noise_trial_bound_ok_is_a_python_bool(pinv):
    # A numpy-float pinv_norm makes the ratio a numpy float; the flag stays a
    # bool, so a result row goes through json.
    r = ds.noise_trial(rand_signal(72, 2), RC72, 3, 3, (1,), 1e-3, trials=4, seed=3,
                       pinv_norm=pinv)
    assert type(r.bound_ok) is bool
    assert r.bound_ok == (pinv == 30.0)
    assert json.loads(json.dumps(r._asdict()))["bound_ok"] is r.bound_ok


def test_noise_error_linear_in_sigma():
    f = rand_signal(72, 42)
    pinv = ds.empirical_pinv_norm(RC72, 3, 3, (1,), 720)
    ratios = []
    for sigma in (1e-4, 1e-3, 1e-2):
        res = ds.noise_trial(f, RC72, 3, 3, (1,), sigma, trials=50, seed=42,
                             pinv_norm=pinv)
        ratios.append(res.mean_error / sigma)
    mean = np.mean(ratios)
    assert max(abs(r - mean) / mean for r in ratios) < 0.05


def test_noise_trial_deterministic():
    f = rand_signal(72, 7)
    r1 = ds.noise_trial(f, RC72, 3, 3, (1,), 1e-3, trials=20, seed=9, pinv_norm=10.0)
    r2 = ds.noise_trial(f, RC72, 3, 3, (1,), 1e-3, trials=20, seed=9, pinv_norm=10.0)
    assert r1.mean_error == r2.mean_error


def test_stability_report_assembly():
    rep = ds.stability_report(RC72, 3, 3, filter_desc="rc", grid=720, seed=0,
                              noise_sigma=1e-3, trials=20)
    assert rep.sandwich_ok
    assert rep.lower_bound <= rep.empirical_norm_minimal
    assert rep.empirical_norm <= rep.empirical_norm_minimal
    for bound in (rep.bound1, rep.bound2_inflated, rep.bound3_inflated):
        assert rep.empirical_norm <= bound
    assert rep.noise_mean_error <= 1.1 * rep.noise_bound
    row = rep.csv_row()
    assert len(row) == len(ds.StabilityReport.CSV_HEADER)
    assert rep.to_json_dict()["beta2"]["delta"] == rep.delta


@pytest.mark.parametrize("a, m, n", [(RC72, 3, 3), (ds.filter_heat(840, 0.5), 5, 7)])
def test_stability_report_evaluates_the_guard_band_once(monkeypatch, a, m, n):
    # beta1, beta2 and the report's guard_band field share one band: its
    # points and nodes are computed once, and every field is the public
    # bounds' own.
    calls = []
    band, nodes_at = stability.guard_band_points, systems.plain_nodes_at
    monkeypatch.setattr(stability, "guard_band_points",
                        lambda *args: calls.append("points") or band(*args))
    monkeypatch.setattr(systems, "plain_nodes_at",
                        lambda a, m, xi: calls.append(np.shape(xi)) or nodes_at(a, m, xi))
    rep = ds.stability_report(a, m, n, grid=720)
    points = band(n, 720)
    assert calls.count("points") == 1 and calls.count(points.shape) == 1
    monkeypatch.undo()
    b1, b2 = ds.bound_beta1(a, m, n, 720), ds.bound_beta2(a, m, n, 720)
    assert (rep.beta1, rep.bound1) == (b1.beta, b1.bound)
    assert (rep.delta, rep.beta2, rep.bound2, rep.beta2_inflated, rep.bound2_inflated) == (
        b2.detail, b2.beta, b2.bound, b2.beta_inflated, b2.bound_inflated)
    assert rep.guard_band == list(points)
