"""Generator span layer: periodization, reducibility, n selection, round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest

import dynsamp as ds
from dynsamp.errors import (NoAdmissibleN, PreconditionViolated,
                            SingularSystem, TailTooLarge)

BSPLINE = ds.make_generator({"kind": "bspline", "order": 3})
SINC = ds.make_generator({"kind": "sinc"})


def rand_coeffs(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


def test_bspline_time_values():
    assert BSPLINE.time_at(np.array([0.0]))[0] == pytest.approx(2 / 3, rel=1e-14)
    assert BSPLINE.time_at(np.array([1.0]))[0] == pytest.approx(1 / 6, rel=1e-14)
    assert BSPLINE.time_at(np.array([2.0]))[0] == 0.0
    assert BSPLINE.time_at(np.array([-1.0]))[0] == pytest.approx(1 / 6, rel=1e-14)


def test_bspline_fourier_is_sinc_power():
    nu = np.array([0.0, 0.3, 1.7])
    assert np.abs(BSPLINE.fourier_at(nu) - np.sinc(nu) ** 4).max() < 1e-15


def test_sinc_band_indicator_half_open():
    nu = np.array([-0.5, -0.2, 0.0, 0.4999, 0.5, 1.0])
    assert np.array_equal(SINC.fourier_at(nu), [1, 1, 1, 1, 0, 0])


def test_periodize_sinc_keeps_single_alias():
    L, K = 24, 6
    a_hat = ds.gaussian_response(1.3)
    vals, tail = ds.periodize_phi(SINC, a_hat, 2, L, K)
    xi = np.arange(L) / L
    wrapped = np.where(xi < 0.5, xi, xi - 1.0)
    assert np.abs(vals - a_hat(wrapped) ** 2).max() < 1e-14
    assert tail == 0.0


def test_periodize_bspline_identity_evolution():
    # no evolution: the periodization telescopes to the transform of the
    # integer samples (1/6, 2/3, 1/6)
    L, K = 36, 512
    vals, tail = ds.periodize_phi(BSPLINE, ds.identity_response(), 0, L, K)
    xi = np.arange(L) / L
    expect = (2 + np.cos(2 * np.pi * xi)) / 3
    # row 0 is that Poisson sum itself, so only rounding is left: no
    # truncation at K, although the tail is still reported
    assert np.abs(vals - expect).max() < 1e-15
    assert 0 < tail < 1e-12
    assert np.abs(vals.imag).max() < 1e-14
    assert np.all(vals.real > 0)


def bspline_at_integer(order, x):
    """beta^order(x) as an exact Fraction, from the truncated-power formula."""
    half = Fraction(order + 1, 2)
    total = Fraction(0)
    for k in range(order + 2):
        u = x + half - k
        if u > 0:
            total += (-1) ** k * math.comb(order + 1, k) * u ** order
    return total / math.factorial(order)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5])
def test_periodize_bspline_row0_is_exact_poisson_sum(order):
    # Poisson summation: sum_k phi_hat(xi + k) = sum_n beta(n) exp(-2 pi i n xi),
    # with the integer samples beta(n) taken in exact rational arithmetic
    L = 60
    gen = ds.make_generator({"kind": "bspline", "order": order})
    samples = {n: bspline_at_integer(order, n) for n in range(-order - 1, order + 2)}
    assert sum(samples.values()) == 1
    xi = np.arange(L) / L
    expect = sum(float(b) * np.exp(-2j * np.pi * n * xi) for n, b in samples.items() if b)
    a_hat = ds.gaussian_response(2.0)
    for K in (1, 64, 384):             # the value does not depend on K; the tail does
        vals, _ = ds.periodize_phi(gen, a_hat, 0, L, K, tail_tol=np.inf)
        assert np.abs(vals - expect).max() < 1e-15
        system = ds.build_sis_system(gen, a_hat, 3, L, K, tail_tol=np.inf)
        assert np.array_equal(system.phi_hat[0], vals)


def test_periodize_interpolating_generator_flat():
    L = 24
    vals, _ = ds.periodize_phi(SINC, ds.identity_response(), 0, L, 4)
    assert np.abs(vals - 1.0).max() < 1e-14


def test_periodize_tail_guard():
    with pytest.raises(TailTooLarge):
        ds.periodize_phi(BSPLINE, ds.identity_response(), 0, 24, K=4)


@pytest.mark.parametrize("gen", [BSPLINE, SINC])
def test_growing_line_filter_raises_tail_too_large(gen):
    # exp(0.01 nu^2) overflows long before |nu| = K: the B-spline row 1 turns
    # inf, and the sinc edge terms 0 * inf turn NaN (a tail that read 0.0).
    with pytest.raises(TailTooLarge, match=r"row j=1 .* not finite"):
        ds.build_sis_system(gen, ds.gaussian_response(-0.01), 3, 24, K=384)
    with pytest.raises(TailTooLarge, match=r"row j=2 .* not finite"):
        ds.periodize_phi(gen, ds.gaussian_response(-0.01), 2, 24, K=384)


def test_periodize_tails_decrease_with_K():
    tails = []
    for K in (64, 128, 256, 512):
        _, tail = ds.periodize_phi(BSPLINE, ds.identity_response(), 1, 24, K,
                                   tail_tol=1.0)
        tails.append(tail)
    assert all(b < a for a, b in zip(tails, tails[1:]))


def test_sis_system_matches_sequence_model_for_sinc():
    L, m = 72, 3
    a_hat = ds.heat_line_response(0.1)
    red = ds.reducibility_check(SINC, a_hat, L, K=8)
    assert red.reducible
    b = ds.filter_table(red.b_hat)
    system = ds.build_sis_system(SINC, a_hat, m, L, K=8)
    for rho in range(L // m):
        assert np.abs(ds.sis_matrix(system, rho) - ds.build_plain(b, m, m, rho)).max() < 1e-13


def test_sis_singular_set_symmetric_case():
    L, m = 72, 3
    system = ds.build_sis_system(BSPLINE, ds.gaussian_response(2.0), m, L, K=384)
    assert ds.sis_singular_set(system) == [0, (L // m) // 2]


def test_sis_system_m1():
    L = 12
    system = ds.build_sis_system(BSPLINE, ds.identity_response(), 1, L, K=512)
    mats = np.array([ds.sis_matrix(system, rho) for rho in range(L)])
    assert mats.shape == (L, 1, 1)
    assert np.abs(np.squeeze(mats) - system.phi_hat[0]).max() == 0.0


def test_reducibility_sinc_always():
    res = ds.reducibility_check(SINC, ds.gaussian_response(0.9), 48, K=6)
    assert res.reducible
    xi = np.arange(48) / 48
    wrapped = np.where(xi < 0.5, xi, xi - 1.0)
    assert np.abs(res.b_hat - np.exp(-0.9 * wrapped ** 2)).max() < 1e-13


def test_reducibility_identity_filter():
    res = ds.reducibility_check(BSPLINE, ds.identity_response(), 36, K=8)
    assert res.reducible
    assert np.abs(res.b_hat - 1.0).max() < 1e-12


def table_generator(alias, bump=0.0):
    """L = 4, K = 1 table: transform 1 at q = 0..3, ``alias`` at the k = -1 shifts
    q = -4..-1, and 0 at q = 4; the line response is 1 + bump for nu < 0, else 1."""
    values = [alias] * 4 + [1.0] * 4 + [0.0]
    gen = ds.make_generator({"kind": "table", "L": 4, "K": 1, "fourier_values": values})
    return gen, lambda nu: np.where(np.asarray(nu) < 0, 1.0 + bump, 1.0).astype(complex)


@pytest.mark.parametrize("alias, reducible", [(1e-7, False), (1e-9, True)])
def test_reducibility_support_cutoff(alias, reducible):
    # shifts above 1e-8 of the transform peak count as support; a K past
    # table_K adds only shifts outside the table's band
    gen, _ = table_generator(alias)
    for K in (1, 8):
        res = ds.reducibility_check(gen, ds.gaussian_response(1.0), 4, K=K)
        assert res.reducible is reducible
        assert res.witness == (None if reducible else (0.0, -1))


@pytest.mark.parametrize("bump, reducible", [(1e-7, False), (1e-9, True)])
def test_reducibility_ratio_cutoff(bump, reducible):
    # a response that differs across live shifts by more than 1e-8 is not reducible
    gen, a_hat = table_generator(0.5, bump)
    for K in (1, 8):
        res = ds.reducibility_check(gen, a_hat, 4, K=K)
        assert res.reducible is reducible
        assert res.witness == (None if reducible else (0.0, -1))


def ref_reducibility_check(gen, a_hat, L, K):
    """The row-by-row loop that reducibility_check replaced."""
    kmax = gen.live_shifts(K)
    k = np.arange(-kmax, kmax + 1)
    xi = np.arange(L) / L
    nu = xi[:, None] + k[None, :]
    phi = gen.fourier_at(nu)
    avals = a_hat(nu)
    phi_scale = float(np.abs(phi).max())
    b_hat = np.zeros(L, dtype=complex)
    for r in range(L):
        live = np.abs(phi[r]) > 1e-8 * phi_scale
        if not np.any(live):
            continue
        anchor = np.argmax(np.abs(phi[r]))
        b_hat[r] = avals[r, anchor]
        dev = np.abs(avals[r, live] - b_hat[r])
        if dev.max() > 1e-8 * max(1.0, abs(b_hat[r])):
            k_bad = int(k[live][int(np.argmax(dev))])
            return False, None, (float(xi[r]), k_bad)
    return True, b_hat, None


def tie_response(nu):
    """Equal deviation at k = -1 and k = 1 from the k = 0 value, from row 5 on."""
    nu = np.asarray(nu, dtype=float)
    return np.where((np.abs(np.rint(nu)) == 1) & (nu - np.rint(nu) >= 5 / 24), 2.0, 1.0)


@pytest.mark.parametrize("gen, a_hat, L, K", [
    (SINC, ds.gaussian_response(0.9), 48, 6),
    (SINC, ds.gaussian_response(2.0), 2304, 384),
    (BSPLINE, ds.identity_response(), 36, 8),
    (BSPLINE, ds.gaussian_response(1.0), 36, 8),
    (BSPLINE, tie_response, 24, 4),
    (ds.make_generator({"kind": "bspline", "order": 0}), ds.gaussian_response(1.0), 24, 4),
    (table_generator(1e-7)[0], ds.gaussian_response(1.0), 4, 8),
    (table_generator(1e-9)[0], ds.gaussian_response(1.0), 4, 8),
    (*table_generator(0.5, 1e-7), 4, 1),
    (*table_generator(0.5, 1e-9), 4, 1),
    (table_generator(0.0)[0], lambda nu: np.ones(np.shape(nu)), 4, 1),   # a real response
])
def test_reducibility_check_matches_row_loop(gen, a_hat, L, K):
    reducible, b_hat, witness = ref_reducibility_check(gen, a_hat, L, K)
    res = ds.reducibility_check(gen, a_hat, L, K)
    assert res.reducible is reducible
    assert res.witness == witness
    if reducible:
        assert res.b_hat.dtype == b_hat.dtype and np.array_equal(res.b_hat, b_hat)
    else:
        assert res.b_hat is None


def test_reducibility_bspline_gaussian_fails_with_witness():
    res = ds.reducibility_check(BSPLINE, ds.gaussian_response(1.0), 36, K=8)
    assert not res.reducible
    xi, k = res.witness
    assert k != 0
    # the witness really does deviate: ratio differs at xi between k and 0
    a_hat = ds.gaussian_response(1.0)
    assert abs(a_hat(np.array([xi + k]))[0] - a_hat(np.array([xi]))[0]) > 1e-3
    # hand check at xi = 0.25, k in {0, 1}: both aliases carry weight but the
    # response values disagree, so no single grid response can reproduce both
    assert BSPLINE.fourier_at(np.array([1.25]))[0] > 1e-8
    assert abs(a_hat(np.array([1.25]))[0] - a_hat(np.array([0.25]))[0]) > 0.5


def test_phi_hat_continuity_surrogate():
    # grid refinements shrink the largest successive difference roughly in
    # proportion, the testable trace of continuity of the periodized spectra
    a_hat = ds.gaussian_response(1.5)
    diffs = []
    for L in (24, 48, 96):
        vals, _ = ds.periodize_phi(BSPLINE, a_hat, 2, L, K=384, tail_tol=1e-9)
        closed = np.append(vals, vals[0])
        diffs.append(np.abs(np.diff(closed)).max())
    assert diffs[0] < 1.0
    assert diffs[2] < diffs[1] < diffs[0]
    assert 0.3 < diffs[1] / diffs[0] < 0.7
    assert 0.3 < diffs[2] / diffs[1] < 0.7


def test_admissibility_singleton_trivial():
    assert ds.n_is_admissible([0.0], 1)
    assert ds.n_is_admissible([0.0], 5)


def test_admissibility_zero_half_parity():
    xis = [0.0, 0.5]
    for n in range(2, 10):
        assert ds.n_is_admissible(xis, n) == (n % 2 == 1)


def test_choose_n_three_point_set():
    xis = [0.0, 1 / 3, 0.5]
    for n in (2, 3, 4):
        assert not ds.n_is_admissible(xis, n, tol=1e-9)
    assert ds.n_is_admissible(xis, 5, tol=1e-9)
    assert ds.choose_n(xis, 10, n_min=2, tol=1e-9) == 5


def test_choose_n_exhaustion():
    with pytest.raises(NoAdmissibleN) as exc:
        ds.choose_n([0.0, 0.5], 2, n_min=2)
    assert 2 in exc.value.violations


def test_sis_forward_zero_coefficients():
    s = ds.sis_forward(np.zeros(24), BSPLINE, ds.identity_response(), 3, 1, ())
    assert all(np.abs(v).max() == 0.0 for v in s.y)


def test_sis_forward_integer_samples_match_direct_sum():
    # t = 0 snapshot equals the circular convolution of the coefficients
    # with the integer samples of the generator
    L, m = 36, 3
    c = rand_coeffs(L, 0)
    s = ds.sis_forward(c, BSPLINE, ds.gaussian_response(1.0), m, 1, ())
    f_int = np.array([sum(c[k] * BSPLINE.time_at(np.array([((i - k + L / 2) % L) - L / 2]))[0]
                          for k in range(L)) for i in range(L)])
    assert np.abs(s.y[0] - f_int[::m]).max() < 1e-12


def test_sis_forward_sinc_matches_sequence_pipeline():
    L, m, n = 72, 3, 3
    a_hat = ds.heat_line_response(0.1)
    b = ds.filter_table(ds.reducibility_check(SINC, a_hat, L, K=8).b_hat)
    omega = (1, 2)
    c = rand_coeffs(L, 1)
    s_sis = ds.sis_forward(c, SINC, a_hat, m, n, omega)
    s_seq = ds.forward(c, b, m, m, n, omega)
    for u, v in zip(s_sis.y, s_seq.y):
        assert np.abs(u - v).max() < 1e-13
    for cc in omega:
        assert np.abs(s_sis.extras[cc] - s_seq.extras[cc]).max() < 1e-13


def test_sis_forward_sinc_band_edge_is_minus_half():
    # c_k = (-1)^k lives on bin L/2 alone, which the half-open band
    # [-1/2, 1/2) evaluates at xi = -1/2; the asymmetric filter tells -1/2
    # from +1/2.
    L, m = 48, 3
    a_hat = lambda nu: np.exp(-(np.asarray(nu, dtype=float) - 0.26) ** 2).astype(complex)
    c = (-1.0) ** np.arange(L)
    s = ds.sis_forward(c, SINC, a_hat, m, 1, ())
    for l, y in enumerate(s.y):
        expected = a_hat(-0.5) ** l * (-1.0) ** (m * np.arange(L // m))
        assert np.abs(y - expected).max() <= 1e-14


@pytest.mark.parametrize("L", [72, 75])
@pytest.mark.parametrize("P", [1, 48])
def test_sis_forward_sinc_interpolates(L, P):
    # sinc(k) = delta_k, so f(k) = c_k: the t = 0 snapshot and the extras
    # read the coefficients at every L and P.
    m, n, omega = 3, 1, (1, 2)
    c = rand_coeffs(L, 7)
    s = ds.sis_forward(c, SINC, ds.gaussian_response(2.0), m, n, omega, P=P)
    assert np.abs(s.y[0] - c[::m]).max() <= 4e-15 * np.abs(c).max()
    for cc in omega:
        assert np.array_equal(s.extras[cc], np.roll(c, cc)[::m * n])


def band_indicator_table(L):
    """Table generator (table_L = L, table_K = 1) equal to the sinc band [-1/2, 1/2)."""
    q = np.arange(-L, L + 1)
    values = ((q >= -(L / 2)) & (q < L / 2)).astype(float)
    return ds.make_generator({"kind": "table", "L": L, "K": 1, "fourier_values": list(values)})


@pytest.mark.parametrize("L, P", [(75, 1), (75, 3), (72, 1), (72, 48)])
def test_sis_forward_band_indicator_table_interpolates(L, P):
    # The fine route splits its L P bins into the half-open [-LP/2, LP/2).
    # For an odd L P a split at LP // 2 put bin (LP - 1)/2 at -(LP + 1)/(2L):
    # at L = 75, P = 1 that dropped the top band bin, and f(k) missed c_k by 0.27.
    m, n, omega = 3, 1, (1, 2)
    c = rand_coeffs(L, 7)
    s = ds.sis_forward(c, band_indicator_table(L), ds.gaussian_response(2.0), m, n, omega, P=P)
    assert np.abs(s.y[0] - c[::m]).max() <= 1e-14 * np.abs(c).max()
    for cc in omega:
        assert np.abs(s.extras[cc] - np.roll(c, cc)[::m * n]).max() <= 1e-14 * np.abs(c).max()


def test_sis_plain_round_trip_asymmetric_filter():
    # an asymmetric line response leaves no singular frequencies, so the
    # plain (no extras) span solve must already recover the coefficients
    L, m = 48, 2
    a_hat = lambda nu: np.exp(-(np.asarray(nu, dtype=float) - 0.26) ** 2).astype(complex)
    system = ds.build_sis_system(SINC, a_hat, m, L, K=8)
    assert ds.sis_singular_set(system) == []
    c = rand_coeffs(L, 2)
    s = ds.sis_forward(c, SINC, a_hat, m, 1, ())
    rec = ds.sis_reconstruct(s, SINC, a_hat, m, 1, (), K=8)
    assert np.linalg.norm(rec - c) <= 1e-8 * np.linalg.norm(c)


def test_sis_plain_needs_m_snapshots():
    L, m = 48, 2
    a_hat = lambda nu: np.exp(-(np.asarray(nu, dtype=float) - 0.26) ** 2).astype(complex)
    s = ds.sis_forward(rand_coeffs(L, 2), SINC, a_hat, m, 1, ())
    short = ds.SampleSet(y=s.y[:1], m=m)
    with pytest.raises(PreconditionViolated, match="snapshot"):
        ds.sis_reconstruct(short, SINC, a_hat, m, 1, (), K=8)


def test_sis_plain_raises_on_singular_grid():
    L, m = 72, 3
    a_hat = ds.gaussian_response(2.0)
    c = rand_coeffs(L, 3)
    s = ds.sis_forward(c, BSPLINE, a_hat, m, 1, ())
    with pytest.raises(SingularSystem):
        ds.sis_reconstruct(s, BSPLINE, a_hat, m, 1, (), K=384)


def test_sis_extended_round_trip_bspline():
    L, m, n = 72, 3, 3
    a_hat = ds.gaussian_response(2.0)
    omega = (1, 2)
    c = rand_coeffs(L, 4)
    s = ds.sis_forward(c, BSPLINE, a_hat, m, n, omega)
    rec = ds.sis_reconstruct(s, BSPLINE, a_hat, m, n, omega, K=384)
    assert np.linalg.norm(rec - c) <= 1e-6 * np.linalg.norm(c)


def test_sis_extended_round_trip_bspline_converges_with_P():
    # Row 0 carries no truncation error, so refining the forward route's fine
    # grid drives the round trip to rounding level (3.1e-12); with the row
    # truncated at K = 384 it stalled at 3.0e-9.
    L, m, n, omega = 72, 3, 3, (1, 2)
    a_hat = ds.gaussian_response(2.0)
    c = rand_coeffs(L, 4)
    s = ds.sis_forward(c, BSPLINE, a_hat, m, n, omega, P=768)
    rec = ds.sis_reconstruct(s, BSPLINE, a_hat, m, n, omega, K=384)
    assert np.linalg.norm(rec - c) < 1e-11 * np.linalg.norm(c)


def test_sis_extended_guard_on_omega():
    L, m, n = 72, 3, 3
    a_hat = ds.gaussian_response(2.0)
    c = rand_coeffs(L, 5)
    s = ds.sis_forward(c, BSPLINE, a_hat, m, n, (1,))
    with pytest.raises(PreconditionViolated):
        ds.sis_reconstruct(s, BSPLINE, a_hat, m, n, (1,), K=384)


def test_sis_round_trip_via_chosen_n():
    L, m = 72, 3
    a_hat = ds.gaussian_response(2.0)
    system = ds.build_sis_system(BSPLINE, a_hat, m, L, K=384)
    xis = [rho / (L // m) for rho in ds.sis_singular_set(system)]
    n = ds.choose_n(xis, 15, n_min=2, tol=1 / (2 * L))
    assert n == 3
    omega = tuple(range(1, m))
    c = rand_coeffs(L, 6)
    s = ds.sis_forward(c, BSPLINE, a_hat, m, n, omega)
    rec = ds.sis_reconstruct(s, BSPLINE, a_hat, m, n, omega, K=384)
    assert np.linalg.norm(rec - c) <= 1e-6 * np.linalg.norm(c)


def test_generator_spec_round_trip():
    g = ds.make_generator({"kind": "bspline", "order": 2})
    assert g.order == 2
    assert ds.make_generator({"kind": "sinc"}).kind == "sinc"
    tbl = ds.make_generator({"kind": "table", "L": 4, "K": 1,
                             "fourier_values": [0.0] * 4 + [1.0] + [0.0] * 4})
    assert tbl.fourier_at(np.array([0.0]))[0] == 1.0
    assert tbl.fourier_at(np.array([0.25]))[0] == 0.0
