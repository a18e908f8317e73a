"""Forward sampling, frequency-domain recovery, dense brute-force oracle."""

import numpy as np
import pytest

import dynsamp as ds
from dynsamp.errors import (NonDivisibleLength, PreconditionViolated,
                            RankDeficient, SingularSystem, TooLarge)


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def nonsym_filter(L, scaled=True):
    xi = np.arange(L) / L
    vals = np.exp(-2j * np.pi * xi) * (2 + np.cos(2 * np.pi * xi))
    return ds.filter_table(vals / 3 if scaled else vals)


def test_forward_identity_case():
    f = rand_signal(8, 0)
    s = ds.forward(f, ds.filter_delta(8), 1, 1)
    assert np.abs(s.y[0] - f).max() < 1e-14


def test_forward_delta_snapshots_identical():
    f = rand_signal(12, 1)
    s = ds.forward(f, ds.filter_delta(12), 3, 4)
    for l in range(1, 4):
        assert np.abs(s.y[l] - s.y[0]).max() < 1e-12


@pytest.mark.parametrize("make, m, N, L", [
    (nonsym_filter, 3, 3, 72),
    (nonsym_filter, 3, 3, 36864),
    (nonsym_filter, 3, 6, 72),
    (lambda L: ds.filter_heat(L, 0.5), 5, 5, 36860),
])
def test_forward_snapshots_bitwise_per_step_evolve(make, m, N, L):
    # forward shares one transform of f among its steps.  Its spectra reach
    # numpy's temporary-elision size (256 KiB) at L = 36864, not at L = 72,
    # and a complex product may round differently with its operands swapped.
    # Each step is transform times power: with the transform a temporary on
    # the left, elision keeps that order.  The power is the product ladder of
    # spectral.powers, power_l = power_(l-1) * response.
    a, f = make(L), rand_signal(L, 2)
    s = ds.forward(f, a, m, N)
    power = np.ones(L, dtype=complex)
    for l in range(N):
        assert np.array_equal(s.y[l], ds.subsample(ds.evolve(f, a, l), m))
        if l:
            power = power * a.response if l > 1 else a.response
            step = ds.idft(ds.dft(f) * power)
            assert np.array_equal(ds.evolve(f, a, l), step)


def test_forward_against_naive_time_domain():
    # Everything recomputed with plain loops: taps by direct transform sums,
    # evolution by circular convolution, decimation by indexing.
    L, m, N, n = 36, 3, 3, 3
    omega = (1,)
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 2)
    s = ds.forward(f, a, m, N, n, omega)

    taps = np.array([sum(a.response[r] * np.exp(2j * np.pi * r * k / L)
                         for r in range(L)) / L for k in range(L)])
    state = f.copy()
    for l in range(N):
        expect = np.array([state[m * k] for k in range(L // m)])
        assert np.abs(s.y[l] - expect).max() < 1e-12
        state = np.array([sum(taps[j] * state[(i - j) % L] for j in range(L))
                          for i in range(L)])
    for c in omega:
        expect = np.array([f[(m * n * k - c) % L] for k in range(L // (m * n))])
        assert np.abs(s.extras[c] - expect).max() < 1e-12


def test_forward_divisibility_errors():
    f = rand_signal(10, 3)
    with pytest.raises(NonDivisibleLength):
        ds.forward(f, ds.filter_delta(10), 3, 2)
    with pytest.raises(NonDivisibleLength):
        ds.forward(f, ds.filter_delta(10), 2, 2, n=3, omega=(1,))


@pytest.mark.parametrize("m", [2, 3])
def test_plain_round_trip_nonsymmetric(m):
    L = 24
    a = nonsym_filter(L)
    f = rand_signal(L, 10 + m)
    rec = ds.reconstruct_plain(ds.forward(f, a, m, m), a, m)
    assert np.linalg.norm(rec - f) <= 1e-9 * np.linalg.norm(f)


def test_plain_reports_singular_indices():
    L, m = 72, 3
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 4)
    with pytest.raises(SingularSystem) as exc:
        ds.reconstruct_plain(ds.forward(f, a, m, m), a, m)
    assert exc.value.indices == [0, (L // m) // 2]


def test_plain_m1_returns_first_snapshot():
    f = rand_signal(9, 5)
    s = ds.forward(f, ds.filter_delta(9), 1, 1)
    rec = ds.reconstruct_plain(s, ds.filter_delta(9), 1)
    assert np.abs(rec - f).max() < 1e-12


def test_plain_needs_enough_snapshots():
    L, m = 24, 3
    a = nonsym_filter(L)
    f = rand_signal(L, 6)
    with pytest.raises(PreconditionViolated):
        ds.reconstruct_plain(ds.forward(f, a, m, m - 1), a, m)


def test_plain_extra_rows_still_work():
    L, m = 24, 2
    a = nonsym_filter(L)
    f = rand_signal(L, 7)
    rec = ds.reconstruct_plain(ds.forward(f, a, m, m + 2), a, m)
    assert np.linalg.norm(rec - f) <= 1e-9 * np.linalg.norm(f)


@pytest.mark.parametrize("m,n,L,mk", [(3, 3, 72, "rc"), (5, 7, 140, "heat")])
def test_extended_round_trip(m, n, L, mk):
    a = ds.filter_raised_cosine(L, 1.0) if mk == "rc" else ds.filter_heat(L, 0.5)
    omega = ds.minimal_omega(m)
    f = rand_signal(L, 20 + m)
    s = ds.forward(f, a, m, m, n, omega)
    rec = ds.reconstruct_extended(s, a, m, n, omega)
    assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


def test_extended_linearity():
    m, n, L = 3, 3, 72
    a = ds.filter_raised_cosine(L, 1.0)
    omega = (1,)
    f, g = rand_signal(L, 8), rand_signal(L, 9)
    rec_f = ds.reconstruct_extended(ds.forward(f, a, m, m, n, omega), a, m, n, omega)
    rec_g = ds.reconstruct_extended(ds.forward(g, a, m, m, n, omega), a, m, n, omega)
    h = 1.5 * f - 2j * g
    rec_h = ds.reconstruct_extended(ds.forward(h, a, m, m, n, omega), a, m, n, omega)
    assert np.linalg.norm(rec_h - (1.5 * rec_f - 2j * rec_g)) <= 1e-8 * np.linalg.norm(h)


def test_extended_rejects_even_n_without_force():
    m, n, L = 3, 2, 72
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 11)
    s = ds.forward(f, a, m, m, n, (1,))
    with pytest.raises(PreconditionViolated):
        ds.reconstruct_extended(s, a, m, n, (1,))


def test_extended_rank_deficient_without_extras():
    m, n, L = 3, 3, 72
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 12)
    s = ds.forward(f, a, m, m, n, ())
    with pytest.raises(RankDeficient):
        ds.reconstruct_extended(s, a, m, n, (), force=True)


def test_extended_superset_omega_also_exact():
    m, n, L = 3, 3, 72
    a = ds.filter_raised_cosine(L, 1.0)
    omega = (0, 1, 2)
    f = rand_signal(L, 13)
    s = ds.forward(f, a, m, m, n, omega)
    rec = ds.reconstruct_extended(s, a, m, n, omega)
    assert np.linalg.norm(rec - f) <= 1e-8 * np.linalg.norm(f)


def test_dense_oracle_identity():
    a = ds.filter_delta(6)
    M = ds.dense_oracle(a, 1, 1)
    assert np.abs(M - np.eye(6)).max() < 1e-14


def test_dense_oracle_delta_structure():
    L = 8
    a = ds.filter_delta(L)
    M = ds.dense_oracle(a, 2, 2)
    assert M.shape == (L, L)
    assert np.abs(M[:L // 2] - M[L // 2:]).max() < 1e-14   # duplicated decimation rows
    assert np.linalg.matrix_rank(M) == L // 2


def test_dense_oracle_size_cap():
    with pytest.raises(TooLarge):
        ds.dense_oracle(ds.filter_delta(600), 2, 2)


def test_dense_oracle_certifies_non_recoverability():
    # with fewer snapshot rows than channels the stacked map loses rank
    L, m = 24, 3
    a = nonsym_filter(L)
    M = ds.dense_oracle(a, m, 1)
    assert np.linalg.matrix_rank(M) < L


def test_oracle_matches_extended_solver():
    m, n, L = 3, 3, 36
    a = ds.filter_raised_cosine(L, 1.0)
    omega = (1,)
    f = rand_signal(L, 14)
    s = ds.forward(f, a, m, m, n, omega)
    rec = ds.reconstruct_extended(s, a, m, n, omega)
    orc = ds.oracle_solve(a, s)
    assert np.linalg.norm(orc - rec) <= 1e-7 * np.linalg.norm(rec)


def test_oracle_matches_plain_solver():
    m, L = 2, 16
    a = nonsym_filter(L)
    f = rand_signal(L, 15)
    s = ds.forward(f, a, m, m)
    rec = ds.reconstruct_plain(s, a, m)
    orc = ds.oracle_solve(a, s)
    assert np.linalg.norm(orc - rec) <= 1e-7 * np.linalg.norm(rec)


def test_sample_set_json_round_trip():
    m, n, L = 3, 3, 36
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 16)
    s = ds.forward(f, a, m, m, n, (1,))
    s2 = ds.SampleSet.from_json(s.to_json())
    assert s2.m == s.m and s2.n == s.n and s2.omega == s.omega
    for u, v in zip(s.y, s2.y):
        assert np.array_equal(u, v)
    for c in s.omega:
        assert np.array_equal(s.extras[c], s2.extras[c])


def test_stack_samples_order_matches_oracle_rows():
    m, n, L = 2, 3, 24
    a = nonsym_filter(L)
    f = rand_signal(L, 17)
    s = ds.forward(f, a, m, 2, n, (1, 2))
    M = ds.dense_oracle(a, m, 2, n, (1, 2))
    assert np.abs(M @ f - ds.stack_samples(s)).max() < 1e-10


def test_extended_needs_m_snapshots():
    # N < m would give wide packets (7 x 9 here) that pass the rank test
    # and solve to a wrong signal; the precondition must reject them.
    m, n, L = 3, 3, 72
    a = ds.filter_raised_cosine(L, 1.0)
    s = ds.forward(rand_signal(L, 14), a, m, m - 1, n, (1,))
    with pytest.raises(PreconditionViolated, match="snapshot"):
        ds.reconstruct_extended(s, a, m, n, (1,))


def test_extended_stacks_snapshots_beyond_m():
    m, n, L, omega = 3, 3, 72, (1,)
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 15)
    s = ds.forward(f, a, m, m + 2, n, omega)
    rec = ds.reconstruct_extended(s, a, m, n, omega)
    assert np.linalg.norm(rec - f) <= 1e-12 * np.linalg.norm(f)
    # corrupted late snapshots now enter the least-squares fit
    y = [v + (5.0 if l >= m else 0.0) for l, v in enumerate(s.y)]
    noisy = ds.SampleSet(y=y, extras=s.extras, m=m, n=n, omega=omega)
    rec = ds.reconstruct_extended(noisy, a, m, n, omega)
    assert np.linalg.norm(rec - f) > 1e-3 * np.linalg.norm(f)
    ref = ds.oracle_solve(a, noisy)
    assert np.linalg.norm(rec - ref) <= 1e-12 * np.linalg.norm(ref)
