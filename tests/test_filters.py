"""Filter constructors, evolution, and the symmetry/monotonicity checker."""

import numpy as np
import pytest

import dynsamp as ds
from dynsamp.errors import LengthMismatch


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def test_delta_response_flat():
    a = ds.filter_delta(4)
    assert np.allclose(a.response, 1.0)
    assert not a.symmetric_decreasing


def test_delta_evolve_is_identity():
    a = ds.filter_delta(8)
    f = rand_signal(8, 0)
    assert np.abs(ds.evolve(f, a, 5) - f).max() < 1e-12


def test_delta_system_rank_one():
    a = ds.filter_delta(12)
    for rho in range(4):
        M = ds.build_plain(a, 3, 3, rho)
        assert np.linalg.matrix_rank(M) == 1


def test_raised_cosine_endpoints():
    a = ds.filter_raised_cosine(12, 1.0)
    assert a.response[0].real == pytest.approx(1.0)
    assert abs(a.response[6]) < 1e-15            # xi = 1/2


def test_raised_cosine_value():
    a = ds.filter_raised_cosine(12, 1.0)
    expected = (1 + np.cos(np.pi / 6)) / 2       # 0.93301...
    assert a.response[1].real == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.93301, abs=5e-6)


def test_raised_cosine_exactly_symmetric():
    a = ds.filter_raised_cosine(30, 2.5)
    r = a.response
    for i in range(1, 30):
        assert r[i] == r[30 - i]                 # mirrored construction, bitwise
    assert a.symmetric_decreasing


def test_heat_small_time_near_flat():
    a = ds.filter_heat(16, 1e-12)
    assert np.abs(a.response - 1.0).max() < 1e-10


def test_heat_half_frequency_value():
    t = 0.7
    a = ds.filter_heat(10, t)
    assert a.response[5].real == pytest.approx(np.exp(-4 * t), rel=1e-14)


def test_heat_strictly_decreasing_on_half_grid():
    a = ds.filter_heat(32, 1.0)
    vals = a.response[:17].real
    assert np.all(np.diff(vals) < 0)
    assert a.symmetric_decreasing


def test_evolve_zero_steps():
    a = ds.filter_heat(12, 0.3)
    f = rand_signal(12, 1)
    assert np.array_equal(ds.evolve(f, a, 0), f)


def test_evolve_semigroup():
    a = ds.filter_raised_cosine(18, 1.5)
    f = rand_signal(18, 2)
    once = ds.evolve(ds.evolve(ds.evolve(f, a, 1), a, 1), a, 1)
    assert np.abs(ds.evolve(f, a, 3) - once).max() < 1e-10


def test_evolve_spectral_identity():
    a = ds.filter_heat(20, 0.4)
    f = rand_signal(20, 3)
    lhs = ds.dft(ds.evolve(f, a, 4))
    rhs = a.response ** 4 * ds.dft(f)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_evolve_linear():
    a = ds.filter_raised_cosine(12, 1.0)
    f, g = rand_signal(12, 4), rand_signal(12, 5)
    lhs = ds.evolve(2.0 * f + 3j * g, a, 2)
    rhs = 2.0 * ds.evolve(f, a, 2) + 3j * ds.evolve(g, a, 2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_evolve_length_mismatch():
    a = ds.filter_delta(8)
    with pytest.raises(LengthMismatch):
        ds.evolve(np.zeros(9), a, 1)


def test_checker_accepts_raised_cosine():
    ok, idx = ds.check_symmetric_decreasing(ds.filter_raised_cosine(24, 1.0))
    assert ok and idx is None


def test_checker_rejects_delta():
    ok, idx = ds.check_symmetric_decreasing(ds.filter_delta(8))
    assert not ok


def test_checker_reports_first_increase():
    L = 16
    vals = np.cos(4 * np.pi * np.arange(L) / L)
    f = ds.Filter(vals)
    ok, idx = ds.check_symmetric_decreasing(f)
    assert not ok
    assert idx == 5       # decrease holds up to the valley at r=4, fails at r=5


def test_checker_rejects_complex_and_asymmetric():
    f = ds.Filter(np.exp(-2j * np.pi * np.arange(8) / 8))
    ok, _ = ds.check_symmetric_decreasing(f)
    assert not ok
    vals = np.linspace(1, 0, 8)                  # decreasing but not even
    ok, _ = ds.check_symmetric_decreasing(ds.Filter(vals))
    assert not ok


def test_flagged_filters_totally_ordered_on_half_grid():
    for a in (ds.filter_raised_cosine(40, 0.7), ds.filter_heat(40, 2.0)):
        vals = a.response[:21].real
        assert np.all(vals[:-1] - vals[1:] > 1e-14)


def test_profile_matches_grid():
    for a in (ds.filter_raised_cosine(24, 2.0), ds.filter_heat(24, 0.5),
              ds.filter_delta(24)):
        grid_vals = a.at(np.arange(24) / 24)
        assert np.abs(grid_vals - a.response).max() < 1e-14


def test_table_profile_is_exact_for_trig_polynomials():
    # response of the p=1 kernel is a 3-tap trig polynomial, so the table
    # interpolant reproduces it off the grid too
    ref = ds.filter_raised_cosine(12, 1.0)
    tab = ds.filter_table(ref.response)
    xs = np.array([0.013, 0.21, 0.499, 0.77])
    assert np.abs(tab.at(xs) - ref.at(xs)).max() < 1e-12
    assert np.abs(tab.at(xs).imag).max() < 1e-12


def test_table_flag_detected():
    tab = ds.filter_table(ds.filter_heat(20, 0.5).response)
    assert tab.symmetric_decreasing


def test_from_spec_kinds():
    a = ds.filter_from_spec({"kind": "raised_cosine", "L": 12, "p": 1.0})
    assert a.kind == "raised_cosine" and a.L == 12
    b = ds.filter_from_spec({"kind": "heat", "L": 10, "t": 0.5})
    assert b.response[5].real == pytest.approx(np.exp(-2.0), rel=1e-14)
    c = ds.filter_from_spec({"kind": "delta", "L": 5})
    assert np.allclose(c.response, 1.0)
    d = ds.filter_from_spec({"kind": "table", "table": [[1.0, 0.0], [0.5, 0.1],
                                                        [0.2, 0.0], [0.5, -0.1]]})
    assert d.response[1] == 0.5 + 0.1j


def test_deriv_closed_forms():
    a = ds.filter_raised_cosine(12, 1.0)
    xs = np.linspace(0.05, 0.45, 7)
    assert np.abs(a.deriv_at(xs) + np.pi * np.sin(2 * np.pi * xs)).max() < 1e-12
    h = ds.filter_heat(12, 0.3)
    num = (h.at(xs + 1e-6) - h.at(xs - 1e-6)) / 2e-6
    assert np.abs(h.deriv_at(xs) - num).max() < 1e-6


def ref_check_symmetric_decreasing(a):
    """The former loop version of ds.check_symmetric_decreasing."""
    r = a.response
    L = len(r)
    scale = max(1.0, float(np.max(np.abs(r))))
    for i in range(L):
        if abs(r[i].imag) > 1e-12 * scale:
            return False, i
    vals = r.real
    for i in range(1, L):
        if abs(vals[i] - vals[L - i]) > 1e-12 * scale:
            return False, i
    for i in range(L // 2):
        if not vals[i] - vals[i + 1] > 1e-14:
            return False, i + 1
    return True, None


def even_decreasing(L):
    """An exactly even response, strictly decreasing on [0, 1/2]."""
    half = np.linspace(1.0, 0.1, L // 2 + 1)
    return np.concatenate([half, half[1:L - L // 2][::-1]]).astype(complex)


def spoil(r, kind, i):
    r = r.copy()
    if kind == "complex":
        r[i] += 1e-9j
    elif kind == "asymmetric":
        r[i] += 1e-9
    elif kind == "tie":                  # r[i] = r[i - 1], mirrored to stay even
        j = min(max(i, 1), len(r) // 2)
        r[[j, -j]] = r[j - 1]
    return r


@pytest.mark.parametrize("L", [1, 2, 11, 12])
@pytest.mark.parametrize("kind", ["complex", "asymmetric", "tie"])
def test_symmetric_decreasing_check_matches_loop(L, kind):
    seen = set()
    # The first, middle and last indices of each check's range.
    for i in sorted({i for i in (0, 1, L // 4, L // 2, L - 2, L - 1) if 0 <= i < L}):
        for r in (even_decreasing(L), spoil(even_decreasing(L), kind, i),
                  spoil(spoil(even_decreasing(L), "tie", L - 1 - i), kind, i)):
            a = ds.Filter(r)
            got = ds.check_symmetric_decreasing(a)
            assert got == ref_check_symmetric_decreasing(a)
            seen.add(got)
    assert (True, None) in seen and (L < 2 or len(seen) > 1)

