"""Transform, decimation and shift contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynsamp as ds
from dynsamp import spectral
from dynsamp.errors import NonDivisibleLength


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def test_dft_delta_is_flat():
    x = np.zeros(4)
    x[0] = 1.0
    assert np.allclose(ds.dft(x), np.ones(4))


def test_dft_constant_concentrates_at_dc():
    assert np.allclose(ds.dft(np.ones(4)), [4, 0, 0, 0])


def test_round_trip():
    x = rand_signal(12, 0)
    assert np.abs(ds.idft(ds.dft(x)) - x).max() < 1e-12


def test_parseval_unnormalized_forward():
    x = rand_signal(20, 1)
    lhs = np.sum(np.abs(ds.dft(x)) ** 2)
    rhs = 20 * np.sum(np.abs(x) ** 2)
    assert abs(lhs - rhs) < 1e-9 * rhs


def test_subsample_definition():
    out = ds.subsample(np.array([1, 2, 3, 4]), 2)
    assert np.array_equal(out, [1, 3])


def test_subsample_delta():
    x = np.zeros(6)
    x[0] = 1.0
    out = ds.subsample(x, 3)
    assert np.array_equal(out, [1, 0])


def test_subsample_rejects_nondivisor():
    with pytest.raises(NonDivisibleLength):
        ds.subsample(np.zeros(10), 3)


@pytest.mark.parametrize("L,m", [(12, 2), (12, 3), (12, 4), (60, 5), (120, 4)])
def test_alias_average_identity(L, m):
    # Two independent routes: subsample-then-transform vs transform-then-fold.
    x = rand_signal(L, L + m)
    lhs = ds.dft(ds.subsample(x, m))
    s = ds.dft(x)
    rhs = s.reshape(m, L // m).sum(axis=0) / m
    assert np.abs(lhs - rhs).max() < 1e-10


def test_shift_basic():
    assert np.array_equal(ds.shift(np.array([1, 2, 3, 4]), 1), [4, 1, 2, 3])


def test_shift_zero_is_identity():
    x = rand_signal(7, 2)
    assert np.array_equal(ds.shift(x, 0), x)


def test_shift_frequency_phase():
    L, c = 10, 3
    x = rand_signal(L, 3)
    lhs = ds.dft(ds.shift(x, c))
    rhs = np.exp(-2j * np.pi * c * np.arange(L) / L) * ds.dft(x)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_shift_composition():
    x = rand_signal(9, 4)
    lhs = ds.shift(ds.shift(x, 4), 7)
    rhs = ds.shift(x, (4 + 7) % 9)
    assert np.array_equal(lhs, rhs)



@pytest.mark.parametrize("fft_out", [True, False])
@pytest.mark.parametrize("shape", [(72,), (75,), (36864,), (3, 2, 576), (5, 1, 1792)])
def test_transforms_in_place_keep_their_bits(shape, fft_out, monkeypatch):
    # The recover path transforms arrays it owns in place; numpy's out= must
    # give the bits of a fresh output, and so must the copy that numpy
    # before 2.0, whose transforms take no out=, falls back on.
    monkeypatch.setattr(spectral, "_FFT_OUT", fft_out and spectral._FFT_OUT)
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for transform in (ds.dft, ds.idft):
        ref, y = transform(x), x.copy()
        assert transform(y, out=y) is y
        assert np.array_equal(y, ref)


def same_bits(u, v):
    return u.shape == v.shape and u.tobytes() == v.tobytes()


@st.composite
def power_bases(draw):
    """(x, top): a complex array of length 1..300, some entries zero, real or
    imaginary, moduli from 1e-3 to 1e3, bitwise Hermitian (x[-r mod L] ==
    conj(x[r])) in half of the draws; and a top level of 0..12."""
    L = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) * 10.0 ** rng.uniform(-3, 3, L)
    for part, p in ((0, 0.1), (x.real, 0.1), (1j * x.imag, 0.1)):
        pick = rng.random(L) < p
        x[pick] = np.broadcast_to(part, L)[pick]
    if draw(st.booleans()):
        x[L // 2 + 1:] = np.conj(x[1:L - L // 2][::-1])
        x[0] = x[0].real
        if L % 2 == 0:
            x[L // 2] = x[L // 2].real
    return x, draw(st.integers(0, 12))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(power_bases(), st.integers(0, 2**16))
def test_power_levels_depend_on_the_base_and_level_alone(case, seed):
    # Level t of a gathered, chunked or strided base is the gathered level t of
    # the whole base bit for bit, whatever the top level, and a bitwise
    # Hermitian base has bitwise Hermitian levels.
    x, top = case
    L, rng = len(x), np.random.default_rng(seed)
    full = list(spectral.powers(x, top))
    assert len(full) == top + 1 and same_bits(full[0], np.ones(L, dtype=complex))
    assert all(same_bits(full[t], x if t == 1 else full[t - 1] * x) for t in range(1, top + 1))
    for short in range(top):
        assert all(same_bits(u, v) for u, v in zip(spectral.powers(x, short), full, strict=False))
    idx = rng.integers(0, L, size=(rng.integers(1, 40), rng.integers(1, 4)))
    cuts = np.sort(rng.integers(0, L + 1, size=rng.integers(0, 6)))
    views = [(x[idx], idx), (x[::-1], slice(None, None, -1)), (x[1::3], slice(1, None, 3))]
    views += [(x[lo:hi], slice(lo, hi)) for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, L])]
    for part, where in views:
        for t, level in enumerate(spectral.powers(part, top)):
            assert same_bits(level, full[t][where])
    if np.array_equal(x[-np.arange(L) % L], np.conj(x)):
        for level in full:
            assert np.array_equal(level[-np.arange(L) % L], np.conj(level))
