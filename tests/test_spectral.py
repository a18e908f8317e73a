"""Transform, decimation and shift contracts."""

import numpy as np
import pytest

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
