"""The batched noise Monte Carlo against the per-trial loop it replaced.

``ref_noise_trial`` below is the former implementation: every trial draws
its noise, builds a SampleSet and calls ``reconstruct_extended`` on its
own.  The batched code draws the same stream, so the noisy samples must
agree bitwise; it solves every trial of a block against one decomposition
per packet chunk, and the mean error must agree to 1e-13 relative.
"""

import math
import tracemalloc

import numpy as np
import pytest

import dynsamp as ds
from dynsamp import recon, stability, systems
from dynsamp.errors import MalformedSamples, PreconditionViolated


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# reference loop

def ref_noisy_sets(samples, sigma, trials, seed):
    """The per-trial noisy SampleSets, drawn as the old loop drew them."""
    rng = np.random.default_rng(seed)
    scale = sigma / math.sqrt(2.0)
    for _ in range(trials):
        noisy_y = []
        for v in samples.y:
            noise = rng.standard_normal(len(v)) + 1j * rng.standard_normal(len(v))
            noisy_y.append(v + scale * noise)
        noisy_extras = {}
        for c in samples.omega:
            v = samples.extras[c]
            noise = rng.standard_normal(len(v)) + 1j * rng.standard_normal(len(v))
            noisy_extras[c] = v + scale * noise
        yield ds.SampleSet(y=noisy_y, extras=noisy_extras, m=samples.m, n=samples.n,
                           omega=samples.omega)


def ref_noise_trial(f, a, m, n, omega, sigma, trials, seed):
    samples = ds.forward(f, a, m, m, n, omega)
    errors = [np.linalg.norm(ds.reconstruct_extended(s, a, m, n, omega) - f) / math.sqrt(len(f))
              for s in ref_noisy_sets(samples, sigma, trials, seed)]
    return float(np.mean(errors))


# rc72 at 200 trials (one default block) and heat L=840 at 50 trials
# (blocks of 39 and 11); neither trial count is a multiple of the block.
CASES = [
    (ds.filter_raised_cosine(72, 1.0), 3, 3, (1,), 200),
    (ds.filter_heat(840, 0.5), 5, 7, (1, 2), 50),
]


# ---------------------------------------------------------------------------
# noise stream: bitwise

@pytest.mark.parametrize("block", [1, 7, 64])
def test_noisy_samples_bitwise_equal_loop(block):
    a, m, n, omega, _ = CASES[0]
    trials, sigma, seed = 30, 1e-2, 5
    samples = ds.forward(rand_signal(a.L, 2), a, m, m, n, omega)
    rng = np.random.default_rng(seed)
    blocks = [stability._noisy_block(samples, rng, min(block, trials - start), sigma)
              for start in range(0, trials, block)]
    for t, ref in enumerate(ref_noisy_sets(samples, sigma, trials, seed)):
        got = blocks[t // block]
        for l in range(m):
            assert np.array_equal(got[l][t % block], ref.y[l])
        for i, c in enumerate(omega):
            assert np.array_equal(got[m + i][t % block], ref.extras[c])


# ---------------------------------------------------------------------------
# mean error: to 1e-13 relative

@pytest.mark.parametrize("a, m, n, omega, trials", CASES)
@pytest.mark.parametrize("sigma", [0.0, 1e-4, 1e-2])
def test_mean_error_matches_loop(a, m, n, omega, trials, sigma):
    f = rand_signal(a.L, 3)
    block = stability._TRIAL_BLOCK_BYTES // (16 * a.L)
    assert trials % block
    res = ds.noise_trial(f, a, m, n, omega, sigma, trials=trials, seed=11, pinv_norm=10.0)
    ref = ref_noise_trial(f, a, m, n, omega, sigma, trials, seed=11)
    assert abs(res.mean_error - ref) <= 1e-13 * ref


def test_mean_error_matches_loop_across_many_blocks(monkeypatch):
    a, m, n, omega, trials = CASES[0]
    monkeypatch.setattr(stability, "_TRIAL_BLOCK_BYTES", 16 * a.L * 7)    # blocks of 7
    f = rand_signal(a.L, 4)
    res = ds.noise_trial(f, a, m, n, omega, 1e-3, trials=trials, seed=2, pinv_norm=10.0)
    ref = ref_noise_trial(f, a, m, n, omega, 1e-3, trials, seed=2)
    assert abs(res.mean_error - ref) <= 1e-13 * ref


def test_trial_axis_solve_matches_single_solves():
    """Right-hand sides with a trial axis, across a chunk boundary, against
    one solve per trial."""
    m, n, omega, T = 3, 3, (1,), 5
    rows, cols = len(omega) + m * n, m * n
    chunk = systems._CHUNK_BYTES // (16 * rows * (cols + T))
    L = m * n * (chunk + chunk // 2 + 1)
    a = ds.filter_raised_cosine(L, 1.0)
    sets = [ds.forward(rand_signal(L, s), a, m, m, n, omega) for s in range(T)]
    table = systems.power_rows(a.response, m)
    y = [np.array([s.y[l] for s in sets]) for l in range(m)]
    extras = {c: np.array([s.extras[c] for s in sets]) for c in omega}
    batched = recon._solve(y, extras, m, table, n, omega)
    for t, s in enumerate(sets):
        single = ds.reconstruct_extended(s, a, m, n, omega)
        assert np.linalg.norm(batched[t] - single) <= 1e-13 * np.linalg.norm(single)


# ---------------------------------------------------------------------------
# contracts kept from reconstruct_extended and SampleSet

def test_even_n_still_rejected():
    a = ds.filter_raised_cosine(72, 1.0)
    with pytest.raises(PreconditionViolated, match="odd n"):
        ds.noise_trial(rand_signal(72, 0), a, 3, 2, (1,), 1e-3, trials=3, pinv_norm=1.0)


def test_missing_guarantee_shifts_rejected():
    a = ds.filter_heat(840, 0.5)
    with pytest.raises(PreconditionViolated, match="omega"):
        ds.noise_trial(rand_signal(840, 0), a, 5, 7, (1,), 1e-3, trials=3, pinv_norm=1.0)


@pytest.mark.parametrize("sigma", [-0.5, -1e-3, -np.inf])
def test_negative_sigma_rejected(sigma):
    # A negative sigma used to pass the bound check with a negative bound.
    a = ds.filter_raised_cosine(72, 1.0)
    with pytest.raises(PreconditionViolated, match="sigma"):
        ds.noise_trial(rand_signal(72, 0), a, 3, 3, (1,), sigma, trials=3, pinv_norm=1.0)


def test_non_finite_noise_rejected():
    # A non-finite sigma is named as such, not as the samples it would spoil.
    a = ds.filter_raised_cosine(72, 1.0)
    for sigma in (np.inf, np.nan):
        with pytest.raises(PreconditionViolated, match=f"sigma={sigma}"):
            ds.noise_trial(rand_signal(72, 0), a, 3, 3, (1,), sigma, trials=3, pinv_norm=1.0)


def test_overflowing_noise_rejected():
    # A finite sigma whose noise overflows ends in the documented error, with
    # no numpy overflow warning first (the suite turns warnings into errors).
    a = ds.filter_raised_cosine(72, 1.0)
    with pytest.raises(MalformedSamples, match="non-finite"):
        ds.noise_trial(rand_signal(72, 0), a, 3, 3, (1,), 1e308, trials=3, pinv_norm=1.0)


# ---------------------------------------------------------------------------
# memory: flat in the trial count

def test_peak_memory_flat_in_trials():
    L, m, n, omega = 9216, 3, 3, (1,)
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 6)
    assert stability._TRIAL_BLOCK_BYTES // (16 * L) < 4      # 4 trials span two blocks
    peaks = []
    for trials in (4, 32):
        tracemalloc.start()
        try:
            ds.noise_trial(f, a, m, n, omega, 1e-3, trials=trials, seed=1, pinv_norm=10.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
