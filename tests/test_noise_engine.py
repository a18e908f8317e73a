"""The batched noise Monte Carlo against the per-trial loop it replaced.

``ref_noise_trial`` below is the former implementation: every trial draws
its noise, builds a SampleSet and calls ``reconstruct_extended`` on its
own.  The batched code draws the same stream, so the noisy samples must
agree bitwise; it solves every trial of a block against one decomposition
per packet chunk, and the mean error must agree to 1e-13 relative.  A
sweep over several sigmas must equal one noise_trial per sigma bitwise.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    blocks = [[v[0] for v in stability._noisy_block(samples, rng, min(block, trials - start),
                                                      [sigma])]
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
    batched = recon._solve(y, extras, m, n, omega, table=table)
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


def test_peak_memory_flat_in_trials_of_a_sweep():
    # Three sigmas share the cap: one trial per block at L = 9216, and the
    # sweep peaks no higher than one sigma's Monte Carlo.
    L, m, n, omega = 9216, 3, 3, (1,)
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 6)
    assert stability._TRIAL_BLOCK_BYTES // (16 * L * 3) < 4
    peaks = []
    for sigmas, trials in (([0.0, 1e-3, 1e-2], 4), ([0.0, 1e-3, 1e-2], 32), ([1e-3], 32)):
        tracemalloc.start()
        try:
            stability.noise_sweep(f, a, m, n, omega, sigmas, trials=trials, seed=1,
                                  pinv_norm=10.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
    assert peaks[1] <= 1.25 * peaks[2]


# ---------------------------------------------------------------------------
# sweep: bitwise one noise_trial per sigma

def plain_table(L):
    """The recover workload's plain filter, whose table is Hermitian only to
    rounding: the solve factors every packet."""
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi) * (2.0 + np.cos(2.0 * np.pi * xi)) / 3.0)


SWEEP_CASES = {
    "rcos": (ds.filter_raised_cosine(72, 1.0), 3, 3, (1,)),
    "heat": (ds.filter_heat(140, 0.5), 5, 7, (1, 2)),
    "plain table": (plain_table(72), 3, 3, (1,)),
}


def test_sweep_cases_cover_both_solves():
    mirrored = {name: systems._is_hermitian(systems.power_rows(a.response, m))
                for name, (a, m, _, _) in SWEEP_CASES.items()}
    assert mirrored == {"rcos": True, "heat": True, "plain table": False}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(SWEEP_CASES)),
       sigmas=st.lists(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.5]), min_size=1, max_size=4),
       trials=st.integers(1, 12),
       block_trials=st.integers(1, 12),
       chunk_bytes=st.sampled_from([systems._CHUNK_BYTES, 16 * 1024, 2048]),
       seed=st.integers(0, 3))
def test_sweep_equals_one_noise_trial_per_sigma(case, sigmas, trials, block_trials,
                                                 chunk_bytes, seed):
    # One sigma takes blocks of block_trials; the sweep takes blocks of
    # block_trials // len(sigmas), and small chunk caps split the packets.
    a, m, n, omega = SWEEP_CASES[case]
    f = rand_signal(a.L, seed)
    with mock.patch.object(stability, "_TRIAL_BLOCK_BYTES", 16 * a.L * block_trials), \
            mock.patch.object(systems, "_CHUNK_BYTES", chunk_bytes):
        swept = stability.noise_sweep(f, a, m, n, omega, sigmas, trials=trials, seed=seed,
                                      pinv_norm=10.0)
        single = [ds.noise_trial(f, a, m, n, omega, sigma, trials=trials, seed=seed,
                                 pinv_norm=10.0) for sigma in sigmas]
    assert len(swept) == len(single)
    for got, ref in zip(swept, single):
        assert type(got) is type(ref)
        for name in ref._fields:
            assert getattr(got, name) == getattr(ref, name), name


def test_sweep_samples_once_and_solves_once_per_block(monkeypatch):
    a, m, n, omega = SWEEP_CASES["rcos"]
    sigmas, trials = [1e-4, 1e-3, 1e-2], 200
    block = stability._TRIAL_BLOCK_BYTES // (16 * a.L * len(sigmas))
    assert trials > block
    calls = {"forward": 0, "_solve": []}
    forward, solve = stability.forward, stability._solve

    def spy_forward(*args):
        calls["forward"] += 1
        return forward(*args)

    def spy_solve(y, *args, **values):
        calls["_solve"].append(y[0].shape[:-1])
        return solve(y, *args, **values)
    monkeypatch.setattr(stability, "forward", spy_forward)
    monkeypatch.setattr(stability, "_solve", spy_solve)
    stability.noise_sweep(rand_signal(a.L, 1), a, m, n, omega, sigmas, trials=trials,
                          pinv_norm=10.0)
    assert calls == {"forward": 1, "_solve": [(3, block), (3, trials - block)]}


@pytest.mark.parametrize("sigmas, bad", [([1e-3, -1e-3], "sigma=-0.001"),
                                         ([0.0, np.inf], "sigma=inf"),
                                         ([], "at least one sigma")])
def test_sweep_checks_every_sigma_first(monkeypatch, sigmas, bad):
    a, m, n, omega = SWEEP_CASES["rcos"]
    monkeypatch.setattr(stability, "forward", None)        # no work before the checks
    with pytest.raises(PreconditionViolated, match=bad):
        stability.noise_sweep(rand_signal(a.L, 1), a, m, n, omega, sigmas, trials=3,
                              pinv_norm=1.0)


@pytest.mark.parametrize("L", [1, 2, 7, 72, 840, 9216])
def test_rms_rows_bitwise_equal_norm(L):
    rng = np.random.default_rng(L)
    rows = rng.standard_normal((3, 5, L)) + 1j * rng.standard_normal((3, 5, L))
    rows[0, 1] *= 1e-150                                  # tiny squares, still normal sums
    ref = [[np.linalg.norm(row) / math.sqrt(L) for row in t] for t in rows]
    assert np.array_equal(stability._rms_rows(rows), ref)
