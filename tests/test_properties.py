"""Properties of the frequency-domain solve on small random configurations.

Each case draws (L, m, n, omega, N >= m) and a filter for which the solve is
well posed: the non-symmetric response exp(-2 pi i xi)(2 + cos(2 pi xi + t))/3
(pairwise distinct nodes, so every block is invertible), or for odd m the
raised cosine with omega containing 1..(m-1)/2 (the guarantee regime).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import dynsamp as ds
from dynsamp import systems

PROPS = settings(derandomize=True, max_examples=30, deadline=None)


def nonsym_filter(L, t):
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi) * (2.0 + np.cos(2.0 * np.pi * xi + t)) / 3.0)


@st.composite
def configs(draw, extended, extra_snapshots=False):
    """(a, m, n, omega, N, seed) of a well-posed solve."""
    m = draw(st.integers(1, 4 if not extended else 3))
    n = draw(st.sampled_from([1, 3])) if extended else 1
    L = m * n * draw(st.integers(2, 6))
    N = m + (draw(st.integers(1, 2)) if extra_snapshots else 0)
    omega = ()
    if extended:
        omega = tuple(sorted(draw(st.sets(st.integers(0, m * n - 1), max_size=m))))
    if extended and m % 2 and draw(st.booleans()):
        a = ds.filter_raised_cosine(L, 1.0)
        omega = tuple(sorted(set(omega) | set(ds.minimal_omega(m))))
    else:
        a = nonsym_filter(L, draw(st.floats(0.0, 2.0 * np.pi)))
    return a, m, n, omega, N, draw(st.integers(0, 2**16))


def rand(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def random_samples(a, m, n, omega, N, seed):
    """A sample set of the right shape holding noise, not the samples of any signal."""
    rng = np.random.default_rng(seed)
    L = a.L
    return ds.SampleSet(y=[rand(rng, L // m) for _ in range(N)],
                        extras={c: rand(rng, L // (m * n)) for c in omega},
                        m=m, n=n, omega=omega)


def solve(samples, a):
    if samples.omega or samples.n > 1:
        return ds.reconstruct_extended(samples, a, samples.m, samples.n, samples.omega,
                                       force=True)
    return ds.reconstruct_plain(samples, a, samples.m)


def close(x, y, tol=1e-9):
    return np.linalg.norm(x - y) <= tol * max(np.linalg.norm(y), 1.0)


@PROPS
@given(configs(extended=False, extra_snapshots=True) | configs(extended=False))
def test_plain_solve_equals_oracle_least_squares(cfg):
    # Without extras every time-domain row carries the same weight, so even
    # inconsistent data give the oracle's least-squares solution.
    a, m, n, omega, N, seed = cfg
    s = random_samples(a, m, n, omega, N, seed)
    assert close(ds.reconstruct_plain(s, a, m), ds.oracle_solve(a, s))


@st.composite
def even_tap_configs(draw):
    """(a, m, N, seed) with a real, even response t0 + 2 t1 cos 2 pi xi + 2 t2 cos 4 pi xi,
    bitwise even on the grid.  Its nodes a(xi) and a(xi + 1/2) differ by
    4 t1 cos 2 pi xi, so m = 2 with L/2 odd (no grid point at 1/4), or m = 1,
    keeps every plain packet regular."""
    m = draw(st.sampled_from([1, 2]))
    L = 2 * (2 * draw(st.integers(1, 15)) + 1) if m == 2 else draw(st.integers(1, 40))
    t0 = draw(st.floats(-1.0, 1.0))
    t1 = draw(st.floats(0.2, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    t2 = draw(st.floats(-0.2, 0.2))
    xi = np.arange(L // 2 + 1) / L
    half = t0 + 2.0 * t1 * np.cos(2.0 * np.pi * xi) + 2.0 * t2 * np.cos(4.0 * np.pi * xi)
    a = ds.filter_table(np.concatenate([half, half[1:(L + 1) // 2][::-1]]))
    return a, m, m + draw(st.integers(0, 2)), draw(st.integers(0, 2**16))


@PROPS
@given(even_tap_configs())
def test_mirrored_plain_solve_equals_oracle(cfg):
    # A bitwise Hermitian response takes the mirrored solve, one SVD per
    # packet pair; without extras it is still the time-domain least squares.
    a, m, N, seed = cfg
    assert systems._is_hermitian(a.response)
    s = random_samples(a, m, 1, (), N, seed)
    orc = ds.oracle_solve(a, s)
    assert np.linalg.norm(ds.reconstruct_plain(s, a, m) - orc) <= 1e-12 * np.linalg.norm(orc)


@PROPS
@given(configs(extended=True) | configs(extended=True, extra_snapshots=True))
def test_extended_solve_equals_oracle(cfg):
    a, m, n, omega, N, seed = cfg
    f = rand(np.random.default_rng(seed), a.L)
    s = ds.forward(f, a, m, N, n, omega)
    rec = ds.reconstruct_extended(s, a, m, n, omega, force=True)
    assert close(rec, ds.oracle_solve(a, s))
    assert close(rec, f)


@PROPS
@given(configs(extended=True, extra_snapshots=True) | configs(extended=False),
       st.complex_numbers(max_magnitude=4.0), st.complex_numbers(max_magnitude=4.0))
def test_recovery_is_linear_in_samples(cfg, alpha, beta):
    a, m, n, omega, N, seed = cfg
    s, t = random_samples(a, m, n, omega, N, seed), random_samples(a, m, n, omega, N, seed + 1)
    mix = ds.SampleSet(y=[alpha * u + beta * v for u, v in zip(s.y, t.y)],
                       extras={c: alpha * s.extras[c] + beta * t.extras[c] for c in omega},
                       m=m, n=n, omega=omega)
    expected = alpha * solve(s, a) + beta * solve(t, a)
    assert np.linalg.norm(solve(mix, a) - expected) <= 1e-9 * (
        (abs(alpha) + abs(beta)) * max(np.linalg.norm(expected), 1.0))


@PROPS
@given(configs(extended=True, extra_snapshots=True) | configs(extended=False),
       st.integers(0, 5))
def test_recovery_commutes_with_lattice_shifts(cfg, q):
    # Shifting f by j = q m n shifts every snapshot by j/m and every extras
    # sequence by j/(m n); recovery from the shifted samples is the shifted
    # recovery, for noisy data as well.
    a, m, n, omega, N, seed = cfg
    j = q * m * n
    s = random_samples(a, m, n, omega, N, seed)
    moved = ds.SampleSet(y=[ds.shift(v, j // m) for v in s.y],
                         extras={c: ds.shift(s.extras[c], j // (m * n)) for c in omega},
                         m=m, n=n, omega=omega)
    assert close(solve(moved, a), ds.shift(solve(s, a), j))
