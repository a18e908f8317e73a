"""The span pipeline's fast paths against the code they replaced.

The references below are the former implementations: the dense B-spline
synthesis, which sums every coefficient against a wrapped offset matrix of
size (L P) x L, and the periodization that evaluated the generator and the
line response once per time step.  The polyphase synthesis adds the same
terms in another order and must agree to 1e-13 relative; the single-table
periodization does the same arithmetic and must agree bitwise.
"""

import tracemalloc

import numpy as np
import pytest

import dynsamp as ds
from dynsamp import sis
from dynsamp.errors import TailTooLarge


def rand_coeffs(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# reference implementations

def ref_dense_synthesis(c, gen, P):
    L = len(c)
    x = np.arange(L * P) / P
    offs = (x[:, None] - np.arange(L)[None, :] + L / 2.0) % L - L / 2.0
    return gen.time_at(offs) @ c


def ref_periodize_phi(gen, a_hat, j, L, K, tail_tol=1e-12):
    k = np.arange(-K, K + 1)
    nu = (np.arange(L) / L)[:, None] + k[None, :]
    terms = gen.fourier_at(nu).astype(complex)
    if j:
        terms = terms * a_hat(nu) ** j
    vals = terms.sum(axis=1)
    tail = float((np.abs(terms[:, 0]) + np.abs(terms[:, -1])).max())
    scale = max(float(np.abs(vals).max()), 1e-300)
    if tail > tail_tol * scale:
        raise TailTooLarge("reference tail check")
    return vals, tail


# ---------------------------------------------------------------------------
# synthesis

@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_bspline_time_vanishes_outside_support(order):
    gen = ds.make_generator({"kind": "bspline", "order": order})
    half = (order + 1) / 2
    x = np.concatenate([np.linspace(half, 300.0, 2001), [100.3, 287.3]])
    assert np.all(gen.time_at(x) == 0.0)
    assert np.all(gen.time_at(-x) == 0.0)
    inside = np.linspace(-half, half, 801)
    assert np.array_equal(gen.time_at(inside), gen.time_at(-inside))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("P", [1, 4, 48])
@pytest.mark.parametrize("L_of", [lambda d: d + 1, lambda d: 72], ids=["L=d+1", "L=72"])
def test_polyphase_synthesis_matches_dense_sum(order, P, L_of):
    gen = ds.make_generator({"kind": "bspline", "order": order})
    L = L_of(order)
    c = rand_coeffs(L, order * 100 + P)
    fast = sis._synthesize_fine(c, gen, P)
    ref = ref_dense_synthesis(c, gen, P)
    assert fast.shape == (L * P,)
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sis_forward_memory_linear_in_L_P():
    # The dense synthesis needed an (L P) x L matrix of doubles: 0.5 TB here.
    L, P = 36864, 48
    gen = ds.make_generator({"kind": "bspline", "order": 3})
    c = rand_coeffs(L, 0)
    tracemalloc.start()
    try:
        s = ds.sis_forward(c, gen, ds.gaussian_response(2.0), 3, 3, (1, 2), P=P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**20
    assert len(s.y) == 3 and len(s.y[0]) == L // 3


# ---------------------------------------------------------------------------
# periodization

@pytest.mark.parametrize("gen, a_hat, m, L, K", [
    (ds.make_generator({"kind": "bspline", "order": 3}), ds.gaussian_response(2.0), 3, 72, 384),
    (ds.make_generator({"kind": "bspline", "order": 5}), ds.heat_line_response(0.05), 5, 40, 64),
    (ds.make_generator({"kind": "sinc"}), ds.gaussian_response(1.3), 3, 24, 6),
])
def test_sis_system_equals_periodize_rows_bitwise(gen, a_hat, m, L, K):
    system = ds.build_sis_system(gen, a_hat, m, L, K)
    refs = [ref_periodize_phi(gen, a_hat, j, L, K) for j in range(m)]
    rows = [ds.periodize_phi(gen, a_hat, j, L, K) for j in range(m)]
    assert np.array_equal(system.phi_hat, np.array([v for v, _ in refs]))
    assert np.array_equal(system.phi_hat, np.array([v for v, _ in rows]))
    assert system.tail_bound == max(t for _, t in refs) == max(t for _, t in rows)


def test_sis_system_tail_guard_like_periodize():
    gen, a_hat = ds.make_generator({"kind": "bspline", "order": 3}), ds.identity_response()
    with pytest.raises(TailTooLarge):
        ref_periodize_phi(gen, a_hat, 0, 24, 4)
    with pytest.raises(TailTooLarge):
        ds.periodize_phi(gen, a_hat, 0, 24, 4)
    with pytest.raises(TailTooLarge):
        ds.build_sis_system(gen, a_hat, 3, 24, 4)
