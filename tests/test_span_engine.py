"""The span pipeline's fast paths against the code they replaced.

The references below are the former implementations: the dense B-spline
synthesis, which sums every coefficient against a wrapped offset matrix of
size (L P) x L, and the periodization that summed the whole (L, 2K+1) table
of shifted frequencies.  The polyphase synthesis adds the same terms in
another order and must agree to 1e-13 relative.  The periodization now sums
the shifts outward in blocks and stops a row once a block is negligible, and
takes row 0 of a B-spline from its Poisson sum.  Its tails are the same edge
terms and must agree bitwise.  Sinc and band-limited table rows keep at most
two nonzero terms per grid point, whose sum does not depend on the order, so
they must agree bitwise too.  Other B-spline rows add the same terms in
another order and must agree to 1e-15 of the row max; row 0 differs from the
reference only by the reference's own truncation at K.  The sinc forward
route takes L-point transforms in place of the fine grid's L P-point ones;
both evaluate the same band, so they must agree to 1e-14 relative.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynsamp as ds
from dynsamp import sis
from dynsamp.errors import TailTooLarge


SINC = ds.make_generator({"kind": "sinc"})


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


def ref_fine_forward(c, gen, a_hat, m, n, omega, P):
    """Snapshots and extras of f synthesized on the fine grid s/P, s < L P."""
    L = len(c)
    f_fine = sis._synthesize_fine(c, gen, P)
    LP = L * P
    bins = np.arange(LP)
    q = np.where(bins < LP // 2, bins, bins - LP)
    F = np.fft.fft(f_fine)
    avals = a_hat(q / L)
    y = [np.fft.ifft(F * avals ** l)[::P][::m] for l in range(m)]
    f_int = f_fine[::P]
    return y, {cc: np.roll(f_int, cc)[::m * n] for cc in omega}


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


def test_sis_forward_sinc_memory_linear_in_L():
    # The fine route held several L P-point spectra: a 189.5 MiB peak here.
    L, P = 36864, 48
    c = rand_coeffs(L, 0)
    tracemalloc.start()
    try:
        s = ds.sis_forward(c, SINC, ds.gaussian_response(2.0), 3, 3, (1, 2), P=P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(s.y) == 3 and len(s.y[0]) == L // 3


# The fine route splits its L P bins at LP // 2.  For an odd L at P = 1 that
# puts the top bin (L - 1)/2 of the sinc band at -(L + 1)/2, outside the band,
# and drops it, so that pair is left out here; test_sis.py's
# test_sis_forward_sinc_interpolates covers it.
@pytest.mark.parametrize("L, P", [(L, P) for L in (72, 75, 576) for P in (1, 4, 48)
                                  if not (L % 2 and P == 1)])
@pytest.mark.parametrize("with_extras", [False, True], ids=["plain", "extras"])
def test_sis_forward_sinc_matches_fine_route(L, P, with_extras):
    m, n = 3, 3 if L % 9 == 0 else 5
    omega = (1, 2) if with_extras else ()
    # A Gaussian times a delay of 0.3: complex and not Hermitian on the band.
    a_hat = lambda nu: np.exp(-2.0 * nu ** 2 - 0.6j * np.pi * nu)
    c = rand_coeffs(L, L + P)
    s = ds.sis_forward(c, SINC, a_hat, m, n, omega, P=P)
    y, extras = ref_fine_forward(c, SINC, a_hat, m, n, omega, P)
    scale = np.abs(c).max()
    assert sorted(s.extras) == list(omega)
    for u, v in zip(s.y, y, strict=True):
        assert np.abs(u - v).max() <= 1e-14 * scale
    for cc in omega:
        assert np.abs(s.extras[cc] - extras[cc]).max() <= 1e-14 * scale


@pytest.mark.parametrize("L", [72, 75])
def test_sis_forward_sinc_bitwise_independent_of_P(L):
    a_hat = ds.gaussian_response(2.0)
    c = rand_coeffs(L, 3)
    ref = ds.sis_forward(c, SINC, a_hat, 3, 1, (1, 2), P=1)
    for P in (2, 4, 7, 48):
        s = ds.sis_forward(c, SINC, a_hat, 3, 1, (1, 2), P=P)
        assert all(np.array_equal(u, v) for u, v in zip(s.y, ref.y, strict=True))
        assert all(np.array_equal(s.extras[cc], ref.extras[cc]) for cc in (1, 2))


# ---------------------------------------------------------------------------
# periodization

def assert_row_matches_reference(gen, j, K, vals, ref, ref_tail):
    """Row j of gen against the full-table row, to the tolerance of the module docstring."""
    if gen.kind != "bspline":
        assert np.array_equal(vals, ref)
    elif j:
        assert np.abs(vals - ref).max() <= 1e-15 * np.abs(ref).max()
    else:
        assert np.abs(vals - ref).max() <= K * ref_tail


@pytest.mark.parametrize("gen, a_hat, m, L, K", [
    (ds.make_generator({"kind": "bspline", "order": 3}), ds.gaussian_response(2.0), 3, 72, 384),
    (ds.make_generator({"kind": "bspline", "order": 5}), ds.heat_line_response(0.05), 5, 40, 64),
    (ds.make_generator({"kind": "sinc"}), ds.gaussian_response(1.3), 3, 24, 6),
])
def test_sis_system_equals_periodize_rows_bitwise(gen, a_hat, m, L, K):
    system = ds.build_sis_system(gen, a_hat, m, L, K)
    refs = [ref_periodize_phi(gen, a_hat, j, L, K) for j in range(m)]
    rows = [ds.periodize_phi(gen, a_hat, j, L, K) for j in range(m)]
    assert np.array_equal(system.phi_hat, np.array([v for v, _ in rows]))
    assert system.tail_bound == max(t for _, t in refs) == max(t for _, t in rows)
    for j, ((_, tail), (ref, ref_tail)) in enumerate(zip(rows, refs)):
        assert tail == ref_tail
        assert_row_matches_reference(gen, j, K, system.phi_hat[j], ref, ref_tail)


def band_table_generator(L, seed):
    """Table generator with random values on the band [-1, 1): two live shifts per grid point."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(2 * L + 1) + 1j * rng.standard_normal(2 * L + 1)
    table[-1] = 0.0                                  # q = L, the frequency 1
    return sis.Generator(kind="table", table=table, table_L=L, table_K=1)


@st.composite
def periodization_cases(draw):
    """(gen, a_hat, j, L, K): a random generator, line filter, row and size."""
    L = draw(st.integers(2, 96))
    kind = draw(st.sampled_from(["bspline", "bspline", "sinc", "table"]))   # B-splines twice
    if kind == "bspline":
        gen = ds.make_generator({"kind": "bspline", "order": draw(st.integers(1, 5))})
    elif kind == "sinc":
        gen = ds.make_generator({"kind": "sinc"})
    else:
        gen = band_table_generator(L, draw(st.integers(0, 2**16)))
    a_hat = draw(st.sampled_from([
        lambda: ds.identity_response(),
        lambda: ds.gaussian_response(draw(st.floats(0.01, 8.0))),
        lambda: ds.heat_line_response(draw(st.floats(1e-4, 0.5))),
    ]))()
    j = draw(st.integers(1 if kind == "bspline" else 0, 5))
    return gen, a_hat, j, L, draw(st.integers(1, 400))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(periodization_cases())
def test_periodize_matches_full_table_reference(case):
    gen, a_hat, j, L, K = case
    try:
        ref, ref_tail = ref_periodize_phi(gen, a_hat, j, L, K)
    except TailTooLarge:
        with pytest.raises(TailTooLarge):
            ds.periodize_phi(gen, a_hat, j, L, K)
        return
    vals, tail = ds.periodize_phi(gen, a_hat, j, L, K)
    assert tail == ref_tail
    assert_row_matches_reference(gen, j, K, vals, ref, ref_tail)


def test_sis_system_memory_does_not_grow_with_K():
    # The (L, 2K+1) table needed 2304 x 769 complex values here: a 128 MB peak.
    gen, a_hat = ds.make_generator({"kind": "sinc"}), ds.gaussian_response(2.0)
    tracemalloc.start()
    try:
        system = ds.build_sis_system(gen, a_hat, 3, 2304, 384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert system.phi_hat.shape == (3, 2304)


def test_sis_system_tail_guard_like_periodize():
    gen, a_hat = ds.make_generator({"kind": "bspline", "order": 3}), ds.identity_response()
    with pytest.raises(TailTooLarge):
        ref_periodize_phi(gen, a_hat, 0, 24, 4)
    with pytest.raises(TailTooLarge):
        ds.periodize_phi(gen, a_hat, 0, 24, 4)
    with pytest.raises(TailTooLarge):
        ds.build_sis_system(gen, a_hat, 3, 24, 4)
