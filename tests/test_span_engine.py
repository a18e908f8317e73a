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
they must agree bitwise too; a table with more live shifts may add them in
another order and must agree to 1e-15 of the row max.  So must the other
B-spline rows, which add the same terms in another order; row 0 differs from
the reference only by the reference's own truncation at K.  The sinc forward
route takes L-point transforms in place of the fine grid's L P-point ones;
both evaluate the same band, so they must agree to 1e-14 relative.  Every
forward route now keeps each Q-th sample of an inverse transform by folding
its spectrum Q-fold, which is exact and only rounds in another order: its
snapshots must agree with the L P-point route to 1e-14 of max |c|, and its
extras, which no transform touches, bitwise.  The B-spline transform powers
sinc by multiplication, within (order + 1) eps of numpy's float power.  Every
integer power in the references is the product ladder of spectral.powers
(``ladder``), so that the bitwise comparisons see one power rule.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynsamp as ds
from dynsamp import sis
from dynsamp.errors import PreconditionViolated, TailTooLarge


SINC = ds.make_generator({"kind": "sinc"})


def rand_coeffs(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# reference implementations

def ladder(x, j):
    """x**j for j >= 1 by the product ladder of spectral.powers, x**(t-1) * x."""
    power = x
    for _ in range(j - 1):
        power = power * x
    return power


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
        terms = terms * ladder(a_hat(nu), j)
    vals = terms.sum(axis=1)
    tail = float((np.abs(terms[:, 0]) + np.abs(terms[:, -1])).max())
    scale = max(float(np.abs(vals).max()), 1e-300)
    if tail > tail_tol * scale:
        raise TailTooLarge("reference tail check")
    return vals, tail


def ref_outward_sums(gen, a_hat, js, L, K):
    """The outward block sum that evaluated phi_hat on every block it summed."""
    K = gen.live_shifts(K)
    xi = np.arange(L) / L
    rows = {j: np.zeros(L, dtype=complex) for j in js}
    peak = dict.fromkeys(js, 0.0)
    live = list(js)
    lo, width = 0, sis._FIRST_BLOCK
    while live and lo <= K:
        hi = min(lo + width, K + 1)
        k = np.arange(1 - hi, hi)
        k = k[np.abs(k) >= lo]
        nu = xi[:, None] + k[None, :]
        phi = gen.fourier_at(nu)
        avals = a_hat(nu) if any(live) else None
        del nu
        for j in list(live):
            if j:
                terms = ladder(avals, j) * phi
            else:
                terms = phi
            rows[j] += terms.sum(axis=1)
            peak[j] = max(peak[j], float(np.abs(rows[j]).max()))
            if np.abs(terms).max() <= sis._BLOCK_STOP * peak[j]:
                live.remove(j)
            del terms
        lo, width = hi, 2 * width
    return rows


def ref_fine_forward(c, gen, a_hat, m, n, omega, P):
    """Snapshots and extras of f synthesized on the fine grid s/P, s < L P."""
    L = len(c)
    f_fine = sis._synthesize_fine(c, gen, P)
    LP = L * P
    bins = np.arange(LP)
    q = np.where(bins < LP - LP // 2, bins, bins - LP)
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


@pytest.mark.parametrize("L, P", [(L, P) for L in (72, 75, 576) for P in (1, 4, 48)])
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


FORWARD_GENERATORS = {
    **{f"bspline{d}": lambda L, d=d: ds.make_generator({"kind": "bspline", "order": d})
       for d in (0, 1, 3, 5)},
    "band_table": lambda L: band_table_generator(L, L),
    "sinc": lambda L: SINC,
}


@pytest.mark.parametrize("kind", FORWARD_GENERATORS)
@pytest.mark.parametrize("m, n, L", [(3, 3, 72), (3, 5, 75), (5, 3, 90), (5, 3, 75)],
                         ids=["m=3,L/m=24", "m=3,L/m=25", "m=5,L/m=18", "m=5,L/m=15"])
@pytest.mark.parametrize("P", [1, 4, 48])
@pytest.mark.parametrize("with_extras", [False, True], ids=["plain", "extras"])
def test_sis_forward_folded_spectrum_matches_fine_route(kind, m, n, L, P, with_extras):
    gen = FORWARD_GENERATORS[kind](L)
    omega = tuple(range(1, m)) if with_extras else ()
    # A Gaussian times a delay of 0.3: complex and not Hermitian on the line.
    a_hat = lambda nu: np.exp(-2.0 * nu ** 2 - 0.6j * np.pi * nu)
    c = rand_coeffs(L, 7 * L + P)
    s = ds.sis_forward(c, gen, a_hat, m, n, omega, P=P)
    y, extras = ref_fine_forward(c, gen, a_hat, m, n, omega, P)
    scale = np.abs(c).max()
    for u, v in zip(s.y, y, strict=True):
        assert u.shape == (L // m,)
        assert np.abs(u - v).max() <= 1e-14 * scale
    # The sinc extras are the coefficients themselves: f(k) = c_k.
    if gen is SINC:
        extras = {cc: np.roll(c, cc)[::m * n] for cc in omega}
    assert sorted(s.extras) == list(omega)
    assert all(s.extras[cc].tobytes() == extras[cc].tobytes() for cc in omega)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 9), st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=64))
def test_bspline_transform_power_matches_float_power(order, nus):
    nu = np.array(nus)
    gen = ds.make_generator({"kind": "bspline", "order": order})
    got = gen.fourier_at(nu)
    ref = np.sinc(nu) ** (order + 1)
    assert np.all(np.abs(got) <= 1.0)
    if order <= 1:
        assert got.tobytes() == ref.tobytes()
    else:
        assert np.all(np.abs(got - ref) <= (order + 1) * np.finfo(float).eps * np.abs(ref))


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


def band_table_generator(L, seed, table_K=1):
    """Table generator with random values on the band [-table_K, table_K).

    Every grid point meets 2 table_K live shifts: two for the default table_K = 1.
    """
    rng = np.random.default_rng(seed)
    size = 2 * table_K * L + 1
    table = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    table[-1] = 0.0                                  # q = table_K L, the frequency table_K
    return sis.Generator(kind="table", table=table, table_L=L, table_K=table_K)


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


class RecordingResponse:
    """Line response that records the shift k = floor(nu) of every frequency it is asked for."""

    def __init__(self, a_hat):
        self.a_hat, self.shifts = a_hat, set()

    def __call__(self, nu):
        self.shifts.update(np.floor(nu).astype(int).ravel().tolist())
        return self.a_hat(nu)


@pytest.mark.parametrize("gen, live", [
    (SINC, range(-1, 2)),
    (band_table_generator(24, 0), range(-1, 2)),
    (band_table_generator(24, 1, table_K=3), range(-3, 4)),
    (ds.make_generator({"kind": "bspline", "order": 3}), range(-47, 48)),
], ids=["sinc", "table_K=1", "table_K=3", "bspline3"])
def test_build_sis_system_evaluates_only_live_shifts(gen, live):
    # The grid is xi + k with xi in [0, 1), so floor(nu) is the shift k.  Apart
    # from the edge shifts +-K of the tail check, a sinc row asks a_hat only for
    # nu in [-1, 2) and a table row only for |nu| <= table_K + 1.  A B-spline
    # row asks a_hat for its blocks of 31 and 64 shifts: the second is its stop
    # block, whose a_hat values decide that phi_hat is not needed there.
    K = 384
    a_hat = RecordingResponse(ds.gaussian_response(2.0))
    ds.build_sis_system(gen, a_hat, 3, 24, K)
    assert a_hat.shifts == set(live) | {-K, K}


@pytest.mark.parametrize("call", [
    lambda a_hat: ds.build_sis_system(SINC, a_hat, 3, 2304, 384),
    lambda a_hat: ds.reducibility_check(SINC, a_hat, 2304, 384),
], ids=["build_sis_system", "reducibility_check"])
def test_sinc_span_memory_does_not_grow_with_K(call):
    # Only the shifts k = -1, 0 meet the sinc band.  Summing or tabulating every
    # |k| <= K peaked at 6.9 and 67.6 MiB here.
    tracemalloc.start()
    try:
        call(ds.gaussian_response(2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("j", range(4))
def test_periodize_wide_table_matches_reference(j):
    # Six live shifts per grid point, which the outward sum may add in another order.
    gen, a_hat, L, K = band_table_generator(24, 5, table_K=3), ds.gaussian_response(0.3), 24, 40
    vals, tail = ds.periodize_phi(gen, a_hat, j, L, K)
    ref, ref_tail = ref_periodize_phi(gen, a_hat, j, L, K)
    assert tail == ref_tail == 0.0
    assert np.abs(vals - ref).max() <= 1e-15 * np.abs(ref).max()


def test_table_band_wider_than_K_raises_on_the_reference_tail():
    # table_K = 5 > K = 3: the |k| = 3 terms are live, and the tail rule fires
    # on the same edge term and row scale as the full-table sum.
    gen, a_hat, L, K = band_table_generator(24, 9, table_K=5), ds.gaussian_response(0.01), 24, 3
    msgs = []
    for j in range(3):
        ref, tail = ref_periodize_phi(gen, a_hat, j, L, K, tail_tol=np.inf)
        msgs.append(f"|k|={K} term is {tail:.3e} > {sis.TAIL_TOL:.1e} * "
                    f"scale {np.abs(ref).max():.3e}; increase K")
        with pytest.raises(TailTooLarge, match=re.escape(msgs[-1])):
            ds.periodize_phi(gen, a_hat, j, L, K)
    with pytest.raises(TailTooLarge, match=re.escape(msgs[0])):
        ds.build_sis_system(gen, a_hat, 3, L, K)


# ---------------------------------------------------------------------------
# phi_hat left out of blocks that provably change no bit

def wide_table_generator(L, seed, table_K, real):
    """Table generator on |nu| <= table_K whose values all exceed 1 in modulus."""
    rng = np.random.default_rng(seed)
    size = 2 * table_K * L + 1
    table = (1.0 + 2.0 * rng.random(size)).astype(complex)
    table *= rng.choice([-1.0, 1.0], size) if real else np.exp(2j * np.pi * rng.random(size))
    return sis.Generator(kind="table", table=table, table_L=L, table_K=table_K)


def system_or_error(gen, a_hat, m, L, K):
    """(phi_hat bytes, tail_bound) of build_sis_system, or its TailTooLarge message."""
    try:
        system = ds.build_sis_system(gen, a_hat, m, L, K)
    except TailTooLarge as exc:
        return str(exc)
    return system.phi_hat.tobytes(), system.tail_bound


GROWING = ds.gaussian_response(-0.01)


def delayed_gaussian(nu):
    """exp(-nu^2 / 2) times a delay of 0.3: complex, not real, and decaying."""
    nu = np.asarray(nu, dtype=float)
    return np.exp(-0.5 * nu ** 2 - 0.6j * np.pi * nu)


@st.composite
def skip_cases(draw):
    """(gen, a_hat, m, L, K) over the generators and line filters the skip meets."""
    L = draw(st.sampled_from([24, 72, 576]))
    kind = draw(st.sampled_from(["bspline", "sinc", "table"]))
    if kind == "bspline":
        gen = ds.make_generator({"kind": "bspline", "order": draw(st.integers(0, 5))})
    elif kind == "sinc":
        gen = SINC
    else:
        gen = wide_table_generator(L, draw(st.integers(0, 2**16)),
                                   draw(st.sampled_from([16, 20, 40])), draw(st.booleans()))
    a_hat = draw(st.sampled_from(
        [ds.gaussian_response(alpha) for alpha in (0.01, 0.05, 0.5, 2.0, 8.0)]
        + [ds.heat_line_response(0.01), delayed_gaussian, GROWING]))
    return gen, a_hat, draw(st.sampled_from([2, 3, 4])), L, draw(st.sampled_from([16, 48, 384]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(skip_cases())
def test_outward_sums_bitwise_the_full_block_sums(case):
    # Every row, tail and TailTooLarge message is the one of the outward sum
    # that evaluates phi_hat on each block it adds.  The rows are compared
    # also where the tail check then raises.
    gen, a_hat, m, L, K = case
    with np.errstate(over="ignore", invalid="ignore"):
        rows = sis._outward_sums(gen, a_hat, range(m), L, K)
        ref_rows = ref_outward_sums(gen, a_hat, range(m), L, K)
    assert all(rows[j].tobytes() == ref_rows[j].tobytes() for j in range(m))
    got = system_or_error(gen, a_hat, m, L, K)
    with mock.patch.object(sis, "_outward_sums", ref_outward_sums):
        ref = system_or_error(gen, a_hat, m, L, K)
    assert got == ref
    if a_hat is GROWING and K == 384:
        assert got.startswith("row j=1 of the cross-spectra")


class RecordingGenerator(sis.Generator):
    """Generator that records the shift k = floor(nu) of every frequency its transform is asked for."""

    def fourier_at(self, nu):
        self.shifts.update(np.floor(nu).astype(int).ravel().tolist())
        return super().fourier_at(nu)


@pytest.mark.parametrize("alpha, last", [(2.0, 15), (0.05, 47)])
def test_bspline_rows_skip_phi_hat_on_their_stop_block(alpha, last):
    # Under exp(-2 nu^2) every term of the block 16 <= |k| <= 47 is below
    # e^-450, so rows 1 and 2 stop there without phi_hat.  Under
    # exp(-0.05 nu^2) that block is summed, and the next one, up to |k| = 111,
    # is the stop block.  Only the edge shifts +-K of the tail check lie past it.
    K = 384
    gen = RecordingGenerator(kind="bspline", order=3)
    gen.shifts = set()
    ds.build_sis_system(gen, ds.gaussian_response(alpha), 3, 72, K)
    assert gen.shifts == set(range(-last, last + 1)) | {-K, K}


def test_negative_real_response_keeps_the_imaginary_bits():
    # numpy's complex power gives a negative real base a nonzero imaginary part
    # from exponent 100 on ((-0.5 + 0j)**100 has 1.5e-45).  Every level of the
    # product ladder of a real base has imaginary part +-0, so a real negative
    # a_hat spares the check of a row's imaginary parts and keeps its bits.
    gen = ds.make_generator({"kind": "bspline", "order": 3})
    a_hat = lambda nu: np.where(np.abs(np.asarray(nu)) < 16, 1.0, -0.6).astype(complex)
    got = sis._outward_sums(gen, a_hat, [100], 24, 384)[100]
    ref = ref_outward_sums(gen, a_hat, [100], 24, 384)[100]
    assert got.tobytes() == ref.tobytes()


def test_negative_row_is_rejected():
    # Rows are powers 0, 1, 2, ... of a_hat.  j = -1 used to overflow where
    # a_hat underflows to 0 and end in TailTooLarge.
    gen = ds.make_generator({"kind": "bspline", "order": 3})
    with pytest.raises(PreconditionViolated, match="row j must be at least 0, got j=-1"):
        ds.periodize_phi(gen, ds.gaussian_response(2.0), -1, 24, 384)


def stepped_table(L, outer, origin=None):
    """Real table on |nu| <= 47: 1 on [-15, 16), which the first block covers, and ``outer`` past it.

    With ``origin``, grid point 0 meets in the first block only the shift
    k = 0, where the transform is ``origin``, and its row value is ``origin``.
    """
    q = np.arange(-47 * L, 47 * L + 1)
    first = (q >= -15 * L) & (q < 16 * L)
    table = np.where(first, 1.0, outer).astype(complex)
    if origin is not None:
        table[first & (q % L == 0)] = 0.0
        table[47 * L] = origin
    return sis.Generator(kind="table", table=table, table_L=L, table_K=47)


@pytest.mark.parametrize("gen, c", [
    (stepped_table(24, 2.0 ** 20), 2.0 ** -65),
    (stepped_table(24, 1.0, origin=2.0 ** -40), 2.0 ** -66),
    (stepped_table(24, 1.0, origin=2.0 ** -40), 2.0 ** -96),
], ids=["sup_of_table", "small_element", "block_width"])
def test_stop_block_that_moves_bits_is_summed(gen, c):
    # a_hat is c on the second block, of 64 shifts.  With the table's sup of
    # 2**20 left out of the bound, that block would look negligible next to
    # the row values 31, yet its sum, near 2**-39, moves their last bits.  A
    # row value of 2**-40 at grid point 0 takes the block's 2**-60 into its
    # bits, although the block is below 2**-60 of the row's peak 31.  Each
    # term 2**-96 is below a quarter of that value's spacing, 2**-94, but
    # their sum 2**-90 is not.
    a_hat = lambda nu: np.where((nu >= -15) & (nu < 16), 1.0, c).astype(complex)
    got = sis._outward_sums(gen, a_hat, [1], 24, 384)[1]
    ref = ref_outward_sums(gen, a_hat, [1], 24, 384)[1]
    assert got.tobytes() == ref.tobytes()
    assert not np.array_equal(ref, ref_outward_sums(gen, a_hat, [1], 24, 15)[1])
