"""Sampling and recovery for signals spanned by integer shifts of a generator.

The signal is f = sum_k c_k phi(. - k) with an L-periodic coefficient
sequence.  Evolution acts through a frequency response defined on the whole
real line; sampling happens at the integers.  The integer-rate system
matrix replaces powers of a grid response by the periodized cross-spectra

    Phi_hat_j(xi) = sum_k a_hat(xi + k)**j * phi_hat(xi + k),

truncated at |k| <= K with a reported tail estimate.  The sinc and table
transforms vanish outside a known band, so only the few shifts k that can
meet it are summed; for a B-spline, Phi_hat_0 is the exact Poisson sum over
its integer samples.  The forward path
never uses those periodizations.  For B-spline and table generators it
synthesizes f on a fine grid of P samples per unit, evolves in the fine
frequency domain, and samples -- an independent route against which the
reconstruction is validated.  A sinc span is band-limited to [-1/2, 1/2),
so its integer samples are exact L-point transforms and no fine grid enters.
Both routes sample by decimating in frequency: keeping every Q-th sample of
an N-point inverse transform is exact as

    idft_N(X)[::Q] = idft_{N/Q}(X.reshape(Q, N/Q).sum(axis=0)) / Q,

with Q = P m on the fine grid and Q = m for sinc, so each snapshot costs an
inverse transform of L/m points, not of L P.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoAdmissibleN, PreconditionViolated, TailTooLarge
from . import spectral, systems
from .recon import SampleSet, _guarantee_regime, _solve


# ---------------------------------------------------------------------------
# generators

@dataclass
class Generator:
    """Generator of the shift-invariant span.

    kind "sinc" is the half-open band indicator (transform chi_[-1/2, 1/2));
    kind "bspline" is the centered cardinal B-spline of the given order, a
    nonnegative integer (order 0 is the unit box on [-1/2, 1/2));
    kind "table" holds explicit transform samples on the grid q/table_L for
    |q| <= table_K * table_L.
    """

    kind: str
    order: int = 3
    table: np.ndarray = None
    table_L: int = None
    table_K: int = None

    def __post_init__(self):
        if self.kind == "bspline":
            self.order = spectral._count(self.order, "order", low=0, what="B-spline")

    def fourier_at(self, nu):
        """Transform value(s) at real frequency nu.

        The B-spline transform sinc(nu)**(order + 1) is powered by
        :func:`spectral.powers`, not by a float power: every product of
        factors |sinc| <= 1 stays at most 1, the sup that _fourier_sup reports.
        """
        nu = np.asarray(nu, dtype=float)
        if self.kind == "sinc":
            return ((nu >= -0.5) & (nu < 0.5)).astype(float)
        if self.kind == "bspline":
            for power in spectral.powers(np.sinc(nu), self.order + 1):
                pass
            return power
        if self.kind == "table":
            q = nu * self.table_L
            qi = np.rint(q).astype(int)
            if np.max(np.abs(q - qi)) > 1e-9:
                raise ValueError("table generator queried off its frequency grid")
            half = self.table_K * self.table_L
            vals = np.zeros(np.shape(nu), dtype=complex)
            inside = np.abs(qi) <= half
            vals[inside] = self.table[qi[inside] + half]
            return vals
        raise ValueError(f"unknown generator kind {self.kind!r}")

    def time_at(self, x):
        """Time-domain value(s); only kinds with a closed form support this."""
        x = np.asarray(x, dtype=float)
        if self.kind == "sinc":
            return np.sinc(x)
        if self.kind == "bspline":
            return _bspline_time(x, self.order)
        raise ValueError(f"no closed time-domain form for kind {self.kind!r}")

    @property
    def compact_support(self):
        return self.kind == "bspline"

    def live_shifts(self, K):
        """Largest |k| <= K at which phi_hat(xi + k) can be nonzero for xi in [0, 1).

        The transform vanishes exactly outside a known band for sinc
        ([-1/2, 1/2): only k = -1, 0 can meet it, so |k| <= 1) and for a
        table (|nu| <= table_K, so |k| <= table_K).  A B-spline transform has
        no such bound, and K itself is returned.
        """
        if self.kind == "sinc":
            return min(K, 1)
        if self.kind == "table":
            return min(K, self.table_K)
        return K


def _bspline_time(x, order):
    # Centered cardinal B-spline: (order+1)-fold convolution of the unit box,
    # supported on [-(order+1)/2, (order+1)/2].  Order 0 is the box itself,
    # taken half-open on [-1/2, 1/2) like the sinc band.  From order 1 on it
    # is even and is summed at -|x|: right of the origin the truncated powers
    # grow to (order+1)**order and cancel only up to rounding, while at -|x|
    # they stay small, and outside the support every term is exactly 0.
    d = order
    if d == 0:
        return ((x >= -0.5) & (x < 0.5)).astype(float)
    shiftx = -np.abs(x) + (d + 1) / 2.0
    out = np.zeros_like(x, dtype=float)
    for k in range(d + 2):
        term = np.clip(shiftx - k, 0.0, None) ** d
        out += (-1.0) ** k * math.comb(d + 1, k) * term
    return out / math.factorial(d)


def make_generator(spec):
    """Generator from a JSON-style mapping, e.g. {"kind": "bspline", "order": 3}.

    A B-spline order that is not a nonnegative integer, and a table's L or K
    that is not an integer, raise PreconditionViolated; a spec without a
    kind raises ValueError "generator spec lacks field 'kind'".
    """
    try:
        kind = spec["kind"]
    except KeyError:
        raise ValueError("generator spec lacks field 'kind'") from None
    if kind == "sinc":
        return Generator(kind="sinc")
    if kind == "bspline":
        return Generator(kind="bspline", order=spec.get("order", 3))
    if kind == "table":
        table = np.array([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                          for v in spec["fourier_values"]])
        L, K = (spectral._count(spec[k], k, what="table") for k in ("L", "K"))
        if len(table) != 2 * K * L + 1:
            raise ValueError(f"table must hold 2*K*L+1 = {2 * K * L + 1} values")
        return Generator(kind="table", table=table, table_L=L, table_K=K)
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# line filters (frequency responses on the real line)

def identity_response():
    """Evolution that leaves the signal unchanged."""
    return lambda nu: np.ones_like(np.asarray(nu, dtype=float), dtype=complex)


def gaussian_response(alpha):
    """exp(-alpha nu^2); real, even, decaying on the line."""
    return lambda nu: np.exp(-alpha * np.asarray(nu, dtype=float) ** 2).astype(complex)


def heat_line_response(t):
    """Transform of the line diffusion kernel at time t: exp(-4 pi^2 t nu^2)."""
    return gaussian_response(4.0 * np.pi ** 2 * t)


def line_filter_from_spec(spec):
    """Line response from a JSON-style mapping, e.g. {"kind": "gaussian", "alpha": 2.0}.

    A spec without a kind raises ValueError "line_filter spec lacks field
    'kind'", and an alpha or t that float cannot read ValueError naming the
    field, as "line_filter spec field 'alpha' must be a real number, got None".
    """
    try:
        kind = spec["kind"]
    except KeyError:
        raise ValueError("line_filter spec lacks field 'kind'") from None
    if kind == "identity":
        return identity_response()
    if kind == "gaussian":
        return gaussian_response(spectral._real_field(spec, "alpha", "line_filter"))
    if kind == "heat_line":
        return heat_line_response(spectral._real_field(spec, "t", "line_filter"))
    raise ValueError(f"unknown line filter kind {kind!r}")


# ---------------------------------------------------------------------------
# periodization and the integer-rate system

_FIRST_BLOCK = 16          # shifts per side in the first outward block; each next one doubles
_BLOCK_STOP = 2.0 ** -60
_TINY = np.finfo(float).tiny
TAIL_TOL = 1e-12           # largest |k| = K term allowed, relative to the row (periodize_phi)


def _bspline_poisson_row(order, L):
    """Phi_hat_0 of a B-spline on the L-grid, by Poisson summation.

    sum_k phi_hat(xi + k) = sum_n beta(n) exp(-2 pi i n xi), and only the
    integers |n| <= (order+1)/2 meet the support.  beta is even, so the sum
    is beta(0) + 2 sum_{n>=1} beta(n) cos(2 pi n xi), with the phase n r / L
    reduced in integers.  Exact up to rounding, with no K.
    """
    beta = _bspline_time(np.arange((order + 1) // 2 + 1, dtype=float), order)
    r = np.arange(L)
    row = np.full(L, beta[0])
    for n in range(1, len(beta)):
        row += 2.0 * beta[n] * np.cos(2 * np.pi * (n * r % L) / L)
    return row.astype(complex)


def _fourier_sup(gen):
    """(sup |phi_hat|, whether phi_hat is real) of a generator, over the whole line."""
    if gen.kind == "table":
        return float(np.abs(gen.table).max()), not np.any(gen.table.imag)
    return 1.0, True


def _absorbs(row, bound, imag):
    """True when adding a value below ``bound`` to each real part of row,
    and with ``imag`` to each imaginary part, leaves every bit of it.

    A sum rounds back to the element when the addend is below a quarter of
    its np.spacing, the gap above it: at a power of two the gap below is
    half that.  A zero part never absorbs, as adding -0 or a tiny value
    moves its bits."""
    parts = (row.real, row.imag) if imag else (row.real,)
    return all(bound < np.spacing(np.abs(p).min()) / 4 for p in parts)


def _outward_sums(gen, a_hat, js, L, K):
    """{j: sum over |k| <= K of phi_hat(xi + k) a_hat(xi + k)**j} for j in js.

    The shifts are summed outward from k = 0 in blocks of 16, 32, 64, ...
    per side, up to |k| = gen.live_shifts(K): a band-limited generator
    (sinc, table) stops at its last shift that can meet the band, and the
    terms it leaves out are exact zeros.  A row also stops after a block in
    which every term is at most 2**-60 times the largest |partial sum| the
    row has reached.  That stop assumes that the terms keep decaying in |k|
    past such a block, the hypothesis the K tail rule already makes.

    a_hat is evaluated on a block before phi_hat, and after the first block
    a row j > 0 stops without phi_hat when its block provably adds nothing.
    Each of the w terms of the block is at most A**j S, for A = max |a_hat|
    on the block and S = sup |phi_hat|, up to a few roundings that the factor
    2 of B = 2 w max(A**j S, tiny) covers; the floor at the smallest normal
    double covers the absolute roundings of subnormal terms.  The row stops
    when B <= 2**-60 peak, so that the rule above stops it after this block
    too, and when _absorbs(row, B) holds, so that adding the block's sum
    changes no bit of it.  The imaginary parts are left out of that check
    only when phi_hat and a_hat are real on the block: every power
    (:func:`spectral.powers`) and term then has imaginary part +-0.  A
    non-finite bound never stops a row.  phi_hat is still evaluated for a
    block while any row needs it, so the rows and their stops are bitwise
    those of the outward sum that evaluates it on every block.
    """
    K = gen.live_shifts(K)
    sup, real_phi = _fourier_sup(gen)
    xi = np.arange(L) / L
    rows = {j: np.zeros(L, dtype=complex) for j in js}
    peak = dict.fromkeys(js, 0.0)
    live = list(js)
    lo, width = 0, _FIRST_BLOCK
    while live and lo <= K:
        hi = min(lo + width, K + 1)
        k = np.arange(1 - hi, hi)
        k = k[np.abs(k) >= lo]
        nu = xi[:, None] + k[None, :]
        avals = a_hat(nu) if any(live) else None
        if lo and avals is not None:
            amax = np.abs(avals).max()
            imag = not (real_phi and not avals.imag.any())
            for j in [j for j in live if j > 0]:
                bound = 2 * k.size * max(amax ** j * sup, _TINY)
                if (np.isfinite(bound) and bound <= _BLOCK_STOP * peak[j]
                        and _absorbs(rows[j], bound, imag)):
                    live.remove(j)
            if not live:
                break
        phi = gen.fourier_at(nu)
        # Block arrays are freed early: the peak is a few of them, O(L * width).
        del nu
        levels = [None] if avals is None else spectral.powers(avals, max(live))
        for j, power in enumerate(levels):
            if j not in live:
                continue
            terms = np.multiply(power, phi) if j else phi
            rows[j] += terms.sum(axis=1)
            peak[j] = max(peak[j], float(np.abs(rows[j]).max()))
            if np.abs(terms).max() <= _BLOCK_STOP * peak[j]:
                live.remove(j)
            del terms
        lo, width = hi, 2 * width
    return rows


@np.errstate(over="ignore", invalid="ignore")
def _cross_spectra(gen, a_hat, js, L, K, tail_tol):
    """Rows Phi_hat_j on the L-grid for each j in js, and their tails.

    The tail of a row is its largest |k| = K term, from the two edge
    columns alone; see periodize_phi for the tail rule.  Row 0 of a
    B-spline is its exact Poisson sum; every other row is an outward block
    sum truncated at |k| <= K.  No (L, 2K+1) table is formed.  A row or
    tail that is not finite, as under a line response that grows until it
    overflows, raises TailTooLarge naming the row; the overflow itself is
    not warned about, since that error reports it.
    """
    K = spectral._count(K, "K", low=1, what="periodization half-width")
    js = [spectral._count(j, "j", low=0, what="row") for j in js]
    sums = _outward_sums(gen, a_hat, [j for j in js if j or gen.kind != "bspline"], L, K)
    edges = (np.arange(L) / L)[:, None] + np.array([-K, K])[None, :]
    phi = gen.fourier_at(edges)
    levels = list(spectral.powers(a_hat(edges), max(js))) if any(js) else None
    rows, tails = [], []
    for j in js:
        vals = sums[j] if j in sums else _bspline_poisson_row(gen.order, L)
        terms = np.multiply(phi, levels[j]) if j else phi
        tail = float((np.abs(terms[:, 0]) + np.abs(terms[:, -1])).max())
        if not (np.isfinite(tail) and np.all(np.isfinite(vals))):
            raise TailTooLarge(f"row j={j} of the cross-spectra or its |k|={K} tail is not "
                               "finite: the line response or the generator overflows "
                               "on |nu| <= K + 1")
        scale = max(float(np.abs(vals).max()), 1e-300)
        if tail > tail_tol * scale:
            raise TailTooLarge(
                f"|k|={K} term is {tail:.3e} > {tail_tol:.1e} * scale {scale:.3e}; increase K")
        rows.append(vals)
        tails.append(tail)
    return rows, tails


def periodize_phi(gen, a_hat, j, L, K, tail_tol=TAIL_TOL):
    """Periodized cross-spectrum of the j-step evolved generator on the L-grid.

    Returns (values, tail) where values[r] approximates
    sum_k a_hat(r/L + k)**j phi_hat(r/L + k) truncated at |k| <= K and tail
    is the largest |k| = K term magnitude over the grid.  The sum skips the
    shifts that cannot meet a sinc or table band (Generator.live_shifts),
    whose terms are exact zeros, and stops early once its terms are
    negligible (see _outward_sums); for a B-spline and j = 0 it is exact,
    with no truncation.  Raises TailTooLarge when that term exceeds
    ``tail_tol`` times the value scale, and PreconditionViolated unless j
    is an integer >= 0 and K one >= 1.
    """
    rows, tails = _cross_spectra(gen, a_hat, (j,), L, K, tail_tol)
    return rows[0], tails[0]


@dataclass
class SISSystem:
    """Integer-rate system data: periodized cross-spectra row per time step."""

    m: int
    L: int
    phi_hat: np.ndarray          # (m, L), row j holds Phi_hat_j on the grid
    tail_bound: float
    K: int = 0


def build_sis_system(gen, a_hat, m, L, K, tail_tol=TAIL_TOL):
    """Assemble the m x m per-frequency family for time steps 0..m-1."""
    spectral._layout(L, m)
    rows, tails = _cross_spectra(gen, a_hat, range(m), L, K, tail_tol)
    return SISSystem(m=m, L=L, phi_hat=np.array(rows), tail_bound=max(tails), K=K)


def sis_matrix(system, rho):
    """m x m matrix at grid index rho: entry (j, l) = Phi_hat_j((xi + l)/m)."""
    return systems._grid_family(system.phi_hat, system.m, [rho])[0]


def sis_singular_set(system):
    """Grid indices where the integer-rate family loses rank (``systems.SINGULAR_TOL``).

    The list is that of an SVD of every grid matrix (:func:`systems.grid_singular`).
    A power-ladder table (:func:`_ladder`) has the power matrices of its row
    1 as grid matrices, bitwise, so their node brackets settle most indices
    and only the others take the SVD (:func:`systems._square_singular_set`);
    any other table takes the SVD of every one.
    """
    table, m = system.phi_hat, system.m
    response = _ladder(table)
    if response is not None:
        return systems._square_singular_set(response, m)
    return systems.grid_singular(lambda idx: systems._grid_family(table, m, idx),
                                 table.shape[1] // m, m, m)


def _ladder(table):
    """Row 1 of the (N, L) node ``table`` when its rows equal levels 0..N-1 of
    :func:`spectral.powers` of that row, N >= 2, else None: the cross-spectra
    of a band-limited span, Phi_hat_j = b_hat^j, built by the same ladder
    (rows 0 and 1 of a sinc table are 1 and a_hat on the band).  A table
    whose row j differs from b_hat^j in one value is no ladder."""
    if len(table) < 2:
        return None
    levels = spectral.powers(table[1], len(table) - 1)
    ladder = all(np.array_equal(row, level) for row, level in zip(table, levels))
    return table[1] if ladder else None


# ---------------------------------------------------------------------------
# choice of the extra decimation factor

ADMISSIBLE_TOL = 1e-9      # a frequency difference this close to some k/n rules n out


def _first_violation(xis, n, tol):
    """First pairwise difference of xis equal to some k/n (within tol), as (d, k), or None."""
    for i in range(len(xis)):
        for j in range(i + 1, len(xis)):
            d = abs(xis[i] - xis[j])
            for k in range(1, n):
                if abs(d - k / n) <= tol:
                    return d, k
    return None


def n_is_admissible(xis, n, tol=ADMISSIBLE_TOL):
    """True when no pairwise difference of the given frequencies equals k/n."""
    return _first_violation(list(xis), spectral._count(n, "n", low=1), tol) is None


def choose_n(singular_xis, n_max, n_min=1, tol=ADMISSIBLE_TOL):
    """Smallest admissible extra decimation factor in [n_min, n_max].

    A factor n is admissible when no pairwise difference of the singular
    frequencies equals k/n for k = 1..n-1 (within tol).  Raises
    NoAdmissibleN with the violating differences when the cap is exhausted.
    """
    n_min, n_max = spectral._count(n_min, "n_min", low=1), spectral._count(n_max, "n_max")
    xis = list(singular_xis)
    violations = {}
    for n in range(n_min, n_max + 1):
        bad = _first_violation(xis, n, tol)
        if bad is None:
            return n
        violations[n] = bad
    raise NoAdmissibleN(n_max, violations)


# ---------------------------------------------------------------------------
# reducibility to the integer-sequence model

@dataclass
class ReducibilityResult:
    reducible: bool
    b_hat: np.ndarray = None       # length-L equivalent grid response if reducible
    witness: tuple = None          # (xi, k) where the ratio test failed


def reducibility_check(gen, a_hat, L, K):
    """Test whether evolution preserves the generator's span.

    The span is preserved exactly when a_hat(xi + k) is constant over the k
    with phi_hat(xi + k) != 0, for (almost) every xi; the constant defines
    the equivalent integer-rate response b_hat(xi) (support: |phi_hat| above
    1e-8 of its peak; deviation: above 1e-8 max(1, |b_hat|)).  Returns the
    b_hat grid values on success, or the first witness (xi, k) where it fails.
    Only the shifts |k| <= gen.live_shifts(K) are formed; the others have a
    zero transform and are never support.  All grid rows are tested at once
    on that (L, 2 gen.live_shifts(K) + 1) table; the witness is the first
    failing row and, in it, the first shift of largest deviation.  K must
    be an integer >= 1 (PreconditionViolated naming it otherwise).
    """
    kmax = gen.live_shifts(spectral._count(K, "K", low=1, what="periodization half-width"))
    k = np.arange(-kmax, kmax + 1)
    xi = np.arange(L) / L
    nu = xi[:, None] + k[None, :]
    phi = np.abs(gen.fourier_at(nu))
    avals = a_hat(nu)
    del nu
    live = phi > 1e-8 * phi.max()
    rows = np.flatnonzero(live.any(axis=1))
    b_hat = np.zeros(L, dtype=complex)
    b_hat[rows] = avals[rows, np.argmax(phi[rows], axis=1)]
    dev = np.full(phi.shape, -np.inf)
    np.abs(np.subtract(avals, b_hat[:, None], out=np.zeros(phi.shape, dtype=complex),
                       where=live), out=dev, where=live)
    bad = np.flatnonzero(dev.max(axis=1) > 1e-8 * np.maximum(1.0, np.abs(b_hat)))
    if bad.size:
        r = bad[0]
        witness = (float(xi[r]), int(k[np.argmax(dev[r])]))
        return ReducibilityResult(reducible=False, witness=witness)
    return ReducibilityResult(reducible=True, b_hat=b_hat)


# ---------------------------------------------------------------------------
# forward sampling via fine-grid synthesis

def _signed_bins(N):
    """Signed frequency index of each of N DFT bins: the half-open range [-N/2, N/2).

    Bin b is b below N - N // 2 and b - N from there on, so that an even N
    puts bin N/2 at -N/2 and an odd N keeps (N - 1)/2 at +(N - 1)/2.
    """
    b = np.arange(N)
    return np.where(b < N - N // 2, b, b - N)


def _synthesize_fine(c, gen, P):
    """Values of f = sum_k c_k phi(. - k) on the grid s/P, s = 0..L*P-1.

    Compactly supported generators are summed exactly in the time domain,
    one polyphase term per integer offset j that meets the support:
    f(k + r/P) = sum_j c_{k-j} phi(j + r/P), in O(L P d) time and O(L P)
    memory for a B-spline of order d.  Table generators are synthesized
    from their finite frequency content at q/L for the signed bins q in
    [-LP/2, LP/2); with table_K >= P/2 that range cuts the table's band.
    sis_forward does not call this for sinc.
    """
    c = np.asarray(c, dtype=complex)
    L = len(c)
    if gen.compact_support:
        half = (gen.order + 1) / 2.0
        r = np.arange(P) / P
        out = np.zeros((L, P), dtype=complex)
        for j in range(math.floor(-half), math.ceil(half)):
            out += np.roll(c, j)[:, None] * gen.time_at(j + r)[None, :]
        return out.ravel()
    # Frequency route: Fourier coefficient q of the L-periodic f is
    # c_hat(q mod L) * phi_hat(q/L) / L for q in [-LP/2, LP/2).
    c_hat = spectral.dft(c)
    LP = L * P
    q = _signed_bins(LP)
    coeff = c_hat[np.mod(q, L)] * gen.fourier_at(q / L) / L
    return np.fft.ifft(coeff) * LP


def sis_forward(c, gen, a_hat, m, n=1, omega=(), P=48):
    """Coarse samples of the evolving span signal, plus extra initial samples.

    Returns y_l(k) = (a^l * f)(m k) for l = 0..m-1 and extras
    z_c(k) = f(m n k - c).  A sinc span is band-limited to [-1/2, 1/2), so
    its integer samples are exact L-point transforms and P plays no part:
    y_l = S_m idft(c_hat a_hat(q/L)**l) over the signed bins q of that band,
    and f(k) = c_k.  B-spline and table spans are synthesized on a fine grid
    of P points per unit, evolved by multiplying the fine spectrum with the
    powers of the line response, and sampled at the integers, y_l = S_{P m}
    of the L P-point inverse transform.  Each route decimates in frequency
    (see the module docstring, Q = m, or P m): the m spectra are folded to
    L/m bins and take one batched inverse transform of L/m points.  P must
    be an integer >= 1 for every generator (PreconditionViolated naming it
    otherwise), and c a 1-d sequence (ShapeMismatch).
    """
    c = spectral._signal(c, "c")
    L = len(c)
    omega = spectral._layout(L, m, n, omega)
    P = spectral._count(P, "P", low=1, what="fine samples per unit")
    if gen.kind == "sinc":
        avals = a_hat(_signed_bins(L) / L)        # the band [-1/2, 1/2)
        spectrum, Q = spectral.dft(c), m
        f_int = c
    else:
        f_fine = _synthesize_fine(c, gen, P)
        avals = a_hat(_signed_bins(L * P) / L)
        spectrum, Q, f_int = np.fft.fft(f_fine), P * m, f_fine[::P].copy()
        del f_fine                   # its room goes to the ladder of powers below
    folded = np.empty((m, L // m), dtype=complex)
    for l, power in enumerate(spectral.powers(avals, m - 1)):
        terms = np.multiply(power, spectrum)
        terms.reshape(Q, L // m).sum(axis=0, out=folded[l])
        del terms
    folded = spectral.idft(folded, out=folded)
    folded /= Q
    extras = {cc: spectral.subsample(spectral.shift(f_int, cc), m * n) for cc in omega}
    return SampleSet(y=list(folded), extras=extras, m=m, n=n, omega=omega)


# ---------------------------------------------------------------------------
# reconstruction at the integer rate

def sis_reconstruct(samples, gen, a_hat, m, n, omega, K, system=None):
    """Recover the coefficient sequence from a span sample set.

    Uses the first m snapshot sequences, one per cross-spectrum Phi_hat_j.
    With extra samples the packet solve mirrors the integer-sequence
    pipeline, except that the extra-sample rows carry the weight
    Phi_hat_0 at each column's frequency (the extras observe f, whose
    spectrum is c_hat * Phi_hat_0).  A nonempty omega must contain 1..m-1.
    ``system`` reuses a :func:`build_sis_system` result for the same
    (m, L, K) instead of building it again.  A power-ladder table
    (:func:`_ladder`: sinc and band-indicator spans) is solved as the
    sequence pipeline solves the response b_hat = Phi_hat_1, from its
    nodes: the same packet matrices, with the node floor and the node
    solve; any other table takes the QR with the certificate.
    """
    # Only the sample-set match: the span regime differs and is checked below.
    omega = _guarantee_regime(samples, m, n, omega, force=True)
    L, K = samples.L, spectral._count(K, "K", low=1, what="periodization half-width")
    if system is None:
        system = build_sis_system(gen, a_hat, m, L, K)
    elif (system.m, system.L, system.K) != (m, L, K):
        raise PreconditionViolated(f"system was built for (m, L, K) = "
                                   f"{(system.m, system.L, system.K)}, not {(m, L, K)}")
    response = _ladder(system.phi_hat)
    route = {"table": system.phi_hat} if response is None else {"response": response}
    if not omega:
        return _solve(samples.y[:m], samples.extras, m, 1, None, **route)
    if not set(range(1, m)).issubset(omega):
        raise PreconditionViolated(f"span guarantee needs omega containing {list(range(1, m))}")
    return _solve(samples.y[:m], samples.extras, m, n, omega, **route)
