"""Sampling and recovery for signals spanned by integer shifts of a generator.

The signal is f = sum_k c_k phi(. - k) with an L-periodic coefficient
sequence.  Evolution acts through a frequency response defined on the whole
real line; sampling happens at the integers.  The integer-rate system
matrix replaces powers of a grid response by the periodized cross-spectra

    Phi_hat_j(xi) = sum_k a_hat(xi + k)**j * phi_hat(xi + k),

truncated at |k| <= K with a reported tail estimate.  The forward path
never uses those periodizations: it synthesizes f on a fine grid of P
samples per unit, evolves in the fine frequency domain, and samples -- an
independent route against which the reconstruction is validated.
"""

import math
import numbers
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
            self.order = _bspline_order(self.order)

    def fourier_at(self, nu):
        """Transform value(s) at real frequency nu."""
        nu = np.asarray(nu, dtype=float)
        if self.kind == "sinc":
            return ((nu >= -0.5) & (nu < 0.5)).astype(float)
        if self.kind == "bspline":
            return np.sinc(nu) ** (self.order + 1)
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


def _bspline_order(order):
    """The order as an int; PreconditionViolated unless it is a nonnegative integer."""
    if (isinstance(order, bool) or not isinstance(order, numbers.Real)
            or not float(order).is_integer() or order < 0):
        raise PreconditionViolated(f"B-spline order must be a nonnegative integer, got {order!r}")
    return int(order)


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

    A B-spline order that is not a nonnegative integer raises
    PreconditionViolated.
    """
    kind = spec["kind"]
    if kind == "sinc":
        return Generator(kind="sinc")
    if kind == "bspline":
        return Generator(kind="bspline", order=spec.get("order", 3))
    if kind == "table":
        table = np.array([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                          for v in spec["fourier_values"]])
        L, K = int(spec["L"]), int(spec["K"])
        if len(table) != 2 * K * L + 1:
            raise ValueError(f"table must hold 2*K*L+1 = {2 * K * L + 1} values")
        return Generator(kind="table", table=table, table_L=L, table_K=K)
    raise ValueError(f"unknown generator kind {kind!r}")


def riesz_bounds(gen, L, K):
    """Min and max over the grid of sum_k |phi_hat(xi + k)|^2 (|k| <= K)."""
    k = np.arange(-K, K + 1)
    nu = (np.arange(L) / L)[:, None] + k[None, :]
    s = (np.abs(gen.fourier_at(nu)) ** 2).sum(axis=1)
    return float(s.min()), float(s.max())


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
    """Line response from a JSON-style mapping."""
    kind = spec["kind"]
    if kind == "identity":
        return identity_response()
    if kind == "gaussian":
        return gaussian_response(float(spec["alpha"]))
    if kind == "heat_line":
        return heat_line_response(float(spec["t"]))
    raise ValueError(f"unknown line filter kind {kind!r}")


# ---------------------------------------------------------------------------
# periodization and the integer-rate system

def _cross_spectra(gen, a_hat, js, L, K, tail_tol):
    """Rows Phi_hat_j on the L-grid for each j in js, and their tails.

    Evaluates phi_hat and a_hat once on the (L, 2K+1) table of shifted
    frequencies; see periodize_phi for the tail rule.
    """
    if K < 1:
        raise PreconditionViolated(f"periodization half-width K must be at least 1, got K={K}")
    k = np.arange(-K, K + 1)
    nu = (np.arange(L) / L)[:, None] + k[None, :]
    phi = gen.fourier_at(nu).astype(complex)
    avals = a_hat(nu) if any(js) else None
    rows, tails = [], []
    for j in js:
        terms = phi * avals ** j if j else phi
        vals = terms.sum(axis=1)
        tail = float((np.abs(terms[:, 0]) + np.abs(terms[:, -1])).max())
        scale = max(float(np.abs(vals).max()), 1e-300)
        if tail > tail_tol * scale:
            raise TailTooLarge(
                f"|k|={K} term is {tail:.3e} > {tail_tol:.1e} * scale {scale:.3e}; increase K")
        rows.append(vals)
        tails.append(tail)
    return rows, tails


def periodize_phi(gen, a_hat, j, L, K, tail_tol=1e-12):
    """Periodized cross-spectrum of the j-step evolved generator on the L-grid.

    Returns (values, tail) where values[r] approximates
    sum_k a_hat(r/L + k)**j phi_hat(r/L + k) truncated at |k| <= K and tail
    is the largest |k| = K term magnitude over the grid.  Raises
    TailTooLarge when that term exceeds ``tail_tol`` times the value scale,
    and PreconditionViolated for K < 1.
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


def build_sis_system(gen, a_hat, m, L, K, tail_tol=1e-12):
    """Assemble the m x m per-frequency family for time steps 0..m-1."""
    spectral._layout(L, m)
    rows, tails = _cross_spectra(gen, a_hat, range(m), L, K, tail_tol)
    return SISSystem(m=m, L=L, phi_hat=np.array(rows), tail_bound=max(tails), K=K)


def sis_matrix(system, rho):
    """m x m matrix at grid index rho: entry (j, l) = Phi_hat_j((xi + l)/m)."""
    return systems._grid_family(system.phi_hat, system.m, [rho])[0]


def sis_family(system):
    """Stacked matrices over the grid, shape (L/m, m, m)."""
    return systems._grid_family(system.phi_hat, system.m)


def sis_singular_set(system, tol=systems.SINGULAR_TOL):
    """Grid indices where the integer-rate family loses rank (relative cutoff)."""
    return systems.singular_indices(systems.smin_family(sis_family(system)), tol)


# ---------------------------------------------------------------------------
# choice of the extra decimation factor

def _first_violation(xis, n, tol):
    """First pairwise difference of xis equal to some k/n (within tol), as (d, k), or None."""
    for i in range(len(xis)):
        for j in range(i + 1, len(xis)):
            d = abs(xis[i] - xis[j])
            for k in range(1, n):
                if abs(d - k / n) <= tol:
                    return d, k
    return None


def n_is_admissible(xis, n, tol=1e-9):
    """True when no pairwise difference of the given frequencies equals k/n."""
    return _first_violation(list(xis), n, tol) is None


def choose_n(singular_xis, n_max, n_min=1, tol=1e-9):
    """Smallest admissible extra decimation factor in [n_min, n_max].

    A factor n is admissible when no pairwise difference of the singular
    frequencies equals k/n for k = 1..n-1 (within tol).  Raises
    NoAdmissibleN with the violating differences when the cap is exhausted.
    """
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


def reducibility_check(gen, a_hat, L, K, support_tol=1e-8, ratio_tol=1e-8):
    """Test whether evolution preserves the generator's span.

    The span is preserved exactly when a_hat(xi + k) is constant over the k
    with phi_hat(xi + k) != 0, for (almost) every xi; the constant defines
    the equivalent integer-rate response b_hat(xi).  Returns the b_hat grid
    values on success, or the first witness (xi, k) where the ratio deviates.
    """
    k = np.arange(-K, K + 1)
    xi = np.arange(L) / L
    nu = xi[:, None] + k[None, :]
    phi = gen.fourier_at(nu)
    avals = a_hat(nu)
    phi_scale = float(np.abs(phi).max())
    b_hat = np.zeros(L, dtype=complex)
    for r in range(L):
        live = np.abs(phi[r]) > support_tol * phi_scale
        if not np.any(live):
            continue
        anchor = np.argmax(np.abs(phi[r]))
        b_hat[r] = avals[r, anchor]
        dev = np.abs(avals[r, live] - b_hat[r])
        if dev.max() > ratio_tol * max(1.0, abs(b_hat[r])):
            k_bad = int(k[live][int(np.argmax(dev))])
            return ReducibilityResult(reducible=False, witness=(float(xi[r]), k_bad))
    return ReducibilityResult(reducible=True, b_hat=b_hat)


# ---------------------------------------------------------------------------
# forward sampling via fine-grid synthesis

def _synthesize_fine(c, gen, P):
    """Values of f = sum_k c_k phi(. - k) on the grid s/P, s = 0..L*P-1.

    Compactly supported generators are summed exactly in the time domain,
    one polyphase term per integer offset j that meets the support:
    f(k + r/P) = sum_j c_{k-j} phi(j + r/P), in O(L P d) time and O(L P)
    memory for a B-spline of order d.  Band-limited and table generators
    are synthesized from their finite frequency content.
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
    bins = np.arange(LP)
    q = np.where(bins < LP // 2, bins, bins - LP)
    coeff = c_hat[np.mod(q, L)] * gen.fourier_at(q / L) / L
    return np.fft.ifft(coeff) * LP


def sis_forward(c, gen, a_hat, m, n=1, omega=(), P=48):
    """Coarse samples of the evolving span signal, plus extra initial samples.

    Synthesizes f on a fine grid of P points per unit, evolves by
    multiplying the fine spectrum with the line response, and samples the
    integers: y_l(k) = (a^l * f)(m k) for l = 0..m-1, extras
    z_c(k) = f(m n k - c).
    """
    c = np.asarray(c, dtype=complex)
    L = len(c)
    omega = spectral._layout(L, m, n, omega)
    if P < 1:
        raise PreconditionViolated(f"fine samples per unit P must be at least 1, got P={P}")
    f_fine = _synthesize_fine(c, gen, P)
    LP = L * P
    F = np.fft.fft(f_fine)
    bins = np.arange(LP)
    q = np.where(bins < LP // 2, bins, bins - LP)
    avals = a_hat(q / L)
    y = []
    for l in range(m):
        w = np.fft.ifft(F * avals ** l)[::P]     # integer samples of a^l * f
        y.append(w[::m].copy())
    f_int = f_fine[::P]
    extras = {cc: spectral.subsample(spectral.shift(f_int, cc), m * n) for cc in omega}
    return SampleSet(y=y, extras=extras, m=m, n=n, omega=omega)


# ---------------------------------------------------------------------------
# reconstruction at the integer rate

def sis_reconstruct(samples, gen, a_hat, m, n, omega, K, force=False, tail_tol=1e-12,
                    system=None):
    """Recover the coefficient sequence from a span sample set.

    Uses the first m snapshot sequences, one per cross-spectrum Phi_hat_j.
    With extra samples the packet solve mirrors the integer-sequence
    pipeline, except that the extra-sample rows carry the weight
    Phi_hat_0 at each column's frequency (the extras observe f, whose
    spectrum is c_hat * Phi_hat_0).  The guarantee regime expects omega to
    contain 1..m-1; pass force=True to attempt other sets.  ``system``
    reuses a :func:`build_sis_system` result for the same (m, L, K)
    instead of building it again.
    """
    # Only the sample-set match: the span regime differs and is checked below.
    omega = _guarantee_regime(samples, m, n, omega, force=True)
    L = samples.L
    if system is None:
        system = build_sis_system(gen, a_hat, m, L, K, tail_tol)
    elif (system.m, system.L, system.K) != (m, L, K):
        raise PreconditionViolated(f"system was built for (m, L, K) = "
                                   f"{(system.m, system.L, system.K)}, not {(m, L, K)}")
    if not omega:
        return _solve(samples.y, samples.extras, m, system.phi_hat, 1, None)
    if not force and not set(range(1, m)).issubset(omega):
        raise PreconditionViolated(
            f"span guarantee needs omega containing {list(range(1, m))} (use force=True)")
    return _solve(samples.y, samples.extras, m, system.phi_hat, n, omega)
