"""Conditioning of the recovery: pseudoinverse norms, explicit bounds, noise.

The recovery error under additive noise is governed by the largest spectral
norm of the per-frequency pseudoinverses.  This module measures that norm
on a grid, evaluates three explicit upper bounds of the form
m * beta * (1 + m sqrt(n-1)), the matching lower bound m * ||A_m^{-1}(1/n)||,
and runs a seeded Monte-Carlo harness against the error estimate
||A^+|| * sigma / sqrt(m).

The upper bounds apply to the full extra-sample set omega = {0..m-1}; the
recovery guarantee and the lower bound use the minimal set
omega = {1..(m-1)/2}.  The two regimes are distinct: the bound functions
take no omega, and stability_report measures the empirical norm in both.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (EvenM, GridMiss, HypothesisViolated, PreconditionViolated,
                     RankDeficient)
from . import spectral, systems
from .systems import _is_hermitian
from .recon import _guarantee_regime, _require_finite, _solve, forward

_SUP_TOL = 1e-12
# Cap on one length-L complex array per trial of a noise_trial block; the
# block's working arrays are a few such arrays, so memory stays O(L).
_TRIAL_BLOCK_BYTES = 512 * 1024


def minimal_omega(m):
    """Smallest extra-sample set with a recovery guarantee: shifts 1..(m-1)/2."""
    return tuple(range(1, (m - 1) // 2 + 1))


def full_omega(m):
    """Extra-sample set required by the upper-bound estimates: shifts 0..m-1."""
    return tuple(range(m))


def empirical_pinv_norm(a, m, n, omega, grid):
    """Largest spectral norm of the extended pseudoinverse over a frequency grid.

    Scans xi = g/grid for g = 0..grid-1 and returns max 1/smin of the scaled
    extended matrix.  The grid must resolve the packet structure
    (at least 4 m n points).

    Two exact maps leave the singular values unchanged, so only one grid
    index per orbit is a candidate (see :func:`_orbit_count`).  The
    shift xi -> xi + 1/n holds for every filter and is used when n divides
    grid.  The mirror xi -> 1 - xi holds for a Hermitian response,
    a(-xi) = conj(a(xi)), and is used when the grid response satisfies it
    bitwise; a response Hermitian only to rounding takes the shift-only
    scan.  Members of an orbit agree up to rounding, so the result may move
    in the last digits against a full-grid scan.  As in the solve, a rank
    deficient matrix, whose smin is at most ``systems.RANK_TOL`` times its
    largest singular value, raises RankDeficient: the scan checks the
    candidate of smallest smin and names the smallest grid index of its orbit.

    Only the minimum smin is needed, so most candidates take no SVD
    (:func:`systems.minimum_smins`).  The two seed candidates, the orbits of
    xi = 0 and 1/2 (for an odd grid, the point just below 1/2), are
    decomposed first: there the plain blocks lose rank, and there the scan
    minimum usually sits.  Their smallest smin is ``best``.  Every other
    candidate takes the node test of :func:`systems._node_test`, a block
    Cholesky factorization of A^H A - theta I from the candidate's nodes,
    theta a little above best^2, and only the candidates that it fails are
    assembled and decomposed, lowering best.  A cleared candidate has smin
    above best by more than an SVD errs.  The value and the RankDeficient
    decision, made at the first argmin of the smins with the smax of the
    same SVD, come from SVDs of the same candidate matrices as a scan that
    decomposes every candidate, each decomposed on its own, so both are
    bitwise that scan's.  m and n are counts of at least 1
    (PreconditionViolated naming them).
    """
    m, n = _counts(m, n)
    grid = spectral._count(grid, "grid")
    if grid < 4 * m * n:
        raise ValueError(f"grid must have at least 4*m*n = {4 * m * n} points")
    count = _orbit_count(a, n, grid)
    xi, shifts = np.arange(count) / grid, np.arange(n) / n
    smin, smax = systems.minimum_smins(
        lambda idx: systems.plain_nodes_at(a, m, xi[idx, None] + shifts), count,
        systems.phase_rows(m, n, omega), [0, _representative(grid // 2, n, grid, count)])
    g = int(np.argmin(smin))
    if smin[g] <= systems.RANK_TOL * smax[g]:
        raise RankDeficient(g, f"extended matrix rank deficient at xi = {g}/{grid}")
    return float(1.0 / smin[g])


def _orbit_count(a, n, grid):
    """Number of orbits of the scan's grid indices 0..grid-1; their smallest
    members are 0..count-1.

    The extended matrix at xi + 1/n is Q A(xi) Pi, with Q unitary (row
    phases and a block-row permutation) and Pi a column permutation; for a
    Hermitian response the matrix at 1 - xi is D conj(A(xi)) Pi'.  Both
    keep the singular values.  With p = grid/n when n divides grid (else
    p = grid), g shares its decomposition with g mod p and, for a bitwise
    Hermitian grid response, with -g mod p: the smallest members are
    0..p-1, or 0..p/2 with the mirror.
    """
    p = grid // n if grid % n == 0 else grid
    return p // 2 + 1 if _is_hermitian(a.response) else p


def _representative(g, n, grid, count):
    """Smallest member of the orbit of grid index g, the scan counting
    ``count`` orbits (see :func:`_orbit_count`)."""
    p = grid // n if grid % n == 0 else grid
    r = g % p
    return r if r < count else p - r


def _counts(m, n):
    """m and n of a stability entry point, each a count of at least 1 by the
    rule of :func:`spectral._count`, read before any arithmetic."""
    return spectral._count(m, "m", low=1), spectral._count(n, "n", low=1)


def _check_bound_hypotheses(a, n):
    if not a.symmetric_decreasing:
        raise HypothesisViolated("bounds need a real, even, strictly decreasing response")
    if n % 2 == 0:
        raise HypothesisViolated("bounds need odd n")


def _check_unit_sup(a, bound):
    if float(np.max(np.abs(a.response))) > 1.0 + _SUP_TOL:
        raise HypothesisViolated(f"{bound} needs sup |response| <= 1")


def _grid(m, n, grid):
    return max(720, 16 * m * n) if grid is None else spectral._count(grid, "grid")


def guard_band_points(n, grid):
    """Grid points at distance >= 1/(4n) from the degenerate frequencies 0, 1/2, 1.

    Takes the points g/grid that fall inside the two admissible intervals
    and appends the four interval endpoints, so endpoint extrema are hit
    exactly.  n is a count of at least 1 and grid a count
    (PreconditionViolated naming them).
    """
    ends = _band_ends(spectral._count(n, "n", low=1))
    grid = spectral._count(grid, "grid")
    g = np.arange(grid) / grid
    inside = ((ends[0] <= g) & (g <= ends[1])) | ((ends[2] <= g) & (g <= ends[3]))
    return np.array(sorted(set(g[inside].tolist() + ends)))


def _band_ends(n):
    """The four endpoints of the guard band's two intervals, in increasing order."""
    lo = 1.0 / (4.0 * n)
    return [lo, 0.5 - lo, 0.5 + lo, 1.0 - lo]


def _band_nodes(a, m, n, grid):
    """(points, (points, m) node values) at the guard-band points that beta1 and beta2 scan."""
    pts = guard_band_points(n, _grid(m, n, grid))
    if len(pts) < 8 * m * n:
        raise ValueError(f"need at least 8*m*n = {8 * m * n} points inside the band")
    return pts, systems.plain_nodes_at(a, m, pts)


class BetaBound(NamedTuple):
    beta: float
    bound: float
    beta_inflated: Optional[float] = None
    bound_inflated: Optional[float] = None
    detail: float = 0.0      # sup inverse norm (beta1), delta (beta2), gamma (beta3)


def _bound_from_beta(m, n, beta):
    return m * beta * (1.0 + m * math.sqrt(n - 1.0))


def _power_bound(m, n, base, detail):
    """Bound of beta = max(n, base^(m-1)) with the variant
    max(n, sqrt(m) base^(m-1)) of the underlying Vandermonde estimate."""
    beta = max(float(n), base ** (m - 1))
    beta_inf = max(float(n), math.sqrt(m) * base ** (m - 1))
    return BetaBound(beta=beta, bound=_bound_from_beta(m, n, beta),
                     beta_inflated=beta_inf, bound_inflated=_bound_from_beta(m, n, beta_inf),
                     detail=detail)


def bound_beta1(a, m, n, grid=None):
    """Upper bound from the inverse-norm supremum over the guard band.

    beta1 = max(n, sup ||A_m^{-1}(xi)||) with the sup taken over grid points
    of the band; the grid max is a lower estimate of the true supremum, so
    coherent comparisons should reuse the same grid for the empirical norm.
    The sup is 1 / min smin over the band's square power matrices, found by
    the minimum search of the conditioning scan (:func:`systems.minimum_smins`)
    with the four band endpoints, nearest the degenerate frequencies, as
    seeds: a point that the node test clears takes no SVD, and the sup is
    bitwise that of an SVD of every band matrix, as rounded division is
    monotone.  m and n are counts of at least 1 (PreconditionViolated naming
    them), and n must be odd.
    """
    m, n = _counts(m, n)
    _check_bound_hypotheses(a, n)
    return _beta1(m, n, *_band_nodes(a, m, n, grid))


def _beta1(m, n, pts, nodes):
    """:func:`bound_beta1` from the guard band of :func:`_band_nodes`."""
    smin = systems.minimum_smins(lambda idx: nodes[idx, None], len(pts), None,
                                 np.searchsorted(pts, _band_ends(n)))[0]
    sup = float((1.0 / smin).max())
    beta1 = max(float(n), sup)
    return BetaBound(beta=beta1, bound=_bound_from_beta(m, n, beta1), detail=sup)


def bound_beta2(a, m, n, grid=None):
    """Upper bound from the worst node separation delta over the guard band.

    beta2 = max(n, (2/delta)^(m-1)).  Also returns the variant with the
    extra sqrt(m) factor carried by the underlying Vandermonde estimate;
    the inflated bound is the safe side of that discrepancy.
    """
    m, n = _counts(m, n)
    _check_bound_hypotheses(a, n)
    _check_unit_sup(a, "beta2")
    return _beta2(m, n, _band_nodes(a, m, n, grid)[1])


def _beta2(m, n, nodes):
    """:func:`bound_beta2` from the guard-band nodes of :func:`_band_nodes`;
    a single node (m = 1) has no separation and raises HypothesisViolated."""
    if m < 2:
        raise HypothesisViolated(f"beta2 needs m >= 2 nodes to separate, got m={m}")
    gaps = np.abs(nodes[:, None, :] - nodes[:, :, None])
    delta = float(gaps[:, ~np.eye(m, dtype=bool)].min())
    if delta <= 0.0:
        raise HypothesisViolated("coincident nodes inside the guard band")
    return _power_bound(m, n, 2.0 / delta, delta)


def bound_beta3(a, m, n, grid=None):
    """Upper bound from the smallest response slope gamma.

    gamma = min |a_hat'(xi)| over [1/(4mn), 1/2 - 1/(4mn)] and
    beta3 = max(n, (4 m n / gamma)^(m-1)).  Uses the closed-form derivative
    when the filter kind provides one, else central differences at step
    1/(8 m n L).  Returns the plain and sqrt(m)-inflated variants.
    """
    m, n = _counts(m, n)
    _check_bound_hypotheses(a, n)
    _check_unit_sup(a, "beta3")
    lo = 1.0 / (4.0 * m * n)
    pts = np.linspace(lo, 0.5 - lo, max(8 * m * n, _grid(m, n, grid)) + 1)
    if a.has_closed_form_derivative:
        dvals = np.abs(a.deriv_at(pts))
    else:
        h = 1.0 / (8.0 * m * n * a.L)
        dvals = np.abs(a.at(pts + h) - a.at(pts - h)) / (2.0 * h)
    gamma = float(dvals.min())
    if gamma <= 1e-13:
        raise HypothesisViolated("response slope vanishes inside [1/(4mn), 1/2 - 1/(4mn)]")
    return _power_bound(m, n, 4.0 * m * n / gamma, gamma)


def gautschi_bound(a, m, xi):
    """Node-separation bound on ||A_m^{-1}(xi)|| at a single frequency."""
    m = spectral._count(m, "m", low=1)
    return systems.gautschi_bound_nodes(systems.plain_nodes_at(a, m, xi))


def lower_bound_stablow(a, m, n, omega=None):
    """Lower bound m * ||A_m^{-1}(1/n)|| on the pseudoinverse norm.

    Valid for the minimal extra-sample set (|omega| = (m-1)/2), so only for
    odd m: an even m raises EvenM naming it.  The frequency 1/n must land on
    the matrix grid, i.e. m n must divide L.  As in the solve, a square
    system whose smin is at most ``systems.RANK_TOL`` times its largest
    singular value, both from one SVD, raises RankDeficient.
    """
    m, n = _counts(m, n)
    if m % 2 == 0:
        raise EvenM(f"lower bound needs odd m, got m={m}")
    if m == 1:
        return 0.0
    if omega is None:
        omega = minimal_omega(m)
    if len(omega) != (m - 1) // 2:
        raise HypothesisViolated(
            f"lower bound needs |omega| = (m-1)/2 = {(m - 1) // 2}, got {len(omega)}")
    L = a.L
    if L % (m * n):
        raise GridMiss(f"1/{n} is not on the grid: {m * n} does not divide L={L}")
    rho = (L // m) // n
    mats = systems.build_plain(a, m, m, rho)[None]
    smin, smax = systems.packet_smins(lambda part: mats[part], 1, m, m)
    if smin[0] <= systems.RANK_TOL * smax[0]:
        raise RankDeficient(rho, "square system singular at 1/n")
    return m / float(smin[0])


class NoiseTrialResult(NamedTuple):
    mean_error: float
    bound_ok: bool
    bound: float
    ratio: float


def noise_trial(f, a, m, n, omega, sigma, trials=200, seed=0, pinv_norm=None):
    """Monte-Carlo check of the noise error estimate ||A^+|| sigma / sqrt(m).

    Perturbs every sample entry with circular complex Gaussian noise of
    variance sigma**2 (seeded, deterministic), reconstructs, and reports the
    per-entry RMS error sqrt(mean |f - f_rec|^2) averaged over trials.
    ``bound_ok`` holds when the mean is at most 1.10 times the estimate.
    Without ``pinv_norm`` the norm is scanned on max(720, 4 m n) grid
    points.  Reusing one seed across sigma values yields errors that
    are exactly proportional to sigma.  This is the one-sigma case of
    :func:`noise_sweep`, which holds the blocks, the noise stream and the
    errors.  Raises PreconditionViolated for trials that are not an integer
    >= 1, for a negative or non-finite sigma, and outside the guarantee
    regime of :func:`reconstruct_extended`, and MalformedSamples for
    non-finite noisy samples.
    """
    return noise_sweep(f, a, m, n, omega, [sigma], trials, seed, pinv_norm)[0]


def noise_sweep(f, a, m, n, omega, sigmas, trials=200, seed=0, pinv_norm=None):
    """:func:`noise_trial` for every sigma of ``sigmas``, as one Monte Carlo.

    Returns one NoiseTrialResult per sigma, each equal field by field to
    ``noise_trial(..., sigma, ...)`` with the same trials and seed.  The
    signal is sampled once.  Trials are solved in blocks of
    ``_TRIAL_BLOCK_BYTES // (16 L len(sigmas))``, so that every block array
    stays within one sigma's cap and memory stays O(L).  Each block draws
    its noise once from the one seeded stream: per trial, per sequence, real
    part then imaginary part, whatever the block size.  Every sigma's trials
    of the block are right-hand-side columns of one packet solve, so each
    packet takes one QR and one certificate per block, not one per sigma;
    each block's solve gathers the nodes of its factored packets and their
    floors from the response, with no (m, L) power table.
    The QR and the triangular solve treat every column apart, and the
    per-trial errors are taken in one pass that is bitwise the per-row norm
    (:func:`_rms_rows`), so the results are bitwise those of one sigma at a
    time.  Raises as :func:`noise_trial`, for every sigma before any work,
    and PreconditionViolated for an empty ``sigmas``.
    """
    trials = spectral._count(trials, "trials", low=1, what="noise_trial")
    if not len(sigmas):
        raise PreconditionViolated("noise_sweep needs at least one sigma")
    for sigma in sigmas:
        if not 0 <= sigma < math.inf:
            raise PreconditionViolated(f"noise_trial needs a finite sigma >= 0, "
                                       f"got sigma={sigma}")
    f = np.asarray(f, dtype=complex)
    L = len(f)
    samples = forward(f, a, m, m, n, omega)
    omega = _guarantee_regime(samples, m, n, omega)
    if pinv_norm is None:
        pinv_norm = empirical_pinv_norm(a, m, n, omega, max(720, 4 * m * n))

    block = max(1, _TRIAL_BLOCK_BYTES // (16 * L * len(sigmas)))
    rng = np.random.default_rng(seed)
    errors = np.empty((len(sigmas), trials))
    for start in range(0, trials, block):
        noisy = _noisy_block(samples, rng, min(block, trials - start), sigmas)
        rec = _solve(noisy[:m], dict(zip(omega, noisy[m:])), m, n, omega, response=a.response)
        errors[:, start:start + rec.shape[1]] = _rms_rows(rec - f)
        del noisy, rec          # so the next block's arrays replace these, not join them
    results = []
    for sigma, row in zip(sigmas, errors):
        mean_error = float(row.mean())
        if sigma == 0.0:
            results.append(NoiseTrialResult(mean_error, True, 0.0, 0.0))
            continue
        bound = pinv_norm * sigma / math.sqrt(m)
        ratio = mean_error / bound
        results.append(NoiseTrialResult(mean_error, bool(ratio <= 1.10), bound, ratio))
    return results


def _rms_rows(rows):
    """sqrt(mean |row|^2) of every row of the (..., L) array ``rows``.

    Bitwise np.linalg.norm(row) / sqrt(L): the same two real dot products,
    real parts then imaginary parts, as stacked row-times-column products.
    """
    re, im = rows.real[..., None, :], rows.imag[..., None, :]
    squares = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(squares[..., 0, 0]) / math.sqrt(rows.shape[-1])


def _noisy_block(samples, rng, T, sigmas):
    """T noisy copies of every sequence per sigma, snapshots then extras,
    each (len(sigmas), T, len).

    Trial t takes the draws a per-trial loop would: sequence by sequence,
    the real parts then the imaginary parts of its noise, one draw for
    every sigma.  Non-finite results, such as noise that overflows, raise
    MalformedSamples, as in a SampleSet.
    """
    names = [f"y[{l}]" for l in range(samples.N)] + [f"extras[{c}]" for c in samples.omega]
    seqs = samples.y + [samples.extras[c] for c in samples.omega]
    ends = np.cumsum([2 * len(v) for v in seqs])
    draws = rng.standard_normal((T, ends[-1]))
    scale = np.asarray(sigmas, dtype=float)[:, None, None] / math.sqrt(2.0)
    noisy = []
    for name, v, end in zip(names, seqs, ends):
        re, im = draws[:, end - 2 * len(v):end - len(v)], draws[:, end - len(v):end]
        with np.errstate(over="ignore", invalid="ignore"):
            noisy.append(v + scale * (re + 1j * im))
        _require_finite(name, noisy[-1])
    return noisy


def proportionality_deviation(sigmas, errors):
    """Worst relative deviation of error/sigma from its mean (0 for one point).

    Reconstruction is linear, so with common random numbers the errors are
    exactly proportional to sigma; this measures how far a sweep strays.
    """
    ratios = [e / s for s, e in zip(sigmas, errors) if s > 0]
    if len(ratios) < 2:
        return 0.0
    mean = sum(ratios) / len(ratios)
    return max(abs(r - mean) / mean for r in ratios)


@dataclass
class StabilityReport:
    """All conditioning metrics for one configuration."""

    m: int
    n: int
    omega: tuple
    filter_desc: str
    L: int
    grid: int
    seed: int
    empirical_norm: float
    empirical_norm_minimal: float
    lower_bound: float
    beta1: float
    bound1: float
    delta: float
    beta2: float
    bound2: float
    beta2_inflated: float
    bound2_inflated: float
    gamma: float
    beta3: float
    bound3: float
    beta3_inflated: float
    bound3_inflated: float
    sandwich_ok: bool
    noise_sigma: Optional[float] = None
    noise_mean_error: Optional[float] = None
    noise_bound: Optional[float] = None
    guard_band: list = field(default_factory=list)
    slope_band: list = field(default_factory=list)

    CSV_HEADER = ["m", "n", "omega_size", "filter", "L", "grid", "seed",
                  "empirical", "empirical_minimal", "lower_bound",
                  "beta1_bound", "beta2_bound", "beta2_bound_sqrtm",
                  "beta3_bound", "beta3_bound_sqrtm",
                  "delta", "gamma", "noise_mean_error", "noise_bound"]

    def csv_row(self):
        return [self.m, self.n, len(self.omega), self.filter_desc, self.L,
                self.grid, self.seed, self.empirical_norm, self.empirical_norm_minimal,
                self.lower_bound, self.bound1, self.bound2, self.bound2_inflated,
                self.bound3, self.bound3_inflated, self.delta, self.gamma,
                self.noise_mean_error, self.noise_bound]

    def to_json_dict(self):
        d = {
            "config": {"m": self.m, "n": self.n, "omega": list(self.omega),
                       "filter": self.filter_desc, "L": self.L,
                       "grid": self.grid, "seed": self.seed},
            "empirical_norm": self.empirical_norm,
            "empirical_norm_minimal": self.empirical_norm_minimal,
            "lower_bound": self.lower_bound,
            "beta1": {"beta": self.beta1, "bound": self.bound1},
            "beta2": {"beta": self.beta2, "bound": self.bound2,
                      "beta_sqrtm": self.beta2_inflated, "bound_sqrtm": self.bound2_inflated,
                      "delta": self.delta},
            "beta3": {"beta": self.beta3, "bound": self.bound3,
                      "beta_sqrtm": self.beta3_inflated, "bound_sqrtm": self.bound3_inflated,
                      "gamma": self.gamma},
            "sandwich_ok": self.sandwich_ok,
            "guard_band_points": len(self.guard_band),
            "slope_band_points": len(self.slope_band),
        }
        if self.noise_sigma is not None:
            d["noise"] = {"sigma": self.noise_sigma,
                          "mean_error": self.noise_mean_error,
                          "bound": self.noise_bound}
        return d


def stability_report(a, m, n, filter_desc="", grid=720, seed=0,
                     noise_sigma=None, trials=200):
    """Assemble the full report for one (filter, m, n) configuration.

    The empirical norm is computed twice: at the full set {0..m-1} (the
    regime of the upper bounds) and at the minimal set {1..(m-1)/2} (the
    regime of the recovery guarantee and the lower bound).  ``sandwich_ok``
    asserts lower <= minimal, full <= minimal, and full below every upper
    bound, each within a 1e-9 relative margin.  m and n are counts of at
    least 1 (PreconditionViolated naming them), and m must be odd.
    """
    m, n = _counts(m, n)
    if m % 2 == 0:
        raise EvenM(f"stability_report needs odd m, got m={m}")
    om_full = full_omega(m)
    om_min = minimal_omega(m)
    emp_full = empirical_pinv_norm(a, m, n, om_full, grid)
    emp_min = empirical_pinv_norm(a, m, n, om_min, grid)
    lower = lower_bound_stablow(a, m, n, om_min)
    # beta1 and beta2 share one guard band, checked and evaluated once
    _check_bound_hypotheses(a, n)
    band, nodes = _band_nodes(a, m, n, grid)
    b1 = _beta1(m, n, band, nodes)
    _check_unit_sup(a, "beta2")
    b2 = _beta2(m, n, nodes)
    b3 = bound_beta3(a, m, n, grid)
    margin = 1.0 + 1e-9
    sandwich = (lower <= emp_min * margin
                and emp_full <= emp_min * margin
                and emp_full <= b1.bound * margin
                and emp_full <= b2.bound_inflated * margin
                and emp_full <= b3.bound_inflated * margin)
    noise_err = noise_bnd = None
    if noise_sigma is not None:
        f = _seeded_signal(a.L, seed)
        res = noise_trial(f, a, m, n, om_min, noise_sigma, trials=trials,
                          seed=seed, pinv_norm=emp_min)
        noise_err, noise_bnd = res.mean_error, res.bound
    return StabilityReport(
        m=m, n=n, omega=om_full, filter_desc=filter_desc, L=a.L, grid=grid, seed=seed,
        empirical_norm=emp_full, empirical_norm_minimal=emp_min, lower_bound=lower,
        beta1=b1.beta, bound1=b1.bound,
        delta=b2.detail, beta2=b2.beta, bound2=b2.bound,
        beta2_inflated=b2.beta_inflated, bound2_inflated=b2.bound_inflated,
        gamma=b3.detail, beta3=b3.beta, bound3=b3.bound,
        beta3_inflated=b3.beta_inflated, bound3_inflated=b3.bound_inflated,
        sandwich_ok=bool(sandwich),
        noise_sigma=noise_sigma, noise_mean_error=noise_err, noise_bound=noise_bnd,
        guard_band=list(band),
        slope_band=[1.0 / (4.0 * m * n), 0.5 - 1.0 / (4.0 * m * n)],
    )


def _seeded_signal(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / math.sqrt(2.0)
