"""Conditioning of the recovery: pseudoinverse norms, explicit bounds, noise.

The recovery error under additive noise is governed by the largest spectral
norm of the per-frequency pseudoinverses.  This module measures that norm
on a grid, evaluates three explicit upper bounds of the form
m * beta * (1 + m sqrt(n-1)), the matching lower bound m * ||A_m^{-1}(1/n)||,
and runs a seeded Monte-Carlo harness against the error estimate
||A^+|| * sigma / sqrt(m).

The upper bounds apply to the full extra-sample set omega = {0..m-1}; the
recovery guarantee and the lower bound use the minimal set
omega = {1..(m-1)/2}.  The two regimes are distinct and the bound
functions reject other sets rather than compare incomparable quantities.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (EvenM, GridMiss, HypothesisViolated, PreconditionViolated,
                     RankDeficient)
from . import systems
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
    index per orbit is decomposed (see :func:`_orbit_count`).  The
    shift xi -> xi + 1/n holds for every filter and is used when n divides
    grid.  The mirror xi -> 1 - xi holds for a Hermitian response,
    a(-xi) = conj(a(xi)), and is used when the grid response satisfies it
    bitwise; a response Hermitian only to rounding takes the shift-only
    scan.  Members of an orbit agree up to rounding, so the result may move
    in the last digits against a full-grid scan.  A singular matrix raises
    RankDeficient naming the smallest grid index of the worst orbit.
    """
    if grid < 4 * m * n:
        raise ValueError(f"grid must have at least 4*m*n = {4 * m * n} points")
    xi = np.arange(_orbit_count(a, n, grid)) / grid
    smin, _, _ = systems.solve_packets(lambda part: systems.offgrid_blocks(a, m, n, xi[part]),
                                       len(xi), systems.phase_rows(m, n, omega))
    if smin.min() <= 0.0:
        g = int(np.argmin(smin))
        raise RankDeficient(g, f"extended matrix singular at xi = {g}/{grid}")
    return float((1.0 / smin).max())


def _is_hermitian(response):
    """True when response[-r mod L] == conj(response[r]) holds exactly for every r."""
    r = np.asarray(response)
    return bool(np.array_equal(r[-np.arange(len(r)) % len(r)], np.conj(r)))


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


def _check_bound_hypotheses(a, n):
    if not a.symmetric_decreasing:
        raise HypothesisViolated("bounds need a real, even, strictly decreasing response")
    if n < 1 or n % 2 == 0:
        raise HypothesisViolated("bounds need odd n")


def guard_band_points(n, grid):
    """Grid points at distance >= 1/(4n) from the degenerate frequencies 0, 1/2, 1.

    Takes the points g/grid that fall inside the two admissible intervals
    and appends the four interval endpoints, so endpoint extrema are hit
    exactly.
    """
    lo = 1.0 / (4.0 * n)
    ends = [lo, 0.5 - lo, 0.5 + lo, 1.0 - lo]
    g = np.arange(grid) / grid
    inside = ((ends[0] <= g) & (g <= ends[1])) | ((ends[2] <= g) & (g <= ends[3]))
    return np.array(sorted(set(g[inside].tolist() + ends)))


def _band_nodes(a, m, n, grid):
    """(points, m) node values at the guard-band points that beta1 and beta2 scan."""
    if grid is None:
        grid = max(720, 16 * m * n)
    pts = guard_band_points(n, grid)
    if len(pts) < 8 * m * n:
        raise ValueError(f"need at least 8*m*n = {8 * m * n} points inside the band")
    return systems.plain_nodes_at(a, m, pts)


class BetaBound(NamedTuple):
    beta: float
    bound: float
    beta_inflated: Optional[float] = None
    bound_inflated: Optional[float] = None
    detail: float = 0.0      # sup inverse norm (beta1), delta (beta2), gamma (beta3)


def _bound_from_beta(m, n, beta):
    return m * beta * (1.0 + m * math.sqrt(n - 1.0))


def bound_beta1(a, m, n, grid=None):
    """Upper bound from the inverse-norm supremum over the guard band.

    beta1 = max(n, sup ||A_m^{-1}(xi)||) with the sup taken over grid points
    of the band; the grid max is a lower estimate of the true supremum, so
    coherent comparisons should reuse the same grid for the empirical norm.
    """
    _check_bound_hypotheses(a, n)
    mats = systems.power_rows(_band_nodes(a, m, n, grid), m)
    sup = float((1.0 / systems.smin_family(mats)).max())
    beta1 = max(float(n), sup)
    return BetaBound(beta=beta1, bound=_bound_from_beta(m, n, beta1), detail=sup)


def bound_beta2(a, m, n, grid=None):
    """Upper bound from the worst node separation delta over the guard band.

    beta2 = max(n, (2/delta)^(m-1)).  Also returns the variant with the
    extra sqrt(m) factor carried by the underlying Vandermonde estimate;
    the inflated bound is the safe side of that discrepancy.
    """
    _check_bound_hypotheses(a, n)
    if float(np.max(np.abs(a.response))) > 1.0 + _SUP_TOL:
        raise HypothesisViolated("beta2 needs sup |response| <= 1")
    nodes = _band_nodes(a, m, n, grid)
    gaps = np.abs(nodes[:, None, :] - nodes[:, :, None])
    delta = float(gaps[:, ~np.eye(m, dtype=bool)].min())
    if delta <= 0.0:
        raise HypothesisViolated("coincident nodes inside the guard band")
    beta2 = max(float(n), (2.0 / delta) ** (m - 1))
    beta2_inf = max(float(n), math.sqrt(m) * (2.0 / delta) ** (m - 1))
    return BetaBound(beta=beta2, bound=_bound_from_beta(m, n, beta2),
                     beta_inflated=beta2_inf, bound_inflated=_bound_from_beta(m, n, beta2_inf),
                     detail=delta)


def bound_beta3(a, m, n, grid=None):
    """Upper bound from the smallest response slope gamma.

    gamma = min |a_hat'(xi)| over [1/(4mn), 1/2 - 1/(4mn)] and
    beta3 = max(n, (4 m n / gamma)^(m-1)).  Uses the closed-form derivative
    when the filter kind provides one, else central differences at step
    1/(8 m n L).  Returns the plain and sqrt(m)-inflated variants.
    """
    _check_bound_hypotheses(a, n)
    if float(np.max(np.abs(a.response))) > 1.0 + _SUP_TOL:
        raise HypothesisViolated("beta3 needs sup |response| <= 1")
    if grid is None:
        grid = max(720, 16 * m * n)
    lo = 1.0 / (4.0 * m * n)
    pts = np.linspace(lo, 0.5 - lo, max(8 * m * n, grid) + 1)
    if a.has_closed_form_derivative:
        dvals = np.abs(a.deriv_at(pts))
    else:
        h = 1.0 / (8.0 * m * n * a.L)
        dvals = np.abs(a.at(pts + h) - a.at(pts - h)) / (2.0 * h)
    gamma = float(dvals.min())
    if gamma <= 1e-13:
        raise HypothesisViolated("response slope vanishes inside [1/(4mn), 1/2 - 1/(4mn)]")
    beta3 = max(float(n), (4.0 * m * n / gamma) ** (m - 1))
    beta3_inf = max(float(n), math.sqrt(m) * (4.0 * m * n / gamma) ** (m - 1))
    return BetaBound(beta=beta3, bound=_bound_from_beta(m, n, beta3),
                     beta_inflated=beta3_inf, bound_inflated=_bound_from_beta(m, n, beta3_inf),
                     detail=gamma)


def gautschi_bound(a, m, xi):
    """Node-separation bound on ||A_m^{-1}(xi)|| at a single frequency."""
    return systems.gautschi_bound_nodes(systems.plain_nodes_at(a, m, xi))


def lower_bound_stablow(a, m, n, omega=None):
    """Lower bound m * ||A_m^{-1}(1/n)|| on the pseudoinverse norm.

    Valid for the minimal extra-sample set (|omega| = (m-1)/2).  The
    frequency 1/n must land on the matrix grid, i.e. m n must divide L.
    """
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
    smin = systems.smin_plain(systems.PlainSystem(a, m, m), rho)
    if smin <= 0.0:
        raise RankDeficient(rho, "square system singular at 1/n")
    return m / smin


class NoiseTrialResult(NamedTuple):
    mean_error: float
    bound_ok: bool
    bound: float
    ratio: float


def noise_trial(f, a, m, n, omega, sigma, trials=200, seed=0, slack=0.10,
                grid=None, pinv_norm=None):
    """Monte-Carlo check of the noise error estimate ||A^+|| sigma / sqrt(m).

    Perturbs every sample entry with circular complex Gaussian noise of
    variance sigma**2 (seeded, deterministic), reconstructs, and reports the
    per-entry RMS error sqrt(mean |f - f_rec|^2) averaged over trials.
    ``bound_ok`` compares the mean against the estimate with the given
    relative slack.  Reusing one seed across sigma values yields errors that
    are exactly proportional to sigma.  Trials are solved in blocks, each
    block as right-hand sides of one decomposition per packet chunk; the
    noise is drawn per trial, per sequence, real part then imaginary part,
    whatever the block size.  Raises PreconditionViolated for trials < 1
    and outside the guarantee regime of :func:`reconstruct_extended`, and
    MalformedSamples for non-finite noisy samples.
    """
    if trials < 1:
        raise PreconditionViolated(f"noise_trial needs at least one trial, got trials={trials}")
    f = np.asarray(f, dtype=complex)
    L = len(f)
    samples = forward(f, a, m, m, n, omega)
    omega = _guarantee_regime(samples, m, n, omega)
    if pinv_norm is None:
        if grid is None:
            grid = max(720, 4 * m * n)
        pinv_norm = empirical_pinv_norm(a, m, n, omega, grid)
    bound = pinv_norm * sigma / math.sqrt(m)

    table = systems.power_rows(a.response, m)
    block = max(1, _TRIAL_BLOCK_BYTES // (16 * L))
    rng = np.random.default_rng(seed)
    errors = np.empty(trials)
    for start in range(0, trials, block):
        noisy = _noisy_block(samples, rng, min(block, trials - start), sigma)
        rec = _solve(noisy[:m], dict(zip(omega, noisy[m:])), m, table, n, omega)
        errors[start:start + len(rec)] = [np.linalg.norm(row) / math.sqrt(L) for row in rec - f]
        del noisy, rec          # so the next block's arrays replace these, not join them
    mean_error = float(errors.mean())
    if sigma == 0.0:
        return NoiseTrialResult(mean_error, True, 0.0, 0.0)
    ratio = mean_error / bound
    return NoiseTrialResult(mean_error, ratio <= 1.0 + slack, bound, ratio)


def _noisy_block(samples, rng, T, sigma):
    """T noisy copies of every sequence, snapshots then extras, each (T, len).

    Trial t takes the draws a per-trial loop would: sequence by sequence,
    the real parts then the imaginary parts of its noise.  Non-finite
    results raise MalformedSamples, as in a SampleSet.
    """
    names = [f"y[{l}]" for l in range(samples.N)] + [f"extras[{c}]" for c in samples.omega]
    seqs = samples.y + [samples.extras[c] for c in samples.omega]
    ends = np.cumsum([2 * len(v) for v in seqs])
    draws = rng.standard_normal((T, ends[-1]))
    scale = sigma / math.sqrt(2.0)
    noisy = []
    for name, v, end in zip(names, seqs, ends):
        re, im = draws[:, end - 2 * len(v):end - len(v)], draws[:, end - len(v):end]
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
    bound, each within a 1e-9 relative margin.  Needs odd m.
    """
    if m % 2 == 0:
        raise EvenM(f"stability_report needs odd m, got m={m}")
    om_full = full_omega(m)
    om_min = minimal_omega(m)
    emp_full = empirical_pinv_norm(a, m, n, om_full, grid)
    emp_min = empirical_pinv_norm(a, m, n, om_min, grid)
    lower = lower_bound_stablow(a, m, n, om_min)
    b1 = bound_beta1(a, m, n, grid)
    b2 = bound_beta2(a, m, n, grid)
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
        guard_band=list(guard_band_points(n, grid)),
        slope_band=[1.0 / (4.0 * m * n), 0.5 - 1.0 / (4.0 * m * n)],
    )


def _seeded_signal(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / math.sqrt(2.0)
