"""Evolution filters stored by their frequency response on the L-point grid.

A filter never carries time-domain taps: every consumer needs the transfer
values a_hat(r/L), powered pointwise by :func:`spectral.powers`.  Kinds
with a closed form ("delta", "raised_cosine", "heat") can also be evaluated
off the grid; "table" filters fall back to the unique trigonometric
interpolant with taps centered in [-L/2, L/2].
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch
from . import spectral

_REAL_TOL = 1e-12
_TIE_TOL = 1e-14


@dataclass
class Filter:
    """Convolution kernel represented spectrally.

    response[r] is the transfer value at frequency r/L.  The
    symmetric_decreasing flag marks responses that are real, even and
    strictly decreasing on the grid points of [0, 1/2]; several guarantees
    only apply to flagged filters.
    """

    response: np.ndarray
    symmetric_decreasing: bool = False
    kind: str = "table"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=complex)
        if self.response.ndim != 1 or len(self.response) < 1:
            raise ValueError("response must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(self.response)):
            raise ValueError("response must be finite")
        self._taps = None

    @property
    def L(self):
        return len(self.response)

    def at(self, xi):
        """Transfer value at arbitrary frequency xi (scalar or array).

        Closed-form kinds evaluate their defining formula; table filters
        evaluate the centered trigonometric interpolant of the stored
        response.  On grid points this agrees with ``response`` to rounding.
        """
        xi = np.asarray(xi, dtype=float)
        if self.kind == "delta":
            return np.ones_like(xi, dtype=complex)
        if self.kind == "raised_cosine":
            p = self.params["p"]
            return ((1.0 + np.cos(2.0 * np.pi * xi)) / 2.0).astype(complex) ** p
        if self.kind == "heat":
            t = self.params["t"]
            return np.exp(-t * (2.0 * np.sin(np.pi * xi)) ** 2).astype(complex)
        return self._interp(xi)

    @property
    def has_closed_form_derivative(self):
        return self.kind in ("delta", "raised_cosine", "heat")

    def deriv_at(self, xi):
        """d/dxi of the transfer function, closed-form kinds only."""
        xi = np.asarray(xi, dtype=float)
        if self.kind == "delta":
            return np.zeros_like(xi, dtype=complex)
        if self.kind == "raised_cosine":
            p = self.params["p"]
            base = (1.0 + np.cos(2.0 * np.pi * xi)) / 2.0
            return (-np.pi * p * np.sin(2.0 * np.pi * xi)).astype(complex) * base ** (p - 1.0)
        if self.kind == "heat":
            t = self.params["t"]
            return -4.0 * np.pi * t * np.sin(2.0 * np.pi * xi) * self.at(xi)
        raise ValueError(f"no closed-form derivative for kind {self.kind!r}")

    def _interp(self, xi):
        # Trigonometric interpolation with centered taps; the Nyquist tap of
        # an even-length grid is split across +-L/2 so real even responses
        # stay real off the grid.
        if self._taps is None:
            taps = np.fft.ifft(self.response)
            L = self.L
            ks = np.arange(-(L // 2), L // 2 + 1)
            coeff = taps[ks % L]
            if L % 2 == 0:
                coeff[[0, -1]] *= 0.5
            self._taps = (ks, coeff)
        ks, coeff = self._taps
        phase = np.exp(-2j * np.pi * np.multiply.outer(xi, ks))
        return phase @ coeff


def _mirrored(half_values, L):
    """Assemble an exactly even response from values on grid points of [0, 1/2]."""
    resp = np.empty(L, dtype=float)
    half = L // 2
    resp[:half + 1] = half_values
    resp[half + 1:] = half_values[1:L - half][::-1]
    return resp


def filter_delta(L):
    """Identity kernel: flat response."""
    if L < 1:
        raise ValueError("L must be positive")
    return Filter(np.ones(L), symmetric_decreasing=False, kind="delta", params={})


def filter_raised_cosine(L, p):
    """Response ((1 + cos 2 pi xi) / 2)**p, real, even, strictly decreasing on [0, 1/2]."""
    if L < 2:
        raise ValueError("L must be at least 2")
    if p <= 0:
        raise ValueError("p must be positive")
    xi_half = np.arange(L // 2 + 1) / L
    half = ((1.0 + np.cos(2.0 * np.pi * xi_half)) / 2.0) ** p
    return Filter(_mirrored(half, L), symmetric_decreasing=True,
                  kind="raised_cosine", params={"p": float(p)})


def filter_heat(L, t):
    """Diffusion-type response exp(-t (2 sin pi xi)**2)."""
    if L < 1:
        raise ValueError("L must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    xi_half = np.arange(L // 2 + 1) / L
    half = np.exp(-t * (2.0 * np.sin(np.pi * xi_half)) ** 2)
    return Filter(_mirrored(half, L), symmetric_decreasing=True,
                  kind="heat", params={"t": float(t)})


def filter_table(values):
    """Filter from explicit response values; the symmetry flag is detected."""
    f = Filter(np.asarray(values, dtype=complex), symmetric_decreasing=False, kind="table")
    ok, _ = check_symmetric_decreasing(f)
    f.symmetric_decreasing = ok
    return f


def evolve(f, a, l):
    """Apply l convolution steps of the kernel, spectrum times response**l
    (:func:`spectral.powers`), to the 1-d signal f; l is an integer >= 0."""
    f = spectral._signal(f, "f")
    if len(f) != a.L:
        raise LengthMismatch(f"signal length {len(f)} != filter length {a.L}")
    if spectral._count(l, "l", low=0, what="step count") == 0:
        return f.copy()
    for power in spectral.powers(a.response, l):
        pass
    return _evolve_hat(spectral.dft(f), power)


def _evolve_hat(f_hat, power):
    """The signal whose spectrum is f_hat times ``power``, a power of the
    response, in that operand order (a complex product can round otherwise
    with its operands swapped), transformed in place."""
    step = np.multiply(f_hat, power)
    return spectral.idft(step, out=step)


def check_symmetric_decreasing(a):
    """Test whether a response is real, even, and strictly decreasing on [0, 1/2].

    Returns (ok, first_violation_index).  The index points at the first grid
    entry where a check fails: a complex or asymmetric entry (off by more
    than _REAL_TOL = 1e-12 of max(1, max |response|)), or the first point
    that fails to continue the strict decrease by more than _TIE_TOL = 1e-14.
    """
    r, half = a.response, len(a.response) // 2
    tol = _REAL_TOL * max(1.0, float(np.max(np.abs(r))))
    vals = r.real
    # (offset, failures) per check, in the order they are judged: entry i of
    # the symmetry check is grid index i + 1, as is entry i of the decrease.
    for offset, fails in ((0, np.abs(r.imag) > tol),
                          (1, np.abs(vals[1:] - vals[:0:-1]) > tol),
                          (1, ~(vals[:half] - vals[1:half + 1] > _TIE_TOL))):
        if fails.any():
            return False, offset + int(np.argmax(fails))
    return True, None


def filter_from_spec(spec):
    """Build a filter from a JSON-style mapping.

    Recognized forms::

        {"kind": "delta", "L": 72}
        {"kind": "raised_cosine", "L": 72, "p": 1.0}
        {"kind": "heat", "L": 72, "t": 0.5}
        {"kind": "table", "table": [v0, v1, ...]}        # real values
        {"kind": "table", "table": [[re, im], ...]}      # complex values

    An L that is not an integer raises PreconditionViolated, a p or t that
    float cannot read ValueError "filter spec field 't' must be a real
    number, got 'fast'", and a spec without a kind ValueError "filter spec
    lacks field 'kind'".
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    try:
        kind = spec["kind"]
    except KeyError:
        raise ValueError("filter spec lacks field 'kind'") from None
    if kind == "delta":
        return filter_delta(spectral._count(spec["L"], "L"))
    if kind == "raised_cosine":
        return filter_raised_cosine(spectral._count(spec["L"], "L"),
                                    spectral._real_field(spec, "p", "filter"))
    if kind == "heat":
        return filter_heat(spectral._count(spec["L"], "L"),
                           spectral._real_field(spec, "t", "filter"))
    if kind == "table":
        raw = spec["table"]
        values = np.array([complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                           for v in raw])
        return filter_table(values)
    raise ValueError(f"unknown filter kind {kind!r}")
