"""Discrete Fourier machinery on periodic complex signals.

A signal is a length-L numpy array holding one period of a sequence on the
integers.  The forward transform uses the unnormalized negative-exponent
convention

    x_hat(r) = sum_k x(k) exp(-2 pi i k r / L),

so Parseval reads ``sum |x_hat|^2 = L * sum |x|^2`` and frequency index r
sits at the grid point r/L of [0, 1).  Every formula elsewhere in the
package assumes this convention.
"""

import operator

import numpy as np

from .errors import MalformedSamples, NonDivisibleLength


def _layout(L, m, n=1, omega=(), packets=False):
    """Sorted omega, once (L, m, n, omega) is a valid sampling layout.

    The layout is m-fold coarse snapshots of a length-L signal plus, for each
    shift c in omega, extra initial samples on the lattice m n Z - c.  It
    needs m, n >= 1 and m | L; extras, and the n-block packets of the
    extended solve (``packets``), also need m n | L.  omega must hold
    distinct integers in [0, m n).  Raises NonDivisibleLength for a bad
    factor and MalformedSamples naming omega for a bad omega.
    """
    try:
        omega = sorted(operator.index(c) for c in omega)
    except TypeError:
        raise MalformedSamples(f"omega must hold integer shifts, got {omega!r}") from None
    wide = bool(omega) or packets
    if m < 1 or n < 1 or L % (m * n if wide else m):
        raise NonDivisibleLength(f"need m, n >= 1 and L divisible by {'m*n' if wide else 'm'}, "
                                 f"got L={L}, m={m}, n={n}")
    if len(set(omega)) < len(omega) or (omega and not 0 <= omega[0] <= omega[-1] < m * n):
        raise MalformedSamples(f"omega {omega} must hold distinct shifts in [0, {m * n})")
    return tuple(omega)


def dft(x):
    """Forward transform of one period."""
    return np.fft.fft(np.asarray(x, dtype=complex))


def idft(s):
    """Inverse of :func:`dft`."""
    return np.fft.ifft(np.asarray(s, dtype=complex))


def frequency_grid(L):
    """Frequency grid points r/L, r = 0..L-1."""
    if L < 1:
        raise ValueError("period must be positive")
    return np.arange(L) / L


def subsample(x, m):
    """Keep every m-th sample: output(k) = x(m k).

    m must divide the length; the output has length L/m.  In frequency the
    output spectrum is the m-fold alias average
    ``(1/m) sum_l x_hat(rho + l L/m)``.
    """
    x = np.asarray(x)
    _layout(len(x), m)
    return x[::m].copy()


def shift(x, c):
    """Circular right shift: output(k) = x(k - c mod L)."""
    return np.roll(np.asarray(x), c)


def fold(s, m):
    """Split a length-L spectrum into its m aliased components.

    Component l at index rho equals ``s(rho + l L/m) / sqrt(m)``, so the
    components' squared Euclidean norms sum to ``|s|^2 / m``; measuring each
    component on its own (m times coarser) grid makes the map an isometry.
    Returns an (m, L/m) array.
    """
    s = np.asarray(s, dtype=complex)
    _layout(len(s), m)
    return s.reshape(m, len(s) // m) / np.sqrt(m)
