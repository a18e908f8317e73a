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

from .errors import MalformedSamples, NonDivisibleLength, PreconditionViolated, ShapeMismatch


def _count(value, name, low=None, error=PreconditionViolated, what=""):
    """The count ``value`` as an int, read through operator.index.

    The package's one rule for count arguments: a bool, a value that is
    not an integer (an integral float such as 3.0 too) and, when ``low`` is
    given, one below it raise ``error`` naming the argument, as
    ``{what} {name} must be ..., got {name}=value``.
    """
    label = f"{what} {name}" if what else name
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise error(f"{label} must be an integer, got {name}={value!r}")
    if low is not None and count < low:
        raise error(f"{label} must be at least {low}, got {name}={count}")
    return count


def _shift(value, what):
    """The shift ``value``, an omega entry or an extras key, as an int by the
    rule of :func:`_count`: a bool or a value that is not an integer raises
    MalformedSamples naming it, as ``{what} c must be an integer, got c=value``."""
    return _count(value, "c", error=MalformedSamples, what=what)


def _signal(x, name):
    """The complex 1-d array of the signal ``x``; any other shape raises
    ShapeMismatch naming the argument and its shape."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ShapeMismatch(f"{name} must be a 1-d signal, got shape {x.shape}")
    return x


def powers(x, top):
    """Yield x**0, ..., x**top of the array x, the package's one rule for
    integer powers: ones, a copy of x, then level t = np.multiply(level t-1,
    x), a new array of C-contiguous operands, whose bits depend on x and t
    alone, not on a gather or chunking of x nor on top.  Its t - 1 products
    err by sqrt(2) gamma_2 each (Higham, Accuracy and Stability of Numerical
    Algorithms, Lemma 3.5); being sign-symmetric, they conjugate with x."""
    x = np.asarray(x, order="C")
    level = np.ones_like(x)
    for t in range(top + 1):
        if t:
            level = x.copy() if t == 1 else np.multiply(level, x)
        yield level


def _layout(L, m, n=1, omega=(), packets=False):
    """Sorted omega, once (L, m, n, omega) is a valid sampling layout.

    The layout is m-fold coarse snapshots of a length-L signal plus, for each
    shift c in omega, extra initial samples on the lattice m n Z - c.  It
    needs m, n >= 1 and m | L; extras, and the n-block packets of the
    extended solve (``packets``), also need m n | L.  omega must hold
    distinct integers in [0, m n), each read by :func:`_shift`.  Raises
    NonDivisibleLength naming a bad factor, one that is not an integer too,
    and MalformedSamples naming omega, or the shift, for a bad omega.
    """
    m, n = _count(m, "m", error=NonDivisibleLength), _count(n, "n", error=NonDivisibleLength)
    try:
        omega = list(omega)
    except TypeError:
        raise MalformedSamples(f"omega must hold integer shifts, got {omega!r}") from None
    omega = sorted(_shift(c, "omega shift") for c in omega)
    wide = bool(omega) or packets
    if m < 1 or n < 1 or L % (m * n if wide else m):
        raise NonDivisibleLength(f"need m, n >= 1 and L divisible by {'m*n' if wide else 'm'}, "
                                 f"got L={L}, m={m}, n={n}")
    if len(set(omega)) < len(omega) or (omega and not 0 <= omega[0] <= omega[-1] < m * n):
        raise MalformedSamples(f"omega {omega} must hold distinct shifts in [0, {m * n})")
    return tuple(omega)


# numpy's transforms take out= from 2.0 on; before that the result is copied.
_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"


def dft(x, out=None):
    """Forward transform of one period, written to ``out`` when given (which
    may be x itself: the transform is bitwise the same in place)."""
    return _transform(np.fft.fft, x, out)


def idft(s, out=None):
    """Inverse of :func:`dft`, written to ``out`` as there."""
    return _transform(np.fft.ifft, s, out)


def _transform(fft, x, out):
    x = np.asarray(x, dtype=complex)
    if out is None:
        return fft(x)
    if _FFT_OUT:
        return fft(x, out=out)
    out[...] = fft(x)
    return out


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

