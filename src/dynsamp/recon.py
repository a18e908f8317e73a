"""Forward sampling operator and the frequency-domain recovery pipeline.

The measurements are the coarse samples of the evolving signal,
y_l = S_m(a^l * f), plus optional extra samples of the initial state on a
shifted coarser lattice, z_c(k) = f(m n k - c).  Recovery solves one small
least-squares system per frequency packet and reassembles the spectrum.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EvenM, LengthMismatch, MalformedSamples, PreconditionViolated,
                     RankDeficient, SingularSystem, TooLarge)
from . import spectral, systems
from .filters import evolve


def _require_finite(name, values):
    """Raise MalformedSamples naming ``name`` unless every sample is finite."""
    if not np.all(np.isfinite(values)):
        raise MalformedSamples(f"{name} holds non-finite samples")


@dataclass
class SampleSet:
    """Measurement bundle: evolution snapshots plus optional extra samples.

    y[l] holds S_m(a^l * f) (length L/m each); extras maps a shift c to
    S_{mn} T_c f (length L/(m n)).
    """

    y: list
    extras: dict = field(default_factory=dict)
    m: int = 1
    n: int = 1
    omega: tuple = ()

    def __post_init__(self):
        self.y = [np.asarray(v, dtype=complex) for v in self.y]
        self.extras = {int(c): np.asarray(v, dtype=complex) for c, v in self.extras.items()}
        if not self.y:
            raise MalformedSamples("need at least one snapshot sequence")
        if len({len(v) for v in self.y}) != 1:
            raise LengthMismatch("snapshot sequences differ in length")
        self.omega = spectral._layout(self.L, self.m, self.n, self.omega)
        if sorted(self.extras) != list(self.omega):
            raise MalformedSamples(f"extras keys {sorted(self.extras)} must match "
                                   f"omega {list(self.omega)}")
        per_extra = len(self.y[0]) // self.n
        if any(len(v) != per_extra for v in self.extras.values()):
            raise LengthMismatch(f"each extras sequence must hold L/(m n) = {per_extra} samples")
        for what, seqs in (("y", enumerate(self.y)), ("extras", self.extras.items())):
            for key, v in seqs:
                _require_finite(f"{what}[{key}]", v)

    @property
    def L(self):
        return len(self.y[0]) * self.m

    @property
    def N(self):
        return len(self.y)

    def to_json(self):
        """Serialize to the documented JSON layout (complex as [re, im] pairs)."""
        def pairs(v):
            return [[float(z.real), float(z.imag)] for z in v]
        obj = {
            "m": self.m,
            "n": self.n,
            "omega": list(self.omega),
            "y": [pairs(v) for v in self.y],
            "extras": {str(c): pairs(v) for c, v in sorted(self.extras.items())},
        }
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse :meth:`to_json` output; a bad field raises MalformedSamples naming it."""
        obj = json.loads(text) if isinstance(text, str) else text

        def pairs(v):
            return np.array([complex(re, im) for re, im in v], dtype=complex)

        parse = {"m": int, "n": int, "omega": tuple,
                 "y": lambda v: [pairs(s) for s in v],
                 "extras": lambda v: {int(c): pairs(s) for c, s in v.items()}}
        fields = {}
        for key, convert in parse.items():
            if key not in obj:
                raise MalformedSamples(f"SampleSet JSON lacks field {key!r}")
            try:
                fields[key] = convert(obj[key])
            except (AttributeError, TypeError, ValueError):
                raise MalformedSamples(f"SampleSet JSON field {key!r} is malformed "
                                       "(complex values are [re, im] pairs)") from None
        return cls(**fields)


def forward(f, a, m, N, n=1, omega=()):
    """Sample the evolving signal: N coarse snapshots plus extra initial samples."""
    f = np.asarray(f, dtype=complex)
    L = len(f)
    if L != a.L:
        raise LengthMismatch(f"signal length {L} != filter length {a.L}")
    omega = spectral._layout(L, m, n, omega)
    y = [spectral.subsample(evolve(f, a, l), m) for l in range(N)]
    extras = {c: spectral.subsample(spectral.shift(f, c), m * n) for c in omega}
    return SampleSet(y=y, extras=extras, m=m, n=n, omega=omega)


def reconstruct_plain(samples, a, m):
    """Recover the signal from the evolution snapshots alone.

    Needs at least m snapshot sequences and uses all of them.  A grid with
    a (near-)singular frequency aborts the solve: indices whose smallest
    singular value drops below ``systems.SINGULAR_TOL`` times the grid
    maximum raise ``SingularSystem`` -- extra samples are required there.
    """
    if samples.m != m:
        raise PreconditionViolated(f"samples were taken with m={samples.m}, not {m}")
    return _solve(samples.y, samples.extras, m, systems.power_rows(a.response, samples.N),
                  1, None)


def _solve(y, extras, m, table, n, omega):
    """Solve every frequency packet against the first len(table) snapshots.

    ``y`` lists the N snapshot sequences, each (..., L/m), and ``extras``
    maps each shift in omega to its (..., L/(m n)) samples; an optional
    leading trial axis of length T makes every trial a right-hand side of
    the same packet decompositions, and the result is (..., L).  Row j of the
    (N, L) node table holds time step j (see :func:`systems.gather_blocks`);
    packet rho couples the spectrum values f_hat(rho + k L/(m n) + l L/m).
    ``omega=None`` marks the plain system (n = 1, no extra rows), whose
    singular frequencies are judged against the whole grid and raise
    ``SingularSystem``; otherwise a packet with smin below
    ``systems.RANK_TOL`` times its largest singular value raises
    ``RankDeficient``.
    """
    N, trials, L = len(y), y[0].shape[:-1], y[0].shape[-1] * m
    if L != table.shape[1]:
        raise LengthMismatch(f"samples imply length {L} != filter length {table.shape[1]}")
    if N < m:
        raise PreconditionViolated(f"need at least m={m} snapshot sequences, got {N}")
    plain, omega = omega is None, spectral._layout(L, m, n, omega or (), packets=True)
    P, T = L // (m * n), math.prod(trials)
    idx = systems.packet_indices(L, m, n, np.arange(P))
    smin, smax, x = systems.solve_packets(
        lambda part: systems.gather_blocks(table, idx[part]), P,
        systems.phase_rows(m, n, omega), _rhs(y[:len(table)], extras, omega, idx, L, T))
    if plain:
        bad = systems.singular_indices(smin, systems.SINGULAR_TOL)
        if bad:
            raise SingularSystem(bad)
    else:
        bad = np.flatnonzero(smin < systems.RANK_TOL * smax)
        if bad.size:
            raise RankDeficient(int(bad[0]))
    f_hat = np.empty((T, L), dtype=complex)
    f_hat[:, idx.reshape(P, -1)] = x.transpose(2, 0, 1)
    return spectral.idft(f_hat).reshape(trials + (L,))


def _rhs(y, extras, omega, idx, L, T):
    """(P, |omega| + n N, T) right-hand sides of :func:`_solve` for the
    packets at ``idx``: the phased extras, then the snapshot spectra.  The
    spectra are freed on return, before the solve allocates its own arrays."""
    P = len(idx)
    phased = np.array([np.exp(2j * np.pi * c * np.arange(P) / L) * spectral.dft(extras[c])
                       for c in omega], dtype=complex).reshape(len(omega), T, P)
    y_hat = spectral.dft(np.reshape(y, (len(y), T, -1)))                # (N, T, L/m)
    snaps = y_hat.transpose(2, 0, 1)[idx[..., 0]]                       # (P, n, N, T)
    return np.concatenate([phased.transpose(2, 0, 1), snaps.reshape(P, -1, T)], axis=1)


def reconstruct_extended(samples, a, m, n, omega, force=False):
    """Recover the signal using evolution snapshots plus extra initial samples.

    Every frequency packet couples the m n spectrum values
    f_hat(rho + k L/(mn) + l L/m) and is solved in the least-squares sense.
    At least m snapshot sequences are needed; those beyond the first m are
    stacked as extra least-squares rows.  The guarantee regime needs odd m
    (EvenM otherwise), odd n and omega containing 1..(m-1)/2; pass
    ``force=True`` to attempt the solve outside it.  A packet whose matrix
    has smin below ``systems.RANK_TOL`` times its largest singular value
    raises ``RankDeficient``.
    """
    omega = _guarantee_regime(samples, m, n, omega, force)
    return _solve(samples.y, samples.extras, m, systems.power_rows(a.response, samples.N),
                  n, omega)


def _guarantee_regime(samples, m, n, omega, force=False):
    """Sorted omega, once the sample set matches (m, n, omega) and, unless
    ``force``, m and n are odd and omega contains 1..(m-1)/2.  Raises
    EvenM for even m and PreconditionViolated otherwise."""
    if ((samples.m, samples.n) != (m, n)
            or samples.omega != (omega := spectral._layout(samples.L, m, n, omega))):
        raise PreconditionViolated("sample set parameters do not match the requested solve")
    if not force:
        if m % 2 == 0:
            raise EvenM(f"guarantee regime needs odd m, got m={m} (use force=True to override)")
        if n % 2 == 0:
            raise PreconditionViolated("guarantee regime needs odd n (use force=True to override)")
        needed = set(range(1, (m - 1) // 2 + 1))
        if not needed.issubset(omega):
            raise PreconditionViolated(
                f"guarantee regime needs omega containing {sorted(needed)} (use force=True)")
    return omega


def dense_oracle(a, m, N, n=1, omega=(), max_size=512):
    """Explicit time-domain matrix mapping the signal to all stacked samples.

    Row order matches :func:`stack_samples`: the N snapshot blocks first
    (each L/m rows), then one block of L/(m n) rows per shift in sorted
    omega.  Intended as a brute-force cross-check, hence the size cap.
    """
    L = a.L
    if L > max_size:
        raise TooLarge(f"dense oracle capped at L={max_size}, got {L}")
    omega = spectral._layout(L, m, n, omega)
    rows = []
    t = np.arange(L)
    for l in range(N):
        taps = spectral.idft(a.response ** l)
        for k in range(L // m):
            rows.append(taps[(m * k - t) % L])
    for c in omega:
        for k in range(L // (m * n)):
            row = np.zeros(L, dtype=complex)
            row[(m * n * k - c) % L] = 1.0
            rows.append(row)
    return np.array(rows)


def stack_samples(samples):
    """Flatten a sample set in the dense-oracle row order."""
    parts = [v for v in samples.y]
    parts.extend(samples.extras[c] for c in samples.omega)
    return np.concatenate(parts)


def oracle_solve(a, samples, N=None, max_size=512, rcond=systems.RANK_TOL):
    """Least-squares recovery through the dense time-domain matrix."""
    N = samples.N if N is None else N
    M = dense_oracle(a, samples.m, N, samples.n, samples.omega, max_size=max_size)
    return np.linalg.lstsq(M, stack_samples(samples), rcond=rcond)[0]
