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
from . import filters, spectral, systems


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
        self.extras = {spectral._shift(c, "extras key"): np.asarray(v, dtype=complex)
                       for c, v in self.extras.items()}
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
        """Parse :meth:`to_json` output; text that is not JSON, a top level that
        is not an object, or a bad field raises MalformedSamples naming it."""
        try:
            obj = json.loads(text) if isinstance(text, str) else text
        except json.JSONDecodeError as err:
            raise MalformedSamples(f"SampleSet JSON does not parse: {err}") from None
        if not isinstance(obj, dict):
            raise MalformedSamples(f"SampleSet JSON must be an object, got {type(obj).__name__}")

        def pairs(v):
            return np.array([complex(re, im) for re, im in v], dtype=complex)

        def count(key):
            return lambda v: spectral._count(v, key, error=MalformedSamples,
                                             what="SampleSet JSON field")

        parse = {"m": count("m"), "n": count("n"), "omega": tuple,
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
    """Sample the evolving signal: N coarse snapshots plus extra initial samples.

    Snapshot l is bitwise ``subsample(evolve(f, a, l), m)``: both take the
    step from the transform of f and level l of :func:`spectral.powers`,
    and here one transform and one climb of the powers serve every step.
    """
    f = spectral._signal(f, "f")
    L = len(f)
    if L != a.L:
        raise LengthMismatch(f"signal length {L} != filter length {a.L}")
    omega = spectral._layout(L, m, n, omega)
    f_hat = spectral.dft(f)
    levels = spectral.powers(a.response, spectral._count(N, "N", low=1) - 1)
    next(levels)                          # level 0: snapshot 0 samples f itself
    y = [spectral.subsample(f, m)]
    y += [spectral.subsample(filters._evolve_hat(f_hat, power), m) for power in levels]
    extras = {c: spectral.subsample(spectral.shift(f, c), m * n) for c in omega}
    return SampleSet(y=y, extras=extras, m=m, n=n, omega=omega)


def reconstruct_plain(samples, a, m):
    """Recover the signal from the evolution snapshots alone.

    Needs at least m snapshot sequences and uses all of them.  A grid with
    a (near-)singular frequency aborts the solve: indices whose smallest
    singular value drops below ``systems.SINGULAR_TOL`` times the grid
    maximum raise ``SingularSystem`` -- extra samples are required there.
    Past that check, a packet whose smallest singular value is at most
    ``systems.RANK_TOL`` times its largest raises ``RankDeficient``.
    """
    if _sample_set(samples).m != m:
        raise PreconditionViolated(f"samples were taken with m={samples.m}, not {m}")
    return _solve(samples.y, samples.extras, m, 1, None, response=a.response)


def _solve(y, extras, m, n, omega, *, response=None, table=None):
    """Solve every frequency packet against the snapshots.

    ``y`` lists the N snapshot sequences, each (..., L/m), and ``extras``
    maps each shift in omega to its (..., L/(m n)) samples; an optional
    leading trial axis of length T makes every trial a right-hand side of
    the same packet decompositions, and the result is (..., L).  Exactly
    one of ``response`` and ``table`` is given: the (L,) filter response of
    the sequence pipeline, whose powers 0..N-1 at a packet's nodes are its
    blocks, or an (N', L) node table, row j the cross-spectrum Phi_hat_j in
    the span pipeline, solved against the first N' snapshots (see
    :func:`systems.gather_blocks`).  Packet rho couples the spectrum values
    f_hat(rho + k L/(m n) + l L/m).
    ``omega=None`` marks the plain system (n = 1, no extra rows), whose
    singular frequencies are judged against the whole grid first and raise
    ``SingularSystem``.

    A response needs no (N, L) power table: each factored packet's (n, m)
    nodes are gathered once and passed to :func:`systems.solve_packets`,
    which settles each packet by one step before solving any.  A packet
    that its node bracket clears (its Gautschi floor, see
    :func:`systems.packet_floors`) takes no Cholesky test, and with square
    blocks (N = m), with or without extras rows, it is solved from its
    nodes, without powers, assembly, QR or LU; only the packets of the QR
    steps take their powers (:func:`systems.power_rows`).  A table has no
    floors, so its packets take the certificate.  The solve
    returns smin and smax as brackets (see :func:`systems.solve_packets`),
    exact for packets that fail both certificates; the grid passes when the
    lowest smin is at least twice ``systems.SINGULAR_TOL`` times the highest
    smax, and otherwise the exact smins of every packet
    (:func:`systems.packet_smins`) decide.  Then, on either system, a
    packet with smin at most ``systems.RANK_TOL`` times its largest singular
    value raises ``RankDeficient``; a cleared or certified packet never
    does.

    A bitwise Hermitian table, table[:, -r mod L] == conj(table[:, r]),
    gives A(P - rho) = D R conj(A(rho)) Pi: Pi reverses the m n columns, R
    the n snapshot blocks, and D multiplies extras row c by
    exp(2 pi i c/(m n)).  The power table of a response is bitwise
    Hermitian exactly when the response is, or when N = 1 (its one row is
    all ones; see :func:`systems._is_hermitian`), so the response is
    tested.  Then only packets 0..P//2 are factored, and packet P - rho is
    solved as conjugated right-hand-side columns of packet rho (see
    :func:`_rhs`): its right-hand side is gathered as R^T conj(D) b, and
    its solution, conjugated back, is scattered through Pi.  Both come down
    to the node indices of packet rho negated mod L.
    """
    values = response if table is None else table
    N = len(y) if table is None else len(table)
    trials, L = y[0].shape[:-1], y[0].shape[-1] * m
    if L != values.shape[-1]:
        raise LengthMismatch(f"samples imply length {L} != filter length {values.shape[-1]}")
    if len(y) < m:
        raise PreconditionViolated(f"need at least m={m} snapshot sequences, got {len(y)}")
    plain, omega = omega is None, spectral._layout(L, m, n, omega or (), packets=True)
    P, T = L // (m * n), math.prod(trials)
    rho = np.arange(P)
    # Signed packet q per solve: q >= 0 is packet q, q < 0 packet P + q
    # solved with the factorization of packet -q; packet p uses that of src[p].
    q, src = rho, rho
    if (table is None and N == 1) or systems._is_hermitian(values):
        q = np.concatenate([rho[:P // 2 + 1], -rho[1:(P + 1) // 2]])
        src = np.minimum(rho, P - rho)
    idx = systems.packet_indices(L, m, n, np.abs(q))
    idx[q < 0] = -idx[q < 0] % L
    D = np.count_nonzero(q >= 0)
    phase = systems.phase_rows(m, n, omega)
    if table is None:
        packet_nodes = response[idx[:D]]
        packets = {"nodes": packet_nodes}

        def blocks_of(part):
            return systems.power_rows(packet_nodes[part], N)
    else:
        def blocks_of(part):
            return systems.gather_blocks(table, idx[part])
        packets = {"blocks_of": blocks_of}
    smin, smax, x = systems.solve_packets(D, phase, _rhs(y[:N], extras, omega, idx, q, L, T),
                                          **packets)
    smin, smax = smin[src], smax[src]
    cleared = 2 * systems.SINGULAR_TOL * smax.max()
    if plain and not (cleared > 0 and smin.min() >= cleared):
        exact = systems.packet_smins(lambda part: systems.extended_stack(blocks_of(part), phase),
                                     D, N, m)[0][src]
        bad = systems.singular_indices(exact, systems.SINGULAR_TOL)
        if bad:
            raise SingularSystem(bad)
    bad = np.flatnonzero(smin <= systems.RANK_TOL * smax)
    if bad.size:
        raise RankDeficient(int(bad[0]))
    f_hat = np.empty((T, L), dtype=complex)
    f_hat[:, idx[:D].reshape(D, -1)] = x[..., :T].transpose(2, 0, 1)
    if D < P:
        mirror = x[1:P - D + 1, :, T:]
        np.conjugate(mirror, out=mirror)
        f_hat[:, idx[D:].reshape(P - D, -1)] = mirror.transpose(2, 0, 1)
    return spectral.idft(f_hat, out=f_hat).reshape(trials + (L,))


def _rhs(y, extras, omega, idx, q, L, T):
    """Right-hand sides of :func:`_solve` for the signed packets ``q`` at node
    indices ``idx``: the phased extras, then the snapshot spectra, T columns
    per packet.  Without mirror packets (q < 0) they are (P, rows, T).  With
    them they are (D, rows, 2T) over the D factored packets: columns T.. of
    packet i hold the conjugated right-hand side of packet P - i, zero for
    packets 0 and P/2, which have no mirror.  The snapshots are stacked into
    one copy and transformed in place; the spectra are freed before the
    buffer is allocated, their gathered copy on return."""
    P, D, off = len(q), np.count_nonzero(q >= 0), len(omega)
    phased = np.array([np.exp(2j * np.pi * c * q / L) * spectral.dft(extras[c])[..., q % P]
                       for c in omega], dtype=complex).reshape(off, T, P).transpose(2, 0, 1)
    y_hat = np.array(y, dtype=complex).reshape(len(y), T, -1)          # (N, T, L/m)
    spectral.dft(y_hat, out=y_hat)
    snaps = y_hat.transpose(2, 0, 1)[idx[..., 0] % y_hat.shape[-1]].reshape(P, -1, T)
    del y_hat
    b = np.zeros((D, off + snaps.shape[1], T if D == P else 2 * T), dtype=complex)
    b[:, :off, :T], b[:, off:, :T] = phased[:D], snaps[:D]
    if D < P:
        np.conjugate(phased[D:], out=b[1:P - D + 1, :off, T:])
        np.conjugate(snaps[D:], out=b[1:P - D + 1, off:, T:])
    return b


def reconstruct_extended(samples, a, m, n, omega, force=False):
    """Recover the signal using evolution snapshots plus extra initial samples.

    Every frequency packet couples the m n spectrum values
    f_hat(rho + k L/(mn) + l L/m) and is solved in the least-squares sense.
    At least m snapshot sequences are needed; those beyond the first m are
    stacked as extra least-squares rows.  The guarantee regime needs odd m
    (EvenM otherwise), odd n and omega containing 1..(m-1)/2; pass
    ``force=True`` to attempt the solve outside it.  A packet whose matrix
    has smin at most ``systems.RANK_TOL`` times its largest singular value
    raises ``RankDeficient``.
    """
    omega = _guarantee_regime(samples, m, n, omega, force)
    return _solve(samples.y, samples.extras, m, n, omega, response=a.response)


def _sample_set(samples):
    """``samples``, once it is a SampleSet: PreconditionViolated names its type otherwise."""
    if isinstance(samples, SampleSet):
        return samples
    raise PreconditionViolated(f"samples must be a SampleSet, got {type(samples).__name__}")


def _guarantee_regime(samples, m, n, omega, force=False):
    """Sorted omega, once the sample set matches (m, n, omega) and, unless
    ``force``, m and n are odd and omega contains 1..(m-1)/2.  Raises
    EvenM for even m and PreconditionViolated otherwise."""
    if ((_sample_set(samples).m, samples.n) != (m, n)
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


def dense_oracle(a, m, N, n=1, omega=()):
    """Explicit time-domain matrix mapping the signal to all stacked samples.

    Row order matches :func:`stack_samples`: the N snapshot blocks first
    (each L/m rows), then one block of L/(m n) rows per shift in sorted
    omega.  A brute-force cross-check, hence the cap: L > 512 raises TooLarge.
    """
    L = a.L
    if L > 512:
        raise TooLarge(f"dense oracle capped at L=512, got {L}")
    omega = spectral._layout(L, m, n, omega)
    rows = []
    t = np.arange(L)
    for power in spectral.powers(a.response, spectral._count(N, "N", low=1) - 1):
        taps = spectral.idft(power)
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


def oracle_solve(a, samples):
    """Least-squares recovery through the dense time-domain matrix of every
    snapshot, with ``systems.RANK_TOL`` as the relative rank cutoff."""
    M = dense_oracle(a, samples.m, samples.N, samples.n, samples.omega)
    return np.linalg.lstsq(M, stack_samples(samples), rcond=systems.RANK_TOL)[0]
