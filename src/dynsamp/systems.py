"""Per-frequency matrices governing recovery from coarse samples.

For a subsampling factor m, the length-L/m grid frequency with index rho
couples the L-grid spectrum indices rho + l*(L/m), l = 0..m-1.  The plain
N x m system matrix collects powers of the transfer values at those nodes
(a Vandermonde matrix); the extended system couples n such blocks with rows
coming from extra samples taken on a coarser shifted lattice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentNodes, EvenM, GridMiss, MalformedSamples, ShapeMismatch
from . import spectral

# Relative singular-value cutoffs.  A grid index is singular when its smin is
# below SINGULAR_TOL times the largest smin over the grid; a packet is rank
# deficient, and is not solved, when its smin is at most RANK_TOL times its largest.
SINGULAR_TOL = 1e-8
RANK_TOL = 1e-10
# Shift of the well-conditioning certificate: a packet whose c x c triangle R
# has R^H R - CERT_SHIFT c^2 eps ||R||_F^2 I positive definite in floating
# point has smin >= sqrt(CERT_SHIFT/2) c sqrt(eps) ||R||_F, since forming and
# factoring the Gram matrix errs by at most 2 c^2 (eps/2) ||R||_F^2 (Higham,
# Accuracy and Stability of Numerical Algorithms, Thm 10.7).
CERT_SHIFT = 64
# Cap on each chunk of assembled packet matrices with their right-hand sides,
# so peak memory stays flat in L.
_CHUNK_BYTES = 256 * 1024
_EPS = np.finfo(float).eps


@dataclass
class PlainSystem:
    """Parameter bundle for the plain per-frequency family."""

    a: object
    m: int
    N: int


@dataclass
class KernelBasis:
    """Sign-pattern basis of the null space at a degenerate frequency."""

    vectors: list
    at_frequency: float


def _grid_family(table, m, rho=None):
    """(len(rho), N, m) matrices of an (N, L) node table (see :func:`gather_blocks`)
    at the L/m-grid indices rho, all of them by default: entry (j, l) of
    matrix rho is table[j, rho + l L/m].  Both pipelines' plain systems."""
    L = table.shape[1]
    spectral._layout(L, m)
    if rho is None:
        rho = np.arange(L // m)
    return gather_blocks(table, packet_indices(L, m, 1, rho))[:, 0]


def build_plain(a, m, N, rho):
    """N x m matrix with entry (r, l) = response[rho + l*(L/m)]**r, exact grid
    lookups: the powers of the packet's m nodes, bitwise the (N, L) table's."""
    return power_rows(_grid_family(a.response[None], m, [rho])[0, 0], N)


def build_plain_at(a, m, N, xi):
    """Same matrix with nodes evaluated off the grid at frequency xi."""
    return power_rows(plain_nodes_at(a, m, xi), N)


def plain_nodes_at(a, m, xi):
    """Transfer values at the m aliased nodes of frequency xi (scalar or array)."""
    return a.at((np.asarray(xi)[..., None] + np.arange(m)) / m)


def power_rows(nodes, N):
    """Stack (..., N, m) whose row j holds nodes**j, level j of :func:`spectral.powers`:
    its first k rows have the same bits for every N >= k and under any gather
    of the nodes.  N must be an integer >= 1 (PreconditionViolated naming it)."""
    return np.stack(list(spectral.powers(nodes, spectral._count(N, "N", low=1) - 1)), axis=-2)


def det_plain(system, rho):
    """Determinant via the node-product formula; exact for the power structure.

    rho is one grid index or an array of them, with one determinant each.
    """
    if system.N != system.m:
        raise ShapeMismatch(f"determinant needs a square system, got N={system.N}, m={system.m}")
    nodes = _grid_family(system.a.response[None], system.m, np.atleast_1d(rho))[:, 0]
    i, j = np.triu_indices(system.m, 1)
    dets = np.prod(nodes[:, j] - nodes[:, i], axis=1)
    return dets if np.ndim(rho) else dets[0]


def plain_family(system):
    """Stacked matrices over the whole grid, shape (L/m, N, m): the n = 1 packet blocks."""
    return _grid_family(power_rows(system.a.response, system.N), system.m)


def smin_family(mats):
    """Smallest singular value of each matrix in a (P, r, c) stack, by :func:`packet_smins`."""
    return packet_smins(lambda part: mats[part], *mats.shape)[0]


def singular_indices(smins, tol):
    """Grid indices whose smin falls below tol times the grid maximum."""
    smins = np.asarray(smins, dtype=float)
    top = smins.max() if len(smins) else 0.0
    if top <= 0.0:
        return list(range(len(smins)))
    return [int(i) for i in np.nonzero(smins < tol * top)[0]]


def singular_set(system, tol=SINGULAR_TOL):
    """Grid indices where the square plain system loses rank.

    The cutoff is relative: an index counts as singular when its smallest
    singular value is below ``tol`` times the largest smin over the grid.
    """
    if system.N != system.m:
        raise ShapeMismatch("singularity scan expects the square system (N = m)")
    return singular_indices(smin_family(plain_family(system)), tol)


def kernel_basis(m, at):
    """Null-space basis of the square system at a degenerate frequency.

    For odd m the system at frequency 0 (or 1/2) of an even strictly
    decreasing response has an (m-1)/2-dimensional kernel spanned by
    vectors with a single +1/-1 pair: positions (j, m-j) at frequency 0,
    positions (j, m-1-j) at frequency 1/2.
    """
    if m % 2 == 0:
        raise EvenM("kernel characterization requires odd m")
    if m < 3:
        raise ValueError("need m >= 3")
    if at not in (0, 0.0, 0.5):
        raise ValueError("degenerate frequency must be 0 or 0.5")
    vectors = []
    if float(at) == 0.0:
        for j in range(1, (m - 1) // 2 + 1):
            v = np.zeros(m, dtype=int)
            v[j] = 1
            v[m - j] = -1
            vectors.append(v)
    else:
        for j in range((m - 1) // 2):
            v = np.zeros(m, dtype=int)
            v[j] = 1
            v[m - 1 - j] = -1
            vectors.append(v)
    return KernelBasis(vectors=vectors, at_frequency=float(at))


def u_row(c, k, m, n):
    """Length-m row of unit-modulus extra-sample phases.

    Entry l equals exp(-2 pi i c k / (m n)) * exp(-2 pi i c l / m).  A shift
    outside [0, m n) raises MalformedSamples naming it.
    """
    if not 0 <= c < m * n:
        raise MalformedSamples(f"shift c={c} must lie in [0, {m * n})")
    return np.exp(-2j * np.pi * c * k / (m * n)) * np.exp(-2j * np.pi * c * np.arange(m) / m)


def phase_rows(m, n, omega):
    """(|omega|, m n) phase rows: row i joins u_row(omega[i], k, m, n) over k, omega sorted."""
    # No grid here: a length of m n holds one packet, so only m, n and omega are checked.
    omega = spectral._layout(m * n, m, n, omega)
    rows = [np.concatenate([u_row(c, k, m, n) for k in range(n)]) for c in omega]
    return np.array(rows, dtype=complex).reshape(len(omega), m * n)


def packet_indices(L, m, n, rho):
    """(len(rho), n, m) L-grid node indices; block k of packet rho holds the
    m aliased nodes of the L/m grid index (rho + k L/(m n)) mod L/m.

    A grid index outside [0, L/m) raises GridMiss naming it.
    """
    step = L // m
    rho = np.asarray(rho)
    if rho.size and (rho.min() < 0 or rho.max() >= step):
        bad = int(rho.min()) if rho.min() < 0 else int(rho.max())
        raise GridMiss(f"rho must lie in [0, {step}), got rho={bad}")
    cols = (rho[:, None] + np.arange(n) * (step // n)) % step
    return cols[..., None] + np.arange(m) * step


def gather_blocks(table, idx):
    """(P, n, N, m) blocks at :func:`packet_indices` idx of an (N, L) node table.

    Row j of the table holds time step j: the j-th power of the grid response
    (the plain family) or the cross-spectrum Phi_hat_j (span pipeline).  The
    power blocks are bitwise ``power_rows(response[idx], N)``, which the
    sequence solve forms from the nodes instead.
    """
    return np.moveaxis(table[:, idx], 0, -2)


def offgrid_blocks(a, m, n, xi):
    """(len(xi), n, m, m) plain blocks at the shifted frequencies xi + k/n, off the grid."""
    return power_rows(plain_nodes_at(a, m, np.asarray(xi)[:, None] + np.arange(n) / n), m)


def extended_stack(blocks, phase):
    """Stack (P, |omega| + n N, m n) of extended packet matrices.

    Top: the :func:`phase_rows` weighted by row 0 of the (P, n, N, m) blocks,
    scaled by 1/(m n).  Below: the N x m blocks on the diagonal, scaled by 1/m.
    """
    P, n, N, m = blocks.shape
    off = len(phase)
    A = np.zeros((P, off + N * n, m * n), dtype=complex)
    A[:, :off] = phase * blocks[:, :, 0, :].reshape(P, 1, m * n) / (m * n)
    for k in range(n):
        A[:, off + k * N:off + (k + 1) * N, k * m:(k + 1) * m] = blocks[:, k] / m
    return A


def solve_packets(P, phase, rhs, *, nodes=None, blocks_of=None):
    """Per-packet smin and smax brackets and least-squares solutions.

    ``rhs`` is (P, rows, T): T right-hand sides per packet (noise trials,
    say), all solved against the one factorization; x is (P, cols, T).  The
    packets come as exactly one of two: ``blocks_of(idx)`` returns the
    (len(idx), n, N, m) blocks of the packets in the index array idx, and
    ``nodes`` is the (P, n, m) array of their nodes, whose power matrices
    (rows 0..N-1, N = (rows - |omega|) / n) are the blocks.

    Every packet's step is decided before any packet is solved, in chunks
    of the node array, and each chunk of a step holds packets of that step
    alone.  A packet of ``nodes`` that its node bracket clears
    (:func:`_node_brackets`, on its ||A||_F from :func:`_nodal_norms`)
    reports (node bracket, ||A||_F).  With square blocks (N = m) it takes
    the node solve, :func:`_nodal_solve`, with no powers, no assembly, no
    QR and no LU, in chunks of each contiguous run of such packets; with
    tall blocks, the QR under its node bracket.  Every other packet, so
    every packet of ``blocks_of``, takes the QR with the certificate.  The
    packets of a QR step are gathered by index, and each chunk is assembled
    with its right-hand sides: a tall packet takes one QR of [A | b], whose
    R holds Q^H b in its last columns (a square packet is its own R), and x
    = R^-1 Q^H b.  A chunk of certified packets takes :func:`_certify`: one
    batched Cholesky test of R^H R - tau I, tau = ``CERT_SHIFT`` c^2 eps
    ||R||_F^2 for c = cols, giving (sqrt(tau/2), ||R||_F) when all of them
    pass, else the exact values of their SVD without vectors (exact values
    of every packet come from :func:`packet_smins`).  Chunk sizes count the
    right-hand-side columns as well.  A packet with smin <= RANK_TOL times
    smax is rank deficient and is not solved: its x is NaN; a cleared or
    certified packet never is, as its bracket is at least sqrt(tau/2) >
    8e-8 ||R||_F.  Returns (smin, smax, x); raises nothing.
    """
    cols, off = phase.shape[1], len(phase)
    _, rows, trials = rhs.shape
    x = np.empty((P, cols, trials), dtype=complex)
    smin, smax = np.empty(P), np.empty(P)
    cleared = np.zeros(P, dtype=bool)
    if nodes is not None:
        n, m = nodes.shape[1:]
        N, E = (rows - off) // n, phase / cols
        for part in _chunks(P, n, m):
            smax[part] = _nodal_norms(nodes[part], N, np.linalg.norm(E))
            smin[part], cleared[part] = _node_brackets(nodes[part], smax[part], rows, cols)

        def blocks_of(idx):
            return power_rows(nodes[idx], N)
        if N == m:
            for run in _runs(cleared):
                for part in _chunks(run.stop, rows, cols + trials, run.start):
                    _nodal_solve(nodes[part], rhs[part], E, out=x[part])
        elif cleared.any():
            _qr_solve(np.flatnonzero(cleared), blocks_of, phase, rhs, smin, smax, x)
    if not cleared.all():
        _qr_solve(np.flatnonzero(~cleared), blocks_of, phase, rhs, smin, smax, x, certify=True)
    return smin, smax, x


def _qr_solve(idx, blocks_of, phase, rhs, smin, smax, x, certify=False):
    """Solve the packets ``idx`` of :func:`solve_packets` into x, a chunk at
    a time, on their brackets, taken from :func:`_certify` when ``certify``."""
    cols, (rows, width) = phase.shape[1], rhs.shape[1:]
    for chunk in _chunks(len(idx), rows, cols + width):
        part = idx[chunk]
        A = np.concatenate([extended_stack(blocks_of(part), phase), rhs[part]], axis=2)
        if rows > cols:
            # The raw factor, transposed back, holds R on and above its
            # diagonal and the reflectors below; zeroing them in place
            # spares mode "r" a copy of the whole chunk, and np.triu a copy
            # of its square part.
            A = np.linalg.qr(A, mode="raw")[0].swapaxes(1, 2)[:, :cols]
            np.copyto(A[..., :cols], 0, where=np.tri(cols, k=-1, dtype=bool))
        A, b = A[..., :cols], A[..., cols:]
        if certify:
            smin[part], smax[part] = _certify(A)
        ok = smin[part] > RANK_TOL * smax[part]
        # A rank-deficient packet solves against the identity, then reads NaN;
        # each matrix is solved apart, so the others keep their bits.
        A[~ok] = np.eye(cols)
        sol = np.linalg.solve(A, b)
        sol[~ok] = np.nan
        x[part] = sol
        del A, b, sol       # at most one chunk's factors are alive


def _runs(mask):
    """Slices of the maximal runs of True in the boolean array ``mask``."""
    cuts = [0, *((mask[1:] != mask[:-1]).nonzero()[0] + 1).tolist(), len(mask)]
    return [slice(start, stop) for start, stop in zip(cuts, cuts[1:]) if mask[start]]


def _nodal_norms(nodes, N, e_fro):
    """||A||_F of the packets [E; D] whose blocks are rows 0..N-1 of the
    power matrices of the (k, n, m) ``nodes``, with ||E||_F = ``e_fro``:
    sqrt(e_fro^2 + sum |x|^(2j) / m^2) over every node x and j = 0..N-1,
    the powers summed by Horner's rule in |x|^2, the nodes packet by
    packet, so a packet's norm has the same bits in any chunk.  Its
    rounding is derived in :func:`_node_brackets`."""
    k, _, m = nodes.shape
    s = nodes.real ** 2 + nodes.imag ** 2
    total = np.ones_like(s)
    for _ in range(N - 1):
        total *= s
        total += 1
    return np.hypot(np.sqrt(total.reshape(k, -1).sum(axis=1)) / m, e_fro)


def _nodal_solve(nodes, b, E, out=None):
    """Least-squares solutions, written to ``out`` when given, of the
    packets [E; D] whose blocks are the power matrices of the (k, n, m)
    ``nodes``, with D invertible, for the right-hand sides b = [e; d], each
    (|omega| + n m, T).

    Each block is solved from its nodes by the Bjorck-Pereyra algorithms:
    D^-1 v is m B_k^-1 v_k by :func:`solve_vandermonde`, and D^-H v is
    m B_k^-H v_k by :func:`_solve_vandermonde_primal` of the conjugate
    nodes, as B_k^H is the primal matrix of conj(x).  The normal equations
    (D^H D + E^H E) x = D^H d + E^H e then give, by the
    Sherman-Morrison-Woodbury identity,

        x0 = D^-1 d,  Z = D^-H E^H,  G = D^-1 Z,
        S = I + Z^H Z,  x = x0 + G S^-1 (e - E x0),

    with x0 and G from one call over T + |omega| columns.  Without extras
    rows x = x0.  Every step is elementwise across packets and columns, and
    each sum is an ordered fold (a cumulative sum), so a packet's x has the
    same bits in any chunk and with any number of columns; the error grows
    with cond(D)^2 times the residual, where a QR of A gives cond(A)^2.
    """
    k, n, m = nodes.shape
    off, T = len(E), b.shape[-1]
    nodes = nodes.reshape(k * n, m)
    if not off:
        y = np.multiply(b, m, out=out)
        return solve_vandermonde(nodes, y.reshape(k * n, m, T)).reshape(y.shape)
    Z = np.empty((k, n * m, off), dtype=complex)
    Z[:] = E.conj().T * m
    _solve_vandermonde_primal(nodes.conj(), Z.reshape(k * n, m, off))
    y = np.concatenate([b[:, off:], Z], axis=2)
    y *= m
    solve_vandermonde(nodes, y.reshape(k * n, m, T + off))
    x0, G = y[..., :T], y[..., T:]
    S = (Z.conj()[..., None] * Z[:, :, None]).cumsum(axis=1)[:, -1] + np.eye(off)
    Ex0 = E.T[:, :, None] * x0[:, :, None]
    w = _hermitian_solve(S, b[:, :off] - np.cumsum(Ex0, axis=1, out=Ex0)[:, -1])
    del Ex0
    x = np.multiply(G[..., :1], w[:, :1], out=out)
    for o in range(1, off):
        x += G[..., o:o + 1] * w[:, o:o + 1]
    x += x0
    return x


def _hermitian_solve(S, r):
    """S^-1 r for the (k, o, o) Hermitian positive definite S and (k, o, T)
    r, both overwritten: Gaussian elimination without pivoting, which is
    stable for such S, elementwise across the k systems and T columns."""
    o = S.shape[-1]
    for j in range(o - 1):
        f = S[:, j + 1:, j:j + 1] / S[:, j:j + 1, j:j + 1]
        S[:, j + 1:, j + 1:] -= f * S[:, j:j + 1, j + 1:]
        r[:, j + 1:] -= f * r[:, j:j + 1]
    for j in range(o - 1, -1, -1):
        r[:, j] /= S[:, j, j:j + 1]
        if j:
            r[:, :j] -= S[:, :j, j:j + 1] * r[:, j:j + 1]
    return r


def solve_vandermonde(nodes, b):
    """Solve V z = b in place for every power matrix V[j, l] = nodes[i, l]**j
    of the (P, m) ``nodes``, with the (P, m, T) ``b`` overwritten by z.

    The Bjorck-Pereyra algorithm for the dual Vandermonde system (Golub and
    Van Loan, Matrix Computations, Alg. 4.6.2; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 22): m - 1 steps of
    b[k+1:] -= x_k b[k:-1], then m - 1 of divided differences, O(m^2 T)
    per packet and elementwise across packets.  Every step's inner loop
    runs over the rows of one packet, so a packet's z has the same bits in
    any batch.  Nodes must be pairwise distinct.
    """
    m = nodes.shape[-1]
    x = nodes[..., None]
    for k in range(m - 1):
        b[:, k + 1:] -= x[:, k:k + 1] * b[:, k:-1]
    for k in range(m - 2, -1, -1):
        b[:, k + 1:] /= x[:, k + 1:] - x[:, :m - k - 1]
        b[:, k:-1] -= b[:, k + 1:]
    return b


def _solve_vandermonde_primal(nodes, b):
    """Solve V^T a = b in place for every power matrix V of the (P, m)
    ``nodes`` (row l of V^T holds nodes[i, l]**j over j), with the (P, m, T)
    ``b`` overwritten by a: the Bjorck-Pereyra algorithm for the primal
    system (Golub and Van Loan, Alg. 4.6.1), m - 1 steps of divided
    differences, then m - 1 of b[k:-1] -= x_k b[k+1:], elementwise across
    packets as :func:`solve_vandermonde`.  Nodes must be pairwise distinct.
    """
    m = nodes.shape[-1]
    x = nodes[..., None]
    for k in range(m - 1):
        np.divide(b[:, k + 1:] - b[:, k:-1], x[:, k + 1:] - x[:, :m - k - 1], out=b[:, k + 1:])
    for k in range(m - 2, -1, -1):
        b[:, k:-1] -= x[:, k:k + 1] * b[:, k + 1:]
    return b


def _node_brackets(nodes, fro, rows, cols):
    """(bracket, cleared): the node brackets of packet matrices A with
    ``rows`` rows, ``cols`` = c columns, the (k, n, m) ``nodes`` of their
    power blocks and Frobenius norms ``fro`` from :func:`_nodal_norms`, and
    the packets that they clear: those whose node bracket

        floor - 16 rows (c + 1) eps ||A||_F,

    with the floor of :func:`packet_floors`, is at least the Cholesky
    bracket sqrt(CERT_SHIFT/2) c sqrt(eps) ||A||_F of :func:`_certify`.  A
    floor bounds the smin of the exact matrix of the floating-point nodes;
    four roundings part it from the smin of the assembled A and of its
    computed R, each at most its constant times eps ||A||_F (Higham,
    Accuracy and Stability of Numerical Algorithms):
    - the powers of :func:`spectral.powers`, j - 1 complex products of
      relative error sqrt(2) gamma_2 each for x^j (Lemma 3.5), and the
      division by m: 1.5 rows;
    - the floor itself, 3 m eps relative to a value below ||A||_F:
      3 (c + 1);
    - the Householder QR of a tall packet, whose R is exact for a matrix
      within gamma~_{rows c} ||a_j||_2 of each column a_j of A (Thm 19.4),
      the small constant of gamma~ taken as 16 for complex arithmetic:
      8 rows c.
    Together they are at most 8 rows (c + 1), half the term subtracted.
    The other half covers the rounding of ||A||_F, which
    :func:`_nodal_norms` takes for the exact powers (rows 0..N-1) of the
    floating-point nodes from s = |x|^2.  Forming s errs by gamma_2 (about
    eps) relative; Horner's sum of the positive terms s^j, j < N, by
    gamma_{2(N-1)}, and the error of s by (N - 1) gamma_2 in s^(N-1), 2 (N -
    1) eps together; the sum over the c nodes of a packet by c eps / 2.  The
    square root halves that, and it, the division by m and the hypot with
    ||E||_F (itself within (|omega| c / 4 + 1) eps) add at most 2 eps, so
    the computed ||A||_F is within (N + c/4 + |omega| c/4 + 2) eps <= 3 rows
    (c + 1) eps of itself, as N <= rows, and within 1.5 rows more of
    ||A||_F of the rounded powers.  A cleared packet's bracket thus bounds
    the smin of the assembled A, that of its R and that of the matrix of
    the floating-point nodes that :func:`_nodal_solve` solves."""
    bracket = packet_floors(nodes) - 16 * rows * (cols + 1) * _EPS * fro
    return bracket, bracket >= np.sqrt(CERT_SHIFT / 2 * _EPS) * cols * fro


def packet_smins(matrices_of, P, rows, cols):
    """(smin, smax): the smallest and largest singular value of each of P
    packet matrices of shape (rows, cols), from one batched SVD without
    vectors per chunk of :func:`_chunks`.  ``matrices_of(idx)`` returns the
    (len(idx), rows, cols) stack of the packets in the index array idx, and
    each chunk is assembled once.  Raises nothing."""
    smin, smax = np.empty(P), np.empty(P)
    for part in _chunks(P, rows, cols):
        s = np.linalg.svd(matrices_of(np.arange(P)[part]), compute_uv=False)
        smin[part], smax[part] = s[:, -1], s[:, 0]
    return smin, smax


def minimum_smins(nodes_of, count, phase, seeds):
    """(smin, smax) of ``count`` scan candidates, exact for every candidate
    that can take or tie the smallest smin; each other one reads smin = +inf
    and smax = NaN.

    ``nodes_of(idx)`` returns the (len(idx), n, m) nodes of the candidates
    in the index array idx.  A candidate's matrix is
    ``extended_stack(power_rows(nodes, m), phase)`` for the (|omega|, m n)
    ``phase``, or, with phase None, the bare m x m power matrix
    ``power_rows(nodes, m)`` of its one block.  The ``seeds`` are assembled
    and take one batched SVD without vectors per chunk; their smallest smin
    is ``best``, the minimum so far.  Every other candidate takes the node
    test (:func:`_node_test`) against best, in chunks sized by the test's
    (m + |omega|)^2 bordered square, and only those it fails are assembled
    and decomposed, lowering best.  A cleared candidate has an SVD smin
    above the best of its test, so above the minimum: the finite values are
    exact, and the minimum and every index attaining it are those of an SVD
    of every candidate, each decomposed on its own.  Raises nothing.
    """
    mask = np.zeros(count, dtype=bool)
    mask[np.asarray(seeds, dtype=int)] = True
    seeded, rest = np.flatnonzero(mask), np.flatnonzero(~mask)
    nodes = nodes_of(seeded)
    n, m = nodes.shape[1:]
    bare = phase is None
    top, div = (np.zeros((0, m)), 1) if bare else (phase / (m * n), m)
    rows, cols = len(top) + n * m, n * m
    smin, smax, best = np.full(count, np.inf), np.full(count, np.nan), np.inf

    def decompose(idx, nodes):
        nonlocal best
        for part in _chunks(len(idx), rows, cols):
            blocks = power_rows(nodes[part], m)
            A = blocks[:, 0] if bare else extended_stack(blocks, phase)
            s = np.linalg.svd(A, compute_uv=False)
            smin[idx[part]], smax[idx[part]] = s[:, -1], s[:, 0]
            best = min(best, s[:, -1].min())
            del blocks, A       # so the next chunk's matrices replace these, not join them

    decompose(seeded, nodes)
    side = m + len(top)
    for part in _chunks(len(rest), side, side):
        idx = rest[part]
        nodes = nodes_of(idx)
        fail = ~_node_test(nodes, top, div, best)
        decompose(idx[fail], nodes[fail])
    return smin, smax


def _node_test(nodes, F, div, best):
    """Boolean verdict per candidate: True when the SVD smin of its matrix A
    = [F; D] is provably above best.  The (k, n, m) ``nodes`` give D =
    blockdiag(B_j / div), B_j the m x m power matrix of block j's nodes,
    and F is the (|omega|, n m) top, the same for every candidate.

    A^H A = blockdiag(B_j^H B_j / div^2) + F^H F, so A^H A - theta I is
    positive definite exactly when every step of the block Cholesky

        W_0 = I,  X_j = B_j^H B_j / div^2 - theta I + F_j^H W_j F_j = L_j L_j^H,
        U_j = L_j^-1 F_j^H W_j,  W_{j+1} = W_j - U_j^H U_j

    factors, F_j being the columns of block j of F.  Each step is m pivots
    of a Cholesky factorization of the bordered matrix [[X_j, F_j^H W_j],
    [W_j F_j, W_j]], whose trailing Schur complement is W_{j+1}; the last
    block needs X alone.  B_j^H B_j is summed from the nodes by Horner's
    rule, entry (a, b) = sum_i (conj(x_a) x_b)^i, i < m.  Every step is
    elementwise with the candidate axis last, so each numpy call covers
    the chunk, and no A is assembled.  For c = n m columns and a = ||A||_F,
    f = ||F||_F (each F_j holds f^2 / n), with a taken from the nodes by
    :func:`_nodal_norms`, the shift is

        theta = (best + 4 (c + m) eps a)^2 + 2 E(2 |omega|),
        E(rho) = eps (4.5 (m + 1) a^2 + w ((|omega| + 4)(sqrt(n) + 1) + (m + 1)(n + 3) / 2) f^2),

    w = sqrt(|omega|) + rho, and a candidate passes when every pivot is
    positive and rho = |omega| - tr W_{n-1} is at most 2 |omega|.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    3, 10 and 13), to first order in eps.  The powers of the assembled A
    and the division by div err by at most 1.5 m eps a (see
    :func:`_node_brackets`) against A~, the matrix of the exact powers of
    the floating-point nodes, and an SVD by at most 4 c eps a: the first
    term.  A run that factors every X_j is an exact block Cholesky
    factorization of A~^H A~ - theta I + E, and ||E||_2 <= E(rho), as W_j =
    I - sum_i U_i^H U_i gives sum_{i < n-1} ||U_i||_F^2 = rho and ||W_j||_F
    <= w for j < n:
    - the Horner sums, m - 1 complex products and additions per entry:
      3.5 m eps a^2, block diagonal, so the largest block counts;
    - forming X_j: the products W F_j and F_j^H (W F_j) and three sums,
      2 a^2 + (|omega| + 4) w f^2 / n;
    - factoring X_j (Thm 10.3), with ||L_j||_F^2 = tr X_j <= a^2 + w f^2 / n:
      (m + 1)/2 (a^2 + w f^2 / n);
    - the coupling rows U_j, errs of W F_j and of the triangular solve,
      which reach every later block through F: (|omega| + 2) w f^2 sqrt(n)
      and m/2 (a^2 + (rho + w) f^2);
    - the updates of W, each within (m + 1) eps/2 (||U_j||_F^2 + w), which
      reach every later block as F^H (dW) F: (m + 1)/2 (rho + (n - 1) w) f^2.
    In exact arithmetic W_j <= I, but W_j >= 0 only while every earlier
    B_i^H B_i / div^2 >= theta I: a candidate whose blocks need the extras
    rows to clear theta turns W negative, so the drift rho is checked, not
    assumed.  A passing candidate thus has lambda_min(A~^H A~) > theta -
    E(2 |omega|) > (best + 4 (c + m) eps a)^2, with half of the rounding
    term to spare, which also covers the rounding of a (within 3 r (c + 1)
    eps relative, see :func:`_node_brackets`), and its smin(A) exceeds best
    by more than the SVD's own error.
    """
    k, n, m = nodes.shape
    o, c = len(F), n * m
    f2 = np.vdot(F, F).real
    a2 = (_nodal_norms(nodes, m, np.sqrt(f2)) * (m / div)) ** 2
    x = np.ascontiguousarray(nodes.transpose(1, 2, 0))
    spread = (o + 4) * (np.sqrt(n) + 1) + (m + 1) * (n + 3) / 2
    theta = ((best + 4 * (c + m) * _EPS * np.sqrt(a2)) ** 2
             + 2 * _EPS * (4.5 * (m + 1) * a2 + (np.sqrt(o) + 2 * o) * spread * f2))
    Z = np.zeros((m + o, m + o, k), dtype=complex)
    Z[m:, m:] = np.eye(o)[..., None]
    W, X = Z[m:, m:], Z[:m, :m]
    diag = Z.reshape(-1, k)[:m * (m + o + 1):m + o + 1]
    low, drift = np.full(k, np.inf), o
    with np.errstate(all="ignore"):
        for j in range(n):
            last = j == n - 1
            y = x[j].conj()[:, None] * x[j]
            X[...] = 1 / div ** 2
            for _ in range(m - 1):
                X *= y
                X += 1 / div ** 2
            diag -= theta
            if o:
                Fj = F[:, j * m:(j + 1) * m]
                T = np.matmul(Fj.T, W)
                X += (Fj.conj().T @ T.reshape(o, m * k)).reshape(m, m, k)
                if last:
                    drift = o - np.trace(W).real
                else:
                    Z[m:, :m] = T
                    Z[:m, m:] = T.conj().transpose(1, 0, 2)
            end = m if last else m + o
            for i in range(m):
                piv = Z[i, i].real
                np.minimum(low, piv, out=low)
                col = Z[i + 1:end, i] * piv ** -0.5
                Z[i + 1:end, i + 1:end] -= col[:, None] * col.conj()
    return (low > 0) & (drift <= 2 * o)


def _chunks(stop, rows, width, start=0):
    """Slices of packets start..stop, each chunk holding at most
    _CHUNK_BYTES of (rows, width) complex matrices (at least one packet)."""
    chunk = max(1, _CHUNK_BYTES // (16 * rows * width))
    return [slice(first, min(first + chunk, stop)) for first in range(start, stop, chunk)]


def _certify(R):
    """(smin, smax) of the (k, c, c) stack R: the certified brackets
    (sqrt(tau/2), ||R||_F) when every fl(R^H R) - tau I takes a Cholesky
    factorization (see :func:`solve_packets`), ||R||_F^2 being the trace of
    the Gram matrix, else the exact values of one batched SVD without vectors."""
    c = R.shape[-1]
    G = R.conj().swapaxes(1, 2) @ R
    diag = G.reshape(len(G), c * c)[:, ::c + 1]
    norm2 = diag.real.sum(axis=1)
    tau = CERT_SHIFT * c * c * _EPS * norm2
    diag -= tau[:, None]
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        s = np.linalg.svd(R, compute_uv=False)
        return s[:, -1], s[:, 0]
    return np.sqrt(tau / 2), np.sqrt(norm2)


def _is_hermitian(values):
    """True when values[..., -r mod L] == conj(values[..., r]) holds exactly for
    every r, L being the length of the last axis: a response or a node table.
    Row by row against the reversed view, so that a table costs one row of
    scratch and stops at its first miss.  A bitwise Hermitian response has
    a bitwise Hermitian power table: IEEE complex products are
    sign-symmetric, conj(x) conj(y) == conj(x y), so :func:`spectral.powers`
    forms the powers of conj(x) as the conjugates of those of x."""
    v = np.asarray(values)
    return all(row[0] == np.conj(row[0]) and np.array_equal(row[:0:-1], np.conj(row[1:]))
               for row in v.reshape(-1, v.shape[-1]))


def build_extended(a, m, n, omega, rho):
    """Extended (|omega| + m n) x (m n) matrix at grid frequency index rho.

    Top rows hold the extra-sample phases scaled by 1/(m n); below sits the
    block diagonal of the n square plain matrices at the shifted
    frequencies xi + k/n, each scaled by 1/m.  rho indexes the L/m grid.
    """
    omega = spectral._layout(a.L, m, n, omega, packets=True)
    blocks = power_rows(a.response[packet_indices(a.L, m, n, [rho])], m)
    return extended_stack(blocks, phase_rows(m, n, omega))[0]


def build_extended_at(a, m, n, omega, xi):
    """Extended matrix with blocks evaluated off the grid at frequency xi."""
    return extended_stack(offgrid_blocks(a, m, n, [xi]), phase_rows(m, n, omega))[0]


def gautschi_bounds(nodes):
    """Separation-based bound on the inverse norm of the square power matrix
    of every node set of the (..., m) array ``nodes``.

    For pairwise distinct nodes x_0..x_{m-1} the spectral norm of the
    inverse is at most (Gautschi, Numer. Math. 4, 1962, with the sqrt(m)
    between the infinity and the spectral norm)

        sqrt(m) * max_i prod_{j != i} (1 + |x_j|) / |x_j - x_i|,

    each product taken over j in increasing order.  Coinciding nodes give
    +inf.  Each separation is taken once, for i < j, and serves both
    products: IEEE negation is exact, so |x_j - x_i| = |x_i - x_j| bit for
    bit.  The node axis goes first, so every step runs over the node sets.
    """
    x = np.moveaxis(np.asarray(nodes, dtype=complex), -1, 0)
    m = len(x)
    lifts = 1.0 + np.abs(x)
    gaps = {}
    for j in range(m):
        for i in range(j):
            gaps[i, j] = gaps[j, i] = np.abs(x[j] - x[i])
    best = None
    with np.errstate(divide="ignore", over="ignore"):
        for i in range(m):
            prod = np.ones(x.shape[1:])
            for j in range(m):
                if j != i:
                    prod *= lifts[j] / gaps[i, j]
            best = prod if best is None else np.maximum(best, prod)
    return np.sqrt(m) * best


def gautschi_bound_nodes(nodes):
    """:func:`gautschi_bounds` of one node set, as a float; coinciding nodes
    raise CoincidentNodes."""
    nodes = np.asarray(nodes, dtype=complex)
    i, j = np.triu_indices(len(nodes), 1)
    if np.any(nodes[i] == nodes[j]):
        raise CoincidentNodes("nodes coincide; separation bound undefined")
    return float(gautschi_bounds(nodes))


def packet_floors(nodes):
    """Lower bound on the smin of each extended packet matrix whose n blocks
    are the power matrices (rows 0..N-1, N >= m) of the (P, n, m) ``nodes``.

    Below the extras rows, every packet matrix A holds the block diagonal
    D of its n blocks B_k / m, so A^H A >= D^H D and smin(A) >= min_k
    smin(B_k) / m; the first m rows of B_k are its square power matrix,
    whose smin is at least 1 / G_k, G_k from :func:`gautschi_bounds`.  The
    floor is 1 / (m max_k G_k), 0 where two nodes of a block coincide.
    """
    return 1.0 / (nodes.shape[-1] * gautschi_bounds(nodes).max(axis=1))
