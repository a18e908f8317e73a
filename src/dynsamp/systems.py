"""Per-frequency matrices governing recovery from coarse samples.

For a subsampling factor m, the length-L/m grid frequency with index rho
couples the L-grid spectrum indices rho + l*(L/m), l = 0..m-1.  The plain
N x m system matrix collects powers of the transfer values at those nodes
(a Vandermonde matrix); the extended system couples n such blocks with rows
coming from extra samples taken on a coarser shifted lattice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentNodes, EvenM, ShapeMismatch
from . import spectral

# Relative singular-value cutoffs.  A grid index is singular when its smin is
# below SINGULAR_TOL times the largest smin over the grid; a packet is rank
# deficient (and its solve drops) singular values up to RANK_TOL times its largest.
SINGULAR_TOL = 1e-8
RANK_TOL = 1e-10
# Cap on each chunk of assembled packet matrices, so peak memory stays flat in L.
_CHUNK_BYTES = 256 * 1024


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


@dataclass
class SineMatrices:
    """Kernel-repair products U_k V and U_k W with their smallest singular values."""

    B: np.ndarray
    D: np.ndarray
    smin_B: float
    smin_D: float


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
    """N x m matrix with entry (r, l) = response[rho + l*(L/m)]**r, exact grid lookups."""
    if N < 1:
        raise ValueError("need at least one time row")
    return _grid_family(power_rows(a.response, N), m, [rho])[0]


def build_plain_at(a, m, N, xi):
    """Same matrix with nodes evaluated off the grid at frequency xi."""
    return power_rows(plain_nodes_at(a, m, xi), N)


def plain_nodes_at(a, m, xi):
    """Transfer values at the m aliased nodes of frequency xi (scalar or array)."""
    return a.at((np.asarray(xi)[..., None] + np.arange(m)) / m)


def power_rows(nodes, N):
    """Stack (..., N, m) whose row j holds nodes**j, formed as np.vander forms powers."""
    nodes = np.asarray(nodes)
    rows = np.vander(nodes.reshape(-1), N, increasing=True).reshape(nodes.shape + (N,))
    return rows.swapaxes(-1, -2)


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


def smin_plain(system, rho):
    """Smallest singular value of the plain matrix at grid index rho."""
    M = build_plain(system.a, system.m, system.N, rho)
    return float(np.linalg.svd(M, compute_uv=False)[-1])


def plain_family(system):
    """Stacked matrices over the whole grid, shape (L/m, N, m): the n = 1 packet blocks."""
    return _grid_family(power_rows(system.a.response, system.N), system.m)


def smin_family(mats):
    """Smallest singular value of each matrix in a stack."""
    return np.linalg.svd(mats, compute_uv=False)[..., -1]


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

    Entry l equals exp(-2 pi i c k / (m n)) * exp(-2 pi i c l / m).
    """
    if not 0 <= c < m * n:
        raise ValueError(f"shift c={c} outside [0, {m * n})")
    return np.exp(-2j * np.pi * c * k / (m * n)) * np.exp(-2j * np.pi * c * np.arange(m) / m)


def phase_rows(m, n, omega):
    """(|omega|, m n) phase rows: row i joins u_row(omega[i], k, m, n) over k, omega sorted."""
    # No grid here: a length of m n holds one packet, so only m, n and omega are checked.
    omega = spectral._layout(m * n, m, n, omega)
    rows = [np.concatenate([u_row(c, k, m, n) for k in range(n)]) for c in omega]
    return np.array(rows, dtype=complex).reshape(len(omega), m * n)


def packet_indices(L, m, n, rho):
    """(len(rho), n, m) L-grid node indices; block k of packet rho holds the
    m aliased nodes of the L/m grid index (rho + k L/(m n)) mod L/m."""
    step = L // m
    rho = np.asarray(rho)
    if rho.size and (rho.min() < 0 or rho.max() >= step):
        raise ValueError(f"rho must lie in [0, {step})")
    cols = (rho[:, None] + np.arange(n) * (step // n)) % step
    return cols[..., None] + np.arange(m) * step


def gather_blocks(table, idx):
    """(P, n, N, m) blocks at :func:`packet_indices` idx of an (N, L) node table.

    Row j of the table holds time step j: the j-th power of the grid response
    (sequence pipeline) or the cross-spectrum Phi_hat_j (span pipeline).
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


def solve_packets(blocks_of, P, phase, rhs=None):
    """Per-packet smin, smax and, given ``rhs``, minimum-norm solutions.

    ``rhs`` is (P, rows, T): T right-hand sides per packet (noise trials,
    say), all solved against the one decomposition; x is (P, cols, T).
    ``blocks_of(part)`` returns the blocks of the packets in slice ``part``
    (square without rhs); each chunk is assembled and decomposed by one
    batched SVD, and the chunk size counts the T columns as well.  Singular
    values at or below RANK_TOL times the packet's largest are dropped, as
    in a pseudoinverse with that cutoff.  Returns (smin, smax, x), x being
    None without rhs; raises nothing.
    """
    cols = phase.shape[1]
    if rhs is None:
        rows, trials = len(phase) + cols, 0
    else:
        _, rows, trials = rhs.shape
        # Trials ahead of rows and columns, so that both contractions below
        # run over a contiguous axis.
        b = rhs.transpose(0, 2, 1)
        x = np.empty((P, trials, cols), dtype=complex)
    chunk = max(1, _CHUNK_BYTES // (16 * rows * (cols + trials)))
    smin, smax = np.empty(P), np.empty(P)
    for start in range(0, P, chunk):
        part = slice(start, min(start + chunk, P))
        A = extended_stack(blocks_of(part), phase)
        if rhs is None:
            s = np.linalg.svd(A, compute_uv=False)
        else:
            U, s, Vh = np.linalg.svd(A, full_matrices=False)
            del A               # at most one chunk's matrices and factors are alive
            proj = np.einsum("pij,ptj->pti", np.conjugate(U.transpose(0, 2, 1), order="C"),
                             np.ascontiguousarray(b[part]))
            keep = (s > RANK_TOL * s[:, :1])[:, None, :]
            coef = np.divide(proj, s[:, None, :], out=np.zeros_like(proj), where=keep)
            x[part] = np.einsum("pij,ptj->pti", np.conjugate(Vh.transpose(0, 2, 1), order="C"),
                                coef)
            del U, Vh
        smin[part], smax[part] = s[:, -1], s[:, 0]
    return smin, smax, None if rhs is None else x.transpose(0, 2, 1)


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


def sine_test_matrices(m, n, k):
    """Products of the extra-sample phase rows with the two kernel bases.

    Uses shifts c = 1..(m-1)/2.  Full rank of both products certifies that
    the extra rows repair the rank loss at the degenerate frequencies.
    """
    if m % 2 == 0:
        raise EvenM("kernel repair matrices require odd m")
    half = (m - 1) // 2
    U = np.array([u_row(c, k, m, n) for c in range(1, half + 1)])
    V = np.array(kernel_basis(m, 0.0).vectors, dtype=float).T
    W = np.array(kernel_basis(m, 0.5).vectors, dtype=float).T
    B = U @ V
    D = U @ W
    smin_B = float(np.linalg.svd(B, compute_uv=False)[-1])
    smin_D = float(np.linalg.svd(D, compute_uv=False)[-1])
    return SineMatrices(B=B, D=D, smin_B=smin_B, smin_D=smin_D)


def gautschi_bound_nodes(nodes):
    """Separation-based bound on the inverse norm of a square power matrix.

    For pairwise distinct nodes x_0..x_{m-1} the spectral norm of the
    inverse is at most

        sqrt(m) * max_i prod_{j != i} (1 + |x_j|) / |x_j - x_i|.
    """
    nodes = np.asarray(nodes, dtype=complex)
    m = len(nodes)
    diffs = np.abs(nodes[None, :] - nodes[:, None])
    off = ~np.eye(m, dtype=bool)
    if np.any(diffs[off] == 0.0):
        raise CoincidentNodes("nodes coincide; separation bound undefined")
    i, j = np.nonzero(off)          # row by row, j != i in increasing order
    prods = np.prod(((1.0 + np.abs(nodes[j])) / diffs[i, j]).reshape(m, m - 1), axis=1)
    return float(np.sqrt(m) * prods.max())
