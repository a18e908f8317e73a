"""The batched packet engine against the entry-by-entry loops it replaced.

The reference functions below are the former per-packet implementations:
each matrix assembled entry by entry from ``u_row`` and ``np.vander``, and
each packet decomposed or solved on its own.  Assembly and the conditioning
scans do the same arithmetic as the engine and must agree bitwise; the
solves use an SVD in place of ``lstsq`` and must agree to 1e-12.
"""

import numpy as np
import pytest

import dynsamp as ds
from dynsamp import systems
from dynsamp.errors import RankDeficient

BSPLINE = ds.make_generator({"kind": "bspline", "order": 3})


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# reference loops

def ref_vander(nodes):
    return np.vander(nodes, len(nodes), increasing=True).T


def ref_extended(m, n, omega, block_at, weight=None):
    """Old assembler: phase rows (optionally weighted) on top, blocks below."""
    omega = sorted(omega)
    A = np.zeros((len(omega) + m * n, m * n), dtype=complex)
    for i, c in enumerate(omega):
        for k in range(n):
            row = ds.u_row(c, k, m, n)
            if weight is not None:
                row = row * weight[k * m:(k + 1) * m]
            A[i, k * m:(k + 1) * m] = row / (m * n)
    off = len(omega)
    for k in range(n):
        A[off + k * m:off + (k + 1) * m, k * m:(k + 1) * m] = block_at(k) / m
    return A


def ref_build_extended(a, m, n, omega, rho):
    L = a.L
    step, packet_step = L // m, L // (m * n)
    return ref_extended(m, n, omega, lambda k: ref_vander(
        a.response[(rho + k * packet_step) % step + np.arange(m) * step]))


def ref_build_extended_at(a, m, n, omega, xi):
    return ref_extended(m, n, omega,
                        lambda k: ref_vander(a.at((xi + k / n + np.arange(m)) / m)))


def ref_sis_packet(system, m, n, omega, rho):
    L = system.L
    step, packet_step = L // m, L // (m * n)
    cols = np.concatenate([(rho + k * packet_step) % step + np.arange(m) * step
                           for k in range(n)])
    return ref_extended(m, n, omega, lambda k: system.phi_hat[:, cols[k * m:(k + 1) * m]],
                        weight=system.phi_hat[0, cols]), cols


def ref_rhs(samples, rho):
    m, n, L = samples.m, samples.n, samples.L
    step, packet_step = L // m, L // (m * n)
    rhs = [np.exp(2j * np.pi * c * rho / L) * ds.dft(samples.extras[c])[rho]
           for c in samples.omega]
    for k in range(n):
        col = (rho + k * packet_step) % step
        rhs.extend(ds.dft(samples.y[l])[col] for l in range(m))
    return np.array(rhs)


def ref_solve(samples, packet):
    """Old packet loop: rank check, lstsq, scatter.  packet(rho) -> (A, cols)."""
    L = samples.L
    f_hat = np.empty(L, dtype=complex)
    for rho in range(L // (samples.m * samples.n)):
        A, cols = packet(rho)
        svals = np.linalg.svd(A, compute_uv=False)
        if svals[-1] < 1e-10 * svals[0]:
            raise RankDeficient(rho)
        f_hat[cols] = np.linalg.lstsq(A, ref_rhs(samples, rho), rcond=1e-10)[0]
    return ds.idft(f_hat)


def ref_grid_packet(a, m, n, omega):
    L = a.L
    step, packet_step = L // m, L // (m * n)

    def packet(rho):
        cols = np.concatenate([(rho + k * packet_step) + np.arange(m) * step
                               for k in range(n)])
        return ref_build_extended(a, m, n, omega, rho), cols
    return packet


def ref_empirical_pinv_norm(a, m, n, omega, grid):
    worst = 0.0
    for g in range(grid):
        A = ref_build_extended_at(a, m, n, omega, g / grid)
        worst = max(worst, 1.0 / float(np.linalg.svd(A, compute_uv=False)[-1]))
    return worst


def ref_guard_band_points(n, grid):
    lo = 1.0 / (4.0 * n)
    ends = [lo, 0.5 - lo, 0.5 + lo, 1.0 - lo]
    pts = [g / grid for g in range(grid)
           if (ends[0] <= g / grid <= ends[1]) or (ends[2] <= g / grid <= ends[3])]
    return np.array(sorted(set(pts + ends)))


def ref_beta1_sup(a, m, n, grid):
    sup = 0.0
    for xi in ref_guard_band_points(n, grid):
        M = ref_vander(a.at((xi + np.arange(m)) / m))
        sup = max(sup, 1.0 / float(np.linalg.svd(M, compute_uv=False)[-1]))
    return sup


def ref_beta2_delta(a, m, n, grid):
    delta = np.inf
    for xi in ref_guard_band_points(n, grid):
        nodes = a.at((xi + np.arange(m)) / m)
        gaps = np.abs(nodes[None, :] - nodes[:, None])
        delta = min(delta, float(gaps[~np.eye(m, dtype=bool)].min()))
    return delta


def chunk_packets(m, n, omega):
    return systems._CHUNK_BYTES // (16 * (len(omega) + m * n) * m * n)


# ---------------------------------------------------------------------------
# assembly: bitwise

GRID_CASES = [
    (ds.filter_raised_cosine(72, 1.0), 3, 3, (1,)),
    (ds.filter_raised_cosine(72, 1.0), 3, 3, ()),
    (ds.filter_heat(140, 0.5), 5, 7, (0, 1, 2, 3, 4)),
    (ds.filter_table(np.exp(-2j * np.pi * np.arange(24) / 24) * 0.5 + 0.3), 2, 3, (1, 4)),
]


@pytest.mark.parametrize("a, m, n, omega", GRID_CASES)
def test_grid_stack_matches_loop_bitwise(a, m, n, omega):
    P = a.L // (m * n)
    idx = systems.packet_indices(a.L, m, n, np.arange(P))
    blocks = systems.gather_blocks(systems.power_rows(a.response, m), idx)
    stack = systems.extended_stack(blocks, systems.phase_rows(m, n, omega))
    for rho in range(P):
        ref = ref_build_extended(a, m, n, omega, rho)
        assert np.array_equal(stack[rho], ref)
    for rho in range(a.L // m):
        assert np.array_equal(ds.build_extended(a, m, n, omega, rho),
                              ref_build_extended(a, m, n, omega, rho))


@pytest.mark.parametrize("a, m, n, omega", GRID_CASES[:3])
def test_offgrid_stack_matches_loop_bitwise(a, m, n, omega):
    xis = np.arange(97) / 97
    stack = systems.extended_stack(systems.offgrid_blocks(a, m, n, xis),
                                   systems.phase_rows(m, n, omega))
    for g, xi in enumerate(xis):
        ref = ref_build_extended_at(a, m, n, omega, g / 97)
        assert np.array_equal(stack[g], ref)
        assert np.array_equal(ds.build_extended_at(a, m, n, omega, xi), ref)


def test_phi_hat_stack_matches_loop_bitwise():
    L, m, n, omega = 72, 3, 3, (1, 2)
    system = ds.build_sis_system(BSPLINE, ds.gaussian_response(2.0), m, L, K=384)
    P = L // (m * n)
    idx = systems.packet_indices(L, m, n, np.arange(P))
    stack = systems.extended_stack(systems.gather_blocks(system.phi_hat, idx),
                                   systems.phase_rows(m, n, omega))
    for rho in range(P):
        ref, cols = ref_sis_packet(system, m, n, omega, rho)
        assert np.array_equal(stack[rho], ref)
        assert np.array_equal(idx[rho].reshape(-1), cols)


# ---------------------------------------------------------------------------
# scans: exact (empirical_pinv_norm, and the guard-band scans of beta1/beta2)

@pytest.mark.parametrize("a, m, n, grid", [
    (ds.filter_raised_cosine(72, 1.0), 3, 3, 720),
    (ds.filter_heat(840, 0.5), 5, 7, 720),
])
def test_scans_equal_loop_values(a, m, n, grid):
    for omega in (ds.full_omega(m), ds.minimal_omega(m)):
        assert ds.empirical_pinv_norm(a, m, n, omega, grid) == \
            ref_empirical_pinv_norm(a, m, n, omega, grid)
    assert np.array_equal(ds.guard_band_points(n, grid), ref_guard_band_points(n, grid))
    assert ds.bound_beta1(a, m, n, grid).detail == ref_beta1_sup(a, m, n, grid)
    assert ds.bound_beta2(a, m, n, grid).detail == ref_beta2_delta(a, m, n, grid)


# ---------------------------------------------------------------------------
# solves: to 1e-12 relative, across chunk boundaries

def test_reconstruct_extended_matches_lstsq_loop():
    m, n, omega = 3, 3, (1,)
    chunk = chunk_packets(m, n, omega)
    L = m * n * (chunk + chunk // 2 + 1)          # 1.5 chunks plus one packet
    assert (L // (m * n)) % chunk and L // (m * n) > chunk
    a = ds.filter_raised_cosine(L, 1.0)
    f = rand_signal(L, 1)
    s = ds.forward(f, a, m, m, n, omega)
    rec = ds.reconstruct_extended(s, a, m, n, omega)
    ref = ref_solve(s, ref_grid_packet(a, m, n, omega))
    assert np.linalg.norm(rec - ref) <= 1e-12 * np.linalg.norm(ref)


def test_rank_deficient_names_first_packet_like_loop():
    m, n = 3, 3
    P = chunk_packets(m, n, ()) + 5
    L = m * n * P
    xi = np.arange(L) / L
    response = np.exp(-2j * np.pi * xi) * (2 + np.cos(2 * np.pi * xi)) / 3
    bad = P - 3                                   # a packet in the second chunk
    i0, i1 = systems.packet_indices(L, m, n, [bad])[0, 0, :2]
    response[i1] = response[i0]                   # coincident nodes: a singular block
    a = ds.filter_table(response)
    s = ds.forward(rand_signal(L, 2), a, m, m, n, ())
    with pytest.raises(RankDeficient) as new:
        ds.reconstruct_extended(s, a, m, n, (), force=True)
    with pytest.raises(RankDeficient) as old:
        ref_solve(s, ref_grid_packet(a, m, n, ()))
    assert new.value.rho == old.value.rho == bad


def test_sis_reconstruct_matches_lstsq_loop():
    m, n, omega = 3, 3, (1, 2)
    chunk = chunk_packets(m, n, omega)
    L = m * n * (chunk + 8)                        # one chunk plus eight packets
    gen, a_hat = ds.make_generator({"kind": "sinc"}), ds.gaussian_response(2.0)
    c = rand_signal(L, 3)
    s = ds.sis_forward(c, gen, a_hat, m, n, omega, P=4)
    rec = ds.sis_reconstruct(s, gen, a_hat, m, n, omega, K=8)
    system = ds.build_sis_system(gen, a_hat, m, L, K=8)
    ref = ref_solve(s, lambda rho: ref_sis_packet(system, m, n, omega, rho))
    assert np.linalg.norm(rec - ref) <= 1e-12 * np.linalg.norm(ref)
