"""The batched packet engine against the entry-by-entry loops it replaced.

The reference functions below are the former per-packet implementations:
each matrix assembled entry by entry from ``u_row`` and ``np.vander``, and
each packet decomposed or solved on its own.  Assembly and the guard-band
scans do the same arithmetic as the engine and must agree bitwise.  The
pseudoinverse-norm scan has one candidate grid point per symmetry orbit, so
it agrees with the full-grid loop to 1e-13, and bitwise when no symmetry
applies; its minimum search, which skips the chunks that a floor test
places above the running minimum, must agree bitwise with an SVD of every
candidate.  The solves use one QR of [A | b] in place of ``lstsq`` and must
agree to 1e-12, also where a bitwise Hermitian table lets packet P - rho ride
along with packet rho as conjugated right-hand-side columns; a table without
that symmetry must solve every packet, bitwise as an all-packet solve through
the same engine.  A cleared packet with square blocks is solved from its
nodes, with or without extras rows, and must agree with the former QR and LU
solve, kept as ``ref_solve_packets``, to a tolerance scaled by its condition
number.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynsamp as ds
from dynsamp import recon, stability, systems
from dynsamp import cli
from dynsamp.errors import RankDeficient, SingularSystem

BSPLINE = ds.make_generator({"kind": "bspline", "order": 3})


def rand_signal(L, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# reference loops

def ref_vander(nodes, N=None):
    return np.vander(nodes, N or len(nodes), increasing=True).T


def ref_extended(m, n, omega, block_at, weight=None):
    """Old assembler: phase rows (optionally weighted) on top, blocks below."""
    omega = sorted(omega)
    blocks = [block_at(k) for k in range(n)]
    N = len(blocks[0])
    A = np.zeros((len(omega) + N * n, m * n), dtype=complex)
    for i, c in enumerate(omega):
        for k in range(n):
            row = ds.u_row(c, k, m, n)
            if weight is not None:
                row = row * weight[k * m:(k + 1) * m]
            A[i, k * m:(k + 1) * m] = row / (m * n)
    off = len(omega)
    for k, block in enumerate(blocks):
        A[off + k * N:off + (k + 1) * N, k * m:(k + 1) * m] = block / m
    return A


def ref_build_extended(a, m, n, omega, rho, N=None):
    L = a.L
    step, packet_step = L // m, L // (m * n)
    return ref_extended(m, n, omega, lambda k: ref_vander(
        a.response[(rho + k * packet_step) % step + np.arange(m) * step], N))


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
        rhs.extend(ds.dft(samples.y[l])[col] for l in range(samples.N))
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


def ref_grid_packet(a, m, n, omega, N=None):
    L = a.L
    step, packet_step = L // m, L // (m * n)

    def packet(rho):
        cols = np.concatenate([(rho + k * packet_step) + np.arange(m) * step
                               for k in range(n)])
        return ref_build_extended(a, m, n, omega, rho, N), cols
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
# scans: guard-band scans exact, the pseudoinverse-norm scan to 1e-13

def complex_tap_filter(L):
    """exp(-2 pi i xi)(2 + cos 2 pi xi + 0.6 sin 2 pi xi)/3: complex taps, not Hermitian."""
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi)
                           * (2 + np.cos(2 * np.pi * xi) + 0.6 * np.sin(2 * np.pi * xi)) / 3)


@pytest.mark.parametrize("a, m, n, grid", [
    (ds.filter_raised_cosine(72, 1.0), 3, 3, 720),    # shift and mirror
    (ds.filter_heat(840, 0.5), 5, 7, 720),            # mirror only: 7 does not divide 720
    (complex_tap_filter(72), 3, 7, 720),              # neither: the full scan, bitwise
])
def test_scans_equal_loop_values(a, m, n, grid):
    rel = 0.0 if stability._orbit_count(a, n, grid) == grid else 1e-13
    for omega in (ds.full_omega(m), ds.minimal_omega(m)):
        ref = ref_empirical_pinv_norm(a, m, n, omega, grid)
        assert abs(ds.empirical_pinv_norm(a, m, n, omega, grid) - ref) <= rel * ref
    if a.symmetric_decreasing:
        assert np.array_equal(ds.guard_band_points(n, grid), ref_guard_band_points(n, grid))
        assert ds.bound_beta1(a, m, n, grid).detail == ref_beta1_sup(a, m, n, grid)
        assert ds.bound_beta2(a, m, n, grid).detail == ref_beta2_delta(a, m, n, grid)


@st.composite
def beta1_configs(draw):
    """(filter, m, n, grid, chunk): a raised-cosine or heat filter, odd m <= 7,
    odd 3 <= n <= 15 (the band of n = 1 is its four endpoints), the default
    grid or 16 m n + 1 or 720 + 16 m n points, and node-test chunks of 1 to
    64 candidates."""
    m, n = draw(st.sampled_from([1, 3, 5, 7])), draw(st.sampled_from(range(3, 16, 2)))
    make = draw(st.sampled_from([ds.filter_raised_cosine, ds.filter_heat]))
    a = make(draw(st.integers(8, 96)), draw(st.floats(0.25, 2.0)))
    grid = draw(st.sampled_from([None, 16 * m * n + 1, 720 + 16 * m * n]))
    return a, m, n, grid, draw(st.integers(1, 64))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(beta1_configs())
def test_beta1_sup_equals_all_svd_sup(case):
    # The minimum search over the band returns the sup of an SVD of every
    # band matrix, bit for bit, in any chunking.
    a, m, n, grid, chunk = case
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * m * m):
        got = ds.bound_beta1(a, m, n, grid).detail
    pts = ds.guard_band_points(n, max(720, 16 * m * n) if grid is None else grid)
    mats = systems.power_rows(systems.plain_nodes_at(a, m, pts), m)
    assert got == float(max(1.0 / np.linalg.svd(M, compute_uv=False)[-1] for M in mats))


# ---------------------------------------------------------------------------
# scan symmetries: the two maps behind one SVD per orbit

SYMMETRY_PROPS = settings(derandomize=True, max_examples=60, deadline=None)


def plain_filter(L):
    """exp(-2 pi i xi)(2 + cos 2 pi xi)/3: Hermitian, not even; its table only to rounding."""
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi) * (2 + np.cos(2 * np.pi * xi)) / 3)


FILTERS = {
    "raised_cosine": ds.filter_raised_cosine,
    "heat": ds.filter_heat,
    "plain": lambda L, u: plain_filter(L),
    "complex_taps": lambda L, u: complex_tap_filter(L),
}


@st.composite
def scan_points(draw, kinds):
    """(filter, m, n, omega, xi): odd m <= 7, n <= 15, omega a valid extra-sample set."""
    m = draw(st.sampled_from([1, 3, 5, 7]))
    n = draw(st.integers(1, 15))
    omega = tuple(sorted(draw(st.sets(st.integers(0, m * n - 1), max_size=m))))
    a = FILTERS[draw(st.sampled_from(kinds))](draw(st.integers(8, 96)),
                                               draw(st.floats(0.25, 2.0)))
    return a, m, n, omega, draw(st.floats(0.0, 1.0, exclude_max=True))


def singular_values(a, m, n, omega, xi):
    return np.linalg.svd(ds.build_extended_at(a, m, n, omega, xi), compute_uv=False)


def mirror_gap(a, m, n, omega, xi):
    """Largest singular-value difference between xi and 1 - xi, relative to the largest."""
    s = singular_values(a, m, n, omega, xi)
    return np.abs(s - singular_values(a, m, n, omega, 1.0 - xi)).max() / s[0]


@SYMMETRY_PROPS
@given(scan_points(["raised_cosine", "heat", "complex_taps"]))
def test_shift_by_one_over_n_keeps_singular_values(point):
    a, m, n, omega, xi = point
    s = singular_values(a, m, n, omega, xi)
    assert np.abs(s - singular_values(a, m, n, omega, xi + 1.0 / n)).max() <= 1e-12 * s[0]


@SYMMETRY_PROPS
@given(scan_points(["raised_cosine", "heat", "plain"]))
def test_mirror_keeps_singular_values_for_hermitian_filters(point):
    assert mirror_gap(*point) <= 1e-12


def test_hermitian_check_is_bitwise():
    L = 72
    for a in (ds.filter_raised_cosine(L, 1.0), ds.filter_heat(L, 0.5), ds.filter_delta(L)):
        assert stability._is_hermitian(a.response)
    r = plain_filter(L).response
    exact = r.copy()
    exact[L // 2 + 1:] = np.conj(r[1:L - L // 2][::-1])
    exact[[0, L // 2]] = exact[[0, L // 2]].real
    assert stability._is_hermitian(exact)
    assert stability._orbit_count(ds.filter_table(exact), 3, 720) == 720 // 3 // 2 + 1
    # Hermitian only to rounding: the check rejects it, so the scan uses the shift alone.
    for size in (72, 576, 2304, 9216, 36864):
        assert not stability._is_hermitian(plain_filter(size).response)
    assert stability._orbit_count(plain_filter(72), 3, 720) == 720 // 3
    # Complex taps: not Hermitian, and the mirror really fails there.
    a = complex_tap_filter(L)
    assert not stability._is_hermitian(a.response)
    assert mirror_gap(a, 3, 3, (1,), 0.2) > 1e-3


@pytest.mark.parametrize("a, n, count", [
    (ds.filter_raised_cosine(72, 1.0), 3, 121),      # shift and mirror
    (ds.filter_raised_cosine(72, 1.0), 7, 361),      # mirror only
    (ds.filter_raised_cosine(72, 1.0), 15, 25),      # shift and mirror
    (complex_tap_filter(72), 5, 144),                # shift only
    (complex_tap_filter(72), 7, 720),                # neither
])
def test_orbit_count_matches_orbit_closure(a, n, count):
    grid = 720
    maps = [lambda g: (g + grid // n) % grid] if grid % n == 0 else []
    if stability._is_hermitian(a.response):
        maps.append(lambda g: -g % grid)
    smallest = set()
    for g in range(grid):
        orbit, todo = {g}, [g]
        while todo:
            h = todo.pop()
            todo += [k for k in (f(h) for f in maps) if k not in orbit]
            orbit.update(todo)
        smallest.add(min(orbit))
    assert sorted(smallest) == list(range(count))
    assert stability._orbit_count(a, n, grid) == count


# ---------------------------------------------------------------------------
# the minimum search: a floor test skips chunks, the value stays the all-SVD scan's

def ref_orbit_scan(a, m, n, omega, grid):
    """The all-SVD scan: every orbit representative decomposed on its own;
    (first argmin g, smin[g], max 1/smin, whether packet g is rank deficient:
    smin[g] <= RANK_TOL smax[g], both from the one SVD)."""
    xi = np.arange(stability._orbit_count(a, n, grid)) / grid
    blocks, phase = systems.offgrid_blocks(a, m, n, xi), systems.phase_rows(m, n, omega)
    s = np.array([np.linalg.svd(systems.extended_stack(blocks[i:i + 1], phase)[0],
                                compute_uv=False) for i in range(len(xi))])
    smin = s[:, -1]
    g = int(np.argmin(smin))
    with np.errstate(divide="ignore"):
        return g, smin[g], float((1.0 / smin).max()), smin[g] <= systems.RANK_TOL * s[g, 0]


def scan_outcome(a, m, n, omega, grid):
    """empirical_pinv_norm as a value or ("RankDeficient", grid index)."""
    try:
        return ds.empirical_pinv_norm(a, m, n, omega, grid)
    except RankDeficient as err:
        return "RankDeficient", err.rho


def hermitian_table(L, u):
    """A table perturbed from plain_filter and made exactly Hermitian: the mirror applies."""
    rng = np.random.default_rng(int(1000 * u))
    return ds.filter_table(exactly_hermitian(plain_filter(L).response
                                             + 0.2 * rand_complex(rng, L)))


SCAN_FILTERS = {
    "raised_cosine": ds.filter_raised_cosine,
    "heat": ds.filter_heat,
    "complex_taps": lambda L, u: complex_tap_filter(L),
    "hermitian_table": hermitian_table,
}


@st.composite
def scan_configs(draw):
    """(filter, m, n, omega, grid, chunk): odd m <= 7, n <= 15, omega a valid
    extra-sample set, a grid of 4 m n, 4 m n + 1 or 720 points, and chunks of
    1 to all candidates."""
    m, n = draw(st.sampled_from([1, 3, 5, 7])), draw(st.integers(1, 15))
    omega = tuple(sorted(draw(st.sets(st.integers(0, m * n - 1), max_size=m))))
    a = SCAN_FILTERS[draw(st.sampled_from(sorted(SCAN_FILTERS)))](
        draw(st.integers(8, 96)), draw(st.floats(0.25, 2.0)))
    grid = draw(st.sampled_from([4 * m * n, 4 * m * n + 1, max(720, 4 * m * n)]))
    count = stability._orbit_count(a, n, grid)
    return a, m, n, omega, grid, draw(st.integers(1, count + 1))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(scan_configs())
def test_minimum_search_equals_all_svd_scan(case):
    a, m, n, omega, grid, chunk = case
    rows, cols = len(omega) + m * n, m * n
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * cols):
        g, smin, value, deficient = ref_orbit_scan(a, m, n, omega, grid)
        got = scan_outcome(a, m, n, omega, grid)
    assert got == (("RankDeficient", g) if deficient else value)
    if not deficient:
        assert got == 1.0 / smin


def assembled_candidate(nodes, phase):
    """The matrix of one candidate's (1, n, m) nodes as the scans assemble it:
    extended_stack of its power blocks, or, with phase None, the bare m x m
    power matrix."""
    blocks = systems.power_rows(nodes, nodes.shape[-1])
    return blocks[0, 0] if phase is None else systems.extended_stack(blocks, phase)[0]


def draw_nodes(rng, n, m):
    """(n, m) nodes: moduli within one decade of a common scale 1e-3..1e3 or
    spread over all six decades, real or complex, and per block a
    coincident pair, a pair within 1e-12..1e-2 relative, or a zero node."""
    spread = rng.choice([1.0, 6.0])
    x = 10.0 ** np.clip(rng.uniform(-3, 3) + rng.uniform(-spread / 2, spread / 2, (n, m)), -3, 3)
    if rng.random() < 0.6:
        x = x * np.exp(2j * np.pi * rng.random((n, m)))
    else:
        x = x * rng.choice([-1.0, 1.0], (n, m)) + 0j
    for k in range(n):
        kind = rng.integers(0, 5)
        if kind == 1 and m > 1:
            x[k, 1] = x[k, 0]
        elif kind == 2 and m > 1:
            x[k, 1] = x[k, 0] * (1 + 10.0 ** rng.uniform(-12, -2))
        elif kind == 3:
            x[k, rng.integers(0, m)] = 0
    return x


@st.composite
def node_test_cases(draw):
    """(nodes, F, div, best, smin): one candidate of m <= 7 nodes per block
    (:func:`draw_nodes`), with n <= 15 blocks and |omega| <= m extras rows,
    or the bare power matrix of one block (n = 1, no extras, div = 1); smin
    is the SVD smin of its assembled matrix and best lies within
    1e-12..1 relative of it on either side, or on it."""
    m, bare = draw(st.integers(1, 7)), draw(st.booleans())
    n = 1 if bare else draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    nodes = draw_nodes(rng, n, m)[None]
    if bare:
        phase, F, div = None, np.zeros((0, m)), 1
    else:
        omega = draw(st.sets(st.integers(0, m * n - 1), max_size=m))
        phase = systems.phase_rows(m, n, omega)
        F, div = phase / (m * n), m
    smin = np.linalg.svd(assembled_candidate(nodes, phase), compute_uv=False)[-1]
    step = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** rng.uniform(-12, 0)
    return nodes, F, div, smin * (1 + step), smin


@settings(derandomize=True, max_examples=400, deadline=None)
@given(node_test_cases())
def test_node_test_never_clears_a_candidate_at_or_below_best(case):
    nodes, F, div, best, smin = case
    if systems._node_test(nodes, F, div, best)[0]:
        assert smin > best


def heat_candidates(omega):
    """(nodes, F, smin) of the heat m = 5, n = 7 scan on 720 points."""
    a, m, n, grid = ds.filter_heat(840, 0.5), 5, 7, 720
    xi = np.arange(stability._orbit_count(a, n, grid)) / grid
    nodes = systems.plain_nodes_at(a, m, xi[:, None] + np.arange(n) / n)
    phase = systems.phase_rows(m, n, omega)
    A = systems.extended_stack(systems.power_rows(nodes, m), phase)
    return nodes, phase / (m * n), np.linalg.svd(A, compute_uv=False)[:, -1]


@pytest.mark.parametrize("omega", [ds.minimal_omega(5), ds.full_omega(5)])
def test_node_test_clears_well_separated_candidates(omega):
    # Every heat candidate clears half the smallest smin, and none its own smin.
    nodes, F, smin = heat_candidates(omega)
    assert systems._node_test(nodes, F, 5, smin.min() / 2).all()
    assert not any(systems._node_test(nodes[i:i + 1], F, 5, smin[i])[0]
                   for i in range(0, len(smin), 20))


def test_node_test_couples_the_blocks_through_w():
    # Two blocks of a coincident pair and one extras row: each block alone
    # clears with the extras row's help, but not both, as one row cannot
    # fill two null directions.  The W update carries the first block's use
    # of the row into the second.
    m, n = 2, 2
    nodes = np.array([[[1.0, 1.0], [0.5, 0.5]]], dtype=complex)
    phase = systems.phase_rows(m, n, (1,))
    smin = np.linalg.svd(assembled_candidate(nodes, phase), compute_uv=False)[-1]
    assert smin < 1e-15
    assert not systems._node_test(nodes, phase / (m * n), m, 1e-3)[0]


def ref_node_test(nodes, F, div, best):
    """Frozen reference: the node test as it was, updating the whole
    bordered square at every pivot, the mirrored coupling block included."""
    k, n, m = nodes.shape
    o, c = len(F), n * m
    f2 = np.vdot(F, F).real
    a2 = (systems._nodal_norms(nodes, m, np.sqrt(f2)) * (m / div)) ** 2
    x = np.ascontiguousarray(nodes.transpose(1, 2, 0))
    spread = (o + 4) * (np.sqrt(n) + 1) + (m + 1) * (n + 3) / 2
    theta = ((best + 4 * (c + m) * EPS * np.sqrt(a2)) ** 2
             + 2 * EPS * (4.5 * (m + 1) * a2 + (np.sqrt(o) + 2 * o) * spread * f2))
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


def scan_candidates(a, m, n, omega, grid):
    """(nodes, F, smin) of every orbit candidate of a scan."""
    xi = np.arange(stability._orbit_count(a, n, grid)) / grid
    nodes = systems.plain_nodes_at(a, m, xi[:, None] + np.arange(n) / n)
    phase = systems.phase_rows(m, n, omega)
    A = systems.extended_stack(systems.power_rows(nodes, m), phase)
    return nodes, phase / (m * n), np.linalg.svd(A, compute_uv=False)[:, -1]


NODE_TEST_SCANS = {
    "heat-minimal": (lambda: ds.filter_heat(840, 0.5), 5, 7, ds.minimal_omega(5)),
    "heat-full": (lambda: ds.filter_heat(840, 0.5), 5, 7, ds.full_omega(5)),
    "raised-cosine": (lambda: ds.filter_raised_cosine(72, 1.0), 3, 3, (1,)),
}


@pytest.mark.parametrize("name", sorted(NODE_TEST_SCANS))
def test_node_test_verdicts_equal_the_full_square_update(monkeypatch, name):
    # No pivot reads the mirrored coupling block, so leaving it out keeps
    # every verdict: at best values across the candidates' smins, whole and
    # one candidate at a time, and at every call of the scan itself.
    make, m, n, omega = NODE_TEST_SCANS[name]
    a = make()
    nodes, F, smin = scan_candidates(a, m, n, omega, 720)
    verdicts = []
    for best in (smin.min() / 2, smin.min() * (1 - 1e-6), np.median(smin), smin.max()):
        ok = systems._node_test(nodes, F, m, best)
        assert np.array_equal(ok, ref_node_test(nodes, F, m, best))
        verdicts.append(ok)
        for i in range(0, len(nodes), 37):
            assert systems._node_test(nodes[i:i + 1], F, m, best) == ok[i]
    assert verdicts[0].all() and 0 < verdicts[2].mean() < 1 and not verdicts[3].any()
    test, calls = systems._node_test, []

    def spy_test(chunk, F, div, best):
        ok = test(chunk, F, div, best)
        assert np.array_equal(ok, ref_node_test(chunk, F, div, best))
        calls.append(len(ok))
        return ok
    monkeypatch.setattr(systems, "_node_test", spy_test)
    ds.empirical_pinv_norm(a, m, n, omega, 720)
    assert sum(calls) == len(nodes) - 2


def node_test_args(nodes, phase):
    """(F, div) of _node_test for a candidate's (1, n, m) nodes and phase."""
    _, n, m = nodes.shape
    return (np.zeros((0, m)), 1) if phase is None else (phase / (m * n), m)


def documented_theta_terms(nodes, phase):
    """(c1, c2) with theta = (best + c1)^2 + c2 the shift that _node_test's
    docstring derives: c1 = 4 (c + m) eps a and c2 = 2 E(2 |omega|), with
    a = ||A||_F of the assembled candidate."""
    _, n, m = nodes.shape
    F = node_test_args(nodes, phase)[0]
    o, c = len(F), n * m
    a, f = np.linalg.norm(assembled_candidate(nodes, phase)), np.linalg.norm(F)
    w = np.sqrt(o) + 2 * o
    E = EPS * (4.5 * (m + 1) * a ** 2
               + w * ((o + 4) * (np.sqrt(n) + 1) + (m + 1) * (n + 3) / 2) * f ** 2)
    return 4 * (c + m) * EPS * a, 2 * E


def heat_orbit_candidate(omega, index):
    a, m, n, grid = ds.filter_heat(840, 0.5), 5, 7, 720
    xi = index / grid + np.arange(n) / n
    return systems.plain_nodes_at(a, m, xi[None]), systems.phase_rows(m, n, omega)


def raised_cosine_orbit_candidate(index):
    a, m, n, grid = ds.filter_raised_cosine(72, 1.0), 3, 3, 720
    xi = index / grid + np.arange(n) / n
    return systems.plain_nodes_at(a, m, xi[None]), systems.phase_rows(m, n, (1,))


THETA_PIN_CASES = {
    # The fourth roots of unity: B^H B = 4 I, and every Horner product,
    # sum and pivot of the test is exact, so it clears exactly when theta < 4.
    "fourier-m4": lambda: (np.array([[[1, 1j, -1, -1j]]]), None),
    "heat-minimal": lambda: heat_orbit_candidate(ds.minimal_omega(5), 0),
    "heat-full": lambda: heat_orbit_candidate(ds.full_omega(5), 180),
    "raised-cosine-omega1": lambda: raised_cosine_orbit_candidate(60),
    "heat-band": lambda: (stability._band_nodes(ds.filter_heat(840, 0.5), 5, 7, 720)[1][207:208, None],
                          None),
}


@pytest.mark.parametrize("name", sorted(THETA_PIN_CASES))
def test_node_test_shift_is_the_documented_theta(name):
    # best is set so that the documented theta lands an eighth of its
    # rounding term T = theta - smin^2 below, then above, lambda_min =
    # smin^2: the test must clear the first and fail the second.  smin^2
    # agrees with lambda_min of the exact powers' Gram to 1e-4 T on these
    # candidates (40-digit arithmetic), and the test's own rounding stays
    # near 2% of T, so a shift whose rounding term is off by a quarter or
    # more fails one side; on the Fourier candidate, so does halving either
    # of its two parts.
    nodes, phase = THETA_PIN_CASES[name]()
    F, div = node_test_args(nodes, phase)
    smin = np.linalg.svd(assembled_candidate(nodes, phase), compute_uv=False)[-1]
    c1, c2 = documented_theta_terms(nodes, phase)
    T = (smin + c1) ** 2 + c2 - smin ** 2
    for side, clears in ((-1, True), (1, False)):
        best = np.sqrt(smin ** 2 + side * T / 8 - c2) - c1
        assert systems._node_test(nodes, F, div, best)[0] == clears


def scan_log(monkeypatch):
    """Record the scan: ("nodes", xi) per node evaluation, ("test", size,
    failed) per node test and ("svd", packets) per decomposed chunk."""
    log = []
    nodes_at, test, svd = systems.plain_nodes_at, systems._node_test, np.linalg.svd

    def spy_nodes(a, m, xi):
        log.append(("nodes", xi[:, 0]))
        return nodes_at(a, m, xi)

    def spy_test(nodes, F, div, best):
        ok = test(nodes, F, div, best)
        log.append(("test", len(ok), int((~ok).sum())))
        return ok

    def spy_svd(A, *args, **kwargs):
        log.append(("svd", len(A)))
        return svd(A, *args, **kwargs)
    monkeypatch.setattr(systems, "plain_nodes_at", spy_nodes)
    monkeypatch.setattr(systems, "_node_test", spy_test)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    return log


def evaluated(log, grid):
    """Grid indices of each node evaluation, in visiting order."""
    return [np.rint(entry[1] * grid).astype(int).tolist() for entry in log
            if entry[0] == "nodes"]


def node_tests(log):
    return [entry[1:] for entry in log if entry[0] == "test"]


def svds_of(log):
    return [entry[1] for entry in log if entry[0] == "svd"]


def test_heat_minimal_scan_decomposes_only_the_seeds(monkeypatch):
    a, m, n, grid = ds.filter_heat(840, 0.5), 5, 7, 720
    omega = ds.minimal_omega(m)
    log = scan_log(monkeypatch)
    value = ds.empirical_pinv_norm(a, m, n, omega, grid)
    count = stability._orbit_count(a, n, grid)
    # Mirror only (7 does not divide 720): xi = 1/2 is candidate 360.  The
    # seeds 0 and 360 take the SVD untested, and the node test clears every
    # other candidate, in chunks of its own working set; each candidate's
    # nodes are evaluated once.
    parts = evaluated(log, grid)
    assert parts[0] == [0, 360] and svds_of(log) == [2]
    assert sorted(sum(parts, [])) == list(range(count))
    side = m + len(omega)
    chunks = [part.stop - part.start for part in systems._chunks(count - 2, side, side)]
    assert len(chunks) > 1 and [size for size, _ in node_tests(log)] == chunks
    assert all(failed == 0 for _, failed in node_tests(log))
    monkeypatch.undo()
    assert value == ref_orbit_scan(a, m, n, omega, grid)[2]


def test_heat_full_scan_decomposes_only_the_candidates_that_fail(monkeypatch):
    # The full-set scan is flat (smin varies by 3e-4 relative over the grid),
    # yet the node test clears most candidates; a shift as loose as the solve
    # certificate's would clear none.
    a, m, n, grid = ds.filter_heat(840, 0.5), 5, 7, 720
    omega = ds.full_omega(m)
    log = scan_log(monkeypatch)
    value = ds.empirical_pinv_norm(a, m, n, omega, grid)
    count = stability._orbit_count(a, n, grid)
    parts = evaluated(log, grid)
    assert parts[0] == [0, 360] and sorted(sum(parts, [])) == list(range(count))
    failed = sum(f for _, f in node_tests(log))
    assert sum(size for size, _ in node_tests(log)) == count - 2
    assert 0 < failed <= (count - 2) // 8
    assert sum(svds_of(log)) == 2 + failed
    monkeypatch.undo()
    assert value == ref_orbit_scan(a, m, n, omega, grid)[2]


def test_one_chunk_scan_decomposes_only_the_seed_packets(monkeypatch):
    # Raised cosine m = n = 3 on 720 points: 121 candidates.  The seeds 0 and
    # 120 (the orbit of xi = 1/2) take the SVD; the other 119 pass one node test.
    a, m, n, grid = ds.filter_raised_cosine(72, 1.0), 3, 3, 720
    omega = (1,)
    log = scan_log(monkeypatch)
    value = ds.empirical_pinv_norm(a, m, n, omega, grid)
    assert svds_of(log) == [2] and node_tests(log) == [(119, 0)]
    assert [len(part) for part in evaluated(log, grid)] == [2, 119]
    monkeypatch.undo()
    assert value == ref_orbit_scan(a, m, n, omega, grid)[2]


def tie_nodes(P, twins, value=1.0):
    """(P, 1, 2) nodes of bare 2 x 2 power matrices: (1, -1) for every
    candidate but the ``twins``, equal copies of (1, 1 - 2 value), so
    bitwise the same SVD of a smaller smin (0 for value 0)."""
    nodes = np.tile(np.array([1.0, -1.0], dtype=complex), (P, 1, 1))
    nodes[twins, 0, 1] = 1 - 2 * value
    return nodes


def minimum_search(nodes, seeds):
    """(first argmin, smin) of minimum_smins over bare 2 x 2 power matrices,
    as the scans read them."""
    smin, _ = systems.minimum_smins(lambda idx: nodes[idx], len(nodes), None, seeds)
    index = int(np.argmin(smin))
    return index, smin[index]


def bare_smin(node_pair):
    return np.linalg.svd(systems.power_rows(np.asarray(node_pair, dtype=complex), 2),
                         compute_uv=False)[-1]


@pytest.mark.parametrize("value", [0.5, 0.0])
def test_minimum_search_ties_go_to_the_smallest_index(monkeypatch, value):
    # Twins 3 and 7; the seed is the later one and is decomposed first, so
    # the earlier twin is found only after it, when the node test fails it
    # in a chunk of the other candidates.
    P, chunk = 10, 2
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk * 16 * 2 * 2)
    twin = bare_smin([1.0, 1 - 2 * value])
    assert minimum_search(tie_nodes(P, [3, 7], value), [7]) == (3, twin)
    # ties inside a chunk too
    assert minimum_search(tie_nodes(P, [2, 3, 6, 7], value), [6, 0]) == (2, twin)


def test_minimum_search_lowers_best_after_a_fallback():
    # The seed holds the second-smallest smin; the smallest sits in a later chunk.
    P = 12
    nodes = tie_nodes(P, [0], 0.5)
    nodes[9, 0, 1] = 0.9
    with mock.patch.object(systems, "_CHUNK_BYTES", 3 * 16 * 2 * 2):
        assert minimum_search(nodes, [0]) == (9, bare_smin([1.0, 0.9]))


def heat_scan(omega):
    """Arguments of packet_smins for the heat m = 5, n = 7 scan on 720 points."""
    a, m, n, grid = ds.filter_heat(840, 0.5), 5, 7, 720
    xi = np.arange(stability._orbit_count(a, n, grid)) / grid
    phase = systems.phase_rows(m, n, omega)
    return (lambda part: systems.extended_stack(systems.offgrid_blocks(a, m, n, xi[part]), phase),
            len(xi), len(omega) + n * m, m * n)


def family_scan(family):
    """Arguments of packet_smins for a (P, r, c) family of square matrices."""
    return (lambda part: family[part],) + family.shape


# The heat scans fit a few chunks; the square families, the plain raised
# cosine on L = 2304 (768 matrices) and the span B-spline family on L = 72
# (24), take several at the patched chunk sizes.
SQUARE_FAMILIES = {
    "plain": (lambda: systems.plain_family(systems.PlainSystem(RCOS(2304), 3, 3)), 100),
    "span": (lambda: systems._grid_family(ds.build_sis_system(
        ds.make_generator({"kind": "bspline", "order": 3}), ds.gaussian_response(2.0),
        3, 72, K=384).phi_hat, 3), 5),
}


@pytest.mark.parametrize("omega", [ds.minimal_omega(5), ds.full_omega(5), "plain", "span"])
def test_packet_smins_of_every_packet_equal_per_packet_svds(monkeypatch, omega):
    if omega in SQUARE_FAMILIES:
        make, chunk = SQUARE_FAMILIES[omega]
        matrices_of, P, rows, cols = family_scan(make())
        monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk * 16 * rows * cols)
        assert len(systems._chunks(P, rows, cols)) > 2
    else:
        matrices_of, P, rows, cols = heat_scan(omega)
    smin, smax = systems.packet_smins(matrices_of, P, rows, cols)
    s = [np.linalg.svd(M, compute_uv=False) for M in matrices_of(np.arange(P))]
    assert np.array_equal(smin, [svals[-1] for svals in s])
    assert np.array_equal(smax, [svals[0] for svals in s])


@pytest.mark.parametrize("omega", [ds.minimal_omega(5), ds.full_omega(5)])
def test_minimum_smins_decomposes_only_the_candidates_that_fail(monkeypatch, omega):
    # The seed candidate comes first; +inf marks exactly the candidates that
    # the node test cleared; every other value is the candidate's own SVD.
    # Each candidate's nodes are evaluated once.
    a, m, n, grid = ds.filter_heat(840, 0.5), 5, 7, 720
    count = stability._orbit_count(a, n, grid)
    xi, phase = np.arange(count) / grid, systems.phase_rows(m, n, omega)
    parts, cleared = [], []
    test = systems._node_test

    def nodes_of(idx):
        parts.append(idx.tolist())
        return systems.plain_nodes_at(a, m, xi[idx, None] + np.arange(n) / n)

    def spy_test(nodes, F, div, best):
        ok = test(nodes, F, div, best)
        cleared.extend(np.array(parts[-1])[ok].tolist())
        return ok
    monkeypatch.setattr(systems, "_node_test", spy_test)
    smin, smax = systems.minimum_smins(nodes_of, count, phase, [0])
    assert parts[0] == [0] and sorted(sum(parts, [])) == list(range(count))
    inf = np.isinf(smin)
    assert cleared and np.flatnonzero(inf).tolist() == sorted(cleared)
    assert np.array_equal(np.isnan(smax), inf)
    s = np.array([np.linalg.svd(systems.extended_stack(systems.offgrid_blocks(a, m, n, xi[[i]]),
                                                       phase)[0], compute_uv=False)
                  for i in np.flatnonzero(~inf)])
    assert np.array_equal(smin[~inf], s[:, -1])
    assert np.array_equal(smax[~inf], s[:, 0])


def test_empirical_pinv_norm_returns_a_float():
    value = ds.empirical_pinv_norm(ds.filter_raised_cosine(72, 1.0), 3, 3, (1,), 720)
    assert type(value) is float


def test_scan_and_solve_agree_on_a_rank_deficient_set():
    # The shift c = 0 leaves the sign-pair kernels of the plain blocks at
    # xi = 0 and 1/2 unresolved.  The scan's worst packet has smin about
    # 4e-17 times smax, so, like the solve, it raises rather than return
    # 1/smin = 3.4e16.
    a, m, n, omega = ds.filter_raised_cosine(72, 1.0), 3, 3, (0,)
    with pytest.raises(RankDeficient):
        ds.empirical_pinv_norm(a, m, n, omega, 720)
    with pytest.raises(RankDeficient):
        ds.reconstruct_extended(ds.forward(rand_signal(72, 1), a, m, m, n, omega), a, m, n,
                                omega, force=True)


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


# ---------------------------------------------------------------------------
# mirrored solve: packet P - rho reuses the factors of packet rho

def noisy_samples(L, m, n, omega, N, seed):
    """A sample set of the right shape holding noise: every packet is inconsistent."""
    rng = np.random.default_rng(seed)
    return ds.SampleSet(y=[rand_signal(L // m, rng.integers(2**16)) for _ in range(N)],
                        extras={c: rand_signal(L // (m * n), rng.integers(2**16)) for c in omega},
                        m=m, n=n, omega=omega)


def mirror_chunk(m, n, omega, N):
    """Packets per chunk of a one-trial solve with N snapshot rows."""
    rows, cols = len(omega) + n * N, m * n
    return systems._CHUNK_BYTES // (16 * rows * (cols + 1))


def exactly_hermitian(response):
    """The response with its upper half replaced by the conjugated lower half."""
    L = len(response)
    exact = np.array(response, dtype=complex)
    exact[L // 2 + 1:] = np.conj(exact[1:L - L // 2][::-1])
    real = [0, L // 2] if L % 2 == 0 else [0]    # the bins that are their own mirror
    exact[real] = exact[real].real
    return exact


def RCOS(L):
    return ds.filter_raised_cosine(L, 1.0)


def HEAT(L):
    return ds.filter_heat(L, 0.5)


@pytest.mark.parametrize("make, m, n, omega, N, P", [
    (RCOS, 3, 3, (1,), 3, 8),
    (RCOS, 3, 3, (0, 1, 2), 3, 8),
    (HEAT, 5, 7, (1, 2), 5, 16),
    (HEAT, 5, 7, (1, 2), 7, 16),           # N = m + 2 snapshot rows
    (RCOS, 3, 3, (1,), 5, 9),
    (RCOS, 3, 3, (1,), 3, 1),
    (RCOS, 3, 3, (1,), 3, 2),
    (RCOS, 3, 3, (1,), 3, 3),
    (RCOS, 3, 3, (1,), 3, "odd chunks"),
    (RCOS, 3, 3, (1,), 3, "even chunks"),
])
def test_mirrored_solve_matches_lstsq_loop(make, m, n, omega, N, P):
    if isinstance(P, str):
        # 2 P/2 + 1 > chunk: the decomposed packets and their mirrors both
        # cross a chunk boundary.
        P = 2 * mirror_chunk(m, n, omega, N) + (7 if P == "odd chunks" else 8)
        assert P // 2 + 1 > mirror_chunk(m, n, omega, N)
    L = m * n * P
    a = make(L)
    assert systems._is_hermitian(systems.power_rows(a.response, N))
    s = noisy_samples(L, m, n, omega, N, P)
    rec = ds.reconstruct_extended(s, a, m, n, omega, force=True)
    ref = ref_solve(s, ref_grid_packet(a, m, n, omega, N))
    assert np.linalg.norm(rec - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mirrored_noise_trials_match_lstsq_loop():
    L, m, n, omega, T, sigma = 72, 3, 3, (1,), 6, 1e-2
    a = RCOS(L)
    f = rand_signal(L, 4)
    samples = ds.forward(f, a, m, m, n, omega)
    noisy = [v[0] for v in stability._noisy_block(samples, np.random.default_rng(5), T, [sigma])]
    rec = recon._solve(noisy[:m], dict(zip(omega, noisy[m:])), m, n, omega,
                       table=systems.power_rows(a.response, m))
    errors = []
    for t in range(T):
        trial = ds.SampleSet(y=[v[t] for v in noisy[:m]],
                             extras={c: v[t] for c, v in zip(omega, noisy[m:])},
                             m=m, n=n, omega=omega)
        ref = ref_solve(trial, ref_grid_packet(a, m, n, omega))
        assert np.linalg.norm(rec[t] - ref) <= 1e-12 * np.linalg.norm(ref)
        errors.append(np.linalg.norm(ref - f) / np.sqrt(L))
    res = ds.noise_trial(f, a, m, n, omega, sigma, trials=T, seed=5, pinv_norm=30.0)
    assert abs(res.mean_error - np.mean(errors)) <= 1e-12 * np.mean(errors)


def test_mirror_rank_deficient_names_first_packet_like_loop():
    m, n = 3, 3
    chunk = mirror_chunk(m, n, (), m)
    P = 2 * (chunk + 5)
    L = m * n * P
    response = exactly_hermitian(plain_filter(L).response)
    bad = chunk + 2                               # decomposed in the second chunk
    i0, i1 = systems.packet_indices(L, m, n, [bad])[0, 0, :2]
    response[i1] = response[i0]                   # coincident nodes in packet bad ...
    response[-i1 % L] = response[-i0 % L]         # ... and, kept Hermitian, in P - bad
    a = ds.filter_table(response)
    assert systems._is_hermitian(a.response)
    s = noisy_samples(L, m, n, (), m, 6)
    with pytest.raises(RankDeficient) as new:
        ds.reconstruct_extended(s, a, m, n, (), force=True)
    with pytest.raises(RankDeficient) as old:
        ref_solve(s, ref_grid_packet(a, m, n, ()))
    assert new.value.rho == old.value.rho == bad


# The second L puts P = L/3 plain packets past two chunks of 3 x 3 one-trial
# solves, so that P/2 + 1 decomposed packets cross a chunk boundary.
@pytest.mark.parametrize("L", [72, 3 * 2 * (systems._CHUNK_BYTES // (16 * 3 * 4)) + 6])
def test_mirrored_plain_solve_lists_singular_set(L):
    m = 3
    a = RCOS(L)
    expected = systems.singular_set(systems.PlainSystem(a, m, m))
    assert expected == [0, L // (2 * m)]
    with pytest.raises(SingularSystem) as err:
        ds.reconstruct_plain(ds.forward(rand_signal(L, 7), a, m, m), a, m)
    assert err.value.indices == expected


def all_packet_solve(samples, table, n, omega):
    """Every packet decomposed, as without the mirror, through the same engine;
    a response in place of an (N, L) ``table`` gives the packets their
    nodes, as the sequence solves pass them."""
    m, L = samples.m, samples.L
    P = L // (m * n)
    idx = systems.packet_indices(L, m, n, np.arange(P))
    N = samples.N if table.ndim == 1 else len(table)
    rhs = recon._rhs(samples.y[:N], samples.extras, omega, idx, np.arange(P), L, 1)
    if table.ndim == 1:
        packets = {"nodes": table[idx]}
    else:
        packets = {"blocks_of": lambda part: systems.gather_blocks(table, idx[part])}
    _, _, x = systems.solve_packets(P, systems.phase_rows(m, n, omega), rhs, **packets)
    f_hat = np.empty((1, L), dtype=complex)
    f_hat[:, idx.reshape(P, -1)] = x.transpose(2, 0, 1)
    return ds.idft(f_hat).reshape(L)


@pytest.mark.parametrize("make", [plain_filter, complex_tap_filter])
@pytest.mark.parametrize("L", [72, 576, 2304])
def test_non_hermitian_tables_solve_every_packet(make, L):
    a = make(L)
    assert not systems._is_hermitian(systems.power_rows(a.response, 3))
    s = noisy_samples(L, 3, 1, (), 3, 8)
    assert np.array_equal(ds.reconstruct_plain(s, a, 3), all_packet_solve(s, a.response, 1, ()))
    s = noisy_samples(L, 3, 3, (1, 2), 3, 9)
    assert np.array_equal(ds.reconstruct_extended(s, a, 3, 3, (1, 2), force=True),
                          all_packet_solve(s, a.response, 3, (1, 2)))


@pytest.mark.parametrize("gen", [BSPLINE, ds.make_generator({"kind": "sinc"})])
@pytest.mark.parametrize("L", [72, 576, 2304])
def test_span_tables_solve_every_packet(gen, L):
    # A B-spline table takes the table route; a sinc table is a power ladder,
    # solved from the nodes of its row 1 as a sequence response is.
    m, n, omega = 3, 3, (1, 2)
    system = ds.build_sis_system(gen, ds.gaussian_response(2.0), m, L, K=384)
    assert not systems._is_hermitian(system.phi_hat)
    s = noisy_samples(L, m, n, omega, m, 10)
    rec = ds.sis_reconstruct(s, gen, ds.gaussian_response(2.0), m, n, omega, K=384,
                             system=system)
    nodes = system.phi_hat if gen is BSPLINE else system.phi_hat[1]
    assert np.array_equal(rec, all_packet_solve(s, nodes, n, omega))


@pytest.mark.parametrize("a, P, decomposed", [
    (RCOS(72), 8, 5),
    (RCOS(81), 9, 5),
    (plain_filter(72), 8, 8),
])
def test_solve_decomposes_one_packet_per_mirror_pair(monkeypatch, a, P, decomposed):
    seen = []
    solve = systems.solve_packets

    def spy(count, phase, rhs, **packets):
        seen.append((count, rhs.shape, packets["nodes"].shape))
        return solve(count, phase, rhs, **packets)
    monkeypatch.setattr(systems, "solve_packets", spy)
    ds.reconstruct_extended(noisy_samples(a.L, 3, 3, (1,), 3, 11), a, 3, 3, (1,), force=True)
    # One trial: a second column per factored packet holds its mirror's right-hand
    # side.  The nodes of the factored packets alone come with them.
    assert seen == [(decomposed, (decomposed, 1 + 3 * 3, 1 if decomposed == P else 2),
                     (decomposed, 3, 3))]


def test_hermitian_check_covers_every_row_and_the_real_bins():
    L = 72
    exact = exactly_hermitian(plain_filter(L).response)
    table = systems.power_rows(exact, 4)
    assert systems._is_hermitian(table)
    for r in (0, L // 2):                  # bins that must be real
        bent = exact.copy()
        bent[r] += 1e-3j
        assert not systems._is_hermitian(bent)
    bent = table.copy()
    bent[3, 5] *= 1 + 1e-15                # the last row only
    assert not systems._is_hermitian(bent)
    assert systems._is_hermitian(bent[:3])



# ---------------------------------------------------------------------------
# the sequence solve from the response: no (N, L) power table

def ref_grid_bounds(response, m):
    """The former route to the node bounds: gautschi_bounds of the m aliased
    nodes response[rho + j L/m] at every index rho of the L/m grid, taken
    once per solve and then indexed by each packet's blocks."""
    return systems.gautschi_bounds(response.reshape(m, len(response) // m).T)


def signed_packet_indices(L, m, n):
    """packet_indices of the factored packets and their mirrors, negated mod
    L, in the order that a mirrored solve gathers them."""
    P = L // (m * n)
    q = np.concatenate([np.arange(P // 2 + 1), -np.arange(1, (P + 1) // 2)])
    idx = systems.packet_indices(L, m, n, np.abs(q))
    idx[q < 0] = -idx[q < 0] % L
    return idx


@pytest.mark.parametrize("make, m, n", [
    (plain_filter, 3, 1), (plain_filter, 3, 3), (complex_tap_filter, 5, 7), (HEAT, 5, 7),
    (lambda L: ds.filter_table(rand_complex(np.random.default_rng(L), L)), 2, 3),
])
@pytest.mark.parametrize("N", range(1, 9))
def test_power_rows_of_gathered_nodes_equal_gathered_power_rows(make, m, n, N):
    # spectral.powers forms each node's powers by its own running product, so
    # the powers of gathered nodes are the gathered (N, L) table bit for bit,
    # in chunks of any size and at the mirrored indices too.  Its first k rows
    # are the table of k rows: np.vander formed x^2 one way at N = 3 and
    # another from N = 4 on, so a block's bits depended on N.
    L = m * n * 24
    a = make(L)
    idx = signed_packet_indices(L, m, n)
    table = systems.power_rows(a.response, N)
    for k in range(1, N + 1):
        assert systems.power_rows(a.response, k).tobytes() == table[:k].tobytes()
    P = len(idx)
    for chunk in (1, 7, P):
        for start in range(0, P, chunk):
            part = idx[start:start + chunk]
            assert np.array_equal(systems.power_rows(a.response[part], N),
                                  systems.gather_blocks(table, part))


@st.composite
def hermitian_responses(draw):
    """A bitwise Hermitian complex response of length 1..40, its values of
    modulus up to 10^3, some of them real or zero."""
    L = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    response = rand_complex(rng, L) * 10.0 ** rng.uniform(-3, 3, L)
    response[rng.random(L) < 0.2] = 0
    response[rng.random(L) < 0.2] = 1.5
    return exactly_hermitian(response)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(hermitian_responses())
def test_hermitian_response_has_a_hermitian_power_table(response):
    # IEEE complex products are sign-symmetric, so the solve can test the
    # response in place of its power table.
    assert systems._is_hermitian(response)
    for N in range(1, 9):
        assert systems._is_hermitian(systems.power_rows(response, N))


@pytest.mark.parametrize("make, m, n", [
    (plain_filter, 3, 1), (RCOS, 3, 3), (HEAT, 5, 7), (complex_tap_filter, 7, 1),
])
@pytest.mark.parametrize("L_per_packet", [8, 512])
def test_packet_floors_of_gathered_nodes_equal_the_grid_route(make, m, n, L_per_packet):
    L = m * n * L_per_packet
    a = make(L)
    idx = signed_packet_indices(L, m, n)
    D = len(idx) // 2 + 1
    ref = 1.0 / (m * ref_grid_bounds(a.response, m)[idx[:D, :, 0]].max(axis=1))
    assert np.array_equal(systems.packet_floors(a.response[idx[:D]]), ref)
    full = systems.packet_indices(L, m, n, np.arange(L // (m * n)))
    ref = 1.0 / (m * ref_grid_bounds(a.response, m)[full[..., 0]].max(axis=1))
    assert np.array_equal(systems.packet_floors(a.response[full]), ref)


@pytest.mark.parametrize("make, n, omega, N, powered", [
    (plain_filter, 1, None, 3, 0),          # every plain packet cleared
    (RCOS, 3, (1,), 3, 2),                  # the packets at 0 and 1/2 are not
    (RCOS, 3, (1,), 5, 65),                 # tall blocks: every factored packet
])
def test_sequence_solve_takes_powers_only_for_packets_left_to_the_qr(
        monkeypatch, make, n, omega, N, powered):
    L, m = 1152, 3
    a = make(L)
    seen = []
    power_rows = systems.power_rows

    def spy(nodes, count):
        seen.append(np.shape(nodes))
        return power_rows(nodes, count)
    f = rand_signal(L, 3)
    s = ds.forward(f, a, m, N, n, omega or ())
    monkeypatch.setattr(systems, "power_rows", spy)
    rec = (ds.reconstruct_plain(s, a, m) if omega is None
           else ds.reconstruct_extended(s, a, m, n, omega))
    assert sum(shape[0] for shape in seen) == powered
    assert all(shape[1:] == (n, m) for shape in seen)
    assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)


def test_one_snapshot_solve_mirrors_as_its_all_ones_table_does(monkeypatch):
    # With m = N = 1 the power table is one row of ones, bitwise Hermitian
    # whatever the response, so the solve mirrors without testing it.
    L = 72
    a = complex_tap_filter(L)
    assert not systems._is_hermitian(a.response)
    assert systems._is_hermitian(systems.power_rows(a.response, 1))
    seen = []
    solve = systems.solve_packets

    def spy(count, *args, **packets):
        seen.append(count)
        return solve(count, *args, **packets)
    monkeypatch.setattr(systems, "solve_packets", spy)
    f = rand_signal(L, 5)
    rec = ds.reconstruct_plain(ds.forward(f, a, 1, 1), a, 1)
    assert np.linalg.norm(rec - f) <= 1e-14 * np.linalg.norm(f)
    assert seen == [L // 2 + 1]


# ---------------------------------------------------------------------------
# the QR solve: one QR of [A | b], then x = R^-1 Q^H b

def rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@st.composite
def random_packets(draw):
    """(blocks, phase, rhs, chunk): P random complex packets, tall (extras
    rows or N > m) or square, T >= 1 trials and a chunk of 1..P + 1
    packets.  The blocks lean on 3 I, so every packet is well conditioned;
    the right-hand sides fit no packet exactly."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    N, extras = m + draw(st.integers(0, 2)), draw(st.integers(0, 2))
    P, T = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    blocks = rand_complex(rng, (P, n, N, m))
    blocks[:, :, :m] += 3 * np.eye(m)
    phase = rand_complex(rng, (extras, m * n))
    rhs = rand_complex(rng, (P, extras + n * N, T))
    return blocks, phase, rhs, draw(st.integers(1, P + 1))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(random_packets())
def test_qr_solve_matches_lstsq_loop(case):
    blocks, phase, rhs, chunk = case
    P, (rows, T), cols = len(blocks), rhs.shape[1:], phase.shape[1]
    # The chunk counts the T columns of b.
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (cols + T)):
        smin, smax, x = systems.solve_packets(P, phase, rhs, blocks_of=lambda part: blocks[part])
    A = systems.extended_stack(blocks, phase)
    s = np.linalg.svd(A, compute_uv=False)
    # smin and smax bracket the singular values (see the certificate tests below).
    assert np.all(smin <= s[:, -1] * (1 + 1e-12))
    assert np.all(smax >= s[:, 0] * (1 - 1e-12))
    assert x.shape == (P, cols, T)
    for i in range(P):
        ref = np.linalg.lstsq(A[i], rhs[i], rcond=None)[0]
        assert np.linalg.norm(x[i] - ref) <= 1e-12 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# the certificate: one batched Cholesky test of R^H R - tau I per chunk

EPS = np.finfo(float).eps


def conditioned_packets(rng, svals, rows):
    """(P, 1, rows, c) blocks whose packet matrices (the blocks over c, as
    extended_stack scales them) are U diag(s) V^H with random unitary U, V."""
    def unitary(k, c):
        return np.linalg.qr(rand_complex(rng, (k, c)))[0]
    c = svals.shape[1]
    return np.array([c * (unitary(rows, c) * s) @ unitary(c, c).conj().T
                     for s in svals])[:, None]


def certify_solve(blocks, T, chunk, seed):
    """solve_packets on the blocks in chunks of ``chunk`` packets, T trials;
    returns (smin, smax, x, svals, frobenius) with svals from an SVD of each
    assembled matrix."""
    P, _, rows, c = blocks.shape
    phase = np.zeros((0, c))
    rhs = rand_complex(np.random.default_rng(seed), (P, rows, T))
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (c + T)):
        smin, smax, x = systems.solve_packets(P, phase, rhs, blocks_of=lambda part: blocks[part])
    A = systems.extended_stack(blocks, phase)
    return smin, smax, x, np.linalg.svd(A, compute_uv=False), np.linalg.norm(A, axis=(1, 2))


def certified_smin(c, frobenius):
    """The documented certificate sqrt(tau/2), tau = CERT_SHIFT c^2 eps ||R||_F^2."""
    return np.sqrt(systems.CERT_SHIFT / 2 * EPS) * c * frobenius


@st.composite
def conditioned_cases(draw):
    """(blocks, T, chunk, seed): P packets of c <= 35 columns, square or up to
    three rows taller, each U diag(s) V^H with cond 1..1e14 (never within 5%
    of the rank cutoff 1e10) and a scale 1e-3..1e3."""
    c, extra = draw(st.integers(1, 35)), draw(st.integers(0, 3))
    P, T = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    exps = draw(st.lists(st.floats(0, 14).filter(lambda e: abs(e - 10) > 0.02),
                         min_size=P, max_size=P))
    scales = draw(st.lists(st.floats(-3, 3), min_size=P, max_size=P))
    seed = draw(st.integers(0, 2**16))
    svals = np.array([10.0 ** g * np.logspace(0, -e, c) for e, g in zip(exps, scales)])
    blocks = conditioned_packets(np.random.default_rng(seed), svals, c + extra)
    return blocks, T, draw(st.integers(1, P + 1)), seed


@settings(derandomize=True, max_examples=120, deadline=None)
@given(conditioned_cases())
def test_certificate_brackets_and_rank_rule(case):
    blocks, T, chunk, seed = case
    P, c = len(blocks), blocks.shape[-1]
    smin, smax, x, sv, fro = certify_solve(blocks, T, chunk, seed)
    # An SVD places smin only to within a few eps smax.
    slack = 4 * c * EPS * sv[:, 0]
    assert np.all(smin <= sv[:, -1] * (1 + 1e-12) + slack)
    assert np.all(smax >= sv[:, 0] * (1 - 1e-12))
    # The NaN set is the exact rank rule.
    deficient = sv[:, -1] <= systems.RANK_TOL * sv[:, 0]
    assert np.array_equal(np.isnan(x).any(axis=(1, 2)), deficient)
    assert np.isfinite(x[~deficient]).all() and np.isnan(x[deficient]).all()
    # A chunk holding a packet with smin^2 below tau/2 takes the SVD; a
    # chunk whose packets all clear 2 tau is certified.
    floor = certified_smin(c, fro)
    for start in range(0, P, chunk):
        part = slice(start, start + chunk)
        if np.any(sv[part, -1] < floor[part]):
            assert np.all(np.abs(smin[part] - sv[part, -1]) <= slack[part])
            assert np.allclose(smax[part], sv[part, 0], rtol=1e-12, atol=0)
        elif np.all(sv[part, -1] > 2 * floor[part]):
            assert np.allclose(smin[part], floor[part], rtol=1e-13, atol=0)
            assert np.allclose(smax[part], fro[part], rtol=1e-13, atol=0)


@pytest.mark.parametrize("extra", [0, 2])
def test_certificate_sends_one_chunk_to_the_svd(extra):
    # Six packets of four columns, in chunks of two.  Packet 3 has smin^2 at
    # tau/4: above what a shift without the c^2 factor would demand, below
    # what the certificate proves.  Its chunk alone takes the SVD.
    c, chunk = 4, 2
    rng = np.random.default_rng(5)
    svals = np.tile(np.logspace(0, -2, c), (6, 1))
    svals[3, -1] = 0.0
    fro = np.linalg.norm(svals, axis=1)
    svals[3, -1] = certified_smin(c, fro[3]) / np.sqrt(2)
    blocks = conditioned_packets(rng, svals, c + extra)
    smin, smax, x, sv, fro = certify_solve(blocks, 2, chunk, 6)
    assert np.isfinite(x).all()
    exact = np.zeros(6, dtype=bool)
    exact[2:4] = True
    assert np.allclose(smin[exact], sv[exact, -1], rtol=1e-6, atol=0)
    assert np.allclose(smax[exact], sv[exact, 0], rtol=1e-12, atol=0)
    assert np.allclose(smin[~exact], certified_smin(c, fro[~exact]), rtol=1e-13, atol=0)
    assert np.allclose(smax[~exact], fro[~exact], rtol=1e-13, atol=0)
    assert np.all(smin[~exact] < sv[~exact, -1])


# ---------------------------------------------------------------------------
# the node certificate: Gautschi bounds of the power blocks clear packets

@st.composite
def node_tables(draw):
    """(nodes, m, n, N, omega, T, chunk, seed): complex nodes on L = m n P
    points, some blocks with two nodes 10^-e apart relatively (e up to 16,
    so some coincide), an extras set of any size and a chunk of 1..P + 1
    packets."""
    m, n = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 3, 7]))
    N, P, T = draw(st.sampled_from([m, m + 2])), draw(st.integers(1, 6)), draw(st.integers(1, 2))
    L, seed = m * n * P, draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    nodes = rand_complex(rng, L) * draw(st.sampled_from([0.3, 1.0, 3.0]))
    for e in draw(st.lists(st.floats(0, 16), max_size=4)):
        g, (i, j) = rng.integers(L // m), rng.choice(m, 2, replace=False)
        nodes[g + j * (L // m)] = nodes[g + i * (L // m)] * (1 + 10.0 ** -e)
    omega = draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=m))
    return nodes, m, n, N, tuple(sorted(omega)), T, draw(st.integers(1, P + 1)), seed


@settings(derandomize=True, max_examples=150, deadline=None)
@given(node_tables())
def test_node_certificate_brackets_and_bits(case):
    nodes, m, n, N, omega, T, chunk, seed = case
    L = len(nodes)
    P, cols, rows = L // (m * n), m * n, len(omega) + n * N
    table, idx = systems.power_rows(nodes, N), systems.packet_indices(L, m, n, np.arange(P))
    phase = systems.phase_rows(m, n, omega)
    rhs = rand_complex(np.random.default_rng(seed + 1), (P, rows, T))

    def blocks_of(part):
        return systems.gather_blocks(table, idx[part])
    packet_nodes = nodes[idx]
    floors = systems.packet_floors(packet_nodes)
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (cols + T)):
        smin, smax, x = systems.solve_packets(P, phase, rhs, nodes=packet_nodes)
        # The reference certifies every chunk the old way, by its Cholesky test.
        _, _, ref = systems.solve_packets(P, phase, rhs, blocks_of=blocks_of)
    # Each packet's R as the solve forms it, from the QR of [A | b].  The node
    # bracket takes ||A||_F, which the solve forms from the nodes, square
    # blocks or tall.
    A = systems.extended_stack(blocks_of(slice(0, P)), phase)
    fro = np.linalg.norm(A, axis=(1, 2))
    R = np.concatenate([A, rhs], axis=2)
    if rows > cols:
        R = np.triu(np.linalg.qr(R, mode="raw")[0].swapaxes(1, 2)[:, :cols])
    sv = np.linalg.svd(R[..., :cols], compute_uv=False)
    bracket = floors - 16 * rows * (cols + 1) * EPS * fro
    cleared = bracket >= certified_smin(cols, fro)
    assert np.allclose(smin[cleared], bracket[cleared], rtol=1e-12, atol=0)
    assert np.allclose(smax[cleared], fro[cleared], rtol=1e-13, atol=0)
    assert np.all(smin[cleared] <= sv[cleared, -1])
    assert np.all(smax[cleared] >= sv[cleared, 0] * (1 - 1e-12))
    # A cleared packet is never rank deficient.
    assert np.isfinite(x[cleared]).all()
    # A cleared packet with square blocks (N = m) is solved from its nodes,
    # with or without extras rows; every other packet keeps the bits of the
    # QR and LU solve.
    nodal = cleared & (N == m)
    assert np.array_equal(x[~nodal], ref[~nodal], equal_nan=True)
    for i in np.flatnonzero(nodal):
        assert np.array_equal(x[i], node_solve_alone(packet_nodes[i], rhs[i], phase))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(node_tables())
def test_each_kernel_takes_packets_of_one_step(case):
    # Every packet's step is decided before any is solved: the node solve for
    # a cleared packet with square blocks, the QR under its node bracket for a
    # cleared tall one, the QR with the certificate for the rest.  The node
    # kernel, each assembled chunk with its QR, and the certificate each see
    # packets of one step, and every packet is solved once.
    nodes, m, n, N, omega, T, chunk, seed = case
    P, cols, rows = len(nodes) // (m * n), m * n, len(omega) + n * N
    packet_nodes = nodes[systems.packet_indices(len(nodes), m, n, np.arange(P))]
    phase = systems.phase_rows(m, n, omega)
    rhs = rand_complex(np.random.default_rng(seed + 1), (P, rows, T))
    lower, upper = systems._node_brackets(packet_nodes, N, np.linalg.norm(phase / cols), rows, cols)
    cleared = lower >= certified_smin(cols, upper)
    step = np.where(cleared, 0 if N == m else 1, 2)
    events = []
    kernel, assemble, qr, certify = (systems._nodal_solve, systems.extended_stack,
                                     np.linalg.qr, systems._certify)

    def packets_of(values, table):
        # The packets whose rows of ``table`` the (k, ...) values are.
        match = (table.reshape(1, P, -1) == values.reshape(len(values), 1, -1)).all(axis=2)
        assert np.all(match.sum(axis=1) == 1)
        return match.argmax(axis=1)

    def node_spy(chunk_nodes, b, *args, **kwargs):
        events.append(("node", packets_of(np.moveaxis(b, -1, 0), rhs)))
        return kernel(chunk_nodes, b, *args, **kwargs)

    def assemble_spy(blocks, chunk_phase):
        # Row 1 of a power block holds its nodes.
        events.append(("assemble", packets_of(blocks[:, :, 1], packet_nodes)))
        return assemble(blocks, chunk_phase)

    def qr_spy(A, *args, **kwargs):
        events.append(("qr", len(A)))
        return qr(A, *args, **kwargs)

    def certify_spy(R):
        events.append(("certify", len(R)))
        return certify(R)
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (cols + T)), \
            mock.patch.object(systems, "_nodal_solve", node_spy), \
            mock.patch.object(systems, "extended_stack", assemble_spy), \
            mock.patch.object(np.linalg, "qr", qr_spy), \
            mock.patch.object(systems, "_certify", certify_spy):
        systems.solve_packets(P, phase, rhs, nodes=packet_nodes)
    solved, assembled = [], None
    for kind, what in events:
        if kind == "node":
            assert set(step[what]) == {0}
            solved += what.tolist()
        elif kind == "assemble":
            assert len(set(step[what])) == 1 and step[what[0]] > 0
            solved += what.tolist()
            assembled = what
        elif kind == "qr":
            assert rows > cols and what == len(assembled)
        else:
            assert step[assembled[0]] == 2 and what == len(assembled)
    assert sorted(solved) == list(range(P))
    assert sum(kind == "certify" for kind, _ in events) == sum(
        kind == "assemble" and step[what[0]] == 2 for kind, what in events)


@pytest.mark.parametrize("make, m, n, omega, L, node_calls, qrs", [
    (HEAT, 5, 7, (1, 2), 8960, 4, [11, 11, 11, 7]),
    (RCOS, 3, 3, (1,), 36864, 14, [2]),
])
def test_uncleared_packets_share_their_chunks(make, m, n, omega, L, node_calls, qrs):
    # The uncleared packets are chunked among themselves, so no chunk runs
    # both the node kernel and the QR: chunks of both kinds of packets took 12
    # node-kernel calls on the heat case, and one QR per uncleared packet on
    # the raised-cosine one.
    a = make(L)
    calls = {"node": 0, "qr": []}
    kernel, qr = systems._nodal_solve, np.linalg.qr

    def node_spy(*args, **kwargs):
        calls["node"] += 1
        return kernel(*args, **kwargs)

    def qr_spy(A, *args, **kwargs):
        calls["qr"].append(len(A))
        return qr(A, *args, **kwargs)
    f = rand_signal(L, 3)
    with mock.patch.object(systems, "_nodal_solve", node_spy), \
            mock.patch.object(np.linalg, "qr", qr_spy):
        rec = ds.reconstruct_extended(ds.forward(f, a, m, m, n, omega), a, m, n, omega)
    assert calls == {"node": node_calls, "qr": qrs}
    assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)


# ---------------------------------------------------------------------------
# the node solve: cleared square packets by Bjorck-Pereyra, without assembly

def ref_solve_packets(blocks_of, P, phase, rhs, floors=None):
    """The solve by assembly: every packet assembled with its right-hand
    sides and bracketed on its R (A itself for a square packet), solved by
    LU.  With ``floors`` a packet whose node bracket, on ||R||_F, clears it
    reports that bracket; the other packets are chunked among themselves,
    as the solve chunks them, and each chunk takes the certificate."""
    cols = phase.shape[1]
    _, rows, trials = rhs.shape
    A = np.concatenate([systems.extended_stack(blocks_of(np.arange(P)), phase), rhs], axis=2)
    if rows > cols:
        A = np.triu(np.linalg.qr(A, mode="raw")[0].swapaxes(1, 2)[:, :cols])
    R, b = A[..., :cols], A[..., cols:]
    smax = np.linalg.norm(R, axis=(1, 2))
    smin = np.full(P, -np.inf) if floors is None else floors - 16 * rows * (cols + 1) * EPS * smax
    left = np.flatnonzero(smin < certified_smin(cols, smax))
    for chunk in systems._chunks(len(left), rows, cols + trials):
        part = left[chunk]
        smin[part], smax[part] = systems._certify(R[part])
    ok = smin > systems.RANK_TOL * smax
    R[~ok] = np.eye(cols)
    x = np.linalg.solve(R, b)
    x[~ok] = np.nan
    return smin, smax, x


def node_solve_alone(nodes, b, phase=None):
    """x of one packet with the (n, m) ``nodes`` of its power blocks, the
    extras rows of ``phase`` (none by default) and right-hand side b, each
    a call of its own with the packet axis last and of length one: without
    extras rows, each block on its own through the kernel, from its nodes
    and m times its rows of b; with them, the node solve of this packet
    alone."""
    n, m = nodes.shape
    if phase is not None and len(phase):
        x = systems._nodal_solve(nodes.T[..., None], b[..., None], phase / (m * n))
        return x[..., 0].transpose(2, 0, 1).reshape(n * m, -1)
    return np.concatenate([systems.solve_vandermonde(nodes[k][:, None],
                                                     b[k * m:(k + 1) * m, :, None] * m)[..., 0]
                           for k in range(n)])


# Frozen reference: the node kernels as they were with the packet axis
# first, each step's inner loop over the rows or columns of one packet.
# The packet-last kernels keep their bits.

def ref_solve_vandermonde(nodes, b):
    m = nodes.shape[-1]
    x = nodes[..., None]
    for k in range(m - 1):
        b[:, k + 1:] -= x[:, k:k + 1] * b[:, k:-1]
    for k in range(m - 2, -1, -1):
        b[:, k + 1:] /= x[:, k + 1:] - x[:, :m - k - 1]
        b[:, k:-1] -= b[:, k + 1:]
    return b


def ref_solve_vandermonde_primal(nodes, b):
    m = nodes.shape[-1]
    x = nodes[..., None]
    for k in range(m - 1):
        np.divide(b[:, k + 1:] - b[:, k:-1], x[:, k + 1:] - x[:, :m - k - 1], out=b[:, k + 1:])
    for k in range(m - 2, -1, -1):
        b[:, k:-1] -= x[:, k:k + 1] * b[:, k + 1:]
    return b


def ref_hermitian_solve(S, r):
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


def ref_nodal_solve(nodes, b, E):
    """x (k, n m, T) of the packets with (k, n, m) ``nodes`` and (k, rows,
    T) right-hand sides b, all in one call of the packet-first kernel."""
    k, n, m = nodes.shape
    off, T = len(E), b.shape[-1]
    nodes = nodes.reshape(k * n, m)
    if not off:
        y = b[:, off:] * m
        return ref_solve_vandermonde(nodes, y.reshape(k * n, m, T)).reshape(y.shape)
    Z = np.empty((k, n * m, off), dtype=complex)
    Z[:] = E.conj().T * m
    ref_solve_vandermonde_primal(nodes.conj(), Z.reshape(k * n, m, off))
    y = np.concatenate([b[:, off:], Z], axis=2)
    y *= m
    ref_solve_vandermonde(nodes, y.reshape(k * n, m, T + off))
    x0, G = y[..., :T], y[..., T:]
    S = (Z.conj()[..., None] * Z[:, :, None]).cumsum(axis=1)[:, -1] + np.eye(off)
    Ex0 = E.T[:, :, None] * x0[:, :, None]
    w = ref_hermitian_solve(S, b[:, :off] - np.cumsum(Ex0, axis=1, out=Ex0)[:, -1])
    x = G[..., :1] * w[:, :1]
    for o in range(1, off):
        x += G[..., o:o + 1] * w[:, o:o + 1]
    x += x0
    return x


def nodes_of_kind(rng, kind, shape):
    """Complex nodes of modulus about 1, real ones in (0, 1] as a heat
    response has, or nodes near the unit circle as the plain filter has."""
    if kind == "complex":
        return rand_complex(rng, shape)
    if kind == "real":
        return np.exp(-rng.uniform(0, 6, shape)) + 0j
    return rng.uniform(0.5, 1, shape) * np.exp(2j * np.pi * rng.uniform(0, 1, shape))


@st.composite
def square_node_cases(draw):
    """(nodes, m, n, rhs, chunk): nodes of one kind, times 0.3, 1 or 3, on L
    = m n P points, some blocks with two nodes 10^-e apart relatively (e up
    to 16, so some coincide and chunks mix cleared and other packets); T or,
    as a mirrored solve passes, 2 T right-hand-side columns, the mirror
    columns of packet 0 zero; a chunk of 1..P + 1 packets."""
    m, n = draw(st.sampled_from([1, 2, 3, 5, 7])), draw(st.sampled_from([1, 3]))
    P, T, mirrored = draw(st.integers(1, 8)), draw(st.integers(1, 2)), draw(st.booleans())
    L, rng = m * n * P, np.random.default_rng(draw(st.integers(0, 2**16)))
    nodes = nodes_of_kind(rng, draw(st.sampled_from(["complex", "real", "circle"])), L)
    nodes *= draw(st.sampled_from([0.3, 1.0, 3.0]))
    for e in draw(st.lists(st.floats(0, 16), max_size=4 if m > 1 else 0)):
        g, (i, j) = rng.integers(L // m), rng.choice(m, 2, replace=False)
        nodes[g + j * (L // m)] = nodes[g + i * (L // m)] * (1 + 10.0 ** -e)
    rhs = rand_complex(rng, (P, n * m, 2 * T if mirrored else T))
    rhs[0, :, T:] = 0
    return nodes, m, n, rhs, draw(st.integers(1, P + 1))


def node_solve_case(nodes, m, n, rhs):
    """(packet_nodes, blocks_of, phase, floors) of the square packets on a
    node table: the (P, n, m) nodes that the solve takes, and the power
    blocks that the reference assembles."""
    L, P = len(nodes), len(rhs)
    table, idx = systems.power_rows(nodes, m), systems.packet_indices(L, m, n, np.arange(P))

    def blocks_of(part):
        return systems.gather_blocks(table, idx[part])
    packet_nodes = nodes[idx]
    floors = systems.packet_floors(packet_nodes)
    return packet_nodes, blocks_of, systems.phase_rows(m, n, ()), floors


@settings(derandomize=True, max_examples=150, deadline=None)
@given(square_node_cases())
def test_node_solve_keeps_decisions_and_bits(case):
    nodes, m, n, rhs, chunk = case
    P, rows, width = rhs.shape
    cols = rows                                   # square packets
    packet_nodes, blocks_of, phase, floors = node_solve_case(nodes, m, n, rhs)
    solved, kernel = [], systems.solve_vandermonde

    def spy(x, b):
        solved.append(x.shape[-1])              # systems: one per cleared block
        return kernel(x, b)
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (cols + width)):
        with mock.patch.object(systems, "solve_vandermonde", spy):
            smin, smax, x = systems.solve_packets(P, phase, rhs, nodes=packet_nodes)
        ref_smin, ref_smax, ref = ref_solve_packets(blocks_of, P, phase, rhs, floors)
    A = systems.extended_stack(blocks_of(slice(0, P)), phase)
    fro = np.linalg.norm(A, axis=(1, 2))
    cleared = floors - 16 * rows * (cols + 1) * EPS * fro >= certified_smin(cols, fro)
    # The cleared set is the assembled path's, and only its blocks take the
    # kernel.  Its brackets take ||A||_F from |x|^2 of the nodes, not from
    # the powers; every other packet keeps its brackets and x bit for bit.
    assert sum(solved) == n * np.count_nonzero(cleared)
    assert np.allclose(smin, ref_smin, rtol=1e-14, atol=0)
    assert np.allclose(smax, ref_smax, rtol=1e-14, atol=0)
    assert np.array_equal(smin[~cleared], ref_smin[~cleared])
    assert np.array_equal(smax[~cleared], ref_smax[~cleared])
    assert np.array_equal(x[~cleared], ref[~cleared], equal_nan=True)
    # A cleared packet has the bits of the kernel applied to it alone, in any
    # chunk, and those of the packet-first kernel.
    for i in np.flatnonzero(cleared):
        assert np.array_equal(x[i], node_solve_alone(packet_nodes[i], rhs[i]))
    assert np.array_equal(x[cleared], ref_nodal_solve(packet_nodes[cleared], rhs[cleared],
                                                      phase / cols))
    # Both solves err by at most about m eps kappa ||x|| for the condition
    # number kappa of the packet matrix, so they agree to twice that.
    if cleared.any():
        sv = np.linalg.svd(A[cleared], compute_uv=False)
        kappa = sv[:, 0] / sv[:, -1]
        gap = np.linalg.norm(x[cleared] - ref[cleared], axis=(1, 2))
        assert np.all(gap <= 2 * m * EPS * kappa * np.linalg.norm(ref[cleared], axis=(1, 2)))


def test_node_solve_bits_hold_past_the_elision_size():
    # The recover plain filter at L = 36864, four trials, each run of cleared
    # packets in one chunk: the kernel's products reach 0.8 MB, past numpy's
    # 256 KiB temporary-elision size, and each cleared packet still has the
    # bits of the kernel applied to it alone.  Packets 5 and 6 have
    # coincident and close nodes, so they are left to the certificate, as one
    # chunk of their own that takes the SVD: a NaN and an exact smin.
    L, m, T = 36864, 3, 4
    nodes = plain_filter(L).response.copy()
    nodes[5 + L // m] = nodes[5]
    nodes[6 + L // m] = nodes[6] * (1 + 1e-9)
    P = L // m
    rhs = rand_complex(np.random.default_rng(12), (P, m, T))
    packet_nodes, blocks_of, phase, floors = node_solve_case(nodes, m, 1, rhs)
    with mock.patch.object(systems, "_CHUNK_BYTES", 4 * 2**20):
        assert len(systems._chunks(P, m, m + T)) == 1
        smin, smax, x = systems.solve_packets(P, phase, rhs, nodes=packet_nodes)
        ref_smin, ref_smax, ref = ref_solve_packets(blocks_of, P, phase, rhs, floors)
    assert np.isnan(x[5]).all() and np.array_equal(x[[5, 6]], ref[[5, 6]], equal_nan=True)
    assert np.array_equal(smin[[5, 6]], ref_smin[[5, 6]])
    for i in [0, 4, 7, 1000, P // 2, P - 1]:
        assert np.array_equal(x[i], node_solve_alone(packet_nodes[i], rhs[i]))
    gap = np.linalg.norm(np.nan_to_num(x - ref), axis=(1, 2))
    assert np.all(gap <= 1e-14 * np.linalg.norm(np.nan_to_num(ref), axis=(1, 2)))


@pytest.mark.parametrize("T, S", [(1, 7), (3, 4096)])
def test_kernel_operand_forms_keep_their_bits_in_any_layout(T, S):
    # The node kernels promise a packet the same bits in any chunk.  That
    # rests on numpy's complex loops: a product, quotient or difference with
    # its operands in a fixed order has the same bits in one long contiguous
    # run, in runs of one packet and with the packet axis first, where a
    # node is broadcast over a packet's slab.  The kernels' step forms (a
    # broadcast node row times a (T, S) slab, a quotient by node gaps, a
    # difference), three ways; at S = 4096 every temporary is past numpy's
    # 256 KiB elision size.  If another numpy build moves bits in the node
    # solve, this names the cause.
    rng = np.random.default_rng(T)
    m = 4
    x, b = rand_complex(rng, (m, S)), rand_complex(rng, (m, T, S))

    def packet_last(x, b):
        x = x[:, None]
        return (x[:1] * b[1:]) / (x[1:] - x[:-1]) - b[:-1]

    def packet_first(x, b):
        x, b = x.T[..., None], b.transpose(2, 0, 1)
        return ((x[:, :1] * b[:, 1:]) / (x[:, 1:] - x[:, :-1]) - b[:, :-1]).transpose(1, 2, 0)
    run = packet_last(x, b)
    assert np.array_equal(run, np.concatenate([packet_last(x[:, s:s + 1], b[..., s:s + 1])
                                               for s in range(S)], axis=-1))
    assert np.array_equal(run, packet_first(x, b))


def test_node_solve_keeps_its_bits_in_one_element_steps():
    # m = n = T = |omega| = 1: every step of a packet alone is a one-element
    # operation, and numpy takes another complex multiply for one element
    # when the operands differ in rank.  Each kernel operand pair has one
    # rank, so a packet alone keeps the bits of its chunk.  The extras row
    # is a random complex one, so that no product is exact.
    rng = np.random.default_rng(5)
    P = 64
    nodes, rhs = rand_complex(rng, (P, 1, 1)), rand_complex(rng, (P, 2, 1))
    phase = rand_complex(rng, (1, 1))
    z = systems._nodal_solve(nodes.transpose(2, 1, 0), rhs.transpose(1, 2, 0), phase)
    x = z.transpose(3, 2, 0, 1).reshape(P, 1, 1)
    for i in range(P):
        assert np.array_equal(x[i], node_solve_alone(nodes[i], rhs[i], phase))
    assert np.array_equal(x, ref_nodal_solve(nodes, rhs, phase))


@st.composite
def extended_node_cases(draw):
    """(nodes, m, n, omega, A, rhs, chunk, noisy): nodes of one kind, times
    0.3, 1 or 3, on L = m n P points, some blocks with two nodes 10^-e apart
    relatively (e up to 16, so some coincide and chunks mix cleared and
    other packets); an extras set of 0..m shifts; T or 2 T right-hand-side
    columns b = A x, with relative noise 1e-2 when ``noisy``; a chunk of
    1..P + 1 packets."""
    m, n = draw(st.sampled_from([1, 2, 3, 5])), draw(st.sampled_from([1, 3, 7]))
    P, T, mirrored = draw(st.integers(1, 6)), draw(st.integers(1, 2)), draw(st.booleans())
    L, rng = m * n * P, np.random.default_rng(draw(st.integers(0, 2**16)))
    nodes = nodes_of_kind(rng, draw(st.sampled_from(["complex", "real", "circle"])), L)
    nodes *= draw(st.sampled_from([0.3, 1.0, 3.0]))
    for e in draw(st.lists(st.floats(0, 16), max_size=3 if m > 1 else 0)):
        g, (i, j) = rng.integers(L // m), rng.choice(m, 2, replace=False)
        nodes[g + j * (L // m)] = nodes[g + i * (L // m)] * (1 + 10.0 ** -e)
    omega = tuple(sorted(draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=m))))
    table, idx = systems.power_rows(nodes, m), systems.packet_indices(L, m, n, np.arange(P))
    A = systems.extended_stack(systems.gather_blocks(table, idx), systems.phase_rows(m, n, omega))
    rhs, noisy = A @ rand_complex(rng, (P, m * n, 2 * T if mirrored else T)), draw(st.booleans())
    if noisy:
        rhs += 1e-2 * np.linalg.norm(rhs, axis=1, keepdims=True) / np.sqrt(rhs.shape[1]) \
            * rand_complex(rng, rhs.shape)
    return nodes, m, n, omega, A, rhs, draw(st.integers(1, P + 1)), noisy


@settings(derandomize=True, max_examples=150, deadline=None)
@given(extended_node_cases())
def test_extended_node_solve_keeps_decisions_and_bits(case):
    nodes, m, n, omega, A, rhs, chunk, noisy = case
    P, rows, width = rhs.shape
    cols, off = m * n, len(omega)
    table, idx = systems.power_rows(nodes, m), systems.packet_indices(len(nodes), m, n, np.arange(P))
    packet_nodes = nodes[idx]
    floors = systems.packet_floors(packet_nodes)
    phase = systems.phase_rows(m, n, omega)

    def blocks_of(part):
        return systems.gather_blocks(table, idx[part])
    solved, kernel = [], systems._nodal_solve

    def spy(nodes, *args, **kwargs):
        solved.append(nodes.shape[-1])          # packets, the last axis
        return kernel(nodes, *args, **kwargs)
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (cols + width)):
        with mock.patch.object(systems, "_nodal_solve", spy):
            smin, smax, x = systems.solve_packets(P, phase, rhs, nodes=packet_nodes)
        ref_smin, ref_smax, ref = ref_solve_packets(blocks_of, P, phase, rhs, floors)
    # The assembled path clears a packet by ||R||_F of its QR (A itself when
    # square); the node path by ||A||_F from |x|^2 of the nodes and the
    # phase.  Both clear the same packets, and only those take the kernel.
    R = np.concatenate([A, rhs], axis=2)
    if rows > cols:
        R = np.triu(np.linalg.qr(R, mode="raw")[0].swapaxes(1, 2)[:, :cols])
    fro = np.linalg.norm(R[..., :cols], axis=(1, 2))
    cleared = floors - 16 * rows * (cols + 1) * EPS * fro >= certified_smin(cols, fro)
    fro = np.linalg.norm(A, axis=(1, 2))
    assert np.array_equal(cleared,
                          floors - 16 * rows * (cols + 1) * EPS * fro >= certified_smin(cols, fro))
    assert sum(solved) == np.count_nonzero(cleared)
    # Brackets within 1e-14 of the assembled path's, bitwise where not
    # cleared; so are x, the NaN set and the rank rule.
    assert np.allclose(smin, ref_smin, rtol=1e-14, atol=0)
    assert np.allclose(smax, ref_smax, rtol=1e-14, atol=0)
    assert np.array_equal(smin[~cleared], ref_smin[~cleared])
    assert np.array_equal(smax[~cleared], ref_smax[~cleared])
    assert np.array_equal(x[~cleared], ref[~cleared], equal_nan=True)
    assert np.array_equal(np.isnan(x).any(axis=(1, 2)), np.isnan(ref).any(axis=(1, 2)))
    assert np.array_equal(smin <= systems.RANK_TOL * smax,
                          ref_smin <= systems.RANK_TOL * ref_smax)
    # A cleared packet has the bits of the kernel applied to it alone, in any
    # chunk, and each column those of the kernel applied to that column
    # alone; all of them have the bits of the packet-first kernel.
    for i in np.flatnonzero(cleared):
        assert np.array_equal(x[i], node_solve_alone(packet_nodes[i], rhs[i], phase))
        for t in range(width):
            assert np.array_equal(x[i, :, t:t + 1],
                                  node_solve_alone(packet_nodes[i], rhs[i, :, t:t + 1], phase))
    assert np.array_equal(x[cleared], ref_nodal_solve(packet_nodes[cleared], rhs[cleared],
                                                      phase / cols))
    # Against the QR solve: a gap of c eps (cond(A) ||x|| + cond(D)^2 ||r|| /
    # ||A||_2) for the least-squares residual r and the block diagonal D,
    # within a factor 4 (cond(D)^2, not cond(A)^2: the kernel solves through
    # D's nodes).
    for i in np.flatnonzero(cleared):
        s_a = np.linalg.svd(A[i], compute_uv=False)
        s_d = np.linalg.svd(A[i, off:], compute_uv=False)
        res = np.linalg.norm(rhs[i] - A[i] @ ref[i])
        tol = 4 * (cols + 1) * EPS * (s_a[0] / s_a[-1] * np.linalg.norm(ref[i])
                                      + (s_d[0] / s_d[-1]) ** 2 * res / s_a[0])
        assert np.linalg.norm(x[i] - ref[i]) <= tol, (noisy, tol)


def near_cutoff_filter(P, worst, ratio):
    """An m = 2 plain filter on L = 2 P points: every packet has nodes 1, -1,
    except packet ``worst`` with nodes 0, d, whose smin is ``ratio`` times
    the grid's largest smin."""
    response = np.concatenate([np.ones(P), -np.ones(P)]).astype(complex)
    response[[worst, worst + P]] = 0.0, 2 * ratio
    return ds.filter_table(response)


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("ratio", [0.25, 0.5, 0.99, 1.01, 1.5, 1.99, 2.5, 3.0])
def test_grid_check_near_cutoff_agrees_with_exact_scan(monkeypatch, ratio, chunked):
    # The node bound clears every packet with nodes 1, -1, in one chunk as in
    # chunks of four: each reports its node bracket sqrt(2)/4, half its smin
    # sqrt(2)/2, and smax = ||A||_F = 1.  The worst packet alone fails the
    # Cholesky test and takes the SVD, so its smin is exact, sqrt(2)/2 times
    # the ratio times SINGULAR_TOL.  It is regular by its bracket from
    # 2 SINGULAR_TOL, a ratio of 2 sqrt(2), on; below that it alone takes the
    # exact scan, which settles it as singular below tol times the largest
    # node bracket, a ratio of 1/2.  Between the two, the scan of every
    # packet decides.
    P, worst, m = 40, 17, 2
    if chunked:
        monkeypatch.setattr(systems, "_CHUNK_BYTES", 4 * 16 * m * (m + 1))
    a = near_cutoff_filter(P, worst, ratio * systems.SINGULAR_TOL)
    system = systems.PlainSystem(a, m, m)
    smins = systems.smin_family(systems.plain_family(system))
    assert smins[worst] / smins.max() == pytest.approx(ratio * systems.SINGULAR_TOL, rel=1e-6)
    expected = systems.singular_indices(smins, systems.SINGULAR_TOL)
    assert systems.singular_set(system) == expected
    calls = []
    solve, scan = systems.solve_packets, systems.packet_smins

    def spy_solve(*args, **packets):
        calls.append("solve")
        return solve(*args, **packets)

    def spy_scan(matrices_of, count, rows, cols):
        calls.append(int(count))
        return scan(matrices_of, count, rows, cols)
    monkeypatch.setattr(systems, "solve_packets", spy_solve)
    monkeypatch.setattr(systems, "packet_smins", spy_scan)
    samples = ds.forward(rand_signal(2 * P, 3), a, m, m)
    if expected:
        with pytest.raises(SingularSystem) as err:
            ds.reconstruct_plain(samples, a, m)
        assert err.value.indices == expected
    else:
        assert np.isfinite(ds.reconstruct_plain(samples, a, m)).all()
    scans = [] if ratio > 2 * np.sqrt(2) else [1] if ratio < 0.5 else [1, P]
    assert calls == ["solve"] + scans
    assert expected == ([worst] if ratio < 1 else [])


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("make", [RCOS, ds.filter_delta])
def test_plain_grid_check_assembles_each_open_chunk_once(monkeypatch, make, N):
    # The raised-cosine plain grid is singular at 0 and 1/2: the solve's
    # brackets leave those two factored packets open, and only they take the
    # exact scan.  A delta filter leaves every packet open, so the scan
    # decomposes every chunk of the D = P/2 + 1 factored packets.  Either way
    # each chunk is assembled once.
    L, m = 3 * 2 * (systems._CHUNK_BYTES // (16 * 3 * 3)) + 6, 3
    a = make(L)
    seen = []
    scan = systems.packet_smins

    def spy(matrices_of, count, rows, cols):
        parts = []

        def counted(part):
            parts.append(part.tolist())
            return matrices_of(part)
        smin, smax = scan(counted, count, rows, cols)
        chunks = [list(range(count))[part] for part in systems._chunks(count, rows, cols)]
        seen.append((parts, chunks, smin))
        return smin, smax
    monkeypatch.setattr(systems, "packet_smins", spy)
    with pytest.raises(SingularSystem) as err:
        ds.reconstruct_plain(ds.forward(rand_signal(L, 5), a, m, N), a, m)
    [(parts, chunks, smin)] = seen
    assert parts == chunks and np.isfinite(smin).all()
    if make is RCOS:
        assert len(smin) == 2 and err.value.indices == [0, L // (2 * m)]
    else:
        assert len(chunks) > 1 and len(smin) == L // (2 * m) + 1
        assert err.value.indices == list(range(L // m))


def test_zero_grid_is_singular_everywhere():
    # A zero generator makes every packet zero: the brackets are all zero and
    # clear nothing, so the grid check lists every index, as an exact scan does.
    L, m = 72, 3
    gen = ds.make_generator({"kind": "table", "L": L, "K": 1,
                             "fourier_values": [0.0] * (2 * L + 1)})
    line = ds.gaussian_response(2.0)
    samples = ds.sis_forward(rand_signal(L, 4), gen, line, m)
    with pytest.raises(SingularSystem) as err:
        ds.sis_reconstruct(samples, gen, line, m, 1, (), K=1)
    assert err.value.indices == list(range(L // m))


def test_scan_chunk_counts_tall_blocks():
    # The exact scan of a tall plain grid (N > m) must keep its chunks to the
    # byte cap: sized for square blocks, N = 10 m held ten times as much.
    # smin_family scans a whole plain family (5.9 MB here) through the same
    # chunks.
    m, N, P = 3, 30, 4096
    rng = np.random.default_rng(8)
    blocks = rand_complex(rng, (P, 1, N, m))
    family = systems.plain_family(systems.PlainSystem(RCOS(m * P), m, N))
    assert family.nbytes > 20 * systems._CHUNK_BYTES
    for scan in (lambda: systems.packet_smins(lambda part: blocks[part, 0], P, N, m),
                 lambda: systems.smin_family(family)):
        tracemalloc.start()
        try:
            scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An assembled chunk, the SVD's copy of it and the (P,) outputs: 0.38 MB
        # here, against 2.8 MB with chunks sized for square blocks.
        assert peak <= 4 * systems._CHUNK_BYTES


def test_qr_solve_leaves_rank_deficient_packets_unsolved():
    rng = np.random.default_rng(3)
    blocks = rand_complex(rng, (4, 1, 3, 3))
    blocks[2, 0, 2] = blocks[2, 0, 1]                  # an exactly singular packet
    rhs = rand_complex(rng, (4, 3, 2))
    smin, smax, x = systems.solve_packets(4, np.zeros((0, 3)), rhs,
                                          blocks_of=lambda part: blocks[part])
    assert np.flatnonzero(smin <= systems.RANK_TOL * smax).tolist() == [2]
    assert np.isnan(x[2]).all() and np.isfinite(x[[0, 1, 3]]).all()


@st.composite
def hermitian_solves(draw):
    """(trial sample sets, table, n, omega, chunk): an (N, L) table whose rows,
    powers of plain_filter perturbed at random, are each made exactly
    Hermitian; odd or even P; T = 1..3 trials of noise samples; and a chunk
    of 1..D + 1 of the D = P//2 + 1 factored packets."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    P, T = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    N, L = m + draw(st.integers(0, 2)), m * n * P
    omega = tuple(sorted(draw(st.sets(st.integers(0, m * n - 1), max_size=2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = plain_filter(L).response
    table = np.array([exactly_hermitian(base ** j + 0.1 * rand_complex(rng, L))
                      for j in range(N)])
    trials = [noisy_samples(L, m, n, omega, N, rng.integers(2**16)) for _ in range(T)]
    return trials, table, n, omega, draw(st.integers(1, P // 2 + 2))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hermitian_solves())
def test_mirrored_solve_matches_all_packet_solve(case):
    trials, table, n, omega, chunk = case
    m, L, T = trials[0].m, trials[0].L, len(trials)
    P = L // (m * n)
    assert systems._is_hermitian(table)
    y = [np.array([s.y[j] for s in trials]) for j in range(len(table))]
    extras = {c: np.array([s.extras[c] for s in trials]) for c in omega}
    rows, cols = len(omega) + n * len(table), m * n
    width = T if P <= 2 else 2 * T           # packets 1..(P - 1)//2 carry a mirror
    with mock.patch.object(systems, "_CHUNK_BYTES", chunk * 16 * rows * (cols + width)):
        rec = recon._solve(y, extras, m, n, omega, table=table)
    assert rec.shape == (T, L)
    for t, s in enumerate(trials):
        ref = all_packet_solve(s, table, n, omega)
        assert np.linalg.norm(rec[t] - ref) <= 1e-12 * np.linalg.norm(ref)


def big_node_filter(L, m, bad):
    """plain_filter with the m nodes of plain packet ``bad`` set to 1e6, -1e6
    and 0.5: that packet has smin/smax about 7e-13, far below RANK_TOL, while
    its smin of about 1 is no outlier on the grid."""
    response = plain_filter(L).response.copy()
    response[systems.packet_indices(L, m, 1, [bad])[0, 0]] = [1e6, -1e6, 0.5]
    return ds.filter_table(response)


def test_plain_rank_deficient_packet_raises_after_grid_check():
    L, m, bad = 72, 3, 5
    a = big_node_filter(L, m, bad)
    s = np.linalg.svd(systems.plain_family(systems.PlainSystem(a, m, m)), compute_uv=False)
    assert systems.singular_indices(s[:, -1], systems.SINGULAR_TOL) == []
    assert np.flatnonzero(s[:, -1] <= systems.RANK_TOL * s[:, 0]).tolist() == [bad]
    with pytest.raises(RankDeficient) as err:
        ds.reconstruct_plain(ds.forward(rand_signal(L, 3), a, m, m), a, m)
    assert err.value.rho == bad


def coincident_filter(L, m, n, bad, count=2):
    """plain_filter with the first ``count`` nodes of block 0 of packet ``bad``
    made equal: a block of rank m - count + 1, exactly singular."""
    response = plain_filter(L).response.copy()
    idx = systems.packet_indices(L, m, n, [bad])[0, 0]
    response[idx[1:count]] = response[idx[0]]
    return ds.filter_table(response)


@pytest.mark.parametrize("n, omega, error", [
    (1, None, SingularSystem),
    (3, (), RankDeficient),
    (3, (0,), RankDeficient),        # the c = 0 extras row cannot tell equal nodes apart
])
@pytest.mark.parametrize("N", [3, 5])          # square and tall packets
def test_singular_packets_end_in_named_errors(n, omega, error, N):
    L, m, bad = 72, 3, 2
    a = coincident_filter(L, m, n, bad)
    s = ds.forward(rand_signal(L, 4), a, m, N, n, omega or ())
    with pytest.raises(error) as err:
        if omega is None:
            ds.reconstruct_plain(s, a, m)
        else:
            ds.reconstruct_extended(s, a, m, n, omega, force=True)
    assert (err.value.indices if error is SingularSystem else [err.value.rho]) == [bad]


def test_singular_packets_end_in_named_errors_through_the_cli(tmp_path, capfd):
    L = 72
    # Three equal nodes leave a rank deficiency of 2, more than the one extras row repairs.
    table = [[z.real, z.imag] for z in coincident_filter(L, 3, 3, 2, count=3).response]
    seen = []
    for n, omega in ((1, []), (3, [1])):
        cfg = cli.ExperimentConfig(mode="roundtrip", filter={"kind": "table", "table": table},
                                   m=3, n=n, omega=omega, L=L, seed=1)
        code = cli.run(cfg, out_dir=tmp_path / str(n))
        seen.append((code, json.loads(capfd.readouterr().err)["error"]))
    assert seen == [(2, "SingularSystem"), (2, "RankDeficient")]


def test_qr_solve_memory_flat_in_packets():
    # Beyond its (D, cols, 2 T) output the solve holds about two chunks of
    # [A | b] (the QR's input and working copy), whatever P: with 2 T = 32
    # right-hand-side columns per packet, as a mirrored solve of T trials
    # passes, beside 9 matrix columns, a chunk that counted only the matrix
    # would hold 4.5 times as many bytes.  Packets with their node floors are
    # solved from their nodes, square plain ones and raised-cosine ones with
    # an extras row, and the kernel's temporaries stay per chunk as well.
    m, T = 3, 16
    rng = np.random.default_rng(7)
    for make, n, omega, nodal in ((RCOS, 3, (1,), False), (plain_filter, 1, (), True),
                                  (RCOS, 3, (1,), True)):
        excess = []
        for P in (64, 4096):
            L, D = m * n * P, P // 2 + 1
            a = make(L)
            table = systems.power_rows(a.response, m)
            idx = systems.packet_indices(L, m, n, np.arange(D))
            packets = {"blocks_of": lambda part: systems.gather_blocks(table, idx[part])}
            if nodal:
                packets = {"nodes": a.response[idx]}
            rhs = rand_complex(rng, (D, len(omega) + n * m, 2 * T))
            tracemalloc.start()
            try:
                _, _, x = systems.solve_packets(D, systems.phase_rows(m, n, omega), rhs,
                                                **packets)
                excess.append(tracemalloc.get_traced_memory()[1] - x.nbytes)
            finally:
                tracemalloc.stop()
        assert excess[1] <= 3 * systems._CHUNK_BYTES
        assert excess[1] <= 1.25 * excess[0] + 2 * systems._CHUNK_BYTES
