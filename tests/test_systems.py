"""Per-frequency matrix assembly, singularity structure, kernel repair."""

import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

import dynsamp as ds
from dynsamp import systems
from dynsamp.errors import (CoincidentNodes, EvenM, GridMiss, MalformedSamples,
                            NonDivisibleLength, ShapeMismatch)


def test_build_plain_delta_all_ones():
    a = ds.filter_delta(12)
    M = ds.build_plain(a, 3, 3, 1)
    assert np.allclose(M, 1.0)
    assert abs(ds.det_plain(ds.PlainSystem(a, 3, 3), 1)) == 0.0


def test_build_plain_nodes_and_det():
    a = ds.filter_raised_cosine(12, 1.0)
    M = ds.build_plain(a, 3, 3, 1)
    nodes = M[1]
    expect = [(1 + np.cos(2 * np.pi * f)) / 2 for f in (1 / 12, 5 / 12, 3 / 4)]
    assert np.abs(nodes - expect).max() < 1e-15
    assert np.allclose(M[0], 1.0)
    # node-product value, cross-checked against a dense LU determinant
    d = ds.det_plain(ds.PlainSystem(a, 3, 3), 1)
    assert abs(d) == pytest.approx(3 * np.sqrt(3) / 32, rel=1e-12)
    assert abs(d) == pytest.approx(abs(np.linalg.det(M)), rel=1e-10)
    assert abs(d) == pytest.approx(0.16238, abs=5e-6)


def test_det_zero_at_degenerate_frequency():
    a = ds.filter_raised_cosine(12, 1.0)
    assert ds.det_plain(ds.PlainSystem(a, 3, 3), 0) == 0.0


def test_det_requires_square():
    a = ds.filter_raised_cosine(12, 1.0)
    with pytest.raises(ShapeMismatch):
        ds.det_plain(ds.PlainSystem(a, 3, 4), 0)


def plain_table_filter(L):
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi) * (2 + np.cos(2 * np.pi * xi)) / 3)


@pytest.mark.parametrize("make", [lambda L: ds.filter_heat(L, 0.5),
                                  lambda L: ds.filter_raised_cosine(L, 1.0), plain_table_filter],
                         ids=["heat", "raised cosine", "plain table"])
@pytest.mark.parametrize("N", [3, 6])
def test_build_plain_powers_its_nodes_alone(make, N):
    # The packet's columns of the (N, L) power table, bit for bit, without
    # building the table: its peak was two tables (3.5 MB at N = 3).
    L, m = 36864, 3
    a = make(L)
    table = systems.power_rows(a.response, N)
    for rho in (0, 1, 5000, L // m - 1):
        assert np.array_equal(ds.build_plain(a, m, N, rho), table[:, rho::L // m])
    del table
    tracemalloc.start()
    try:
        ds.build_plain(a, m, N, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * N * L


def test_build_plain_rejects_nondivisor():
    a = ds.filter_raised_cosine(10, 1.0)
    with pytest.raises(NonDivisibleLength):
        ds.build_plain(a, 3, 3, 0)


@pytest.mark.parametrize("rho", [-1, 24])
def test_grid_index_out_of_range_rejected(rho):
    # without the check the index would wrap around the L/m = 24 grid
    a = ds.filter_raised_cosine(72, 1.0)
    system = ds.build_sis_system(ds.make_generator({"kind": "sinc"}), ds.identity_response(),
                                 3, 72, 8)
    for call in (lambda: ds.build_plain(a, 3, 3, rho),
                 lambda: ds.det_plain(ds.PlainSystem(a, 3, 3), rho),
                 lambda: ds.build_extended(a, 3, 3, (1,), rho),
                 lambda: ds.sis_matrix(system, rho)):
        with pytest.raises(GridMiss, match=rf"rho must lie in \[0, 24\), got rho={rho}"):
            call()


@pytest.mark.parametrize("c", [-1, 9])
def test_u_row_shift_out_of_range_rejected(c):
    with pytest.raises(MalformedSamples, match=rf"shift c={c} must lie in \[0, 9\)"):
        ds.u_row(c, 0, 3, 3)


def test_columns_are_geometric_progressions():
    a = ds.filter_heat(20, 0.5)
    M = ds.build_plain(a, 4, 6, 2)
    for l in range(4):
        node = M[1, l]
        assert np.abs(M[:, l] - node ** np.arange(6)).max() < 1e-12


def test_smin_zero_at_degenerate_frequency():
    a = ds.filter_raised_cosine(60, 1.0)
    s = np.linalg.svd(ds.build_plain(a, 3, 3, 0), compute_uv=False)[-1]
    assert s < 1e-10


def test_inverse_norm_is_reciprocal_smin():
    a = ds.filter_raised_cosine(12, 1.0)
    M = ds.build_plain(a, 3, 3, 1)
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    inv_norm = np.linalg.norm(np.linalg.inv(M), 2)
    assert inv_norm == pytest.approx(1 / smin, rel=1e-10)


@pytest.mark.parametrize("make,m", [(lambda L: ds.filter_raised_cosine(L, 1.0), 5),
                                    (lambda L: ds.filter_heat(L, 0.5), 5)])
def test_singular_set_two_points(make, m):
    L = 20 * m
    a = make(L)
    assert ds.singular_set(ds.PlainSystem(a, m, m), tol=1e-8) == [0, (L // m) // 2]


def test_singular_set_delta_everything():
    a = ds.filter_delta(12)
    assert ds.singular_set(ds.PlainSystem(a, 3, 3)) == list(range(4))


def test_singular_set_empty_for_nonsymmetric():
    L = 48
    xi = np.arange(L) / L
    a = ds.filter_table(np.exp(-2j * np.pi * xi) * (2 + np.cos(2 * np.pi * xi)))
    assert ds.singular_set(ds.PlainSystem(a, 3, 3)) == []


def test_kernel_basis_m3():
    kb0 = ds.kernel_basis(3, 0.0)
    assert [v.tolist() for v in kb0.vectors] == [[0, 1, -1]]
    kb5 = ds.kernel_basis(3, 0.5)
    assert [v.tolist() for v in kb5.vectors] == [[1, 0, -1]]


def test_kernel_basis_m5():
    kb = ds.kernel_basis(5, 0.0)
    assert [v.tolist() for v in kb.vectors] == [[0, 1, 0, 0, -1], [0, 0, 1, -1, 0]]


def test_kernel_basis_rejects_even():
    with pytest.raises(EvenM):
        ds.kernel_basis(4, 0.0)


@pytest.mark.parametrize("m", [3, 5, 7])
def test_kernel_vectors_annihilated(m):
    L = 24 * m
    a = ds.filter_raised_cosine(L, 1.0)
    step = L // m
    for at, rho in ((0.0, 0), (0.5, step // 2)):
        M = ds.build_plain(a, m, m, rho)
        scale = np.linalg.norm(M, 2)
        for v in ds.kernel_basis(m, at).vectors:
            assert np.linalg.norm(M @ v) < 1e-10 * scale


@pytest.mark.parametrize("m", [3, 5, 7])
def test_kernel_dimension(m):
    L = 24 * m
    a = ds.filter_heat(L, 0.5)
    step = L // m
    for rho in (0, step // 2):
        M = ds.build_plain(a, m, m, rho)
        svals = np.linalg.svd(M, compute_uv=False)
        assert int(np.sum(svals < 1e-10 * svals[0])) == (m - 1) // 2


def test_u_row_trivial_shift():
    for k in range(3):
        assert np.allclose(ds.u_row(0, k, 3, 3), 1.0)


def test_u_row_values():
    row = ds.u_row(1, 0, 3, 1)
    expect = [1, np.exp(-2j * np.pi / 3), np.exp(-4j * np.pi / 3)]
    assert np.abs(row - expect).max() < 1e-15


def test_u_row_orthogonality():
    m, n, k = 3, 5, 2
    for c in range(m * n):
        for d in range(m * n):
            ip = np.sum(ds.u_row(c, k, m, n) * np.conj(ds.u_row(d, k, m, n)))
            if (c - d) % m == 0:
                expect = m * np.exp(-2j * np.pi * (c - d) * k / (m * n))
                assert abs(ip - expect) < 1e-12
            else:
                assert abs(ip) < 1e-12


def test_extended_degenerates_to_plain():
    a = ds.filter_raised_cosine(12, 1.0)
    A = ds.build_extended(a, 3, 1, (), 1)
    assert np.abs(A - ds.build_plain(a, 3, 3, 1) / 3).max() < 1e-15


def test_extended_layout_and_scalings():
    a = ds.filter_raised_cosine(72, 1.0)
    m, n, omega = 3, 3, (1, 2)
    step, packet = 72 // m, 72 // (m * n)
    for rho in (0, 3, 7):
        A = ds.build_extended(a, m, n, omega, rho)
        assert A.shape == (len(omega) + m * n, m * n)
        assert np.abs(np.abs(A[:len(omega)]) - 1 / (m * n)).max() < 1e-15
        for k in range(n):
            blk = A[len(omega) + k * m: len(omega) + (k + 1) * m,
                    k * m:(k + 1) * m]
            plain = ds.build_plain(a, m, m, (rho + k * packet) % step)
            assert np.abs(blk - plain / m).max() < 1e-15
        # off-diagonal part of the lower block rows is exactly zero
        lower = A[len(omega):].copy()
        for k in range(n):
            lower[k * m:(k + 1) * m, k * m:(k + 1) * m] = 0.0
        assert np.abs(lower).max() == 0.0


def test_extended_full_rank_with_extras():
    a = ds.filter_raised_cosine(72, 1.0)
    for rho in range(24):
        A = ds.build_extended(a, 3, 3, (1,), rho)
        assert np.linalg.svd(A, compute_uv=False)[-1] > 1e-8


def test_extended_rank_deficiency_without_extras():
    a = ds.filter_raised_cosine(72, 1.0)
    m, n = 3, 3
    # packet rho=0 couples xi in {0, 1/3, 2/3}: one degenerate block
    A = ds.build_extended(a, m, n, (), 0)
    svals = np.linalg.svd(A, compute_uv=False)
    assert int(np.sum(svals < 1e-10 * svals[0])) == 1
    # packet containing xi = 1/2: with L=72, xi=1/6 -> rho=4, blocks {1/6, 1/2, 5/6}
    A = ds.build_extended(a, m, n, (), 4)
    svals = np.linalg.svd(A, compute_uv=False)
    assert int(np.sum(svals < 1e-10 * svals[0])) == 1


def test_extended_rejects_nondivisor():
    a = ds.filter_raised_cosine(12, 1.0)
    with pytest.raises(NonDivisibleLength):
        ds.build_extended(a, 3, 3, (1,), 0)


def test_extended_at_matches_grid():
    a = ds.filter_raised_cosine(72, 1.0)
    A1 = ds.build_extended(a, 3, 3, (1,), 5)
    A2 = ds.build_extended_at(a, 3, 3, (1,), 5 / 24)
    assert np.abs(A1 - A2).max() < 1e-13


class SineMatrices(NamedTuple):
    """Kernel-repair products U_k V and U_k W with their smallest singular values."""

    B: np.ndarray
    D: np.ndarray
    smin_B: float
    smin_D: float


def sine_test_matrices(m, n, k):
    """Products of the extra-sample phase rows with the two kernel bases.

    Uses shifts c = 1..(m-1)/2.  Full rank of both products certifies that
    the extra rows repair the rank loss at the degenerate frequencies.
    """
    if m % 2 == 0:
        raise EvenM("kernel repair matrices require odd m")
    U = np.array([ds.u_row(c, k, m, n) for c in range(1, (m - 1) // 2 + 1)])
    B = U @ np.array(ds.kernel_basis(m, 0.0).vectors, dtype=float).T
    D = U @ np.array(ds.kernel_basis(m, 0.5).vectors, dtype=float).T
    return SineMatrices(B, D, float(np.linalg.svd(B, compute_uv=False)[-1]),
                        float(np.linalg.svd(D, compute_uv=False)[-1]))


def test_sine_matrices_m3_closed_form():
    m, n = 3, 4
    for k in range(3):
        sm = sine_test_matrices(m, n, k)
        assert sm.B.shape == (1, 1)
        expect = -2j * np.exp(-2j * np.pi * k / (m * n)) * np.sin(2 * np.pi / 3)
        assert abs(sm.B[0, 0] - expect) < 1e-12
        assert abs(abs(sm.B[0, 0]) - 2 * np.sin(2 * np.pi / 3)) < 1e-12
        assert sm.smin_B > 0 and sm.smin_D > 0


def test_sine_matrices_closed_forms_match_products():
    # Direct products against the closed forms
    #   B(c,j) = -2i e^{-2 pi i c k/(m n)} sin(2 pi c j / m)
    #   D(c,j) = -2i e^{-2 pi i c k/(m n)} e^{+i pi c/m} sin(pi c (2j+1) / m)
    m, n, k = 5, 7, 2
    sm = sine_test_matrices(m, n, k)
    half = (m - 1) // 2
    for ci, c in enumerate(range(1, half + 1)):
        ph = np.exp(-2j * np.pi * c * k / (m * n))
        for ji in range(half):
            bexp = -2j * ph * np.sin(2 * np.pi * c * (ji + 1) / m)
            dexp = -2j * ph * np.exp(1j * np.pi * c / m) * np.sin(np.pi * c * (2 * ji + 1) / m)
            assert abs(sm.B[ci, ji] - bexp) < 1e-12
            assert abs(sm.D[ci, ji] - dexp) < 1e-12


def test_sine_matrices_full_rank_m5_n7():
    sm = sine_test_matrices(5, 7, 0)
    assert sm.smin_B > 1e-10 and sm.smin_D > 1e-10


def test_sine_matrices_reject_even():
    with pytest.raises(EvenM):
        sine_test_matrices(4, 3, 0)


def test_gautschi_nodes_hand_value():
    assert ds.gautschi_bound_nodes([0.0, 1.0]) == pytest.approx(2 * np.sqrt(2), rel=1e-14)
    M = np.vander([0.0, 1.0], 2, increasing=True).T
    true_norm = np.linalg.norm(np.linalg.inv(M), 2)
    assert true_norm <= 2 * np.sqrt(2)


def test_gautschi_dominates_inverse_norm():
    a = ds.filter_raised_cosine(12, 1.0)
    bound = ds.gautschi_bound(a, 3, 0.25)
    M = ds.build_plain(a, 3, 3, 1)
    assert 1 / np.linalg.svd(M, compute_uv=False)[-1] <= bound


def test_gautschi_coincident_nodes():
    with pytest.raises(CoincidentNodes):
        ds.gautschi_bound_nodes([1.0, 1.0, 0.5])


def test_gautschi_diverges_near_collision():
    small = ds.gautschi_bound_nodes([0.0, 1e-9, 0.5])
    assert small > 1e8


# The Python double loops that det_plain and gautschi_bound_nodes replaced,
# kept as references.

def loop_det(nodes):
    det = 1.0 + 0.0j
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            det *= nodes[j] - nodes[i]
    return det


def loop_gautschi(nodes):
    nodes = np.asarray(nodes, dtype=complex)
    m = len(nodes)
    diffs = np.abs(nodes[None, :] - nodes[:, None])
    best = 0.0
    for i in range(m):
        prod = 1.0
        for j in range(m):
            if j != i:
                prod *= (1.0 + abs(nodes[j])) / diffs[i, j]
        best = max(best, prod)
    return float(np.sqrt(m) * best)


def complex_table(L):
    xi = np.arange(L) / L
    return ds.filter_table(np.exp(-2j * np.pi * xi) * (2 + np.cos(2 * np.pi * xi)) / 3)


@pytest.mark.parametrize("a, m, rel", [
    (ds.filter_raised_cosine(2304, 1.0), 3, 0.0),
    (ds.filter_heat(840, 0.5), 5, 0.0),
    # numpy's vector complex arithmetic may round differently from the scalar loop
    (complex_table(280), 5, 1e-15),
    (complex_table(280), 7, 1e-15),
])
def test_node_products_match_loops(a, m, rel):
    system = ds.PlainSystem(a, m, m)
    step = a.L // m
    dets = ds.det_plain(system, np.arange(step))
    # The bound of every grid node set at once, as the solve takes it: from
    # the gathered nodes of the plain packets.
    bounds = systems.gautschi_bounds(a.response[systems.packet_indices(a.L, m, 1,
                                                                       np.arange(step))])[:, 0]
    for rho in range(step):
        nodes = a.response[rho + np.arange(m) * step]
        ref = loop_det(nodes)
        for det in (ds.det_plain(system, rho), dets[rho]):
            assert abs(det - ref) <= rel * abs(ref)
        if a.symmetric_decreasing and rho in (0, step // 2):
            assert bounds[rho] == np.inf  # coincident nodes at the degenerate frequencies
            continue
        bound, ref = ds.gautschi_bound_nodes(nodes), loop_gautschi(nodes)
        assert abs(bound - ref) <= rel * ref
        assert bounds[rho] == bound


def tensor_gautschi_bounds(nodes):
    """The former gautschi_bounds: every ordered pair's separation and its
    ratio in one (..., m, m) tensor, the diagonal set to 1 afterwards."""
    nodes = np.asarray(nodes, dtype=complex)
    m = nodes.shape[-1]
    with np.errstate(divide="ignore", over="ignore"):
        ratios = ((1.0 + np.abs(nodes))[..., None, :]
                  / np.abs(nodes[..., None, :] - nodes[..., :, None]))
        ratios[..., np.arange(m), np.arange(m)] = 1.0
        return np.sqrt(m) * np.prod(ratios, axis=-1).max(axis=-1)


@pytest.mark.parametrize("a, m", [
    (complex_table(36864), 3),                    # the recover plain filter
    (complex_table(280), 7),
    (ds.filter_raised_cosine(36864, 1.0), 3),
    (ds.filter_heat(8960, 0.5), 5),
    (ds.filter_heat(840, 0.5), 7),
])
def test_grid_bounds_match_the_tensor_formula_bitwise(a, m):
    # Each separation is taken once and mirrored: the bounds of the gathered
    # plain packet nodes, as the solve takes them, keep every bit, and a
    # symmetric filter's coincident nodes at 0 and 1/2 still read +inf.
    step = a.L // m
    bounds = systems.gautschi_bounds(a.response[systems.packet_indices(a.L, m, 1,
                                                                       np.arange(step))])[:, 0]
    assert np.array_equal(bounds, tensor_gautschi_bounds(a.response.reshape(m, -1).T))
    if a.symmetric_decreasing:
        assert np.isinf(bounds[[0, a.L // (2 * m)]]).all()
        assert np.isfinite(np.delete(bounds, [0, a.L // (2 * m)])).all()


def test_gautschi_bounds_match_the_tensor_formula_on_random_nodes():
    # Complex node sets of every size up to 9 at scales 1e-3..1e3, with two
    # nodes 10^-e apart relatively in half the sets (coinciding for e >= 16),
    # in any leading shape and memory layout.
    rng = np.random.default_rng(3)
    for _ in range(300):
        m, P = rng.integers(1, 10), rng.integers(1, 30)
        nodes = (rng.standard_normal((P, m)) + 1j * rng.standard_normal((P, m))) \
            * 10.0 ** rng.uniform(-3, 3)
        if m > 1 and rng.random() < 0.5:
            nodes[:, 1] = nodes[:, 0] * (1 + 10.0 ** -rng.uniform(0, 17, P))
        ref = tensor_gautschi_bounds(nodes)
        assert np.array_equal(systems.gautschi_bounds(nodes), ref)
        assert np.array_equal(systems.gautschi_bounds(np.asfortranarray(nodes)), ref)
        assert np.array_equal(systems.gautschi_bounds(nodes.reshape(1, P, m)), ref[None])
        assert systems.gautschi_bounds(nodes[0]) == ref[0]
