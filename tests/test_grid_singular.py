"""One grid-singularity check, and power-ladder spans solved from their nodes.

``systems.grid_singular`` must return the index list of an SVD of every
grid matrix, bitwise, whether the node or solve brackets settle a packet,
leave it open to its own SVD, or fall back to the scan of every matrix.  A
span table whose rows are the power ladder of its row 1 (sinc, the band
indicator) is solved from the nodes of that row, and one that is off the
ladder by a single ulp keeps the table route.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynsamp as ds
from dynsamp import recon, sis, systems
from dynsamp.errors import SingularSystem

SINC = ds.make_generator({"kind": "sinc"})
BSPLINE = ds.make_generator({"kind": "bspline", "order": 3})
GAUSS = ds.gaussian_response(2.0)
TOL = systems.SINGULAR_TOL
PROPS = settings(derandomize=True, max_examples=150, deadline=None)


def rand_signal(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def noisy_samples(L, m, n, omega, seed):
    """A span-shaped sample set holding noise: m snapshots and the extras of omega."""
    rng = np.random.default_rng(seed)
    return ds.SampleSet(y=[rand_signal(rng, L // m) for _ in range(m)],
                        extras={c: rand_signal(rng, L // (m * n)) for c in omega},
                        m=m, n=n, omega=omega)


def all_svd_rule(mats, tol=TOL):
    """The reference: singular_indices of an SVD of each matrix on its own."""
    return systems.singular_indices([np.linalg.svd(M, compute_uv=False)[-1] for M in mats], tol)


def assert_bracket_contract(lower, upper, mats):
    """lower - S/2 <= s <= upper + S/2 for the smin s of each matrix's own
    SVD, S = 16 rows (c + 1)^(3/2) eps max(upper): the contract of the
    systems module's Brackets, which grid_singular's margins rest on."""
    _, rows, cols = mats.shape
    s = np.array([np.linalg.svd(M, compute_uv=False)[-1] for M in mats])
    half = 8 * rows * (cols + 1) ** 1.5 * np.finfo(float).eps * upper.max()
    assert np.all(lower - half <= s) and np.all(s <= upper + half)


def band_table(L):
    """The sinc band as the 2 K L + 1 transform samples of a table generator, K = 1."""
    return ds.make_generator({"kind": "table", "L": L, "K": 1,
                              "fourier_values": [float(-L <= 2 * q < L)
                                                 for q in range(-L, L + 1)]})


# ---------------------------------------------------------------------------
# the routine against the all-SVD rule

def random_nodes(rng, P, m):
    """(P, 1, m) complex nodes of moduli 1e-2..10; a quarter of the packets
    get an exactly coincident pair, a quarter a pair 1e-12..1e-4 apart."""
    nodes = rand_signal(rng, (P, 1, m)) * 10.0 ** rng.uniform(-2, 1, (P, 1, m))
    if m > 1:
        pick = rng.uniform(size=P)
        nodes[pick < 0.25, 0, 1] = nodes[pick < 0.25, 0, 0]
        near = (pick >= 0.25) & (pick < 0.5)
        nodes[near, 0, 1] = nodes[near, 0, 0] * (1 + 10.0 ** rng.uniform(-12, -4, near.sum()))
    return nodes


@st.composite
def grid_cases(draw):
    """(kind, seed, m, P, tol): random node grids, the delta filter, symmetric
    filters, the identity-line sinc span and plain solves of random tables."""
    kind = draw(st.sampled_from(["random", "delta", "symmetric", "sinc_identity", "solve"]))
    m = draw(st.integers(1, 5)) if kind in ("random", "delta", "solve") else draw(
        st.sampled_from([3, 5]))
    P = draw(st.integers(1, 40)) if kind != "symmetric" else draw(st.integers(2, 60))
    tol = draw(st.sampled_from([TOL, TOL, 1e-4, 0.5])) if kind == "random" else TOL
    return kind, draw(st.integers(0, 2**31 - 1)), m, P, tol


@PROPS
@given(grid_cases())
def test_grid_singular_equals_all_svd_rule(case):
    kind, seed, m, P, tol = case
    rng = np.random.default_rng(seed)
    L = m * P
    if kind == "random":
        nodes = random_nodes(rng, P, m)
        mats = systems.power_rows(nodes[:, 0], m)
        # the response whose grid matrices these are: node l of packet rho at rho + l P
        response = nodes[:, 0].T.reshape(-1)
        seen, check = [], systems.grid_singular

        def spy(matrices_of, count, rows, cols, tol, brackets):
            seen.append(brackets)
            return check(matrices_of, count, rows, cols, tol, brackets)
        with mock.patch.object(systems, "grid_singular", spy):
            got = systems._square_singular_set(response, m, tol)
        [(lower, upper)] = seen
        assert_bracket_contract(lower, upper, mats)
        assert np.allclose(upper, np.linalg.norm(mats, axis=(1, 2)), rtol=1e-12, atol=0)
        assert got == all_svd_rule(mats, tol)
    elif kind in ("delta", "symmetric"):
        a = (ds.filter_delta(L) if kind == "delta"
             else ds.filter_raised_cosine(L, rng.uniform(0.5, 2)) if rng.uniform() < 0.5
             else ds.filter_heat(L, rng.uniform(0.1, 1)))
        system = systems.PlainSystem(a, m, m)
        expected = all_svd_rule(systems.plain_family(system))
        assert systems.singular_set(system) == expected
        if kind == "delta" and m > 1:
            assert expected == list(range(P))
    elif kind == "sinc_identity":
        system = ds.build_sis_system(SINC, ds.identity_response(), m, L, K=2)
        assert ds.sis_singular_set(system) == all_svd_rule(
            systems._grid_family(system.phi_hat, m)) == list(range(P))
    else:
        response = random_nodes(rng, 1, L)[0, 0]
        a, N = ds.filter_table(response), m + int(rng.integers(0, 3))
        idx = systems.packet_indices(L, m, 1, np.arange(P))
        expected = all_svd_rule(systems.extended_stack(systems.power_rows(response[idx], N),
                                                       np.zeros((0, m))))
        samples = ds.SampleSet(y=[rand_signal(rng, P) for _ in range(N)], m=m)
        try:
            ds.reconstruct_plain(samples, a, m)
            got = []
        except SingularSystem as err:
            got = err.indices
        except ds.RankDeficient:
            got = []
        assert got == expected
        # The solve's brackets meet the contract too, packet by packet, whether
        # its nodes clear a packet (square blocks or tall, with or without
        # extras rows) or the certificate or the SVD of R brackets it.
        n = 3 if P % 3 == 0 else 1
        omega = tuple(sorted(rng.choice(m * n, int(rng.integers(0, m + 1)), replace=False)))
        phase = systems.phase_rows(m, n, omega)
        idx = systems.packet_indices(L, m, n, np.arange(P // n))
        rhs = rand_signal(rng, (P // n, len(omega) + n * N, 1))
        mats = systems.extended_stack(systems.power_rows(response[idx], N), phase)
        for packets in ({"nodes": response[idx]},
                        {"blocks_of": lambda part: systems.power_rows(response[idx[part]], N)}):
            lower, upper, _ = systems.solve_packets(P // n, phase, rhs, **packets)
            assert_bracket_contract(lower, upper, mats)


def counted_scans(monkeypatch):
    """The packet counts of every packet_smins call, as they happen."""
    counts, scan = [], systems.packet_smins

    def spy(matrices_of, count, rows, cols):
        counts.append(int(count))
        return scan(matrices_of, count, rows, cols)
    monkeypatch.setattr(systems, "packet_smins", spy)
    return counts


@pytest.mark.parametrize("gen, line, L, decomposed", [
    (SINC, GAUSS, 2304, [2]),                      # all but xi = 0 and 1/2 settled
    (SINC, ds.heat_line_response(0.05), 576, [2]),
    (BSPLINE, GAUSS, 576, [192]),                  # no ladder: every matrix
    (SINC, ds.identity_response(), 72, [24]),      # every packet open: one scan
])
def test_span_singular_set_decomposes_only_open_packets(monkeypatch, gen, line, L, decomposed):
    system = ds.build_sis_system(gen, line, 3, L, K=384)
    expected = all_svd_rule(systems._grid_family(system.phi_hat, 3))
    counts = counted_scans(monkeypatch)
    assert ds.sis_singular_set(system) == expected
    assert counts == decomposed


def test_plain_singular_set_decomposes_only_open_packets(monkeypatch):
    a = ds.filter_raised_cosine(2304, 1.0)
    system = systems.PlainSystem(a, 3, 3)
    expected = all_svd_rule(systems.plain_family(system))
    counts = counted_scans(monkeypatch)
    assert systems.singular_set(system) == expected == [0, 384]
    assert counts == [2]


@pytest.mark.parametrize("regular, hi, value, found, scans", [
    # brackets of the regular packets at 4 TOL place the grid maximum only in
    # [4 TOL, 2]: the open packet at 1.5 TOL is neither settled, and every
    # matrix is scanned
    (4 * TOL, 2.0, 1.5 * TOL, [], [1, 5]),
    # brackets at 0.9 and 1: the open packet alone settles outside [0.9 TOL, 2 TOL)
    (0.9, 1.0, 2.5 * TOL, [], [1]),
    (0.9, 1.0, 0.5 * TOL, [3], [1]),
    (0.9, 1.0, 1.5 * TOL, [], [1, 5]),
])
def test_grid_singular_scans_every_matrix_when_the_brackets_cannot_decide(
        monkeypatch, regular, hi, value, found, scans):
    # Four identity matrices, smin 1, and packet 3 of smin ``value``, whose
    # lower bracket 0 leaves it open.
    mats = np.array([np.eye(2)] * 5, dtype=complex)
    mats[3, 1, 1] = value
    lower, upper = np.full(5, regular), np.full(5, hi)
    lower[3] = 0.0
    counts = counted_scans(monkeypatch)
    assert systems.grid_singular(lambda idx: mats[idx], 5, 2, 2, TOL, (lower, upper)) == found
    assert found == all_svd_rule(mats) and counts == scans


# ---------------------------------------------------------------------------
# power-ladder spans

@pytest.mark.parametrize("gen, line, L, m, ladder", [
    (SINC, GAUSS, 576, 3, True),
    (SINC, ds.heat_line_response(0.05), 576, 3, True),
    (band_table(72), GAUSS, 72, 3, True),
    (BSPLINE, GAUSS, 72, 3, False),
    (ds.make_generator({"kind": "bspline", "order": 5}), GAUSS, 90, 5, False),
])
def test_ladder_detection(gen, line, L, m, ladder):
    table = ds.build_sis_system(gen, line, m, L, K=384).phi_hat
    row = sis._ladder(table)
    assert (row is not None) == ladder
    if ladder:
        assert np.array_equal(row, table[1])
        assert np.array_equal(table, systems.power_rows(table[1], m))
    assert sis._ladder(table[:1]) is None            # one row holds no ladder


@pytest.mark.parametrize("L", [72, 576])
def test_ladder_span_solves_from_its_nodes(L):
    m, n, omega = 3, 3, (1, 2)
    system = ds.build_sis_system(SINC, GAUSS, m, L, K=384)
    s = noisy_samples(L, m, n, omega, 12)
    rec = ds.sis_reconstruct(s, SINC, GAUSS, m, n, omega, K=384, system=system)
    assert np.array_equal(rec, recon._solve(s.y, s.extras, m, n, omega,
                                            response=system.phi_hat[1]))
    # the table route solves the same matrices, to rounding
    by_table = recon._solve(s.y, s.extras, m, n, omega, table=system.phi_hat)
    assert np.linalg.norm(rec - by_table) <= 1e-12 * np.linalg.norm(by_table)
    # without extras both routes name the same singular indices, 0 and 1/2
    plain = noisy_samples(L, m, 1, (), 13)
    with pytest.raises(SingularSystem) as nodes:
        ds.sis_reconstruct(plain, SINC, GAUSS, m, 1, (), K=384, system=system)
    with pytest.raises(SingularSystem) as table:
        recon._solve(plain.y, {}, m, 1, None, table=system.phi_hat)
    assert nodes.value.indices == table.value.indices == [0, L // (2 * m)]


def test_table_one_ulp_off_the_ladder_takes_the_table_route():
    m, n, omega, L = 3, 3, (1, 2), 576
    system = ds.build_sis_system(SINC, GAUSS, m, L, K=384)
    table = system.phi_hat.copy()
    table[2, 5] = np.nextafter(table[2, 5].real, 2.0) + 1j * table[2, 5].imag
    assert sis._ladder(system.phi_hat) is not None and sis._ladder(table) is None
    bent = ds.SISSystem(m=m, L=L, phi_hat=table, tail_bound=system.tail_bound, K=384)
    s = noisy_samples(L, m, n, omega, 14)
    rec = ds.sis_reconstruct(s, SINC, GAUSS, m, n, omega, K=384, system=bent)
    assert np.array_equal(rec, recon._solve(s.y, s.extras, m, n, omega, table=table))
    assert ds.sis_singular_set(bent) == all_svd_rule(systems._grid_family(table, m))
