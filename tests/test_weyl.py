import re
import time
import tracemalloc

import numpy as np
import pytest

from quditmagic.errors import BudgetExceededError, UnsupportedDimensionError
from quditmagic.measures import sre
from quditmagic.phasespace import Dims, phase_points, point_index, symplectic_product
from quditmagic.weyl import (
    displace,
    displacement_matrix,
    equal_up_to_phase,
    global_phase,
    phase_normalize,
    tau_exponent,
    unit_phase,
)

import oracles
from oracles import displacement_table, kron_displacement, phase_point_table, point


def test_displacement_identity_and_shift():
    d3 = Dims(3, 1)
    assert np.allclose(displacement_matrix(point(0, 0, d3), d3), np.eye(3))
    X = displacement_matrix(point(1, 0, d3), d3)
    v = np.zeros(3)
    v[0] = 1
    assert np.allclose(X @ v, np.eye(3)[:, 1])  # |0> -> |1>


@pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2),
                                 (5, 1), (5, 2), (7, 1)])
def test_displacement_matrix_matches_the_kronecker_product(d, N):
    dims = Dims(d, N)
    for chi in phase_points(dims):
        T = displacement_matrix(chi, dims)
        assert np.max(np.abs(T - kron_displacement(chi, dims))) <= 1e-15, chi


def test_quarter_turn_roots_are_exact():
    # exp(2 pi i k / order) leaves a 1e-16 residue at -1, i and -i
    for k in range(-8, 9):
        assert unit_phase(k, 2) == (1, -1)[k % 2]
        assert unit_phase(k, 4) == (1, 1j, -1, -1j)[k % 4]
    assert unit_phase(3, 6) == -1 and unit_phase(5, 10) == -1 and unit_phase(6, 8) == -1j
    assert unit_phase(1, 3) == np.exp(2j * np.pi / 3)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_qubit_displacements_are_exactly_real_or_imaginary(N):
    dims = Dims(2, N)
    for chi in phase_points(dims):
        T = displacement_matrix(chi, dims)
        assert np.all((T.real == 0) | (T.imag == 0)), chi


def test_displacement_matrix_refused_before_allocating():
    # a dense T_chi goes through the transform plan's check: 120 D^2 bytes
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=re.escape("(7.5 GiB)")):
            displacement_matrix(np.zeros(26, dtype=np.int64), Dims(2, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 < 2 ** 26 * 8  # the 2^13 x 2^13 identity alone is 512 MiB


@pytest.mark.parametrize("d,N", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_displace_matches_the_take_along_axis_gather(d, N):
    # broadcast shapes: labels against one matrix, one label against rows, labels against a row
    dims, L, k = Dims(d, N), 7, 4
    rng = np.random.default_rng(100 * d + N)

    def vectors(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def labels(*shape):  # out of range both ways, reduced mod d by `displace`
        return rng.integers(-d, 2 * d, size=shape + (2 * N,))

    for chi, v in ((labels(L, 1), vectors(dims.D, dims.D)), (labels(), vectors(k, dims.D)),
                   (labels(k), vectors(dims.D))):
        got, want = displace(chi, v, dims), oracles.take_along_displace(chi, v, dims)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_displace_peaks_below_three_outputs():
    # the power stack `_unitary_from_codes` asks for on (3,2): 50 unitaries, d = 3 powers
    dims = Dims(3, 2)
    rng = np.random.default_rng(5)
    chi = rng.integers(0, 3, size=(50, 3, 1, 4))
    v = rng.normal(size=(50, 1, 9, 9)) + 1j * rng.normal(size=(50, 1, 9, 9))
    displace(chi, v, dims)  # the transform plan is built outside the trace
    tracemalloc.start()
    try:
        out = displace(chi, v, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (50, 3, 9, 9)
    assert peak <= 2.7 * out.nbytes, peak / out.nbytes


def test_displacement_composition_example():
    # tau X Z squared equals T_(2,2) since <(1,1),(1,1)> = 0
    d3 = Dims(3, 1)
    T11 = displacement_matrix(point(1, 1, d3), d3)
    T22 = displacement_matrix(point(2, 2, d3), d3)
    assert np.allclose(T11 @ T11, T22)


@pytest.mark.parametrize("d", [3, 5])
def test_composition_commutation_exhaustive(d):
    dims = Dims(d, 1)
    T = displacement_table(dims)
    pts = phase_points(dims)
    t = tau_exponent(d)
    for i, c1 in enumerate(pts):
        prod = np.einsum('jk,bkl->bjl', T[i], T)
        sp = symplectic_product(c1[None, :], pts, d)
        idx = [point_index((c1 + c2) % d, dims) for c2 in pts]
        expected = np.exp(-2j * np.pi * (t * sp) / d)[:, None, None] * T[idx]
        assert np.max(np.abs(prod - expected)) < 1e-12
        # commutation: T1 T2 = omega^-<1,2> T2 T1
        rev = np.einsum('bjk,kl->bjl', T, T[i])
        comm = np.exp(-2j * np.pi * symplectic_product(c1[None, :], pts, d)
                      / d)[:, None, None] * rev
        # note <c1, c2> enters with c1 first: T_c1 T_c2 = w^-<c1,c2> T_c2 T_c1
        assert np.max(np.abs(prod - comm)) < 1e-12


def test_adjoint_inversion_trace_orthogonality():
    for d in (3, 5):
        dims = Dims(d, 1)
        T = displacement_table(dims)
        pts = phase_points(dims)
        for i, c in enumerate(pts):
            j = point_index((-c) % d, dims)
            assert np.allclose(T[i].conj().T, T[j], atol=1e-12)
        traces = np.einsum('kii->k', T)
        assert abs(traces[0] - d) < 1e-12
        assert np.max(np.abs(traces[1:])) < 1e-12
        gram = np.einsum('aij,bij->ab', T, T.conj())
        assert np.max(np.abs(gram - d * np.eye(d * d))) < 1e-11


def test_phase_point_identities_d3():
    dims = Dims(3, 1)
    A = phase_point_table(dims)
    T = displacement_table(dims)
    assert np.allclose(A[0], sum(T) / 3)                      # A_0 definition
    assert np.max(np.abs(A - np.transpose(A.conj(), (0, 2, 1)))) < 1e-12
    assert np.allclose(A.sum(axis=0), 3 * np.eye(3))
    gram = np.einsum('aij,bji->ab', A, A)
    assert np.max(np.abs(gram - 3 * np.eye(9))) < 1e-11       # all 81 pairs
    traces = np.einsum('kii->k', A)
    assert np.max(np.abs(traces - 1.0)) < 1e-12


def test_covariance_exhaustive_d3():
    dims = Dims(3, 1)
    A = phase_point_table(dims)
    T = displacement_table(dims)
    pts = phase_points(dims)
    for i, c1 in enumerate(pts):
        conj = np.einsum('jk,bkl,ml->bjm', T[i], A, T[i].conj())
        idx = [point_index((c1 + c2) % 3, dims) for c2 in pts]
        assert np.max(np.abs(conj - A[idx])) < 1e-12


def test_pair_and_triple_products_d3():
    # A1 A2 = w^(2<1,2>) T_(2(chi1-chi2));  composing again gives
    # A1 A2 A3 = w^(2(<1,2>+<2,3>+<3,1>)) A_(chi1 - chi2 + chi3)
    dims = Dims(3, 1)
    A = phase_point_table(dims)
    T = displacement_table(dims)
    pts = phase_points(dims)
    rng = np.random.default_rng(1)
    for _ in range(30):
        i, j, k = rng.integers(0, 9, size=3)
        c1, c2, c3 = pts[i], pts[j], pts[k]
        pair_phase = unit_phase(2 * symplectic_product(c1, c2, 3), 3)
        pair = pair_phase * T[point_index((2 * (c1 - c2)) % 3, dims)]
        assert np.allclose(A[i] @ A[j], pair, atol=1e-12)
        phase = unit_phase(2 * (symplectic_product(c1, c2, 3)
                                + symplectic_product(c2, c3, 3)
                                + symplectic_product(c3, c1, 3)), 3)
        target = phase * A[point_index((c1 - c2 + c3) % 3, dims)]
        assert np.allclose(A[i] @ A[j] @ A[k], target, atol=1e-12)


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
def test_phase_normalize_rows_match_the_scalar_phase(tol):
    # every row of a batch, bit for bit, against the one-vector reference:
    # leading zeros, entries at and just above tol, and rows with none above it
    rng = np.random.default_rng(11)
    v = rng.normal(size=(4000, 5)) + 1j * rng.normal(size=(4000, 5))
    v[::3, 0] = 0
    v[::5, :2] = tol
    v[::7, 2] = 1.5 * tol
    v[::11] *= tol
    batch = phase_normalize(v.reshape(40, 100, 5), tol).reshape(v.shape)
    for row, got in zip(v, batch):
        assert np.array_equal(got, oracles.scalar_phase_normalize(row, tol))
    small = np.full((2, 3), 0.5j * tol)
    assert np.array_equal(phase_normalize(small, tol), small)


def test_equal_up_to_phase():
    a = np.array([1, 1j]) / np.sqrt(2)
    assert equal_up_to_phase(a, np.exp(0.37j) * a)
    assert not equal_up_to_phase(a, np.array([1, -1j]) / np.sqrt(2))


def test_budget_refuses_table_and_caches():
    psi = np.zeros(2 ** 13, dtype=np.complex128)
    psi[0] = 1.0
    # 56 D^2 bytes for the transform plan and 64 D^2 for one call's transients
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape(f"{120 * 4 ** 13:.3g} bytes")):
        sre(psi, Dims(2, 13))
    assert time.perf_counter() - start < 1.0


def test_malformed_arguments_refused():
    with pytest.raises(UnsupportedDimensionError, match="odd d"):
        tau_exponent(2)
    assert global_phase(np.ones(2), np.ones(3)) is None
    # B is zero within tolerance: A is its multiple only when A is zero too
    assert global_phase(np.zeros(2), np.full(2, 1e-14)) == 1.0
    assert global_phase(np.array([1.0, 0.0]), np.zeros(2)) is None
