"""Table-free Weyl transforms against the dense-table oracle.

The references below contract the dense tables of `oracles` directly; they
are the slow references for the gather-and-character path in the measures.
"""

from functools import reduce

import numpy as np
import pytest

from quditmagic.catalog import build
from quditmagic.extremality import PerturbationFrame, classify_mana, xi2_expansion
from quditmagic.measures import (
    mana,
    mixed_sre2,
    pauli_distribution,
    sre,
    sre_upper_bound,
    wigner_function,
    xi,
)
from quditmagic.phasespace import Dims

import oracles
from oracles import displacement_table, phase_point_table

# every (d, N) whose dense table is at most 20 MB
ORACLE_DIMS = ([Dims(2, n) for n in range(1, 6)] + [Dims(3, n) for n in range(1, 4)]
               + [Dims(5, n) for n in range(1, 3)])
TOL = 1e-12


def rand_state(D, rng):
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    return v / np.linalg.norm(v)


def rand_frame(dims, rng):
    base = rand_state(dims.D, rng)
    v = rand_state(dims.D, rng)
    v = v - np.vdot(base, v) * base
    return PerturbationFrame(dims, base, v / np.linalg.norm(v))


def dense_pauli_distribution(psi, dims):
    T = displacement_table(dims)
    return np.abs(np.einsum('i,kij,j->k', psi.conj(), T, psi)) ** 2 / dims.D


def dense_mixed_sre2(rho, dims):
    traces = np.abs(np.einsum('kij,ji->k', displacement_table(dims), rho))
    return float(-np.log(np.sum(traces ** 4) / np.sum(traces ** 2)))


def dense_wigner(op, dims):
    return np.einsum('kij,ji->k', phase_point_table(dims), op) / dims.D


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_transforms_match_dense_oracle(dims):
    rng = np.random.default_rng(dims.d * 100 + dims.N)
    for _ in range(2):
        psi = rand_state(dims.D, rng)
        P = pauli_distribution(psi, dims).probs
        assert np.max(np.abs(P - dense_pauli_distribution(psi, dims))) < TOL
        # xi squares its own distribution in place, so a second call is unchanged
        assert xi(psi, dims) == xi(psi, dims)

        p = rng.uniform(0.05, 0.5)
        rho = (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(dims.D) / dims.D
        assert abs(mixed_sre2(rho, dims) - dense_mixed_sre2(rho, dims)) < TOL
        # the flat diagonal gather reads rho in any memory layout: the adjoint
        # of an exactly Hermitian rho holds the same entries in Fortran order
        herm = (rho + rho.conj().T) / 2
        assert np.array_equal(herm.T.conj(), herm)
        assert not herm.T.conj().flags.c_contiguous
        m2 = mixed_sre2(herm, dims)
        assert mixed_sre2(herm.T.conj(), dims) == m2
        assert mixed_sre2(np.asfortranarray(herm), dims) == m2

        if dims.odd:
            H = rng.normal(size=(dims.D,) * 2) + 1j * rng.normal(size=(dims.D,) * 2)
            H = H + H.conj().T
            sigma = H - np.trace(H) / dims.D * np.eye(dims.D)
            for op in (rho, sigma):
                W = wigner_function(op, dims).values
                assert np.max(np.abs(W - dense_wigner(op, dims))) < TOL

        frame = rand_frame(dims, rng)
        assert np.max(np.abs(xi2_expansion(frame) - oracles.xi2_expansion(frame))) < TOL


@pytest.mark.parametrize("dims", [Dims(3, 2), Dims(2, 4)], ids=str)
def test_measures_build_no_dense_table(dims):
    rng = np.random.default_rng(7)
    psi = rand_state(dims.D, rng)
    rho = 0.8 * np.outer(psi, psi.conj()) + 0.2 * np.eye(dims.D) / dims.D
    frame = rand_frame(dims, rng)
    sre(psi, dims)
    xi(psi, dims, 3.0)
    pauli_distribution(psi, dims)
    mixed_sre2(rho, dims)
    xi2_expansion(frame)
    if dims.odd:
        wigner_function(rho, dims)
        mana(psi, dims)
        classify_mana(frame)


def test_ten_qubit_t_state():
    # D = 1024, where the dense displacement table would need about 16 TB
    t = build("qubit:T0")
    dims = Dims(2, 10)
    psi = reduce(np.kron, [t] * 10)
    m2 = sre(psi, dims)
    assert abs(m2 - 10 * sre(t, Dims(2, 1))) < 1e-9
    assert 0 <= m2 <= sre_upper_bound(dims)
    P = pauli_distribution(psi, dims).probs
    assert abs(P.sum() - 1) < 1e-10
    assert abs(P[0] - 1 / dims.D) < 1e-15
