import functools
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmagic.catalog import build, entries, entry
from quditmagic.cli import main
from quditmagic.clifford import affine_from_clifford, enumerate_reduced_clifford, single_qudit_H
from quditmagic.errors import DimensionMismatchError, UnsupportedDimensionError
from quditmagic.measures import (
    group_stabilizer_fidelity,
    mana,
    mixed_sre2,
    pauli_distribution,
    sre,
    sre_from_xi,
    sre_upper_bound,
    stabilizer_fidelity,
    wigner_function,
    wigner_trace_norm,
    xi,
)
from quditmagic.phasespace import Dims, phase_points, point_index
from quditmagic.stabilizers import enumerate_stabilizer_states, max_overlap

from oracles import displacement_table, kernel_all, phase_point_table, random_clifford


def rand_state(D, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    return v / np.linalg.norm(v)


def test_wigner_uniform_and_reconstruction():
    d3 = Dims(3, 1)
    W = wigner_function(np.eye(3) / 3, d3)
    assert np.allclose(W.values, np.full(9, 1 / 9))
    psi = rand_state(3, 4)
    rho = np.outer(psi, psi.conj())
    Wv = wigner_function(rho, d3).values
    A = phase_point_table(d3)
    recon = np.einsum('k,kij->ij', Wv, A)
    assert np.allclose(recon, rho, atol=1e-12)
    assert abs(np.sum(Wv) - 1.0) < 1e-12
    # purity identity
    assert abs(3 * np.sum(Wv ** 2) - 1.0) < 1e-12


def test_wigner_rejects_qubits():
    with pytest.raises(UnsupportedDimensionError):
        wigner_function(np.eye(2) / 2, Dims(2, 1))


def test_wigner_translation_covariance():
    d3 = Dims(3, 1)
    T = displacement_table(d3)
    psi = rand_state(3, 7)
    rho = np.outer(psi, psi.conj())
    W0 = wigner_function(rho, d3).values
    chi0 = np.array([1, 2])
    rho_shift = T[point_index(chi0, d3)] @ rho @ T[point_index(chi0, d3)].conj().T
    W1 = wigner_function(rho_shift, d3).values
    pts = phase_points(d3)
    for i, c in enumerate(pts):
        j = point_index((c - chi0) % 3, d3)
        assert abs(W1[i] - W0[j]) < 1e-12


def test_mana_values():
    d3 = Dims(3, 1)
    for s in enumerate_stabilizer_states(d3):
        assert abs(wigner_trace_norm(s.vector, d3) - 1) < 1e-12
        assert abs(mana(s.vector, d3)) < 1e-12
    assert abs(wigner_trace_norm(build("qutrit:S"), d3) - 5 / 3) < 1e-12
    d5 = Dims(5, 1)
    assert abs(wigner_trace_norm(build("ququint:H,-1"), d5) - 9 / 5) < 1e-12


def test_fidelity_catalog_values():
    F, near = stabilizer_fidelity(build("qutrit:N"), dims=Dims(3, 1))
    assert abs(F - 2 / 3) < 1e-12 and len(near) == 3
    F, near = stabilizer_fidelity(build("2q:G20,1"), dims=Dims(2, 2))
    assert abs(F - 5 / 8) < 1e-12 and len(near) == 8
    F, near = stabilizer_fidelity(build("3q:CCZ"), dims=Dims(2, 3))
    assert abs(F - 9 / 16) < 1e-12 and len(near) == 8


def test_pauli_distribution_properties():
    d3 = Dims(3, 1)
    # stabilizer state: uniform 1/d on its stabilizer labels, 0 elsewhere
    for s in list(enumerate_stabilizer_states(d3))[:4]:
        P = pauli_distribution(s.vector, d3).probs
        assert abs(np.sum(P) - 1) < 1e-12
        big = np.sort(P)[::-1]
        assert np.allclose(big[:3], 1 / 3, atol=1e-12)
        assert np.max(big[3:]) < 1e-12
    psi = rand_state(3, 11)
    P = pauli_distribution(psi, d3).probs
    assert abs(np.sum(P) - 1) < 1e-12
    pts = phase_points(d3)
    for i, c in enumerate(pts):
        assert abs(P[i] - P[point_index((-c) % 3, d3)]) < 1e-12


def test_qubit_distribution_closed_form():
    # P over the reduced Paulis in Bloch angles: (1, cos^2 2t,
    # sin^2 2t cos^2 p, sin^2 2t sin^2 p)/2
    th, ph = 0.61, 1.13
    psi = np.array([np.cos(th), np.exp(1j * ph) * np.sin(th)])
    P = np.sort(pauli_distribution(psi, Dims(2, 1)).probs)[::-1]
    expect = np.sort(np.array([1.0, np.cos(2 * th) ** 2,
                               np.sin(2 * th) ** 2 * np.cos(ph) ** 2,
                               np.sin(2 * th) ** 2 * np.sin(ph) ** 2]) / 2)[::-1]
    assert np.allclose(P, expect, atol=1e-12)


def test_sre_closed_forms():
    assert abs(sre(build("qubit:T0"), Dims(2, 1)) - np.log(1.5)) < 1e-12
    assert abs(sre(build("qutrit:T0"), Dims(3, 1)) - np.log(9 / 5)) < 1e-12
    assert abs(sre(build("ququint:Bprime,-1"), Dims(5, 1)) - np.log(27 / 11)) < 1e-12
    assert abs(sre(build("2q:G16,1"), Dims(2, 2)) - np.log(25 / 12)) < 1e-12


def test_sre_contract_and_additivity():
    d3 = Dims(3, 1)
    psi = rand_state(3, 3)
    with pytest.raises(ValueError):
        sre(psi, d3, alpha=1.5)
    for alpha in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            sre(psi, d3, alpha=alpha)
        with pytest.raises(ValueError, match="finite"):
            xi(psi, d3, alpha=alpha)
    phi = rand_state(3, 5)
    both = np.kron(psi, phi)
    assert abs(sre(both, Dims(3, 2)) - sre(psi, d3) - sre(phi, d3)) < 1e-10
    assert abs(mana(both, Dims(3, 2)) - mana(psi, d3) - mana(phi, d3)) < 1e-10


def test_zero_states_and_out_of_contract_alpha_refused():
    # each refusal is a named ValueError, with no numpy warning before it
    d3 = Dims(3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (2.0, 2.5, 3.0):
            with pytest.raises(ValueError, match=r"Xi_\S+ = 0.0 is not > 0"):
                sre(np.zeros(3), d3, alpha)
        for value in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="is not > 0: a zero or non-finite state"):
                sre_from_xi(value, d3, 2.0)
        for op in (np.zeros(3), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="Wigner trace norm 0.0: the operator is zero"):
                mana(op, d3)
        for alpha in (1.0, 1.5, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="outside the supported contract"):
                sre_upper_bound(d3, alpha)
        assert abs(sre_upper_bound(d3, 2.0) - math.log(2)) < 1e-15  # (1 + 2/4) / 3 = 1/2
        assert sre_upper_bound(Dims(2, 2), 3.0) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sre_nonnegative_random(seed):
    d3 = Dims(3, 1)
    psi = rand_state(3, seed)
    assert sre(psi, d3, 2.0) >= -1e-12
    assert sre(psi, d3, 2.0) <= sre_upper_bound(d3, 2.0) + 1e-9


def test_mixed_sre2_matches_pure():
    # on pure inputs the quartic/quadratic ratio reduces to the pure 2-SRE
    d3 = Dims(3, 1)
    psi = rand_state(3, 9)
    rho = np.outer(psi, psi.conj())
    assert abs(mixed_sre2(rho, d3) - sre(psi, d3, 2.0)) < 1e-10
    # and it vanishes on maximal mixtures of stabilizer projectors
    assert mixed_sre2(np.eye(3) / 3, d3) < 1e-10


def test_wh_kernel_identities():
    d3 = Dims(3, 1)
    val = kernel_all(np.eye(3) / 3, np.eye(3) / 3, d3)[point_index(np.array([1, 2]), d3)]
    assert abs(val - 1 / 9) < 1e-12
    # K recovers the Pauli distribution
    psi = rand_state(3, 13)
    rho = np.outer(psi, psi.conj())
    K = kernel_all(rho, rho, d3)
    P = pauli_distribution(psi, d3).probs
    assert np.allclose(np.real(K), P, atol=1e-12)
    # Wigner cross-correlation identity for odd d
    phi = rand_state(3, 15)
    sig = np.outer(phi, phi.conj())
    Wa = wigner_function(rho, d3).values
    Wb = wigner_function(sig, d3).values
    pts = phase_points(d3)
    K2 = kernel_all(rho, sig, d3)
    for i, c in enumerate(pts):
        conv = sum(Wa[point_index(cp, d3)] * Wb[point_index((cp - c) % 3, d3)]
                   for cp in pts)
        assert abs(K2[i] - conv) < 1e-12


def test_wh_kernel_clifford_covariance():
    d3 = Dims(3, 1)
    H = single_qudit_H(3)
    S, _ = affine_from_clifford(H, d3)
    rho = np.outer(rand_state(3, 17), rand_state(3, 17).conj())
    sig = np.outer(rand_state(3, 19), rand_state(3, 19).conj())
    K = kernel_all(H.conj().T @ rho @ H, H.conj().T @ sig @ H, d3)
    K0 = kernel_all(rho, sig, d3)
    pts = phase_points(d3)
    for i, c in enumerate(pts):
        j = point_index((S @ c) % 3, d3)
        assert abs(K[i] - K0[j]) < 1e-11


def test_group_stabilizer_fidelity():
    dd = enumerate_stabilizer_states(Dims(3, 1))
    psi = build("qutrit:S")
    F, _ = group_stabilizer_fidelity(psi, list(dd.matrix))
    F2, _ = stabilizer_fidelity(psi, dictionary=dd)
    assert abs(F - F2) < 1e-12
    # the order-12 example group's listed states with |0> give 1
    r3 = np.sqrt(3)
    listed = [np.array([1, 0]), np.array([0, 1]),
              np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2),
              np.array([1, 1j * r3]) / 2, np.array([1, -1j * r3]) / 2,
              np.array([r3, 1j]) / 2, np.array([r3, -1j]) / 2]
    F, _ = group_stabilizer_fidelity(np.array([1, 0], dtype=complex), listed)
    assert abs(F - 1) < 1e-12
    F, _ = group_stabilizer_fidelity(
        np.array([0, 1], dtype=complex),
        [np.array([1, 0], dtype=complex), np.array([1, 1]) / np.sqrt(2)])
    assert abs(F - 0.5) < 1e-12


def test_clifford_invariance_qutrit():
    d3 = Dims(3, 1)
    dd = enumerate_stabilizer_states(d3)
    states = [build(n) for n in
              ("qutrit:S", "qutrit:N", "qutrit:Hplus", "qutrit:T0")]
    els = enumerate_reduced_clifford(d3)
    U = np.array([el.unitary for el in els])
    A, T = phase_point_table(d3), displacement_table(d3)
    for psi in states:
        rotated = np.einsum('nij,j->ni', U, psi)
        # mana
        W = np.einsum('kij,nj,ni->nk', A, rotated, rotated.conj()) / 3
        norms = np.sum(np.abs(np.real(W)), axis=1)
        assert np.max(np.abs(norms - norms[0])) < 1e-9
        # fidelity
        F = np.max(np.abs(rotated.conj() @ dd.matrix.T) ** 2, axis=1)
        assert np.max(np.abs(F - F[0])) < 1e-9
        # 2-SRE
        exps = np.einsum('ni,kij,nj->nk', rotated.conj(), T, rotated)
        m2 = -np.log(np.sum(np.abs(exps) ** 4, axis=1) / 9) - np.log(3)
        assert np.max(np.abs(m2 - m2[0])) < 1e-9


@pytest.mark.parametrize("name,exact", [
    ("qutrit:S", {"F": "1/2", "wnorm": "5/3", "mana": "log(5/3)", "M2": "log 2"}),
    ("2q:G20,1", {"F": "5/8", "M2": "log(16/7)"}),
])
def test_measures_json_matches_direct_calls(capsys, name, exact):
    psi, dims, alphas = build(name), entry(name).dims, (2.0, 2.5, 3.0)
    assert main(["measures", name, "--alphas", "2,2.5,3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    F, nearest = enumerate_stabilizer_states(dims).nearest(psi)
    assert (payload["d"], payload["N"], payload["nearest_count"]) == (dims.d, dims.N, len(nearest))
    assert payload["stabilizer_fidelity"] == F
    assert payload["sre"] == {str(a): sre(psi, dims, a) for a in alphas}
    assert payload["xi"] == {str(a): xi(psi, dims, a) for a in alphas}
    if dims.odd:
        assert payload["wigner_trace_norm"] == wigner_trace_norm(psi, dims)
        assert payload["mana"] == mana(psi, dims)
    else:
        assert payload["wigner_trace_norm"] is None and payload["mana"] is None
    assert payload["exact_forms"] == exact


def test_clifford_invariance_ququint():
    d5 = Dims(5, 1)
    dd = enumerate_stabilizer_states(d5)
    els = enumerate_reduced_clifford(Dims(5, 1))
    U = np.array([el.unitary for el in els])
    A, T = phase_point_table(d5), displacement_table(d5)
    for name in ("ququint:H,-1", "ququint:XVS,1", "ququint:A,-w2"):
        psi = build(name)
        rotated = np.einsum('nij,j->ni', U, psi)
        W = np.einsum('kij,nj,ni->nk', A, rotated, rotated.conj()) / 5
        norms = np.sum(np.abs(np.real(W)), axis=1)
        assert np.max(np.abs(norms - norms[0])) < 1e-9
        F = np.max(np.abs(rotated.conj() @ dd.matrix.T) ** 2, axis=1)
        assert np.max(np.abs(F - F[0])) < 1e-9
        exps = np.einsum('ni,kij,nj->nk', rotated.conj(), T, rotated)
        m2 = -np.log(np.sum(np.abs(exps) ** 4, axis=1) / 25) - np.log(5)
        assert np.max(np.abs(m2 - m2[0])) < 1e-9


def test_fidelity_arguments_refused():
    psi = build("qutrit:S")
    with pytest.raises(ValueError, match="need a dictionary or dims"):
        stabilizer_fidelity(psi)
    with pytest.raises(ValueError, match="empty G-stabilizer set"):
        group_stabilizer_fidelity(psi, [])
    dd = enumerate_stabilizer_states(Dims(3, 1))
    with pytest.raises(DimensionMismatchError, match="against a dictionary for"):
        stabilizer_fidelity(psi, dictionary=dd, dims=Dims(5, 1))
    assert stabilizer_fidelity(psi, dictionary=dd, dims=Dims(3, 1))[0] == \
        stabilizer_fidelity(psi, dictionary=dd)[0]
    for rays in (dd.matrix[:, :2], list(dd.matrix[:, :2]), np.pad(dd.matrix, ((0, 0), (0, 1))),
                 [np.ones(3), np.ones(2)], [np.ones(3), np.ones((3, 3))]):
        with pytest.raises(DimensionMismatchError, match="ragged or not of shape"):
            group_stabilizer_fidelity(psi, rays)
    # a density matrix, or a scalar, is not a vector of the rays' length
    for bad in (np.eye(3) / 3, np.outer(psi, psi.conj()), psi[:1, None], 1.0):
        with pytest.raises(DimensionMismatchError, match="is not a vector"):
            group_stabilizer_fidelity(bad, dd.matrix)
    with pytest.raises(DimensionMismatchError, match="ragged or not of shape"):
        group_stabilizer_fidelity(psi[:2], dd.matrix)
    # `overlaps` and `nearest` take one state: `dot` would scale the rows by a scalar
    for bad in (1.0, psi[:2], np.outer(psi, psi.conj()), psi[:, None]):
        for read in (dd.overlaps, dd.nearest):
            with pytest.raises(DimensionMismatchError, match=r"not \(3,\)"):
                read(bad)


@pytest.mark.parametrize("dims", [Dims(2, 3), Dims(3, 2), Dims(2, 5), Dims(5, 2), Dims(3, 3),
                                  Dims(2, 6), Dims(3, 4), Dims(5, 3)], ids=str)
def test_measures_are_clifford_invariant_beyond_the_enumerated_groups(dims):
    # C from random (S, a), where no reduced group is enumerated: M_2, M_3
    # and, for odd d, mana of C psi are those of psi
    rng = np.random.default_rng(10 * dims.d + dims.N)
    for k in range(3):
        C = random_clifford(dims, rng)[0]
        psi = rand_state(dims.D, 1000 * dims.d + 10 * dims.N + k)
        for alpha in (2, 3):
            assert abs(sre(C @ psi, dims, alpha) - sre(psi, dims, alpha)) < 1e-13
        if dims.odd:
            assert abs(mana(C @ psi, dims) - mana(psi, dims)) < 1e-13


@pytest.mark.parametrize("dims", [Dims(2, 3), Dims(3, 2)], ids=str)
def test_fidelity_is_clifford_invariant_beyond_the_enumerated_groups(dims):
    # a product of single-qudit magic states has many nearest states, a random state one
    dd = enumerate_stabilizer_states(dims)
    rng = np.random.default_rng(20 * dims.d + dims.N)
    one = build("qubit:T" if dims.d == 2 else "qutrit:S")
    states = [functools.reduce(np.kron, [one] * dims.N), rand_state(dims.D, 20 * dims.d + dims.N)]
    for psi in states:
        F, near = dd.nearest(psi)
        for _ in range(3):
            F_c, near_c = dd.nearest(random_clifford(dims, rng)[0] @ psi)
            assert abs(F_c - F) < 1e-12 and len(near_c) == len(near)


@pytest.mark.parametrize("dims", [Dims(3, 1), Dims(5, 1), Dims(2, 2), Dims(3, 2), Dims(2, 3)],
                         ids=str)
def test_lazy_nearest_set_and_copy_free_mana_match_the_eager_forms(dims):
    # the eager record list and WignerFunction route, field by field and bit for bit
    dd = enumerate_stabilizer_states(dims)
    states = [rand_state(dims.D, 100 * dims.d + dims.N + k) for k in range(3)]
    states += [e.build() for e in entries().values() if e.dims == dims]
    for psi in states:
        F, near = max_overlap(psi, dd)
        eager = [dd[j] for j in dd.nearest(psi)[1].tolist()]
        n = len(near)
        assert n == len(eager) and F == stabilizer_fidelity(psi, dims=dims)[0]
        for i in range(-n, n):
            got, want = near[i], eager[i]
            assert np.array_equal(got.basis, want.basis)
            assert np.array_equal(got.displacement, want.displacement)
            assert got.vector.tobytes() == want.vector.tobytes() and got.dims == want.dims
            assert np.shares_memory(got.vector, dd.matrix)
        # iteration ends after n states: one more is asked for, so a sequence that
        # never ends fails here instead of running on
        assert [s.displacement.tolist() for s in itertools.islice(near, n + 1)] == \
            [s.displacement.tolist() for s in eager]
        with pytest.raises(IndexError):
            near[n]
        if dims.odd:
            for rho in (psi, np.outer(psi, psi.conj())):
                W = wigner_function(rho, dims)
                assert W.values.base is None
                assert wigner_trace_norm(rho, dims) == W.trace_norm
                assert mana(rho, dims) == math.log(W.trace_norm)
