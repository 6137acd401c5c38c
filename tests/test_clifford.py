import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from quditmagic import clifford, errors
from quditmagic.clifford import (
    SL2_H_HAT,
    SL2_S_HAT,
    FiniteUnitaryGroup,
    _affine_data,
    _degenerate_bases,
    _epsilon,
    _pauli_action,
    affine_from_clifford,
    class_keys,
    clifford_equivalence_search,
    clifford_from_affine,
    clifford_generator_words,
    clifford_group_order,
    eigenpairs,
    enumerate_reduced_clifford,
    gate_unitary,
    group_projector,
    group_stabilizer_states,
    invert_word,
    is_clifford,
    legendre,
    metaplectic_V,
    nondegenerate_eigenstates,
    single_qudit_H,
    single_qudit_S,
    twirl,
    word_unitary,
)
from quditmagic.cli import main
from quditmagic.errors import (BudgetExceededError, DimensionMismatchError, NonClosedGroupError,
                               NotCliffordError)
from quditmagic.phasespace import (
    Dims,
    basis_keys,
    mod_inverse,
    phase_points,
    point_index,
    symplectic_form,
    symplectic_product,
)
from quditmagic.stabilizers import enumerate_stabilizer_states
from quditmagic.weyl import (
    equal_up_to_phase,
    pauli_coefficients,
    phase_normalize,
    unit_phase,
)

import oracles
from oracles import (displacement_table, enumerate_symplectic_2x2, generate_group,
                     phase_point_table, point)

BUDGETED = [(2, 1), (3, 1), (5, 1), (2, 2)]


def test_generators_are_clifford_and_special():
    for d in (2, 3, 5):
        H, S = single_qudit_H(d), single_qudit_S(d)
        dims = Dims(d, 1)
        assert is_clifford(H, dims)
        assert is_clifford(S, dims)
        if d > 2:
            assert abs(np.linalg.det(H) - 1) < 1e-10
        if d >= 5:
            assert abs(np.linalg.det(S) - 1) < 1e-10


def test_qutrit_H_order_four_up_to_phase():
    H4 = np.linalg.matrix_power(single_qudit_H(3), 4)
    assert equal_up_to_phase(H4, np.eye(3))


def test_qubit_H_maps_0_to_plus():
    assert np.allclose(single_qudit_H(2) @ [1, 0], np.ones(2) / np.sqrt(2))


def test_metaplectic_identities():
    for d in (3, 5):
        assert np.allclose(metaplectic_V(np.eye(2, dtype=int), d), np.eye(d))
        assert np.allclose(metaplectic_V(SL2_H_HAT, d), single_qudit_H(d), atol=1e-12)
        dims = Dims(d, 1)
        T = displacement_table(dims)
        chi = point_index(point(0, mod_inverse(2, d), dims), dims)
        assert np.allclose(T[chi] @ metaplectic_V(SL2_S_HAT, d), single_qudit_S(d),
                           atol=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_qubit_gates_are_the_literal_tables_bit_for_bit(N):
    # every token, with and without a dagger, on every site and ordered site pair
    dims = Dims(2, N)
    tokens = [f"{g}{dag}@{i}" for g in "HSXZ" for dag in ("", "†") for i in range(1, N + 1)]
    tokens += [f"{g}{dag}@{i},{j}" for g in ("CZ", "CNOT", "SWAP") for dag in ("", "†")
               for i in range(1, N + 1) for j in range(1, N + 1) if i != j]
    for token in tokens:
        got = gate_unitary(token, dims)
        assert got.tobytes() == oracles.literal_gate_unitary(token, dims).tobytes(), token


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_odd_generators_match_their_closed_forms(d):
    dims, labels = Dims(d, 1), phase_points(Dims(d, 1))
    for name in "HSXZ":
        got, want = gate_unitary(name, dims), oracles.closed_form_gate(name, d)
        assert np.max(np.abs(got - want)) <= 2e-15, name
        assert np.array_equal(_pauli_action(got, dims, labels), _pauli_action(want, dims, labels))
    assert np.array_equal(single_qudit_H(d), gate_unitary("H", dims))
    assert np.array_equal(single_qudit_S(d), gate_unitary("S", dims))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_odd_two_qudit_gates_match_their_closed_forms(d):
    # CZ = diag omega^(jk), SWAP and CNOT = SUM |j, k> -> |j, j + k>, daggers
    # included, on both site orders and on every site pair of (3,3)
    dims = Dims(d, 2)
    for name in ("CZ", "SWAP", "CNOT"):
        row = clifford._GATES[name][0] % d
        for dag in ("", "†"):
            for sites, order in (("1,2", [0, 1, 2, 3]), ("2,1", [1, 0, 3, 2])):
                token = f"{name}{dag}@{sites}"
                got = gate_unitary(token, dims)
                assert np.max(np.abs(got - oracles.literal_gate_unitary(token, dims))) <= 1e-14
                S, a = affine_from_clifford(got, dims)
                want = row[np.ix_(order, order)]
                if dag:
                    want = np.round(np.linalg.inv(want)).astype(np.int64) % d
                assert np.array_equal(S, want) and not a.any(), token
    wide = Dims(3, 3)
    for token in (f"{g}@{i},{j}" for g in ("CZ", "SWAP", "CNOT")
                  for i in range(1, 4) for j in range(1, 4) if i != j):
        got = gate_unitary(token, wide)
        assert np.max(np.abs(got - oracles.literal_gate_unitary(token, wide))) <= 1e-14, token


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_metaplectic_matches_the_gauss_sum_formula(d):
    # every element of SL(2, Z_d), global phase included
    for F in enumerate_symplectic_2x2(d):
        assert np.max(np.abs(metaplectic_V(F, d) - oracles.gauss_sum_metaplectic(F, d))) <= 1e-15


def test_hadamard_phase_is_the_legendre_symbol_of_two_times_eps():
    for d in (p for p in range(3, 100, 2) if all(p % q for q in range(3, p, 2))):
        assert legendre(2, d) * _epsilon(d) == oracles.delta_d(d), d


def test_gates_are_built_once_and_read_only():
    H = clifford._gate("H", 3)
    assert clifford._gate("H", 3) is H and not H.flags.writeable
    assert single_qudit_H(3).flags.writeable and single_qudit_H(3) is not H


def test_metaplectic_homomorphism_up_to_phase():
    for d in (3, 5):
        Fs = enumerate_symplectic_2x2(d)[::3][:8]
        for F1 in Fs:
            for F2 in Fs:
                lhs = metaplectic_V(F1, d) @ metaplectic_V(F2, d)
                rhs = metaplectic_V((F1 @ F2) % d, d)
                assert equal_up_to_phase(lhs, rhs)


def test_metaplectic_conjugation_exact():
    d = 5
    dims = Dims(d, 1)
    T = displacement_table(dims)
    pts = phase_points(dims)
    for F in enumerate_symplectic_2x2(d)[::7][:6]:
        V = metaplectic_V(F, d)
        for i, c in enumerate(pts):
            tgt = T[point_index((F @ c) % d, dims)]
            assert np.allclose(V @ T[i] @ V.conj().T, tgt, atol=1e-11)


def test_is_clifford_rejects_t_gate():
    Tgate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    assert not is_clifford(Tgate, Dims(2, 1))
    assert is_clifford(np.eye(2), Dims(2, 1))


def test_affine_from_clifford_examples():
    d3 = Dims(3, 1)
    S, a = affine_from_clifford(np.eye(3), d3)
    assert np.array_equal(S, np.eye(2, dtype=int)) and np.all(a == 0)
    SH, aH = affine_from_clifford(single_qudit_H(3), d3)
    assert np.array_equal(SH, SL2_H_HAT % 3)
    # displacement: conjugating by T_chi0 gives identity symplectic part
    T = displacement_table(d3)
    S2, a2 = affine_from_clifford(T[point_index(point(1, 2, d3), d3)], d3)
    assert np.array_equal(S2, np.eye(2, dtype=int))
    # Wigner covariance pins a = 2 * chi0 for the tau convention:
    # T_chi0 A_chi T_chi0^dag = A_(chi + chi0), and C A_chi C^dag = A_(a + S chi)
    assert np.any(a2 != 0)
    with pytest.raises(NotCliffordError):
        affine_from_clifford(np.diag([1.0, np.exp(1j * np.pi / 4), 1.0]), d3)


def test_affine_law_exhaustive_odd_d():
    for d in (3, 5):
        dims = Dims(d, 1)
        T = displacement_table(dims)
        pts = phase_points(dims)
        for U in (single_qudit_H(d), single_qudit_S(d)):
            S, a = affine_from_clifford(U, dims)
            for i, c in enumerate(pts):
                lab = (S @ c) % d
                ph = unit_phase(-symplectic_product(a, lab, d), d)
                assert np.allclose(U @ T[i] @ U.conj().T,
                                   ph * T[point_index(lab, dims)], atol=1e-11)


def test_clifford_from_affine_round_trip():
    for d in (3, 5):
        dims = Dims(d, 1)
        rng = np.random.default_rng(0)
        sl2 = enumerate_symplectic_2x2(d)
        for _ in range(10):
            S = sl2[rng.integers(len(sl2))]
            a = rng.integers(0, d, size=2)
            U = clifford_from_affine(S, a, dims)
            S2, a2 = affine_from_clifford(U, dims)
            assert np.array_equal(S2, S % d)
            assert np.array_equal(a2, a % d)


@pytest.mark.parametrize("d,N", BUDGETED)
def test_enumerate_reduced_clifford(d, N):
    dims = Dims(d, N)
    els = enumerate_reduced_clifford(dims)
    expected = {(2, 1): 24, (3, 1): 216, (5, 1): 3000, (2, 2): 11520}[(d, N)]
    assert len(els) == expected == clifford_group_order(dims)
    # the affine correspondence is a bijection on the reduced group
    pairs = {(e.symplectic.tobytes(), e.displacement.tobytes()) for e in els}
    assert len(pairs) == expected


def test_nondegenerate_eigenstates_identity_and_T():
    dims = Dims(2, 1)
    assert nondegenerate_eigenstates(np.eye(2), dims) == []
    That = np.exp(1j * np.pi / 4) * single_qudit_S(2) @ single_qudit_H(2)
    eigs = nondegenerate_eigenstates(That, dims)
    assert len(eigs) == 2
    T0 = np.array([np.sqrt((3 + np.sqrt(3)) / 6),
                   np.exp(1j * np.pi / 4) * np.sqrt((3 - np.sqrt(3)) / 6)])
    vals = {np.round(v, 6) for v, _ in eigs}
    assert np.round(unit_phase(1, 6), 6) in vals
    assert any(equal_up_to_phase(vec, T0) for _, vec in eigs)


def test_qutrit_H_eigenstates():
    dims = Dims(3, 1)
    eigs = nondegenerate_eigenstates(single_qudit_H(3), dims)
    S = np.array([0, 1, -1]) / np.sqrt(2)
    Hp = np.array([1 + np.sqrt(3), 1, 1]) / np.sqrt(2 * (3 + np.sqrt(3)))
    Hm = np.array([1 - np.sqrt(3), 1, 1]) / np.sqrt(2 * (3 - np.sqrt(3)))
    assert len(eigs) == 3
    for target in (S, Hp, Hm):
        assert any(equal_up_to_phase(v, target) for _, v in eigs)


def test_rejects_nonunitary_eigeninput():
    with pytest.raises(ValueError):
        nondegenerate_eigenstates(np.diag([1.0, 2.0]), Dims(2, 1))


def expi(H, t):
    """exp(i t H) for a Hermitian H, from its eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(H, dtype=np.complex128))
    return (V * np.exp(1j * t * w)) @ V.conj().T


def _order12_group():
    g1 = expi([[0, 1], [1, 0]], np.pi / 3)
    g2 = expi([[1, 0], [0, -1]], np.pi / 2)
    return FiniteUnitaryGroup.generate([g1, g2])


def test_group_projector_examples():
    eye = FiniteUnitaryGroup.generate([np.eye(2, dtype=complex)])
    assert np.allclose(group_projector(eye), np.eye(2))
    Z3 = np.diag([1, unit_phase(1, 3), unit_phase(2, 3)])
    G = FiniteUnitaryGroup.generate([Z3])
    P = group_projector(G)
    assert np.allclose(P, np.diag([1.0, 0, 0]), atol=1e-12)
    # the order-12 example group stabilizes no state exactly
    G12 = _order12_group()
    assert len(G12) == 12
    P12 = group_projector(G12)
    assert np.max(np.abs(P12)) < 1e-12


def test_group_stabilizer_states_order12():
    G12 = _order12_group()
    states = group_stabilizer_states(G12)
    r3 = np.sqrt(3)
    expected = [
        np.array([1, 0]), np.array([0, 1]),
        np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2),
        np.array([1, 1j * r3]) / 2, np.array([1, -1j * r3]) / 2,
        np.array([r3, 1j]) / 2, np.array([r3, -1j]) / 2,
    ]
    assert len(states) == len(expected)
    for e in expected:
        assert any(equal_up_to_phase(e, s) for s in states)


def test_twirl_properties():
    rng = np.random.default_rng(2)
    G12 = _order12_group()
    O = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    O = O + O.conj().T
    TO = twirl(O, G12)
    for g in G12.elements:
        assert np.max(np.abs(g @ TO - TO @ g)) < 1e-10
    assert np.allclose(twirl(TO, G12), TO, atol=1e-10)
    # O commuting with the group is fixed
    assert np.allclose(twirl(np.eye(2), G12), np.eye(2))
    # |psi><phi| with psi in S_G, phi orthogonal, twirls to zero
    Z3 = np.diag([1, unit_phase(1, 3), unit_phase(2, 3)])
    G = FiniteUnitaryGroup.generate([Z3])
    psi = np.array([1, 0, 0], dtype=complex)
    phi = np.array([0, 1, 0], dtype=complex)
    assert np.max(np.abs(twirl(np.outer(psi, phi.conj()), G))) < 1e-12


def _eigenphase_extended_qutrit_H():
    # the closure of <H> together with the scalar phases from its spectrum
    H = single_qudit_H(3)
    scalars = [val * np.eye(3, dtype=np.complex128) for val in np.linalg.eigvals(H)]
    return FiniteUnitaryGroup.generate([H] + scalars)


def test_eigenphase_extended_closure_qutrit_H():
    G = _eigenphase_extended_qutrit_H()
    G.check_closed()
    assert any(np.allclose(g, np.eye(3)) for g in G.elements)


def _token_group(tokens, d, N):
    return FiniteUnitaryGroup.generate([word_unitary([t], Dims(d, N)) for t in tokens.split()])


_G_STABILIZER_GROUPS = {
    "order 12": _order12_group,
    "qubit <S>": lambda: _token_group("S@1", 2, 1),
    "qubit <H, S>": lambda: _token_group("H@1 S@1", 2, 1),
    "<CZ@1,2, H@1>": lambda: _token_group("CZ@1,2 H@1", 2, 2),
    "<S@1, CZ@1,2>": lambda: _token_group("S@1 CZ@1,2", 2, 2),
    "two-qubit <H@1>": lambda: _token_group("H@1", 2, 2),
    "qutrit <H, S>": lambda: _token_group("H@1 S@1", 3, 1),
    "eigenphase-extended qutrit <H>": _eigenphase_extended_qutrit_H,
}


@pytest.mark.parametrize("name", list(_G_STABILIZER_GROUPS))
def test_group_stabilizer_states_match_per_pair_oracle(name):
    G = _G_STABILIZER_GROUPS[name]()
    states, ref = group_stabilizer_states(G), oracles.group_stabilizer_states(G)
    assert len(states) == len(ref)
    for s, r in zip(states, ref):  # the same rays in the same order
        assert np.max(np.abs(s - r)) < 1e-12


_R2, _R3 = np.sqrt(2), np.sqrt(3)


@pytest.mark.parametrize("tokens, d, N, order, split", [
    ("H@1 S@1", 2, 1, 192, {1: 6, (3 + _R3) / 6: 8, (2 + _R2) / 4: 12}),
    ("H@1 S@1", 3, 1, 648, {1: 12, 1 / 2: 9, 2 / 3: 36,
                            (1 + 2 * np.cos(2 * np.pi / 9)) ** 2 / 9: 72, (3 + _R3) / 6: 54}),
    ("H@1 S@1 CZ@1,2", 2, 2, 3072, {1: 12, (3 + _R3) / 6: 16, (2 + _R2) / 4: 24}),
], ids=["qubit <H, S>", "qutrit <H, S>", "two-qubit <H@1, S@1, CZ@1,2>"])
def test_group_stabilizer_states_by_stabilizer_fidelity(tokens, d, N, order, split):
    G = _token_group(tokens, d, N)
    states = group_stabilizer_states(G)
    assert len(G) == order and len(states) == sum(split.values())
    dd = enumerate_stabilizer_states(Dims(d, N))
    fidelity = np.array([np.max(dd.overlaps(s)) for s in states])
    for value, count in split.items():
        assert np.sum(np.abs(fidelity - value) < 1e-9) == count


def _first_of_class(groups):
    """Per row, the index of the first row in its group, from np.unique's
    (index, inverse) over the rows."""
    _, index, inverse = groups
    return index[inverse.ravel()]


@pytest.mark.parametrize("dims", [Dims(3, 1), Dims(5, 1), Dims(2, 2), Dims(7, 1)], ids=str)
def test_class_keys_group_as_the_rounded_overlaps(dims):
    # the integer keys on 10^-8 grid points group every row as the float rows
    # rounded by np.round did, so the sweep keeps the same first occurrences
    group = enumerate_reduced_clifford(dims)
    _, V, single = eigenpairs(np.array([group.unitary(i) for i in range(0, len(group), 7)]))
    owner, col = np.nonzero(single)
    rows = np.abs(V[owner, :, col] @ enumerate_stabilizer_states(dims).matrix.conj().T) ** 2
    # and rows on and beside the half-way points where rounding turns
    rng = np.random.default_rng(dims.D)
    grid = rng.integers(0, 10 ** 8, size=(64, rows.shape[1]), endpoint=True)
    near = grid + rng.choice([0.0, 0.5, 0.5 - 1e-6, 0.5 + 1e-6, 1e-9], size=grid.shape)
    rows = np.concatenate([rows, near / 10 ** 8, rows[::-1] + 1e-13])
    keys = class_keys(rows)
    assert keys.dtype == np.int64
    assert np.array_equal(keys / 10 ** 8, np.round(np.sort(rows, axis=-1), 8))
    new = np.unique(basis_keys(keys), return_index=True, return_inverse=True)
    old = np.unique(np.round(np.sort(rows, axis=-1), 8), axis=0,
                    return_index=True, return_inverse=True)
    assert len(new[1]) == len(old[1]) < len(rows)
    assert np.array_equal(_first_of_class(new), _first_of_class(old))


def test_qutrit_group_stabilizer_states_hold_every_eigenstate_class(capsys):
    # the stabilizer states and the Clifford orbits of the non-degenerate
    # eigenstate classes
    assert main(["eigenstates", "--all-cliffords", "--dims", "3,1", "--json"]) == 0
    classes = json.loads(capsys.readouterr().out)
    states = group_stabilizer_states(_token_group("H@1 S@1", 3, 1))
    assert len(classes) == 4
    for c in classes:
        vec = np.array([complex(re, im) for re, im in c["state"]])
        assert any(equal_up_to_phase(vec, s) for s in states)


def _generators(name):
    return {"order 12": [expi([[0, 1], [1, 0]], np.pi / 3), expi([[1, 0], [0, -1]], np.pi / 2)],
            "qutrit <S, H>": [single_qudit_S(3), single_qudit_H(3)],
            "ququint <H, S>": [single_qudit_H(5), single_qudit_S(5)]}[name]


@pytest.mark.parametrize("name, order", [("order 12", 12), ("qutrit <S, H>", 648),
                                         ("ququint <H, S>", 15000)])
def test_finite_group_matches_per_element_oracle(name, order):
    gens = _generators(name)
    G = FiniteUnitaryGroup.generate(gens)
    ref = np.array(generate_group(gens))
    assert G.elements.shape == ref.shape == (order,) + gens[0].shape
    assert np.array_equal(G.elements, ref)  # bit for bit, in the oracle's order


def test_finite_group_closure_over_the_memory_budget_raises(monkeypatch):
    # the memory budget is the closure's only limit: refused one byte below
    # its largest level estimate, admitted at it and at the default
    gens = _generators("qutrit <S, H>")
    estimates, check = [], clifford.check_budget
    monkeypatch.setattr(clifford, "check_budget",
                        lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what))
    assert len(FiniteUnitaryGroup.generate(gens)) == 648
    monkeypatch.setattr(errors, "MEMORY_BUDGET", max(estimates) - 1)
    with pytest.raises(BudgetExceededError, match="a finite group closure level"):
        FiniteUnitaryGroup.generate(gens)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", max(estimates))
    assert len(FiniteUnitaryGroup.generate(gens)) == 648


def test_finite_group_closure_counts_what_it_holds(monkeypatch):
    gens = np.array(_generators("ququint <H, S>"))
    frontiers, products = [], clifford._products
    monkeypatch.setattr(clifford, "_products",
                        lambda g, f, held=0: frontiers.append(len(f)) or products(g, f, held))
    FiniteUnitaryGroup.generate(gens)
    levels = len(frontiers)
    # every level's products and their key transients alone fit this budget
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 6 * gens.size * max(frontiers) * 16)
    with pytest.raises(BudgetExceededError, match="finite group closure level"):
        FiniteUnitaryGroup.generate(gens)
    assert len(frontiers) - levels < levels  # refused at a level's check, before its product


def test_check_closed_rejects_a_missing_product():
    Z3 = np.diag([1, unit_phase(1, 3), unit_phase(2, 3)])
    FiniteUnitaryGroup([np.eye(3), Z3, Z3 @ Z3]).check_closed()
    for elements, generators in [([np.eye(3), Z3], ()), ([np.eye(3), Z3], [Z3])]:
        with pytest.raises(NonClosedGroupError):
            FiniteUnitaryGroup(elements, generators).check_closed()


# sha1 of the reduced group's BFS arrays (codes, parent, generator, offsets,
# each with its dtype): pins the BFS order itself, not only the group
BFS_SHA1 = {
    (2, 1): "158134132d5de0324643b7a5c529df7705adeeec",
    (3, 1): "f5dfb1bd874e88b18b652a009b49e5fd80ccb2f7",
    (5, 1): "3b38679b3c02545164f9791173a74c20afd11e97",
    (2, 2): "e92492925db0b55724f57700a0ce44ea43521647",
    (7, 1): "f317a7815aeac28b0e7579f697b692ff35f7c028",
}


@pytest.mark.parametrize("d,N", list(BFS_SHA1))
def test_reduced_group_bfs_pinned(d, N):
    group = enumerate_reduced_clifford(Dims(d, N))
    h = hashlib.sha1()
    for a in (group.codes, group.parent, group.generator, group.offsets):
        h.update(a.dtype.str.encode() + a.tobytes())
    assert h.hexdigest() == BFS_SHA1[(d, N)]


def test_invert_word():
    w = ("H@1", "S@2", "CZ@1,2", "S†@1")
    assert invert_word(w, 2) == ("S@1", "CZ@1,2", "S†@2", "H@1")
    assert invert_word(w[:2] + w[3:], 3) == ("S@1", "S†@2", "H†@1")
    assert invert_word(("Hdag@1", "X"), 5) == ("X†", "H@1")
    dims = Dims(2, 2)
    U = word_unitary(w, dims)
    V = word_unitary(invert_word(w, 2), dims)
    assert np.allclose(U @ V, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("dims", [Dims(2, 1), Dims(2, 2), Dims(3, 1), Dims(3, 2), Dims(5, 1)],
                         ids=str)
def test_word_times_its_inverse_is_identity(dims):
    rng = np.random.default_rng(dims.d * 10 + dims.N)
    tokens = [f"{g}{dag}@{i}" for g in "HSXZ" for dag in ("", "†")
              for i in range(1, dims.N + 1)]
    if dims.d == 2 and dims.N == 2:
        tokens += ["CZ@1,2", "CNOT@2,1", "SWAP@1,2"]
    for _ in range(20):
        w = tuple(rng.choice(tokens, size=rng.integers(1, 9)))
        U = word_unitary(w + invert_word(w, dims.d), dims)
        assert equal_up_to_phase(U, np.eye(dims.D)), w


def test_equivalence_search_trivial_and_prefilter():
    dims = Dims(2, 1)
    psi = np.array([1, 0], dtype=complex)
    assert clifford_equivalence_search(psi, psi, dims, budget=10) == ()
    T0 = np.array([np.sqrt((3 + np.sqrt(3)) / 6),
                   np.exp(1j * np.pi / 4) * np.sqrt((3 - np.sqrt(3)) / 6)])
    # different invariants: inconclusive immediately
    assert clifford_equivalence_search(psi, T0, dims, budget=10) is None


def test_equivalence_search_finds_word():
    dims = Dims(2, 2)
    src = np.kron([1, 0], [1, 0]).astype(complex)
    tgt = word_unitary(("H@1", "CZ@1,2", "S@2"), dims) @ src
    word = clifford_equivalence_search(src, tgt, dims, budget=50000)
    assert word is not None
    assert equal_up_to_phase(word_unitary(word, dims) @ src, tgt)


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_clifford_from_affine_has_the_requested_action(d, N):
    # on dims whose reduced group is refused or never enumerated: the unit
    # codes perm(e_i) = S e_i and k = S^T J a, exactly, and (S, a) read back
    dims, rng = Dims(d, N), np.random.default_rng(100 * d + N)
    units = np.eye(2 * N, dtype=np.int64)
    for _ in range(2):
        U, S, a = oracles.random_clifford(dims, rng)
        codes = np.ravel_multi_index(tuple(S), (d,) * 2 * N) * d + S.T @ symplectic_form(N) @ a % d
        assert np.array_equal(_pauli_action(U, dims, units), codes)
        S2, a2 = affine_from_clifford(U, dims)
        assert np.array_equal(S2, S) and np.array_equal(a2, a)


def test_clifford_from_affine_qubit_lookup():
    dims = Dims(2, 1)
    for el in enumerate_reduced_clifford(dims):
        U = clifford_from_affine(el.symplectic, el.displacement, dims)
        assert np.array_equal(U, el.unitary)
        S2, a2 = affine_from_clifford(U, dims)
        assert np.array_equal(S2, el.symplectic)
        assert np.array_equal(a2, el.displacement)
    for S, a in [(np.array([[1, 1], [1, 1]]), np.zeros(2)), (np.eye(2), np.zeros(3))]:
        with pytest.raises(NotCliffordError):
            clifford_from_affine(S, a, dims)


def test_qubit_affine_law_proportionality():
    # for d = 2 the exact phase law holds on the two basis points; on the
    # remaining point the image is still the labelled Hermitian Pauli up to
    # a sign (the i^(pq) convention carries no affine phase function)
    dims = Dims(2, 1)
    T = displacement_table(dims)
    pts = phase_points(dims)
    for el in enumerate_reduced_clifford(dims):
        U, S = el.unitary, el.symplectic
        for i, c in enumerate(pts[1:], start=1):
            conj = U @ T[i] @ U.conj().T
            j = point_index((S @ c) % 2, dims)
            assert (np.allclose(conj, T[j], atol=1e-10)
                    or np.allclose(conj, -T[j], atol=1e-10))
            if np.count_nonzero(c) == 1:  # basis point: exact phase law
                ph = unit_phase(-symplectic_product(el.displacement,
                                                    (S @ c) % 2, 2), 2)
                assert np.allclose(conj, ph * T[j], atol=1e-10)


def test_projector_absorbs_group_elements():
    Z3 = np.diag([1, unit_phase(1, 3), unit_phase(2, 3)])
    G = FiniteUnitaryGroup.generate([Z3])
    P = group_projector(G)
    for g in G.elements:
        assert np.allclose(g @ P, P, atol=1e-12)
        assert np.allclose(g @ P - P @ g, 0, atol=1e-12)


def test_phase_point_covariance_all_qutrit_cliffords():
    # C A_chi C^dag = A_(a + S chi) exhaustively over the reduced group
    dims = Dims(3, 1)
    A = phase_point_table(dims)
    pts = phase_points(dims)
    for el in enumerate_reduced_clifford(dims):
        conj = np.einsum('jk,bkl,ml->bjm', el.unitary, A, el.unitary.conj())
        idx = [point_index((el.displacement + el.symplectic @ c) % 3, dims)
               for c in pts]
        assert np.max(np.abs(conj - A[idx])) < 1e-10


def test_equivalence_search_deterministic_under_seed():
    dims = Dims(2, 2)
    from quditmagic.catalog import build
    src, tgt = build("2q:G20,1"), build("2q:G20,3")
    w1 = clifford_equivalence_search(src, tgt, dims, budget=100000)
    w2 = clifford_equivalence_search(src, tgt, dims, budget=100000)
    assert w1 == w2 and w1 is not None


def _entangling_clifford(dims):
    """H then S on every site, then a CZ chain diag(omega^(sum_i j_i j_(i+1))),
    then H on the first site: a Clifford that mixes every label."""
    d, N = dims.d, dims.N
    local = word_unitary(tuple(t for i in range(1, N + 1) for t in (f"S@{i}", f"H@{i}")), dims)
    digits = np.indices((d,) * N).reshape(N, -1)
    chain = np.sum(digits[:-1] * digits[1:], axis=0)
    cz = np.diag([unit_phase(e, d) for e in chain])
    return word_unitary(("H@1",), dims) @ cz @ local


@pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_conjugated_label_matches_dense_einsum(d, N):
    dims = Dims(d, N)
    T = displacement_table(dims)
    U = _entangling_clifford(dims)
    rng = np.random.default_rng(d * 10 + N)
    M = rng.normal(size=(dims.D, dims.D)) + 1j * rng.normal(size=(dims.D, dims.D))
    dense = np.einsum('kij,ij->k', T.conj(), M) / dims.D
    assert np.max(np.abs(pauli_coefficients(M, dims) - dense)) < 1e-12
    # a stack of operators gives, bit for bit, the coefficients of each one
    stack = np.array([M, M.conj().T, U, M @ U])
    assert np.array_equal(pauli_coefficients(stack, dims),
                          np.array([pauli_coefficients(A, dims) for A in stack]))
    # the batched action over all labels against U T_chi U^dag, one dense contraction each
    codes = _pauli_action(U, dims, phase_points(dims))
    dense = np.einsum('kij,nij->nk', T.conj(), U @ T @ U.conj().T) / dims.D
    for n, c in enumerate(codes):
        assert np.flatnonzero(np.abs(dense[n]) > 1e-8).tolist() == [c // d]
        assert abs(dense[n, c // d] - unit_phase(c % d, d)) < 1e-12


def _quantised_key(U, grid=1e-8):
    v = np.ascontiguousarray(phase_normalize(U.ravel(), tol=1e-6)).view(np.float64)
    return np.round(v / grid).astype(np.int64).tobytes()


def _dense_enumeration(dims):
    """Reference enumeration: BFS over dense unitaries keyed by quantised,
    phase-normalised entries, with (S, a) recovered per element."""
    gens = [(w, word_unitary(w, dims)) for w in clifford_generator_words(dims)]
    start = np.eye(dims.D, dtype=np.complex128)
    seen = {_quantised_key(start): (start, ())}
    frontier = [(start, ())]
    while frontier:
        nxt = []
        for U, word in frontier:
            for gw, G in gens:
                V = G @ U
                key = _quantised_key(V)
                if key not in seen:
                    seen[key] = (V, gw + word)
                    nxt.append(seen[key])
        frontier = nxt
    return [(word, *affine_from_clifford(U, dims), U) for U, word in seen.values()]


def _assert_one_phase_apart(U, ref):
    """Each U[i] is ref[i] times one unit phase, within 1e-12."""
    c = np.einsum("nij,nij->n", U.conj(), ref) / U.shape[-1]
    assert np.max(np.abs(np.abs(c) - 1)) < 1e-12
    assert np.max(np.abs(ref - c[:, None, None] * U)) < 1e-12


@functools.lru_cache(maxsize=None)
def _code_unitaries(d, N):
    """Every element's unitary, built from its codes, once its `_pauli_action`
    on every label has been checked to equal `group.actions` exactly."""
    dims = Dims(d, N)
    group = enumerate_reduced_clifford(dims)
    U = np.concatenate([group.unitary(np.arange(lo, min(lo + 2048, len(group))))
                        for lo in range(0, len(group), 2048)])
    labels = phase_points(dims)
    for u, acts in zip(U, group.actions(np.arange(dims.n_points))):
        assert np.array_equal(_pauli_action(u, dims, labels), acts)
    return U


@pytest.mark.parametrize("d,N", BUDGETED)
def test_enumeration_matches_dense_oracle(d, N):
    dims = Dims(d, N)
    els = enumerate_reduced_clifford(dims)
    ref = _dense_enumeration(dims)
    assert len(els) == len(ref)
    for el, (word, S, a, _) in zip(els, ref):
        assert el.word == word
        assert np.array_equal(el.symplectic, S)
        assert np.array_equal(el.displacement, a)
    _assert_one_phase_apart(_code_unitaries(d, N), np.array([U for *_, U in ref]))


def _action_enumeration(dims):
    """Reference enumeration: BFS over each element's full integer action on
    all d^(2N) labels, keyed by the bytes of its codes perm * d + k, with one
    dense product per element."""
    d, n = dims.d, dims.n_points
    words = clifford_generator_words(dims)
    gens = [word_unitary(w, dims) for w in words]
    g_codes = np.array([_pauli_action(G, dims, phase_points(dims)) for G in gens])
    unitaries, elem_words = [np.eye(dims.D, dtype=np.complex128)], [()]
    levels = [np.arange(n)[None] * d]
    seen = {levels[0].tobytes()}
    start = 0
    while start < len(unitaries):
        # G after code c: the label G sends c's label to, and the two exponents added
        image = g_codes[:, levels[-1] // d]
        cand = image // d * d + (image + levels[-1]) % d
        cand = np.ascontiguousarray(cand.swapaxes(0, 1)).reshape(-1, n)
        keys = cand.view(np.dtype((np.void, cand.itemsize * n))).ravel().tolist()
        fresh = []
        for r, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(r)
                f, g = divmod(r, len(gens))
                unitaries.append(gens[g] @ unitaries[start + f])
                elem_words.append(words[g] + elem_words[start + f])
        start += len(levels[-1])
        levels.append(cand[fresh])
    on_basis = np.concatenate(levels)[:, d ** np.arange(2 * dims.N - 1, -1, -1)]
    S, a = _affine_data(on_basis, dims)
    return list(zip(elem_words, S, a, unitaries))


@pytest.mark.parametrize("d,N", BUDGETED + [(7, 1)])
def test_enumeration_matches_full_action_oracle(d, N):
    dims = Dims(d, N)
    els = enumerate_reduced_clifford(dims)
    ref = _action_enumeration(dims)
    assert len(els) == len(ref) == clifford_group_order(dims)
    for el, (word, S, a, _) in zip(els, ref):
        assert el.word == word
        assert np.array_equal(el.symplectic, S) and el.symplectic.dtype == S.dtype
        assert np.array_equal(el.displacement, a) and el.displacement.dtype == a.dtype
    _assert_one_phase_apart(_code_unitaries(d, N), np.array([U for *_, U in ref]))


@pytest.mark.parametrize("d,N", BUDGETED + [(7, 1)])
def test_reduced_group_arrays(d, N):
    dims = Dims(d, N)
    group = enumerate_reduced_clifford(dims)
    els = enumerate_reduced_clifford(dims)
    assert group.codes.dtype == np.min_scalar_type(dims.n_points * d - 1)
    assert group.codes.dtype.kind == "u" and group.codes.shape == (len(els), 2 * N)
    # every element's parent lies on the previous BFS level
    offsets = group.offsets
    level = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    assert offsets[-1] == len(els) and np.all(level[group.parent[1:]] == level[1:] - 1)
    for i in range(0, len(els), 97):
        assert group.word(i) == els[i].word
        assert np.array_equal(els[i].unitary, group.unitary(i))
    # integer arrays only: no array of unitaries, not even the generators
    assert all(np.ndim(v) < 3 for v in vars(group).values())
    # the action on the unit labels identifies the element
    keys = {row.tobytes() for row in group.codes}
    assert len(keys) == len(els)


def test_affine_data_negates_unsigned_codes_exactly():
    # -k on an unsigned dtype wraps mod 2^8, not mod d: for odd d that changes a
    dims = Dims(3, 1)
    perm = np.array([[3, 1], [4, 7], [8, 2]])
    k = np.array([[1, 2], [0, 1], [2, 2]])
    S, a = _affine_data(perm * 3 + k, dims)
    S_u, a_u = _affine_data((perm * 3 + k).astype(np.uint8), dims)
    assert np.array_equal(S_u, S) and np.array_equal(a_u, a)
    wrapped = (S @ symplectic_form(1) @ (-k.astype(np.uint8))[..., None])[..., 0] % 3
    assert not np.array_equal(wrapped, a)


@pytest.mark.parametrize("d,N", BUDGETED)
def test_composed_action_matches_dense_conjugation(d, N):
    dims = Dims(d, N)
    T = displacement_table(dims)
    group = enumerate_reduced_clifford(dims)
    acts = group.actions(np.arange(dims.n_points))
    assert acts.dtype == group.codes.dtype and acts.shape == (len(group), dims.n_points)
    rng = np.random.default_rng(7)
    for i in rng.integers(len(group), size=8):
        U = group.unitary(i)
        for chi, c in enumerate(acts[i].tolist()):
            assert np.allclose(U @ T[chi] @ U.conj().T,
                               unit_phase(c % d, d) * T[c // d], atol=1e-10)


@pytest.mark.parametrize("d,N", BUDGETED + [(7, 1)])
def test_actions_match_dense_pauli_action(d, N):
    dims = Dims(d, N)
    group = enumerate_reduced_clifford(dims)
    labels = phase_points(dims)
    acts = group.actions(np.arange(dims.n_points))
    for i, U in enumerate(oracles.clifford_unitary_stack(group)):
        assert np.array_equal(acts[i], _pauli_action(U, dims, labels))
    # any labels, in any order and with repeats, read the same columns
    some = [1, 0, 1, dims.n_points - 1]
    assert np.array_equal(group.actions(some), acts[:, some])
    assert np.array_equal(group.actions([-1]), acts[:, -1:])
    with pytest.raises(IndexError):
        group.actions([dims.n_points])
    # the unit labels give the group's own codes
    assert np.array_equal(group.actions(d ** np.arange(2 * N - 1, -1, -1)), group.codes)


def test_enumeration_builds_no_table_and_recovers_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-element recovery used")

    monkeypatch.setattr(clifford, "affine_from_clifford", forbidden)
    clifford._reduced_group_cached.cache_clear()
    for d, N in BUDGETED:
        dims = Dims(d, N)
        assert len(enumerate_reduced_clifford(dims)) == clifford_group_order(dims)


def test_enumeration_and_reads_fill_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("CliffordElement built")

    clifford._reduced_group_cached.cache_clear()
    monkeypatch.setattr(clifford, "CliffordElement", forbidden)
    group = enumerate_reduced_clifford(Dims(3, 1))
    assert len(group) == 216
    held = dict(vars(group))
    monkeypatch.undo()
    el = group[-1]
    assert vars(group) == held  # the read derived el and cached nothing
    _assert_one_phase_apart(el.unitary[None], oracles.clifford_unitary_stack(group)[215:])
    labels = phase_points(group.dims)
    assert np.array_equal(_pauli_action(el.unitary, group.dims, labels),
                          group.actions(np.arange(len(labels)))[215])
    assert el.word == group.word(215)


def test_group_indexing_is_list_like():
    group = enumerate_reduced_clifford(Dims(2, 1))
    S, a = group.affine()
    stack, acts = oracles.clifford_unitary_stack(group), group.actions(np.arange(4))
    for i in (0, 5, 23):
        for j in (i, i - 24):
            el = group[j]
            _assert_one_phase_apart(el.unitary[None], stack[i:i + 1])
            assert np.array_equal(_pauli_action(el.unitary, Dims(2, 1), phase_points(Dims(2, 1))),
                                  acts[i])
            assert np.array_equal(el.symplectic, S[i]) and np.array_equal(el.displacement, a[i])
            assert el.word == group.word(i) and el.dims == Dims(2, 1)
    for bad in (24, -25):
        with pytest.raises(IndexError):
            group[bad]
    assert [el.word for el in group] == [group.word(i) for i in range(24)]


CLASS_COUNTS = {(2, 1): 5, (3, 1): 10, (5, 1): 14, (2, 2): 21, (7, 1): 18}


@pytest.mark.parametrize("d,N", BUDGETED[1:])
def test_conjugacy_classes_match_the_dense_oracle(d, N):
    group = enumerate_reduced_clifford(Dims(d, N))
    assert np.array_equal(group.conjugacy_classes(), oracles.conjugacy_class_labels(group))


@pytest.mark.parametrize("d,N", list(CLASS_COUNTS))
def test_conjugacy_classes_are_closed_and_counted(d, N):
    group = enumerate_reduced_clifford(Dims(d, N))
    labels = group.conjugacy_classes()
    for m in oracles.conjugation_maps(group):  # by every generator and its inverse
        assert np.array_equal(labels[m], labels)
    reps = np.flatnonzero(labels == np.arange(len(group)))
    sizes = np.bincount(labels)[reps]
    assert len(reps) == CLASS_COUNTS[(d, N)] and labels[0] == 0 and sizes[0] == 1
    assert sizes.sum() == len(group) and np.all(len(group) % sizes == 0)


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_orbit_minima_take_logarithmic_rounds_on_a_cycle(seed):
    # one 4096-cycle, in index order or shuffled: pulling across one
    # direction only, or without the jumps, takes hundreds of rounds here
    n = 4096
    order = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
    cycle = np.empty(n, dtype=np.intp)
    cycle[order] = np.roll(order, -1)
    labels, rounds = clifford._orbit_minima(cycle[None])
    assert np.all(labels == 0) and rounds <= 2 * 12
    halves = np.concatenate([np.roll(np.arange(n // 2), 1), n // 2 + np.roll(np.arange(n // 2), 1)])
    labels, _ = clifford._orbit_minima(halves[None])
    assert np.array_equal(labels, np.repeat([0, n // 2], n // 2))


@pytest.fixture
def class_estimates(monkeypatch):
    """The estimates the class computation checks against the budget: its
    own, then that of `actions` on the labels y."""
    estimates, check = [], clifford.check_budget

    def spy(nbytes, what):
        if "conjugacy classes" in what or "action of the Clifford group" in what:
            estimates.append(nbytes)
        check(nbytes, what)

    monkeypatch.setattr(clifford, "check_budget", spy)
    return estimates


def _traced_peak(call) -> int:
    """The tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conjugacy_classes_refused_before_allocating(monkeypatch, class_estimates):
    group = enumerate_reduced_clifford(Dims(7, 1))
    labels = group.conjugacy_classes()
    # H and S pull X and Z back to four distinct labels y; the class pass
    # counts their action as int64 and so covers the check of `actions`
    widest = np.diff(group.offsets).max()
    assert class_estimates == [clifford._class_bytes(16464, 4, 2, 2),
                               16464 * 4 * 2 + 2 * widest * 4 * 8]
    assert class_estimates[0] > class_estimates[1]
    monkeypatch.setattr(errors, "MEMORY_BUDGET", class_estimates[0] - 1)

    def refused():
        with pytest.raises(BudgetExceededError, match="conjugacy classes"):
            group.conjugacy_classes()

    assert _traced_peak(refused) < 2 ** 14 < class_estimates[0] / 100
    monkeypatch.setattr(errors, "MEMORY_BUDGET", class_estimates[0])
    assert np.array_equal(group.conjugacy_classes(), labels)


@pytest.mark.parametrize("d,N", [(3, 1), (2, 2), (7, 1), (11, 1)])
def test_conjugacy_classes_peak_within_estimate(class_estimates, d, N):
    group = enumerate_reduced_clifford(Dims(d, N))
    assert 0 < _traced_peak(group.conjugacy_classes) <= class_estimates[0]


def test_actions_refused_before_allocating(monkeypatch, class_estimates):
    dims = Dims(7, 1)
    group = enumerate_reduced_clifford(dims)
    labels = np.arange(dims.n_points)
    acts = group.actions(labels)
    # uint16 codes for every element, and two int64 blocks of the widest level
    assert class_estimates == [16464 * 49 * 2 + 2 * np.diff(group.offsets).max() * 49 * 8]
    monkeypatch.setattr(errors, "MEMORY_BUDGET", class_estimates[0] - 1)

    def refused():
        with pytest.raises(BudgetExceededError, match="action of the Clifford group"):
            group.actions(labels)

    assert _traced_peak(refused) < 2 ** 14 < class_estimates[0] / 100
    monkeypatch.setattr(errors, "MEMORY_BUDGET", class_estimates[0])
    assert np.array_equal(group.actions(labels), acts)


@pytest.mark.parametrize("d,N", [(7, 1), (11, 1)])
def test_actions_peak_within_estimate(class_estimates, d, N):
    dims = Dims(d, N)
    group = enumerate_reduced_clifford(dims)
    peak = _traced_peak(lambda: group.actions(np.arange(dims.n_points)))
    assert len(group) * dims.n_points * 2 < peak <= class_estimates[0]


def test_enumeration_refusals():
    # three qubits: 92 897 280 elements, each with its codes and closure arrays,
    # and a candidate block of 9 per element: 1.92e11 bytes in all
    nbytes = 192_390_266_880
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape(f"{nbytes:.3g} bytes")):
        enumerate_reduced_clifford(Dims(2, 3))
    assert time.perf_counter() - start < 1.0
    # two qutrits: 4 199 040 elements and five generators, 3.58e9 bytes
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape("3.58e+09 bytes")):
        enumerate_reduced_clifford(Dims(3, 2))
    assert time.perf_counter() - start < 1.0


def test_group_refused_before_the_bfs(monkeypatch):
    # (29,1): 20.4 M elements, an estimated 5.0 GB of codes and closure
    def forbidden(*args, **kwargs):
        raise AssertionError("BFS started")

    monkeypatch.setattr(clifford, "_reduced_group_cached", forbidden)
    with pytest.raises(BudgetExceededError, match="reduced Clifford group"):
        enumerate_reduced_clifford(Dims(29, 1))


def test_group_admitted_up_to_d23(monkeypatch):
    # (23,1): 6.4 M elements in an estimated 1501 MiB; the BFS itself is not run
    monkeypatch.setattr(clifford, "_reduced_group_cached", lambda d, N: (d, N))
    assert clifford._group_bytes(Dims(23, 1), 2) == 1_573_923_120
    assert enumerate_reduced_clifford(Dims(23, 1)) == (23, 1)


# The peak RSS is read as VmHWM: ru_maxrss of a process forked from a large
# one (such as the test runner) starts at its parent's size, which would hide
# the rise of a small build.
_PEAK_PROBE = """
import re, sys
from quditmagic import clifford, phasespace, stabilizers
from quditmagic.phasespace import Dims
def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) * 1024
base, dims = peak(), Dims(int(sys.argv[1]), int(sys.argv[2]))
{build}
print(peak() - base, {estimate})
"""


def _peak_rise_and_estimate(build: str, estimate: str, d: int, N: int) -> tuple[int, int]:
    """The rise of the peak RSS over import for `build` in a fresh process,
    and the estimate the budget checks."""
    src = os.path.dirname(os.path.dirname(clifford.__file__))
    probe = _PEAK_PROBE.format(build=build, estimate=estimate)
    out = subprocess.run([sys.executable, "-c", probe, str(d), str(N)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    rise, est = map(int, out.stdout.split())
    return rise, est


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
@pytest.mark.parametrize("d", [7, 11])
def test_group_peak_within_estimate(d):
    rise, estimate = _peak_rise_and_estimate("clifford.enumerate_reduced_clifford(dims)",
                                             "clifford._group_bytes(dims, 2)", d, 1)
    assert 0 < rise <= estimate


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
def test_reading_one_element_builds_no_stack():
    # the (order, D, D) stack of every (11,1) unitary is 295 MiB
    rise, stack = _peak_rise_and_estimate("clifford.enumerate_reduced_clifford(dims)[-1]",
                                          "len(clifford.enumerate_reduced_clifford(dims)) * 121 * 16",
                                          11, 1)
    assert stack == 159_720 * 121 * 16
    assert 0 < rise < stack / 4


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
def test_finite_group_closure_peak_within_estimate():
    # the two-qubit Clifford group with the phases of its generators: 92 160
    # elements; the estimate is the largest of its level checks
    build = """
estimates, check = [], clifford.check_budget
clifford.check_budget = lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what)
gens = [clifford.word_unitary([t], dims) for t in ("H@1", "S@1", "H@2", "S@2", "CZ@1,2")]
assert len(clifford.FiniteUnitaryGroup.generate(gens)) == 92160
"""
    rise, estimate = _peak_rise_and_estimate(build, "max(estimates)", 2, 2)
    assert 0 < rise <= estimate


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_dictionary_peak_within_estimate(d, N):
    rise, estimate = _peak_rise_and_estimate("stabilizers.enumerate_stabilizer_states(dims)",
                                             "stabilizers._dictionary_bytes(dims)", d, N)
    assert 0 < rise <= estimate


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
@pytest.mark.parametrize("d,N", [(3, 3), (2, 4), (2, 5)])
def test_isotropic_enumeration_peak_within_estimate(d, N):
    rise, estimate = _peak_rise_and_estimate("phasespace.enumerate_maximal_isotropic(dims)",
                                             "phasespace._isotropic_bytes(dims)", d, N)
    assert 0 < rise <= estimate


def _singleton_eigenvalues(U, tol=1e-8):
    vals = np.linalg.eigvals(U)
    return np.sort_complex(np.array([v for v in vals if np.sum(np.abs(vals - v) < tol) == 1]))


def _eigen_stack(d, N, count, seed):
    els = enumerate_reduced_clifford(Dims(d, N))
    idx = np.random.default_rng(seed).choice(len(els), size=min(count, len(els)), replace=False)
    return np.array([els[i].unitary for i in idx])


@pytest.mark.parametrize("d,N", BUDGETED)
def test_batched_eigenpairs(d, N):
    stack = _eigen_stack(d, N, 300, seed=d + N)
    w, V, single = eigenpairs(stack)
    assert w.shape == single.shape == stack.shape[:2] and V.shape == stack.shape
    for U, wi, Vi, si in zip(stack, w, V, single):
        vecs = Vi[:, si]
        assert np.max(np.abs(U @ vecs - vecs * wi[si]), initial=0) < 1e-10
        assert np.allclose(np.linalg.norm(vecs, axis=0), 1, atol=1e-12)
        ref = _singleton_eigenvalues(U)
        assert len(ref) == si.sum()
        assert np.max(np.abs(np.sort_complex(wi[si]) - ref), initial=0) < 1e-10
    # the single-matrix entry point is the n = 1 case
    eigs = nondegenerate_eigenstates(stack[-1], Dims(d, N))
    assert [v for v, _ in eigs] == [complex(v) for v in w[-1, single[-1]]]
    for (_, vec), col in zip(eigs, np.flatnonzero(single[-1])):
        assert np.array_equal(vec, phase_normalize(V[-1, :, col]))


def test_batched_eigenpairs_reject_nonunitary_member():
    stack = np.array([np.eye(2), np.diag([1.0, 2.0])], dtype=np.complex128)
    with pytest.raises(ValueError):
        eigenpairs(stack)


def _degenerate_unitary(D, seed):
    """A random unitary with a doubly and a triply degenerate eigenvalue."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)))
    phases = np.exp(1j * np.array([0.3, 0.3, 1.1, 1.1, 1.1] + list(rng.uniform(2, 6, D - 5))))
    return (Q * phases) @ Q.conj().T


def test_eigenspaces_orthonormal_and_invariant():
    # the singleton eigenvectors of `eigenpairs` and the QR bases of its
    # degenerate clusters together span each eigenspace orthonormally
    unitaries = ([_degenerate_unitary(8, 1), _degenerate_unitary(9, 2)]
                 + list(_eigen_stack(2, 2, 40, seed=3)) + list(_eigen_stack(3, 1, 20, seed=4)))
    for U in unitaries:
        w, V, single = eigenpairs(U[None])
        spaces = [V[0][:, [j]] for j in np.flatnonzero(single[0])] + _degenerate_bases(w, V)
        assert sum(E.shape[1] for E in spaces) == U.shape[0]
        B = np.hstack(spaces)
        assert np.max(np.abs(B.conj().T @ B - np.eye(U.shape[0]))) < 1e-10
        for E in spaces:
            lam = np.vdot(E[:, 0], U @ E[:, 0])
            assert abs(abs(lam) - 1) < 1e-10
            assert np.max(np.abs(U @ E - lam * E)) < 1e-10


def test_malformed_arguments_refused():
    with pytest.raises(NotCliffordError, match="odd d"):
        metaplectic_V(np.eye(2, dtype=np.int64), 2)
    with pytest.raises(NotCliffordError, match="SL"):
        metaplectic_V(np.array([[1, 1], [1, 1]]), 3)
    # F read from its top-left block, truncated to the identity, or cast from nan before
    for F in (np.eye(3, dtype=int), [[1.5, 0], [0, 1]], [[1, np.nan], [0, 1]],
              [[1, np.inf], [0, 1]], [1, 0, 0, 1], np.eye(2, dtype=complex)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotCliffordError, match="integer"):
                metaplectic_V(F, 3)
    with pytest.raises(NotCliffordError, match="integer"):  # before the SL(2) check
        metaplectic_V([[1.5, 1], [1, 1]], 3)
    # a non-unitary 9x9 matrix, a KeyError and two matrices before: d must be prime
    for refused in (lambda: metaplectic_V([[1, 1], [0, 1]], 9), lambda: single_qudit_H(4),
                    lambda: single_qudit_H(9), lambda: single_qudit_S(9)):
        with pytest.raises(ValueError, match="not prime"):
            refused()
    for S, a in [(1.5 * np.eye(2), np.zeros(2)),  # truncated to the identity before
                 (np.eye(2), np.zeros(3, dtype=np.int64)), (np.eye(2), [0.5, 0]),
                 (np.eye(3, dtype=np.int64), np.zeros(3)), (np.eye(2, dtype=complex), [0, 0]),
                 (np.diag([np.inf, 1.0]), [0, 0]), (np.eye(2), [np.nan, 0])]:
        with pytest.raises(NotCliffordError, match="integer"):
            clifford_from_affine(S, a, Dims(3, 1))
    with pytest.raises(NotCliffordError, match="symplectic"):
        clifford_from_affine(np.array([[1, 1], [1, 1]]), [0, 0], Dims(3, 1))
    with pytest.raises(DimensionMismatchError, match="expected a 3x3 unitary"):
        is_clifford(np.eye(4), Dims(3, 1))
    with pytest.raises(DimensionMismatchError, match="expected a 3x3 unitary"):
        affine_from_clifford(np.eye(4), Dims(3, 1))
    with pytest.raises(NotCliffordError, match="unknown gate token"):
        gate_unitary("T@1", Dims(2, 1))
    with pytest.raises(NotCliffordError, match="distinct site"):
        gate_unitary("CZ@1,1", Dims(3, 2))
    with pytest.raises(DimensionMismatchError, match="expected a 2x2 unitary"):
        nondegenerate_eigenstates(np.eye(3), Dims(2, 1))
