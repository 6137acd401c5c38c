import itertools
from functools import reduce

import numpy as np
import pytest

from quditmagic import distill
from quditmagic.clifford import qubit_T_gate, qubit_T_states
from quditmagic.distill import (
    FIVE_QUBIT_GENERATORS,
    PairParams,
    code_projector,
    distill_step,
    iterate_protocol,
    logical_density,
    pair_basis,
    project_T_overlaps,
    success_probability_exact,
    updated_error_exact,
)
from quditmagic.phasespace import Dims

import oracles


def test_code_projector_properties():
    Pi = code_projector()
    assert np.allclose(Pi, Pi.conj().T, atol=1e-12)
    assert np.allclose(Pi @ Pi, Pi, atol=1e-12)
    assert abs(np.trace(Pi).real - 2.0) < 1e-12
    # generators commute
    gens = [oracles.pauli_string(g) for g in FIVE_QUBIT_GENERATORS]
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            assert np.allclose(g @ h, h @ g)


def test_code_projector_matches_the_kronecker_pauli_strings():
    # entries 0 and +-1 throughout, so the two constructions agree exactly
    P = np.eye(32, dtype=np.complex128)
    for g in FIVE_QUBIT_GENERATORS:
        P = P @ (np.eye(32) + oracles.pauli_string(g)) / 2.0
    assert np.array_equal(code_projector(), P)


def test_transversal_T_commutes_with_projector():
    T = qubit_T_gate()
    TL = np.ones((1, 1), dtype=complex)
    for _ in range(5):
        TL = np.kron(TL, T)
    Pi = code_projector()
    assert np.max(np.abs(TL @ Pi - Pi @ TL)) < 1e-12


def test_t_states_eigenvalues():
    T = qubit_T_gate()
    T0, T1 = qubit_T_states()
    assert np.linalg.norm(T @ T0 - np.exp(1j * np.pi / 3) * T0) < 1e-12
    assert np.linalg.norm(T @ T1 - np.exp(-1j * np.pi / 3) * T1) < 1e-12


def test_pair_basis_orthonormal_and_eigen():
    basis = pair_basis()
    G = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    assert np.allclose(G, np.eye(4), atol=1e-12)
    T = qubit_T_gate()
    TT = np.kron(T, np.linalg.inv(T))
    for n, v in enumerate(basis):
        lam = np.exp(2j * np.pi * n / 3)
        assert np.linalg.norm(TT @ v - lam * v) < 1e-12


def test_project_T_overlap_table():
    tab = project_T_overlaps()
    expected = {0: 1 / 6, 1: 0.0, 2: 1 / 12, 3: 1 / 12, 4: 0.0, 5: 1 / 6}
    for x, rec in tab.items():
        assert abs(rec["overlap"] - expected[rec["weight"]]) < 1e-12
    # phase assignments in the documented gauge
    minus23 = ["00111", "01110", "10011", "11001", "11100"]
    plus23 = ["01011", "01101", "10101", "10110", "11010"]
    minus13 = ["00011", "00110", "01100", "10001", "11000"]
    plus13 = ["00101", "01001", "01010", "10010", "10100"]
    for s in minus23:
        assert abs(tab[int(s, 2)]["phase"] + 2 * np.pi / 3) < 1e-10
    for s in plus23:
        assert abs(tab[int(s, 2)]["phase"] - 2 * np.pi / 3) < 1e-10
    for s in minus13:
        assert abs(tab[int(s, 2)]["phase"] + np.pi / 3) < 1e-10
    for s in plus13:
        assert abs(tab[int(s, 2)]["phase"] - np.pi / 3) < 1e-10


def test_logical_vectors_orthonormal():
    L = oracles.logical_pair_vectors()
    assert np.allclose(L.conj().T @ L, np.eye(4), atol=1e-10)


def test_zero_error_fixed_point():
    out, p = distill_step([PairParams()] * 5)
    assert abs(p - (7 / 48) ** 2) < 1e-12
    assert max(out.eps1, out.eps2, out.eps3, abs(out.a), abs(out.b)) < 1e-10


def test_exact_rational_maps():
    for eps in np.arange(0.0, 0.201, 0.01):
        out, p = distill_step([PairParams(eps3=float(eps))] * 5)
        assert abs(p - success_probability_exact(eps)) < 1e-10
        assert abs(out.eps3 - updated_error_exact(eps)) < 1e-10
        assert max(out.eps1, out.eps2, abs(out.a), abs(out.b)) < 1e-10


def test_linear_update_coefficients():
    h = 1e-6
    out, _ = distill_step([PairParams(eps1=h)] * 5)
    assert abs(out.eps1 / h - 45 / 49) < 1e-4
    out, _ = distill_step([PairParams(eps2=h)] * 5)
    assert abs(out.eps2 / h - 45 / 49) < 1e-4
    out, _ = distill_step([PairParams(eps3=h)] * 5)
    assert abs(out.eps3 / h - 5 / 49) < 1e-4
    out, _ = distill_step([PairParams(a=h)] * 5)
    assert abs(out.a / h + 5 / 7) < 1e-4 and abs(out.b / h) < 1e-4
    out, _ = distill_step([PairParams(b=h)] * 5)
    assert abs(out.b / h + 5 / 7) < 1e-4 and abs(out.a / h) < 1e-4


def _random_valid_params(rng):
    while True:
        e = rng.uniform(0, 0.1, size=3)
        a, b = rng.uniform(-0.06, 0.06, size=2)
        p = PairParams(*e, a, b)
        try:
            p.density()
            return p
        except ValueError:
            continue


def test_structure_preservation_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(12):
        params = [_random_valid_params(rng) for _ in range(5)]
        M = logical_density(params)
        off = M.copy()
        for i in range(4):
            off[i, i] = 0
        off[0, 3] = 0
        off[3, 0] = 0
        assert np.max(np.abs(off)) < 1e-9
        assert np.max(np.abs(np.diag(M).imag)) < 1e-12


def test_logical_density_matches_kron_oracle():
    rng = np.random.default_rng(17)
    L = oracles.logical_pair_vectors()
    for _ in range(6):
        params = [_random_valid_params(rng) for _ in range(5)]
        rho = reduce(np.kron, [p.density() for p in params])
        assert np.max(np.abs(logical_density(params) - L.conj().T @ rho @ L)) < 1e-14


def _distinct_quintuples(seed, count):
    """count quintuples of five distinct random PairParams with coherences."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        params = [_random_valid_params(rng) for _ in range(5)]
        if len(set(params)) == 5 and all(p.a and p.b for p in params):
            out.append(params)
    return out


SWEEP = [float(eps) for eps in np.arange(0.0, 0.2 + 1e-12, 0.01)]


def _params_gap(x: PairParams, y: PairParams) -> float:
    return max(abs(u - v) for u, v in zip(x, y))


def test_stabilizer_sum_matches_pair_basis_oracle():
    # the stabilizer sum against the 1024-dimensional route, on 30 seeded
    # quintuples of distinct pairs with coherences
    for params in _distinct_quintuples(23, 30):
        assert np.max(np.abs(logical_density(params) - oracles.logical_density(params))) < 1e-14
        (out, p), (want, p_want) = distill_step(params), oracles.distill_step(params)
        assert abs(p - p_want) < 1e-14 and _params_gap(out, want) < 1e-14
        traj = iterate_protocol(params[0], 3)
        current = params[0]
        for t in traj:
            current, p_want = oracles.distill_step([current] * 5)
            assert abs(t["p_success"] - p_want) < 1e-14
            assert _params_gap(t["params"], current) < 1e-14


@pytest.mark.parametrize("eps", SWEEP)
def test_sweep_matches_pair_basis_oracle(eps):
    # every point of `distill sweep --eps3 0:0.2:0.01 --rounds 5`
    current = PairParams(eps3=eps)
    assert np.max(np.abs(logical_density([current] * 5)
                         - oracles.logical_density([current] * 5))) < 1e-14
    for t in iterate_protocol(current, 5):
        current, p_want = oracles.distill_step([current] * 5)
        assert abs(t["p_success"] - p_want) < 1e-14
        assert _params_gap(t["params"], current) < 1e-14


def _symplectic_label(spec: str) -> tuple[int, ...]:
    """The (p, q) label of a Pauli string: X -> p = 1, Z -> q = 1, Y -> both."""
    return tuple(int(c in "XY") for c in spec) + tuple(int(c in "ZY") for c in spec)


def test_code_tables_are_the_stabilizer_group_times_each_logical():
    tables = distill._code_tables()
    gens = np.array([_symplectic_label(g) for g in FIVE_QUBIT_GENERATORS])
    group = {tuple(np.bitwise_xor.reduce(gens[list(subset)], axis=0))
             for k in range(5) for subset in itertools.combinations(range(4), k)}
    assert len(group) == 16
    assert {tuple(chi) for chi in tables[0][0].T} == group
    dims = Dims(2, 5)
    for (x, z), (labels, weights) in zip([(0, 0), (0, 1), (1, 0), (1, 1)], tables):
        assert labels.shape == (10, 16) and weights.shape == (16,)
        assert np.max(np.abs(np.abs(weights) - 1 / 16)) < 1e-15
        # P Pi is P times the group: the labels shift by P's own (x^5, z^5)
        assert {tuple(chi) for chi in labels.T} == {
            tuple(np.bitwise_xor(g, [x] * 5 + [z] * 5)) for g in group}
        # and the 16 weighted strings rebuild P Pi
        P = oracles.kron_displacement([x] * 5 + [z] * 5, dims)
        rebuilt = sum(w * oracles.kron_displacement(chi, dims)
                      for chi, w in zip(labels.T, weights))
        assert np.max(np.abs(rebuilt - P @ code_projector())) < 1e-14


def dephasing_channel(rho_pair: np.ndarray) -> np.ndarray:
    """The preparation channel on a pair-basis density matrix: average over
    {I, TxT^-1, T^2xT^-2} (1/3 each), then over {I, G} (1/2 each) with G the
    entangling Clifford fixing psi_0 and flipping the sign of psi_3.

    The output is diagonal in the pair basis (all coherences removed)."""
    T = qubit_T_gate()
    Psi = np.array(pair_basis()).T
    TT = Psi.conj().T @ np.kron(T, np.linalg.inv(T)) @ Psi
    G = np.array([[0, 0, 0, 1j],
                  [0, 1, 0, 0],
                  [0, 0, 1, 0],
                  [-1j, 0, 0, 0]], dtype=np.complex128)
    G = Psi.conj().T @ G @ Psi
    acc = np.zeros_like(rho_pair, dtype=np.complex128)
    for k in range(3):
        U = np.linalg.matrix_power(TT, k)
        acc += U @ rho_pair @ U.conj().T / 3.0
    return (acc + G @ acc @ G.conj().T) / 2.0


def test_dephasing_preparation():
    rng = np.random.default_rng(3)
    p = _random_valid_params(rng)
    rho = dephasing_channel(p.density())
    # diagonal in the pair basis with the populations untouched
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) < 1e-12
    assert np.allclose(np.diag(rho).real,
                       [1 - p.eps1 - p.eps2 - p.eps3, p.eps1, p.eps2, p.eps3],
                       atol=1e-12)


def test_iterate_protocol():
    traj = iterate_protocol(PairParams(eps3=0.0), 2)
    assert all(t["params"].eps3 < 1e-10 for t in traj)
    traj = iterate_protocol(PairParams(eps3=0.01), 3)
    eps = [0.01] + [t["params"].eps3 for t in traj]
    assert all(e2 < e1 for e1, e2 in zip(eps, eps[1:]))
    with pytest.raises(ValueError):
        iterate_protocol(PairParams(), 0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        PairParams(eps3=0.1, a=0.45).density()  # 0/3 block not PSD
    for bad in (PairParams(eps3=float("nan")), PairParams(a=float("inf")),
                PairParams(eps1=-float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            bad.density()
    with pytest.raises(ValueError):
        distill_step([PairParams()] * 4)
