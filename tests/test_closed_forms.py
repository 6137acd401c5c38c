"""Closed-form anchors for the perturbation machinery beyond the acceptance
minimum: coefficient formulas on angle grids, special-direction loci, and
Clifford-equivalence claims rediscovered by search."""

import numpy as np
import pytest

from quditmagic.catalog import build
from quditmagic.clifford import class_keys, clifford_equivalence_search, word_unitary
from quditmagic.extremality import (
    PerturbationFrame,
    classify_xi2,
    fidelity_expansion,
    xi2_expansion,
)
from quditmagic.phasespace import Dims
from quditmagic.stabilizers import enumerate_stabilizer_states, max_overlap
from quditmagic.weyl import equal_up_to_phase

D3, D5, D22 = Dims(3, 1), Dims(5, 1), Dims(2, 2)


def _grid(n_t, n_p):
    rng = np.random.default_rng(20)
    for _ in range(n_t):
        yield rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi, size=n_p)


def test_T_state_xi2_coefficient_formulas():
    T0, T1, T2 = build("qutrit:T0"), build("qutrit:T1"), build("qutrit:T2")
    for t, (p1, p2) in _grid(8, 2):
        d = np.exp(1j * p1) * np.cos(t) * T1 + np.exp(1j * p2) * np.sin(t) * T2
        co = xi2_expansion(PerturbationFrame(D3, T0, d))
        xi2c = 4 / 9 * np.cos(t) * (np.cos(t) - 2 * np.sin(t) * np.cos(p1 + p2))
        xi3c = (8 / 27) * (2 * np.cos(t) ** 3 * np.cos(3 * p1)
                           - 6 * np.cos(t) ** 2 * np.cos(2 * p1 - p2) * np.sin(t)
                           + 3 * np.cos(t) * np.cos(p1 - 2 * p2) * np.sin(t) ** 2
                           - np.cos(3 * p2) * np.sin(t) ** 3)
        xi4c = (1 / 18) * (-21 - 16 * np.cos(2 * t) - 3 * np.cos(4 * t)
                           + 4 * np.cos(2 * (p1 + p2)) * np.sin(2 * t) ** 2
                           - 6 * np.cos(p1 + p2)
                           * (-6 * np.sin(2 * t) + np.sin(4 * t)))
        assert abs(co[2] - xi2c) < 1e-10
        assert abs(co[3] - xi3c) < 1e-10
        assert abs(co[4] - xi4c) < 1e-10


def test_T_state_equator_inflection_coefficients():
    # theta = pi/2: Xi3 = -(8/27) cos(3 phi2), Xi4 = -4/9
    T0, T2 = build("qutrit:T0"), build("qutrit:T2")
    for p2 in np.linspace(0, 2 * np.pi, 9):
        co = xi2_expansion(PerturbationFrame(D3, T0, np.exp(1j * p2) * T2))
        assert abs(co[2]) < 1e-10
        assert abs(co[3] + 8 / 27 * np.cos(3 * p2)) < 1e-10
        assert abs(co[4] + 4 / 9) < 1e-10


def test_T_state_special_locus_fourth_order():
    # on cot t = 2 cos(p1 + p2) the second order vanishes; wherever the
    # third order also vanishes the fourth order must not
    T0, T1, T2 = build("qutrit:T0"), build("qutrit:T1"), build("qutrit:T2")
    for s in np.linspace(0.2, 2.9, 9):
        c = np.cos(s)
        if abs(c) < 0.05:
            continue
        t = np.arctan2(1.0, 2 * c)   # cot t = 2 cos(s)
        for p1 in np.linspace(0, 2 * np.pi, 5):
            p2 = s - p1
            d = (np.exp(1j * p1) * np.cos(t) * T1
                 + np.exp(1j * p2) * np.sin(t) * T2)
            co = xi2_expansion(PerturbationFrame(D3, T0, d))
            assert abs(co[2]) < 1e-9
            if abs(co[3]) < 1e-9:
                assert abs(co[4]) > 1e-3


def test_T_state_smooth_max_locus_mu_values():
    # on the first-order-free directions the three <s|mu|s> follow the
    # (A, B, C) trigonometric pattern and all stay negative: smooth maximum
    T0, T1, T2 = build("qutrit:T0"), build("qutrit:T1"), build("qutrit:T2")
    dd = enumerate_stabilizer_states(D3)
    g = np.arccos(1 / np.sqrt(1 + 4 * np.cos(2 * np.pi / 9) ** 2))
    A = (28 * np.cos(np.pi / 9) - 18 * np.sin(np.pi / 18) + 7) / 51
    B = (30 - 16 * np.cos(np.pi / 9) + 20 * np.sin(np.pi / 18)) / 153
    C = (np.sqrt(3) - 2 * np.sin(np.pi / 9)) / (3 * (3 + 2 * np.sin(np.pi / 18)))
    assert abs(A - 0.591877) < 5e-7
    assert abs(B - 0.120509) < 5e-7
    assert abs(C - 0.104364) < 5e-7
    _, nearest = max_overlap(T0, dd)
    for ph in np.linspace(0, 2 * np.pi, 7):
        d = np.cos(g) * np.exp(1j * ph) * T1 + np.sin(g) * np.exp(-1j * ph) * T2
        fr = PerturbationFrame(D3, T0, d)
        rep = fidelity_expansion(fr, dd)
        assert rep.kind == "smooth_max"
        mus = sorted(float(np.real(np.vdot(s.vector, fr.mu @ s.vector)))
                     for s in nearest)
        pred = sorted([-A - B * np.cos(2 * ph),
                       -A + B / 2 * np.cos(2 * ph) - C * np.sin(2 * ph),
                       -A + B / 2 * np.cos(2 * ph) + C * np.sin(2 * ph)])
        assert np.allclose(mus, pred, atol=1e-9)


def test_Hplus_xi2_second_order_formula():
    Hp, Hm, S = build("qutrit:Hplus"), build("qutrit:Hminus"), build("qutrit:S")
    for t, (p1, p2) in _grid(8, 2):
        d = np.exp(1j * p1) * np.cos(t) * Hm + np.exp(1j * p2) * np.sin(t) * S
        co = xi2_expansion(PerturbationFrame(D3, Hp, d))
        expect = 0.5 * (np.cos(2 * t)
                        + np.sqrt(3) * np.cos(t) ** 2 * np.cos(2 * p1))
        assert abs(co[2] - expect) < 1e-10
        assert abs(co[3]) < 1e-10    # the cubic term vanishes on this family


def test_Hplus_higher_order_closed_forms():
    # quartic and quintic coefficients along the (H-, S) direction family
    Hp, Hm, S = build("qutrit:Hplus"), build("qutrit:Hminus"), build("qutrit:S")
    rng = np.random.default_rng(17)
    for _ in range(8):
        t = rng.uniform(0, np.pi)
        p1, p2 = rng.uniform(0, 2 * np.pi, 2)
        d = np.exp(1j * p1) * np.cos(t) * Hm + np.exp(1j * p2) * np.sin(t) * S
        co = xi2_expansion(PerturbationFrame(D3, Hp, d))
        xi4 = (1 / 48) * (
            -9 - 132 * np.cos(2 * t) + 9 * np.cos(4 * t)
            + 48 * np.sqrt(3) * np.cos(t) ** 2 * (-3 + np.cos(2 * t))
            * np.cos(2 * p1)
            + 12 * np.cos(t) ** 4 * np.cos(4 * p1)
            - 8 * np.sqrt(3) * np.cos(4 * p2) * np.sin(t) ** 4)
        xi5 = (2 / 3) * np.sqrt(2) * np.cos(t) * np.sin(t) ** 4 \
            * (-3 * np.cos(p1 - 2 * p2) + np.sqrt(3) * np.cos(p1 + 2 * p2))
        assert abs(co[4] - xi4) < 1e-9
        assert abs(co[5] - xi5) < 1e-9


def test_Hplus_quartic_negative_on_flat_locus():
    # along every direction with a vanishing quadratic coefficient
    # (cos^2 t = 1/(2 + sqrt3 cos 2 p1)) the cubic vanishes identically and
    # the quartic stays strictly negative, so Xi_2 has a smooth fourth-order
    # maximum there and the fifth-order backstop never has to fire
    Hp, Hm, S = build("qutrit:Hplus"), build("qutrit:Hminus"), build("qutrit:S")
    for p1 in np.linspace(0, np.pi, 13):
        c2 = 1 / (2 + np.sqrt(3) * np.cos(2 * p1))
        if c2 > 1:      # no real flat direction for cos 2 p1 < -1/sqrt3
            continue
        t = np.arccos(np.sqrt(c2))
        for p2 in np.linspace(0, np.pi, 13):
            d = (np.exp(1j * p1) * np.cos(t) * Hm
                 + np.exp(1j * p2) * np.sin(t) * S)
            co = xi2_expansion(PerturbationFrame(D3, Hp, d))
            assert abs(co[2]) < 1e-9
            assert abs(co[3]) < 1e-9
            assert co[4] < -0.3
            assert classify_xi2(co).kind == "smooth_max"


def test_Hplus_fidelity_hypersurface():
    Hp, Hm, S = build("qutrit:Hplus"), build("qutrit:Hminus"), build("qutrit:S")
    dd = enumerate_stabilizer_states(D3)
    F0 = (3 + np.sqrt(3)) / 6
    for al in np.linspace(0, np.pi / 2, 5):
        d = 1j * np.cos(al) * Hm + np.exp(0.8j) * np.sin(al) * S
        fr = PerturbationFrame(D3, Hp, d)
        for eps in (0.05, 0.12, 0.2):
            F, _ = max_overlap(fr.state(eps), dd)
            pred = F0 - eps ** 2 / (1 + eps ** 2) \
                * (1 + (-2 + np.sqrt(3)) * np.cos(al) ** 2) / (3 - np.sqrt(3))
            assert abs(F - pred) < 1e-10


def test_strange_state_xi2_is_fourth_order():
    # computed fact: every orthogonal direction gives a vanishing second
    # and third order with a positive fourth order, so the strange state is
    # still a local minimum of Xi_2 (it attains the global bound)
    S = build("qutrit:S")
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v -= np.vdot(S, v) * S
        v /= np.linalg.norm(v)
        co = xi2_expansion(PerturbationFrame(D3, S, v))
        rep = classify_xi2(co)
        assert abs(co[2]) < 1e-10 and abs(co[3]) < 1e-10
        assert rep.kind == "smooth_min" and rep.leading_order == 4
        assert co[4] > 0


def test_psimax_xi2_second_order_formula_and_bound():
    ms = [build(f"2q:psimax{i}") for i in range(4)]
    rng = np.random.default_rng(41)
    for _ in range(8):
        t1, t2 = rng.uniform(0, np.pi, 2)
        p1, p2, p3 = rng.uniform(0, 2 * np.pi, 3)
        d = (np.exp(1j * p1) * np.cos(t1) * ms[1]
             + np.exp(1j * p2) * np.sin(t1) * np.cos(t2) * ms[2]
             + np.exp(1j * p3) * np.sin(t1) * np.sin(t2) * ms[3])
        co = xi2_expansion(PerturbationFrame(D22, ms[0], d))
        expect = (1 / 16) * (
            -7 + 3 * np.cos(t1) ** 2 * (4 + np.cos(2 * p1))
            + 3 * np.sin(t1) ** 2 * (np.cos(t2) ** 2 * (4 + np.cos(2 * p2))
                                     + np.sin(t2) ** 2 * (4 + np.cos(2 * p3))))
        assert abs(co[2] - expect) < 1e-10
    # local minimum of Xi_2 in every direction: the quadratic coefficient
    # never drops below 1/8 (the infimum, attained along i psimax1)
    for seed in range(120):
        r = np.random.default_rng(seed)
        v = r.normal(size=4) + 1j * r.normal(size=4)
        v -= np.vdot(ms[0], v) * ms[0]
        v /= np.linalg.norm(v)
        co = xi2_expansion(PerturbationFrame(D22, ms[0], v))
        assert co[2] >= 1 / 8 - 1e-10
    co = xi2_expansion(PerturbationFrame(D22, ms[0], 1j * ms[1]))
    assert abs(co[2] - 1 / 8) < 1e-10


def test_T_states_are_Z_shifts():
    # T1 and T2 are the Z and Z^2 displacements of T0 (up to phase)
    Z = word_unitary(("Z@1",), D3)
    assert equal_up_to_phase(Z @ build("qutrit:T0"), build("qutrit:T1"))
    assert equal_up_to_phase(Z @ Z @ build("qutrit:T0"), build("qutrit:T2"))


@pytest.mark.parametrize("dims,a,b", [
    (D3, "qutrit:Hplus", "qutrit:Hminus"),
    (D3, "qutrit:S", "qutrit:NB1"),
    (D5, "ququint:H,i", "ququint:H,-i"),
    (D5, "ququint:Bprime,w", "ququint:Bprime,wc"),
    (D5, "ququint:Bprime,-w", "ququint:Bprime,-wc"),
])
def test_single_qudit_equivalences_by_search(dims, a, b):
    word = clifford_equivalence_search(build(a), build(b), dims, budget=150000)
    assert word is not None
    assert equal_up_to_phase(word_unitary(word, dims) @ build(a), build(b))


def test_A_pair_not_equivalent_by_invariant():
    # same fidelity, trace norm and Renyi values, but different stabilizer
    # overlap multisets, so the search finds no word
    a, b = build("ququint:A,w2"), build("ququint:A,-w2")
    dd = enumerate_stabilizer_states(D5)
    assert not np.array_equal(class_keys(dd.overlaps(a)), class_keys(dd.overlaps(b)))
    assert clifford_equivalence_search(a, b, D5, budget=100) is None


def test_order12_group_first_order_structure():
    # the order-12 example group is not a Clifford subgroup, so the 2-SRE
    # sum is not covariant for it: its first-order term survives at the
    # group-stabilizer states that are not Pauli-stabilizer states, while
    # the G-stabilizer fidelity (covariant for any finite group) stays
    # first-order flat at every one of them
    from quditmagic.clifford import FiniteUnitaryGroup, group_stabilizer_states
    from quditmagic.measures import group_stabilizer_fidelity

    def expi(H, t):  # exp(i t H) for a Hermitian H
        w, V = np.linalg.eigh(np.asarray(H, dtype=np.complex128))
        return (V * np.exp(1j * t * w)) @ V.conj().T

    qb = Dims(2, 1)
    g1 = expi([[0, 1], [1, 0]], np.pi / 3)
    g2 = expi([[1, 0], [0, -1]], np.pi / 2)
    G = FiniteUnitaryGroup.generate([g1, g2])
    states = group_stabilizer_states(G)
    assert len(states) == 8
    pauli_dict = enumerate_stabilizer_states(qb)
    rng = np.random.default_rng(2)
    for s in states:
        is_pauli_stab = np.max(pauli_dict.overlaps(s)) > 1 - 1e-9
        worst_xi, worst_fid = 0.0, 0.0
        _, nearest = group_stabilizer_fidelity(s, states)
        for _ in range(12):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v -= np.vdot(s, v) * s
            v /= np.linalg.norm(v)
            co = xi2_expansion(PerturbationFrame(qb, s, v))
            worst_xi = max(worst_xi, abs(co[1]))
            lin = np.mean([2 * np.real(np.vdot(v, t) * np.vdot(t, s))
                           for t in nearest])
            worst_fid = max(worst_fid, abs(lin))
        assert worst_fid < 1e-10
        if is_pauli_stab:
            assert worst_xi < 1e-10
        else:
            assert worst_xi > 0.1
