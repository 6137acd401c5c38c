import tracemalloc

import numpy as np
import pytest

import oracles
from quditmagic import extremality, weyl
from quditmagic.catalog import build, entries
from quditmagic.errors import BudgetExceededError, DimensionMismatchError, UnsupportedDimensionError
from quditmagic.extremality import (
    PerturbationFrame,
    classify_mana,
    classify_xi2,
    fidelity_expansion,
    l_matrix,
    mana_expansion,
    w_matrix,
    xi2_expansion,
)
from quditmagic.measures import wigner_function, xi
from quditmagic.phasespace import Dims
from quditmagic.stabilizers import enumerate_stabilizer_states, max_overlap
from quditmagic.tables import (
    QUQUINT_WIGNER_PRINTED,
    QUTRIT_WIGNER,
    check_l_tables,
    check_w_tables,
)
from quditmagic.tolerances import EXACT_TOL, PRINTED_TOL


def rand_direction(psi, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=psi.shape[0]) + 1j * rng.normal(size=psi.shape[0])
    v = v - np.vdot(psi, v) * psi
    return v / np.linalg.norm(v)


def test_frame_density_decomposition():
    d3 = Dims(3, 1)
    psi = build("qutrit:T0")
    phi = rand_direction(psi, 0)
    fr = PerturbationFrame(d3, psi, phi)
    for eps in (0.05, -0.13, 0.31):
        state = fr.state(eps)
        direct = np.outer(state, state.conj())
        recon = (np.outer(psi, psi.conj())
                 + eps / (1 + eps ** 2) * fr.sigma
                 + eps ** 2 / (1 + eps ** 2) * fr.mu
                 + eps ** 2 / (1 + eps ** 2) * np.outer(psi, psi.conj()))
        # mu = phi phi^dag - psi psi^dag, so psi(eps) = psi + eps sigma + eps^2 phi
        recon = (np.outer(psi, psi.conj()) * (1 - eps ** 2 / (1 + eps ** 2))
                 + eps / (1 + eps ** 2) * fr.sigma
                 + eps ** 2 / (1 + eps ** 2) * np.outer(phi, phi.conj()))
        assert np.allclose(direct, recon, atol=1e-12)


def test_frame_holds_two_vectors():
    # sigma, mu and psi(eps) are built from the two vectors when read
    dims = Dims(3, 1)
    psi, phi = build("qutrit:T0"), rand_direction(build("qutrit:T0"), 2)
    fr = PerturbationFrame(dims, psi, phi)
    assert np.array_equal(fr.sigma, np.outer(phi, psi.conj()) + np.outer(psi, phi.conj()))
    assert np.array_equal(fr.mu, np.outer(phi, phi.conj()) - np.outer(psi, psi.conj()))
    state = (psi + 0.3 * phi) / np.sqrt(1 + 0.3 ** 2)
    assert np.array_equal(fr.state(0.3), state)
    # (2,10): two 16 KiB vectors, where a dense sigma and mu held 32 MiB
    dims = Dims(2, 10)
    psi = np.zeros(dims.D, dtype=complex)
    psi[0] = 1
    phi = rand_direction(psi, 3)
    assert _traced_peak(lambda: PerturbationFrame(dims, psi, phi)) < 2 ** 20


def test_frame_validation():
    d3 = Dims(3, 1)
    psi = build("qutrit:S")
    with pytest.raises(ValueError):
        PerturbationFrame(d3, psi, psi)
    with pytest.raises(ValueError):
        PerturbationFrame(d3, psi, 2 * rand_direction(psi, 1))
    # a comparison with NaN is False, so the Gram check is written to refuse it
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthonormal"):
            PerturbationFrame(d3, psi, [bad, 0, 0])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not orthonormal"):
            PerturbationFrame(d3, np.array([bad, 0, 0]), rand_direction(psi, 1))
    # vectors of another length are refused when the frame is built
    five = np.eye(5, dtype=complex)
    with pytest.raises(DimensionMismatchError, match="length 3"):
        PerturbationFrame(d3, five[0], five[1])


def test_l_matrix_contract_and_tables():
    psi = build("qubit:T0")
    with pytest.raises(ValueError):
        l_matrix([psi, psi], [np.array([1, 0])])
    with pytest.raises(ValueError, match="not orthonormal"):
        l_matrix([[np.nan, 0], [0, 1]], [[1, 0]])
    for res in check_l_tables():
        assert res.passed, f"{res.table_id}: err {res.max_error}"


def test_l_forms_match_the_per_entry_oracle():
    # the amplitudes round as np.vdot does, so the L tables, printed to 10
    # decimals, keep every byte, signed zeros included
    from quditmagic.tables import _L_BASES, QUQUINT_L_PRINTED, _l_table

    def printed(L):
        return np.round(L, 10).tobytes()

    for name, basis_names in _L_BASES.items():
        psi, basis = build(name), [build(b) for b in basis_names]
        _, nearest = max_overlap(psi, enumerate_stabilizer_states(entries()[name].dims))
        states = [s.vector for s in nearest]
        assert printed(l_matrix([psi] + basis, states)) == printed(
            oracles.ell_form(psi, basis, states)), name
    for name, (dirs, _) in QUQUINT_L_PRINTED.items():
        _, nearest = max_overlap(build(name), enumerate_stabilizer_states(Dims(5, 1)))
        assert printed(_l_table(name)) == printed(oracles.ell_form(
            build(name), [build(b) for b in dirs], [s.vector for s in nearest])), name


def test_l_matrix_column_sums_vanish():
    # every catalog Clifford-stabilizer candidate: columns sum to 0
    cases = {
        "qubit:T0": ("qubit:T1",),
        "qubit:H0": ("qubit:H1",),
        "qutrit:S": ("qutrit:Hplus", "qutrit:Hminus"),
        "qutrit:N": ("qutrit:NB1", "qutrit:NB2"),
        "qutrit:Hplus": ("qutrit:Hminus", "qutrit:S"),
        "qutrit:T0": ("qutrit:T1", "qutrit:T2"),
    }
    for name, basis_names in cases.items():
        psi = build(name)
        dims = entries()[name].dims
        dd = enumerate_stabilizer_states(dims)
        _, nearest = max_overlap(psi, dd)
        L = l_matrix([psi] + [build(b) for b in basis_names],
                     [s.vector for s in nearest])
        assert np.max(np.abs(L.sum(axis=0))) < 1e-10


def test_w_matrix_tables_and_diagonal():
    for res in check_w_tables():
        assert res.passed, f"{res.table_id}: err {res.max_error}"
    # diagonal = trace norm; stabilizer diagonal = 1
    d3 = Dims(3, 1)
    dd = enumerate_stabilizer_states(d3)
    basis = [dd[0].vector, dd[3].vector, dd[6].vector]
    W = w_matrix(basis, d3)
    assert np.allclose(np.diag(W), 1.0, atol=1e-12)


def test_wigner_tables():
    # the qutrit grids are exact, the printed ququint grids to their digits
    for tables, tol in ((QUTRIT_WIGNER, EXACT_TOL), (QUQUINT_WIGNER_PRINTED, PRINTED_TOL)):
        for name, expected in tables.items():
            got = wigner_function(build(name), entries()[name].dims).as_grid()
            err = float(np.max(np.abs(got - expected)))
            assert err <= tol, f"Wigner[{name}]: err {err}"


def test_w_matrix_diagonal_dominance():
    # nowhere-vanishing non-degenerate eigenbases: diagonal exceeds the row
    from quditmagic.tables import QUTRIT_W, QUQUINT_W_PRINTED
    for key, (names, _) in {**QUTRIT_W, **QUQUINT_W_PRINTED}.items():
        if key == "qutrit:N":   # contains a stabilizer state in the basis
            continue
        dims = entries()[names[0]].dims
        W = w_matrix([build(n) for n in names], dims)
        for i in range(W.shape[0]):
            row = np.delete(W[i], i)
            assert np.all(W[i, i] > row + 1e-9)


@pytest.mark.parametrize("dims", [Dims(2, 2), Dims(3, 2), Dims(5, 1)], ids=str)
def test_family_expansion_is_exact_for_linear_families(dims):
    # f_k(rho) = Tr(rho M_k) for random Hermitian M_k: a0, a1 and a2 are
    # f_k(psi), f_k(sigma) and f_k(phi), sigma from the dense frame.sigma
    rng = np.random.default_rng(dims.D)
    M = rng.normal(size=(6, dims.D, dims.D)) + 1j * rng.normal(size=(6, dims.D, dims.D))
    M = M + M.conj().transpose(0, 2, 1)
    psi = rng.normal(size=dims.D) + 1j * rng.normal(size=dims.D)
    psi /= np.linalg.norm(psi)
    fr = PerturbationFrame(dims, psi, rand_direction(psi, dims.D))

    def family(x):
        return np.real(np.einsum("i,kij,j->k", x.conj(), M, x))

    a0, a1, a2 = extremality._family_expansion(fr, family)
    traces = np.real(np.einsum("ij,kji->k", fr.sigma, M))
    assert np.max(np.abs(a1 - traces)) <= 1e-13
    assert np.array_equal(a0, family(fr.base)) and np.array_equal(a2, family(fr.direction))


def test_expansions_match_the_dense_oracles():
    # every catalog state along 20 seeded directions (Xi_2 along the first
    # 5): the vector routes against the Wigner functions and forms of the
    # dense sigma and mu, and against the kernels of the dense operators
    for name, e in entries().items():
        psi, dd = e.build(), enumerate_stabilizer_states(e.dims)
        for seed in range(20):
            fr = PerturbationFrame(e.dims, psi, rand_direction(psi, seed))
            got, want = fidelity_expansion(fr, dd), oracles.fidelity_expansion(fr, dd)
            assert got[:3] == want[:3], (name, seed, got, want)
            assert abs(got.leading_coefficient - want.leading_coefficient) <= 1e-12
            if seed < 5:
                co, co0 = xi2_expansion(fr), oracles.xi2_expansion(fr)
                assert np.max(np.abs(co - co0)) <= 1e-12, (name, seed)
                assert classify_xi2(co)[:3] == classify_xi2(co0)[:3], (name, seed)
            if not e.dims.odd:
                continue
            (lin, quad, ok), (lin0, quad0, ok0) = mana_expansion(fr), oracles.mana_expansion(fr)
            assert ok == ok0 and abs(lin - lin0) <= 1e-12 and abs(quad - quad0) <= 1e-12
            got, want = classify_mana(fr), oracles.classify_mana(fr)
            assert got[:3] == want[:3], (name, seed, got, want)
            assert abs(got.leading_coefficient - want.leading_coefficient) <= 1e-12


def _traced_peak(call) -> int:
    """The tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d,N", [(2, 6), (2, 10), (3, 4), (3, 6)])
def test_expansion_peaks_within_estimates(d, N):
    dims = Dims(d, N)
    psi = np.full(dims.D, dims.D ** -0.5, dtype=complex)
    fr = PerturbationFrame(dims, psi, rand_direction(psi, 4))
    expansions = [("xi2", xi2_expansion)] + [("mana", mana_expansion)] * dims.odd
    try:
        for measure, expand in expansions:
            weyl.transform_plan.cache_clear()  # the plan is built inside the trace
            peak = _traced_peak(lambda: expand(fr))
            assert 0 < peak <= extremality._expansion_bytes(measure, dims), measure
    finally:
        weyl.transform_plan.cache_clear()


@pytest.mark.parametrize("d,N,measure,expand", [
    (2, 12, "Xi_2", xi2_expansion),  # the transform plan's own check admits (2,12)
    (3, 8, "mana", mana_expansion),
])
def test_expansions_refused_before_allocating(d, N, measure, expand):
    dims = Dims(d, N)
    psi, phi = np.zeros((2, dims.D), dtype=complex)
    psi[0] = phi[1] = 1
    fr = PerturbationFrame(dims, psi, phi)

    def refused():
        with pytest.raises(BudgetExceededError, match=f"the {measure} expansion"):
            expand(fr)

    assert _traced_peak(refused) < 2 ** 16


def test_mana_expansion_strange_state():
    d3 = Dims(3, 1)
    psi = build("qutrit:S")
    for seed in range(5):
        fr = PerturbationFrame(d3, psi, rand_direction(psi, seed))
        lin, quad, ok = mana_expansion(fr)
        assert lin < 1e-12 and ok  # nowhere-vanishing Wigner function
        rep = classify_mana(fr)
        assert rep.kind == "smooth_max"


def test_mana_expansion_matches_direct_evaluation():
    from quditmagic.measures import wigner_trace_norm
    d3 = Dims(3, 1)
    psi = build("qutrit:T0")
    fr = PerturbationFrame(d3, psi, rand_direction(psi, 3))
    lin, quad, _ = mana_expansion(fr)
    base = wigner_trace_norm(psi, d3)
    for eps in (1e-4, 3e-4):
        direct = wigner_trace_norm(fr.state(eps), d3)
        series = base + abs(eps) / (1 + eps ** 2) * lin \
            + eps ** 2 / (1 + eps ** 2) * quad
        assert abs(direct - series) < 50 * eps ** 3


def test_ququint_A_state_quadratic_coefficient():
    d5 = Dims(5, 1)
    psi = build("ququint:A,-w2")
    phi = build("ququint:A,w2")
    for ph in (0.0, 1.1, 2.7):
        fr = PerturbationFrame(d5, psi, np.exp(1j * ph) * phi)
        lin, quad, _ = mana_expansion(fr)
        assert lin < 1e-12
        assert abs(quad - (-1.2944)) < 5e-4
    # outside this direction: sharp minimum
    fr = PerturbationFrame(d5, psi, rand_direction(psi, 8))
    lin, _, _ = mana_expansion(fr)
    assert lin > 1e-3


def test_fidelity_expansion_catalog_cases():
    d3 = Dims(3, 1)
    dd = enumerate_stabilizer_states(d3)
    # N along e^(i phi)(|0>-|2>)/sqrt2: smooth max with <s|mu|s> = -2/3
    psi, nb1 = build("qutrit:N"), build("qutrit:NB1")
    for ph in (0.0, 0.9):
        rep = fidelity_expansion(PerturbationFrame(d3, psi, np.exp(1j * ph) * nb1), dd)
        assert rep.kind == "smooth_max"
        assert abs(rep.leading_coefficient + 2 / 3) < 1e-10
    # H+ along i|H->: linear term zero, <s|mu|s> = -1/sqrt3
    hp, hm = build("qutrit:Hplus"), build("qutrit:Hminus")
    rep = fidelity_expansion(PerturbationFrame(d3, hp, 1j * hm), dd)
    assert rep.kind == "smooth_max"
    assert abs(rep.leading_coefficient + 1 / np.sqrt(3)) < 1e-10
    # ... but along |H-> itself the linear term survives
    rep = fidelity_expansion(PerturbationFrame(d3, hp, hm), dd)
    assert rep.kind == "sharp_min"
    # T0 qubit: sharp minimum in every direction
    qb = Dims(2, 1)
    ddq = enumerate_stabilizer_states(qb)
    t0 = build("qubit:T0")
    for seed in range(8):
        rep = fidelity_expansion(PerturbationFrame(qb, t0, rand_direction(t0, seed)), ddq)
        assert rep.kind == "sharp_min"
    # a dictionary of other dims is refused, as max_overlap refuses it
    with pytest.raises(DimensionMismatchError):
        fidelity_expansion(PerturbationFrame(qb, t0, rand_direction(t0, 0)), dd)


def test_fidelity_exact_path_for_norell():
    d3 = Dims(3, 1)
    dd = enumerate_stabilizer_states(d3)
    psi, nb1 = build("qutrit:N"), build("qutrit:NB1")
    fr = PerturbationFrame(d3, psi, nb1)
    for eps in (0.05, 0.1, 0.2):
        F, _ = max_overlap(fr.state(eps), dd)
        assert abs(F - 2 / (3 * (1 + eps ** 2))) < 1e-9


def test_xi2_qubit_coefficients():
    qb = Dims(2, 1)
    t0, t1 = build("qubit:T0"), build("qubit:T1")
    for ph in np.linspace(0, 2 * np.pi, 7):
        co = xi2_expansion(PerturbationFrame(qb, t0, np.exp(1j * ph) * t1))
        assert abs(co[1]) < 1e-9
        assert abs(co[2] - 4 / 3) < 1e-10
    # closed form along phi: eps^3 coefficient is -(4 sqrt2/3) cos(3 phi)
    co = xi2_expansion(PerturbationFrame(qb, t0, t1))
    assert abs(co[3] + 4 * np.sqrt(2) / 3) < 1e-9
    # H0 along e^(i phi)|H1>: flat when 3 cos(2 phi) = -1
    h0, h1 = build("qubit:H0"), build("qubit:H1")
    ph = np.arccos(-1 / 3) / 2
    co = xi2_expansion(PerturbationFrame(qb, h0, np.exp(1j * ph) * h1))
    assert classify_xi2(co).kind == "flat"
    co = xi2_expansion(PerturbationFrame(qb, h0, h1))
    assert classify_xi2(co).kind == "smooth_min"


def test_xi2_series_matches_direct():
    rng = np.random.default_rng(0)
    for dims in (Dims(2, 1), Dims(3, 1), Dims(2, 2)):
        for trial in range(7):
            psi = rng.normal(size=dims.D) + 1j * rng.normal(size=dims.D)
            psi /= np.linalg.norm(psi)
            phi = rand_direction(psi, 100 + trial)
            fr = PerturbationFrame(dims, psi, phi)
            co = xi2_expansion(fr)
            K = 200.0 * max(1.0, float(np.sum(np.abs(co))))  # crude envelope for |eps| <= 0.1
            for eps in (-0.1, -0.05, 0.02, 0.08):
                direct = xi(fr.state(eps), dims)
                series = sum(co[n] * eps ** n for n in range(9))
                assert abs(direct - series) <= K * abs(eps) ** 9 + 1e-12


def test_xi2_first_order_vanishes_for_invariant_states():
    # catalog Clifford-stabilizer states and the order-12 example group
    rng = np.random.default_rng(5)
    for name, e in entries().items():
        if e.eigen_operator is None:
            continue
        psi = e.build()
        for _ in range(5):
            co = xi2_expansion(PerturbationFrame(
                e.dims, psi, rand_direction(psi, rng.integers(1 << 30))))
            assert abs(co[1]) < 1e-9, name


def test_classify_xi2_rules():
    assert classify_xi2(np.array([1, 0, 0, 0, 0, 0, 0, 0, 0])) == ("xi2", "flat", 0, 0.0)
    assert classify_xi2(np.array([1, 0, 0.5, 0, 0, 0, 0, 0, 0])).kind == "smooth_min"
    assert classify_xi2(np.array([1, 0, -0.5, 0, 0, 0, 0, 0, 0])).kind == "smooth_max"
    assert classify_xi2(np.array([1, 0, 0, 0.5, 0, 0, 0, 0, 0])).kind == "inflection"
    rep = classify_xi2(np.array([1, 0, 0, 0, -2.0, 0, 0, 0, 0]))
    assert rep.kind == "smooth_max" and rep.leading_order == 4


def test_T_state_inflection():
    # qutrit T along theta = pi/2: inflection unless cos(3 phi2) = 0
    d3 = Dims(3, 1)
    t0, t2 = build("qutrit:T0"), build("qutrit:T2")
    co = xi2_expansion(PerturbationFrame(d3, t0, t2))
    rep = classify_xi2(co)
    assert rep.kind == "inflection" and rep.leading_order == 3
    assert abs(abs(co[3]) - 8 / 27) < 1e-9
    co = xi2_expansion(PerturbationFrame(d3, t0, np.exp(1j * np.pi / 6) * t2))
    rep = classify_xi2(co)
    assert rep.kind == "smooth_max" and rep.leading_order == 4
    assert abs(co[4] + 4 / 9) < 1e-9


def test_w_matrix_refuses_even_d():
    with pytest.raises(UnsupportedDimensionError, match="odd d"):
        w_matrix([build("qubit:T0"), build("qubit:T1")], Dims(2, 1))
