import numpy as np
import pytest

from oracles import admm_extent
from quditmagic.catalog import build, entries, entry
from quditmagic.errors import InfeasibleExtentError
from quditmagic.extent import (
    ExtentProblem,
    solve_extent,
    witness_bound,
)
from quditmagic.phasespace import Dims
from quditmagic.stabilizers import enumerate_stabilizer_states, max_overlap


def rand_state(D, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    return v / np.linalg.norm(v)


def test_stabilizer_target_extent_one():
    dd = enumerate_stabilizer_states(Dims(3, 1))
    sol = solve_extent(ExtentProblem.from_dictionary(dd[4].vector, dd))
    assert abs(sol.value - 1.0) < 1e-6
    assert sol.residual < 1e-7


def test_qubit_T_extent():
    dd = enumerate_stabilizer_states(Dims(2, 1))
    sol = solve_extent(ExtentProblem.from_dictionary(build("qubit:T0"), dd))
    assert abs(sol.value - (3 - np.sqrt(3))) < 1e-6
    assert sol.duality_gap < 1e-7
    assert sol.converged


def test_unconverged_solve_is_flagged():
    dd = enumerate_stabilizer_states(Dims(2, 1))
    sol = solve_extent(ExtentProblem.from_dictionary(build("qubit:T0"), dd),
                       tol=1e-12, max_iter=50)
    assert not sol.converged
    assert sol.duality_gap > 1e-12 and sol.iterations == 50


def test_multiplicativity_TT():
    dd = enumerate_stabilizer_states(Dims(2, 2))
    sol = solve_extent(ExtentProblem.from_dictionary(build("2q:TT"), dd))
    assert abs(sol.value - (3 - np.sqrt(3)) ** 2) < 1e-6


def test_strange_state_extent_two():
    dd = enumerate_stabilizer_states(Dims(3, 1))
    sol = solve_extent(ExtentProblem.from_dictionary(build("qutrit:S"), dd))
    assert abs(sol.value - 2.0) < 1e-6


def test_inverse_fidelity_for_clifford_stabilizer_states():
    dd5 = enumerate_stabilizer_states(Dims(5, 1))
    for name in ("ququint:H,-1", "ququint:A,-w2"):
        psi = build(name)
        F, _ = max_overlap(psi, dd5)
        xi = solve_extent(ExtentProblem.from_dictionary(psi, dd5)).value
        assert abs(xi - 1 / F) <= 1e-6, (name, xi - 1 / F)


def test_witness_bounds():
    dd = enumerate_stabilizer_states(Dims(2, 1))
    t0 = build("qubit:T0")
    assert abs(witness_bound(t0, t0, dd) - (3 - np.sqrt(3))) < 1e-12
    # stabilizer witness gives a trivial bound <= 1
    assert witness_bound(t0, dd[0].vector, dd) <= 1 + 1e-12
    dd3 = enumerate_stabilizer_states(Dims(3, 1))
    rng = np.random.default_rng(0)
    for seed in range(20):
        psi = rand_state(3, seed)
        om = rand_state(3, 1000 + seed)
        sol = solve_extent(ExtentProblem.from_dictionary(psi, dd3))
        assert witness_bound(psi, om, dd3) <= sol.value + 1e-6


def test_extent_clifford_invariance():
    from quditmagic.clifford import single_qudit_H
    dd = enumerate_stabilizer_states(Dims(3, 1))
    psi = rand_state(3, 5)
    sol0 = solve_extent(ExtentProblem.from_dictionary(psi, dd))
    sol1 = solve_extent(ExtentProblem.from_dictionary(single_qudit_H(3) @ psi, dd))
    assert abs(sol0.value - sol1.value) < 1e-6


def test_non_finite_target_refused_before_iterating():
    # a comparison with NaN is False, so the feasibility test is written to
    # refuse it: the solve raises at once instead of running max_iter steps
    dd = enumerate_stabilizer_states(Dims(2, 2))
    for bad in (np.nan, np.inf):
        problem = ExtentProblem.from_dictionary(np.array([bad, 0, 0, 1], dtype=complex), dd)
        with np.errstate(invalid="ignore"), pytest.raises(InfeasibleExtentError, match="nan"):
            solve_extent(problem, max_iter=1)


def test_projected_variant_and_infeasible():
    dd = enumerate_stabilizer_states(Dims(3, 1))
    # restrict the dictionary to states supported on a 2-dim subspace: a
    # generic target is infeasible without the projector
    sub = [s.vector for s in dd
           if abs(s.vector[2]) < 1e-12]
    psi = rand_state(3, 2)
    with pytest.raises(InfeasibleExtentError):
        solve_extent(ExtentProblem.from_states(psi, sub))
    P = np.diag([1.0, 1.0, 0.0]).astype(complex)
    sol = solve_extent(ExtentProblem.from_states(P @ psi, sub))
    assert sol.residual < 1e-7
    # projected target reproduced
    A = np.array(sub).T
    assert np.linalg.norm(A @ sol.coefficients - P @ psi) < 1e-7


def test_duality_gap_small_everywhere():
    dd = enumerate_stabilizer_states(Dims(3, 1))
    for seed in range(10):
        sol = solve_extent(ExtentProblem.from_dictionary(rand_state(3, seed), dd),
                           tol=1e-8)
        assert sol.duality_gap <= 1e-7


def test_three_qubit_extents():
    # 1080-atom dictionary in dimension 8; the CCZ state is a
    # Clifford-stabilizer state with xi = 1/F = 16/9, and the two W-type
    # targets inherit the two-qubit values through the |0> tensor factor
    dd = enumerate_stabilizer_states(Dims(2, 3))
    sol = solve_extent(ExtentProblem.from_dictionary(build("3q:CCZ"), dd))
    assert abs(sol.value - 16 / 9) < 1e-6
    sol = solve_extent(ExtentProblem.from_dictionary(build("3q:Wi"), dd))
    assert abs(sol.value - 8 / 5) < 1e-6
    sol = solve_extent(ExtentProblem.from_dictionary(build("3q:W"), dd))
    assert abs(sol.value - 4 / 3) < 1e-6


def _problem(name):
    e = entry(name)
    return ExtentProblem.from_dictionary(e.build(), enumerate_stabilizer_states(e.dims))


@pytest.mark.parametrize("name", sorted(n for n, e in entries().items() if e.dims.D <= 8))
def test_catalog_extents_match_admm_oracle(name):
    sol, ref = solve_extent(_problem(name)), admm_extent(_problem(name))
    assert sol.converged and ref.converged
    assert abs(sol.value - ref.value) < 1e-7
    assert sol.iterations <= ref.iterations


@pytest.mark.parametrize("dims", [Dims(2, 1), Dims(3, 1), Dims(5, 1), Dims(2, 2)], ids=str)
def test_haar_extents_match_admm_oracle(dims):
    dd = enumerate_stabilizer_states(dims)
    for seed in range(5):
        problem = ExtentProblem.from_dictionary(rand_state(dims.D, 100 + seed), dd)
        sol, ref = solve_extent(problem), admm_extent(problem)
        assert sol.converged and ref.converged
        assert abs(sol.value - ref.value) < 1e-7, (seed, sol.value, ref.value)


@pytest.mark.parametrize("name, value", [
    ("3q:W", 4 / 3), ("3q:TOF", 16 / 9), ("3q:CCZ", 16 / 9), ("3q:Wi", 8 / 5),
    ("2q:G20,1", 8 / 5), ("2q:TT", (3 - np.sqrt(3)) ** 2),
])
def test_polished_extents_are_exact(name, value):
    # the polished candidate closes the gap to rounding, well inside tol
    sol = solve_extent(_problem(name))
    assert sol.converged and abs(sol.value - value) < 1e-12
    assert sol.duality_gap < 1e-12 and sol.residual < 1e-12


def test_w_state_stops_at_first_exact_certificate():
    # the ADMM iterate alone needs 4825 steps to close the gap
    assert solve_extent(_problem("3q:W")).iterations <= 500


@pytest.mark.parametrize("name", ["3q:W", "qubit:T0"])
def test_single_step_cap_returns_unconverged_solution(name):
    problem = _problem(name)
    sol = solve_extent(problem, max_iter=1)
    assert not sol.converged and sol.iterations == 1
    A = problem.dictionary.T
    assert np.linalg.norm(A @ sol.coefficients - problem.target) < 1e-9


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -5}, {"tol": 0.0},
                                    {"tol": -1.0}, {"tol": float("nan")}, {"tol": 1.0},
                                    {"tol": 1e300}, {"tol": float("inf")}], ids=str)
def test_bad_tol_or_cap_raises(kwargs):
    with pytest.raises(ValueError):
        solve_extent(_problem("qubit:T0"), **kwargs)


def test_witness_orthogonal_to_every_state_refused():
    with pytest.raises(ZeroDivisionError, match="zero G-stabilizer fidelity"):
        witness_bound(np.array([1, 0]), np.array([0, 1]), np.array([[1, 0]]))
