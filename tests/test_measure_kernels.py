"""The measure kernels against their previous formulas, kept here as oracles.

Each oracle is the route the measures took before they shared one
`weyl.transform_plan` per (d, N): the Wigner function gathers from the
density matrix |psi><psi| and picks its columns by fancy indexing, the
dictionary overlaps conjugate the whole dictionary, the Pauli coefficients
conjugate the whole operator before their gather, and the reductions and
scalar logs are numpy functions.  The kernels must give the same bits,
except where a numpy scalar call became its `math` twin; there the swapped
call itself must agree to within one unit in the last place, and the rest of
the formula is exact.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quditmagic import catalog, weyl
from quditmagic.errors import DimensionMismatchError
from quditmagic.extent import ExtentProblem, solve_extent, witness_bound
from quditmagic.measures import (
    group_stabilizer_fidelity,
    mana,
    mixed_sre2,
    pauli_distribution,
    sre,
    sre_from_xi,
    stabilizer_fidelity,
    wigner_function,
    wigner_trace_norm,
    xi,
)
from quditmagic.phasespace import Dims, lex_grid
from quditmagic.stabilizers import enumerate_stabilizer_states, max_overlap

# the measure-scan ladder; the first five also get the fidelity
SCAN_DIMS = [Dims(3, 1), Dims(5, 1), Dims(2, 2), Dims(3, 2), Dims(2, 3),
             Dims(2, 4), Dims(3, 3), Dims(5, 2), Dims(2, 5), Dims(2, 6)]
FIDELITY_DIMS = SCAN_DIMS[:5]
ALPHAS = (2.0, 2.5, 3.0)
STATES_PER_DIMS = 3


def haar_state(D, rng):
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    return v / np.linalg.norm(v)


def oracle_wigner(op, dims):
    plan = weyl.transform_plan(dims.d, dims.N)
    rho = np.asarray(op, dtype=complex)
    rho = np.outer(rho, rho.conj()) if rho.ndim == 1 else rho
    vals = ((rho[plan.minus, plan.plus] @ plan.characters)[:, plan.double] / dims.D).ravel()
    return vals.real.copy()


def oracle_xi(psi, dims, alpha):
    probs = pauli_distribution(psi, dims).probs
    if float(alpha) == int(alpha):
        return float(np.sum(probs ** int(alpha)))
    return float(np.sum(np.power(probs, alpha)))


def sre_formula(val, alpha, dims, log):
    return float(log(val) / (1 - alpha) - dims.N * log(dims.d))


def mixed_ratio(rho, dims):
    plan = weyl.transform_plan(dims.d, dims.N)
    traces = np.abs(rho[plan.rows, plan.plus] @ plan.characters)
    return np.sum(traces ** 4) / np.sum(traces ** 2)


def oracle_overlaps(psi, matrix):
    return np.abs(np.asarray(matrix).conj() @ psi) ** 2


def oracle_pauli_coefficients(M, dims):
    plan = weyl.transform_plan(dims.d, dims.N)
    sums = np.conj(M)[..., plan.plus, plan.rows] @ plan.characters
    return np.conj(sums * plan.phases).reshape(M.shape[:-2] + (-1,)) / plan.D


def ulps(a, b):
    """|a - b| in units in the last place of a."""
    return abs(a - b) / np.spacing(abs(a))


class LogSwaps:
    """math.log, checked against np.log to one unit in the last place on
    every input it gets."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        ours, theirs = math.log(x), float(np.log(x))
        self.calls += 1
        assert ours == theirs or ulps(theirs, ours) <= 1, (x, ours, theirs)
        return ours


@pytest.mark.parametrize("dims", SCAN_DIMS, ids=str)
def test_kernels_match_previous_formulas(dims):
    rng = np.random.default_rng(1000 * dims.d + dims.N)
    log = LogSwaps()
    for _ in range(STATES_PER_DIMS):
        psi = haar_state(dims.D, rng)
        p = rng.uniform(0.05, 0.5)
        rho = (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(dims.D) / dims.D
        for alpha in ALPHAS:
            val = oracle_xi(psi, dims, alpha)
            assert xi(psi, dims, alpha) == val
            assert sre(psi, dims, alpha) == sre_formula(val, alpha, dims, log)
            # with numpy's logs the whole formula is the previous one
            assert abs(sre(psi, dims, alpha) - sre_formula(val, alpha, dims, np.log)) < 1e-13
        ratio = mixed_ratio(rho, dims)
        assert mixed_sre2(rho, dims) == -log(ratio)
        if dims.odd:
            for op in (psi, rho):
                assert np.array_equal(wigner_function(op, dims).values, oracle_wigner(op, dims))
            norm = float(np.sum(np.abs(oracle_wigner(psi, dims))))
            assert wigner_trace_norm(psi, dims) == norm
            assert mana(psi, dims) == log(norm)
    assert log.calls > 0


def test_sre_is_its_xi_transformed():
    # each M_alpha that `measures` prints is sre_from_xi of the Xi_alpha beside it
    rng = np.random.default_rng(4)
    cases = [(e.build(), e.dims) for e in catalog.entries().values()]
    cases += [(haar_state(dims.D, rng), dims) for dims in SCAN_DIMS if dims.D <= 32
              for _ in range(STATES_PER_DIMS)]
    for psi, dims in cases:
        for alpha in ALPHAS:
            assert sre(psi, dims, alpha) == sre_from_xi(xi(psi, dims, alpha), dims, alpha)


# stacks long enough that one gemm on the (n D, D) view puts rows far from their
# matrix's first, against the oracle's gemm per matrix
PAULI_STACKS = {Dims(2, 1): 24, Dims(3, 2): 50, Dims(7, 1): 100}


@pytest.mark.parametrize("dims", [Dims(2, 1), Dims(2, 3), Dims(3, 2), Dims(5, 1), Dims(2, 5),
                                  Dims(3, 3), Dims(7, 1)], ids=str)
def test_pauli_coefficients_match_previous_formula(dims):
    rng = np.random.default_rng(3000 * dims.d + dims.N)
    stacks = [(PAULI_STACKS[dims], dims.D, dims.D)] if dims in PAULI_STACKS else []
    for shape in [(dims.D, dims.D), (3, dims.D, dims.D)] + stacks:
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for op in (M, M.real.copy()):
            got, want = weyl.pauli_coefficients(op, dims), oracle_pauli_coefficients(op, dims)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims", FIDELITY_DIMS, ids=str)
def test_fidelity_matches_conjugated_dictionary(dims):
    rng = np.random.default_rng(2000 * dims.d + dims.N)
    dictionary = enumerate_stabilizer_states(dims)
    states = [haar_state(dims.D, rng) for _ in range(STATES_PER_DIMS)]
    # catalog states have large tied nearest sets, stabilizer states a single one
    states += [e.build() for e in catalog.entries().values() if e.dims == dims]
    states += [dictionary[0].vector, dictionary[-1].vector]
    for psi in states:
        ov = oracle_overlaps(psi, dictionary.matrix)
        assert np.array_equal(dictionary.overlaps(psi), ov)
        best = float(np.max(ov))
        tied = np.flatnonzero(ov >= best - 1e-9)
        F, nearest = stabilizer_fidelity(psi, dims=dims)
        assert F == best
        assert [s.vector.tobytes() for s in nearest] == \
            [dictionary[i].vector.tobytes() for i in tied]
        G, rows = group_stabilizer_fidelity(psi, dictionary.matrix)
        assert G == best and len(rows) == len(tied)
        assert all(np.shares_memory(r, dictionary.matrix) for r in rows)
        G, _ = group_stabilizer_fidelity(psi, list(dictionary.matrix))
        assert G == best


def test_extent_reads_the_dictionary_as_it_is():
    dims = Dims(3, 1)
    dictionary = enumerate_stabilizer_states(dims)
    omega = haar_state(3, np.random.default_rng(5))
    F = float(np.max(oracle_overlaps(omega, dictionary.matrix)))
    bound = witness_bound(omega, omega, dictionary)
    assert bound == float(abs(np.vdot(omega, omega)) ** 2 / F)
    assert bound == witness_bound(omega, omega, list(dictionary.matrix))
    psi = dictionary[4].vector
    F, _ = group_stabilizer_fidelity(psi, dictionary.matrix)
    assert F == float(np.max(oracle_overlaps(psi, dictionary.matrix)))
    assert abs(solve_extent(ExtentProblem.from_dictionary(psi, dictionary)).value - 1 / F) <= 1e-6


def test_transform_plan_entries():
    """The plan against digit-by-digit loops."""
    for dims in (Dims(2, 1), Dims(2, 2), Dims(3, 1), Dims(3, 2), Dims(5, 1), Dims(2, 3)):
        d, N, D = dims.d, dims.N, dims.D
        plan = weyl.transform_plan(d, N)
        digits = lex_grid(d, N)

        def flat(x):
            return int(np.ravel_multi_index(tuple(np.asarray(x) % d), (d,) * N))

        order = 4 if d == 2 else d  # i^(p.q) for d = 2, tau^(p.q) = omega^(t p.q) for odd d
        texp = 1 if d == 2 else weyl.tau_exponent(d)
        for a in range(D):
            assert plan.double[a] == flat(2 * digits[a])
            for b in range(D):
                assert plan.plus[a, b] == flat(digits[a] + digits[b])
                assert plan.minus[a, b] == flat(digits[a] - digits[b])
                dot = int(digits[a] @ digits[b])
                assert plan.characters[a, b] == weyl.unit_phase(dot, d)
                assert plan.phases[a, b] == weyl.unit_phase(texp * dot, order)
        assert plan.D == D and np.array_equal(plan.rows, np.arange(D))
        assert not any(arr.flags.writeable for arr in plan[1:])
        assert weyl.transform_plan(d, N) is plan


@pytest.mark.parametrize("dims", [Dims(3, 1), Dims(2, 2), Dims(3, 2)], ids=str)
def test_kernels_keep_their_input_checks(dims):
    D = dims.D
    psi = haar_state(D, np.random.default_rng(9))
    short, long = psi[:-1], np.append(psi, 0)
    for bad in (short, long, np.zeros((D, D + 1)), np.zeros((D + 1, D + 1))):
        with pytest.raises(DimensionMismatchError):
            sre(bad, dims)
        with pytest.raises(DimensionMismatchError):
            xi(bad, dims, 3.0)
        with pytest.raises(DimensionMismatchError):
            pauli_distribution(bad, dims)
        with pytest.raises(DimensionMismatchError):
            max_overlap(bad, enumerate_stabilizer_states(dims))
        with pytest.raises(DimensionMismatchError):  # the nearest rows of fidelity_expansion
            enumerate_stabilizer_states(dims).nearest(bad)
        if dims.odd:
            with pytest.raises(DimensionMismatchError):
                wigner_function(bad, dims)
    for bad in (np.zeros((D, D + 1)), np.zeros((D + 1, D + 1)), long):
        with pytest.raises(DimensionMismatchError):
            mixed_sre2(bad, dims)
    with pytest.raises(ValueError):
        sre(psi, dims, alpha=1.5)
    with pytest.raises(ValueError):
        sre(psi, dims, alpha=1)
    if dims.odd:
        # i |psi><psi| has Wigner values i W
        with pytest.raises(ValueError, match="imaginary part"):
            wigner_function(1j * np.outer(psi, psi.conj()), dims)
        nonhermitian = np.zeros((D, D), dtype=complex)
        nonhermitian[0, 1] = 1.0
        with pytest.raises(ValueError, match="imaginary part"):
            wigner_function(nonhermitian, dims)


# VmHWM of a fresh process, read around one kernel call whose input is
# already built: the rise holds the transform plan and the call's transients,
# and the estimate is the one budget check, made when the plan is built.
_KERNEL_PROBE = """
import re, sys
import numpy as np
from quditmagic import measures, weyl
from quditmagic.phasespace import Dims
def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) * 1024
dims = Dims(int(sys.argv[1]), int(sys.argv[2]))
psi = [1, 1j] @ np.random.default_rng(3).normal(size=(2, dims.D))
psi /= np.linalg.norm(psi)
rho = np.outer(psi, psi.conj())
estimates, check = [], weyl.check_budget
weyl.check_budget = lambda nbytes, what: estimates.append(nbytes) or check(nbytes, what)
base = peak()
{call}
print(peak() - base, *estimates)
"""

KERNEL_CALLS = [(call, dims) for dims in (Dims(2, 10), Dims(3, 6))
                for call in ("measures.sre(psi, dims)", "measures.mixed_sre2(rho, dims)",
                             "weyl.pauli_coefficients(rho, dims)")]
KERNEL_CALLS += [(call, Dims(3, 6)) for call in ("measures.mana(psi, dims)",
                                                 "measures.wigner_function(rho, dims)")]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
@pytest.mark.parametrize("call,dims", KERNEL_CALLS, ids=str)
def test_kernel_peak_within_plan_estimate(call, dims):
    src = os.path.dirname(os.path.dirname(weyl.__file__))
    out = subprocess.run([sys.executable, "-c", _KERNEL_PROBE.format(call=call),
                          str(dims.d), str(dims.N)], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    rise, estimate = map(int, out.stdout.split())
    assert 0 < rise <= estimate
