"""The batched Clifford equivalence search against the per-vector randomized
meet-in-the-middle it replaced, kept here as the oracle."""

import numpy as np
import pytest

from quditmagic import catalog, clifford
from quditmagic.clifford import (
    _grid_keys,
    _ray_keys,
    clifford_equivalence_search,
    clifford_generator_words,
    invert_word,
    word_unitary,
)
from quditmagic.errors import BudgetExceededError, DimensionMismatchError
from quditmagic.phasespace import Dims
from quditmagic.stabilizers import enumerate_stabilizer_states
from quditmagic.weyl import equal_up_to_phase, phase_normalize


def _state_key(psi):
    return _grid_keys(phase_normalize(psi, tol=1e-6)[None])[0].tobytes()


def oracle_search(psi1, psi2, dims, budget=20000, seed=0, max_depth=40):
    """One vector at a time, each frontier in a random order; the backward
    word is inverted token by token."""
    psi1 = np.asarray(psi1, dtype=np.complex128)
    psi2 = np.asarray(psi2, dtype=np.complex128)
    if equal_up_to_phase(psi1, psi2):
        return ()
    rng = np.random.default_rng(seed)
    gens = [(w, word_unitary(w, dims)) for w in clifford_generator_words(dims)]
    gens += [(invert_word(w, dims.d), U.conj().T) for w, U in list(gens)
             if invert_word(w, dims.d) != w]
    fwd = {_state_key(psi1): ((), psi1)}
    bwd = {_state_key(psi2): ((), psi2)}
    frontier_f, frontier_b = [((), psi1)], [((), psi2)]
    expansions = 0
    while expansions < budget and (frontier_f or frontier_b):
        for layer, frontier, other in ((fwd, frontier_f, bwd), (bwd, frontier_b, fwd)):
            new = []
            for i in rng.permutation(len(frontier)):
                word, v = frontier[i]
                if len(word) >= max_depth:
                    continue
                for gw, G in gens:
                    expansions += 1
                    w2, v2 = gw + word, G @ v
                    key = _state_key(v2)
                    if key in layer:
                        continue
                    layer[key] = (w2, v2)
                    new.append((w2, v2))
                    if key in other:
                        w_fwd, w_bwd = (w2, other[key][0]) if layer is fwd else (other[key][0], w2)
                        candidate = invert_word(w_bwd, dims.d) + w_fwd
                        if equal_up_to_phase(word_unitary(candidate, dims) @ psi1, psi2):
                            return candidate
                    if expansions >= budget:
                        break
                if expansions >= budget:
                    break
            frontier[:] = new
            if expansions >= budget:
                break
    return None


CATALOG_PAIRS = [(s, t, 100000) for s, _, t in catalog.EQUIVALENCES]
SINGLE_QUDIT_PAIRS = [(a, b, 150000) for a, b in [
    ("qutrit:Hplus", "qutrit:Hminus"),
    ("qutrit:S", "qutrit:NB1"),
    ("ququint:H,i", "ququint:H,-i"),
    ("ququint:Bprime,w", "ququint:Bprime,wc"),
    ("ququint:Bprime,-w", "ququint:Bprime,-wc"),
]]


def _pair(source, target):
    psi1, dims = catalog.resolve(source)
    psi2, _ = catalog.resolve(target)
    return psi1, psi2, dims


@pytest.mark.parametrize("source,target,budget", CATALOG_PAIRS + SINGLE_QUDIT_PAIRS)
def test_search_matches_oracle(source, target, budget):
    psi1, psi2, dims = _pair(source, target)
    word = clifford_equivalence_search(psi1, psi2, dims, budget=budget)
    ref = oracle_search(psi1, psi2, dims, budget=budget)
    for w in (word, ref):
        assert w is not None
        assert equal_up_to_phase(word_unitary(w, dims) @ psi1, psi2)
    assert len(word) <= len(ref)
    assert clifford_equivalence_search(psi1, psi2, dims, budget=budget) == word


def test_inequivalent_pairs_inconclusive_in_both():
    D2, D5 = Dims(2, 1), Dims(5, 1)
    zero = np.array([1, 0], dtype=complex)
    T0 = np.array([np.sqrt((3 + np.sqrt(3)) / 6),
                   np.exp(1j * np.pi / 4) * np.sqrt((3 - np.sqrt(3)) / 6)])
    a, b = catalog.build("ququint:A,w2"), catalog.build("ququint:A,-w2")
    for psi1, psi2, dims in [(zero, T0, D2), (a, b, D5)]:
        assert clifford_equivalence_search(psi1, psi2, dims, budget=100) is None
        assert oracle_search(psi1, psi2, dims, budget=100) is None


def test_budget_below_first_level_is_inconclusive():
    psi1, psi2, dims = _pair("2q:G20,1", "2q:G20,3")
    word = clifford_equivalence_search(psi1, psi2, dims, budget=100000)
    assert len(word) >= 3
    # H and S on each qubit, CZ, and S-dagger on each: seven generators
    first_level = 7
    for budget in (0, 1, first_level - 1):
        assert clifford_equivalence_search(psi1, psi2, dims, budget=budget) is None
        assert oracle_search(psi1, psi2, dims, budget=budget) is None


def test_state_keys_match_per_vector_keys():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(40, 8)) + 1j * rng.normal(size=(40, 8))
    vecs[:10, :3] = 0          # leading zeros
    vecs[10:20, 0] = 1e-7      # a leading entry below the 1e-6 threshold
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    keys = _ray_keys(vecs)
    assert [k.tobytes() for k in keys] == [_state_key(v) for v in vecs]
    # a global phase leaves the key unchanged
    assert np.array_equal(_ray_keys(vecs * np.exp(0.7j)), keys)


def test_search_budget_refused_before_expansion():
    psi1, psi2, dims = _pair("2q:G20,1", "2q:G20,4")
    with pytest.raises(BudgetExceededError, match="equivalence search"):
        clifford_equivalence_search(psi1, psi2, dims, budget=10 ** 8)


def test_search_refuses_states_of_other_dims(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr(clifford, "word_unitary", forbidden)
    qubit, qutrit = catalog.build("qubit:T0"), catalog.build("qutrit:S")
    dims = Dims(2, 1)
    for psi1, psi2 in [(qubit, qutrit), (qutrit, qubit), (qubit, np.outer(qubit, qubit))]:
        with pytest.raises(DimensionMismatchError):
            clifford_equivalence_search(psi1, psi2, dims, budget=100)


@pytest.mark.parametrize("N", [5, 6])
def test_search_beyond_the_dictionary_budget(N):
    # the search holds 2^N-amplitude vectors, where the dictionary is refused
    dims = Dims(2, N)
    with pytest.raises(BudgetExceededError, match="stabilizer dictionary"):
        enumerate_stabilizer_states(dims)
    zero = np.eye(dims.D, dtype=complex)[0]
    target = word_unitary(("H@1", "S@2", "H@2", "CZ@1,3"), dims) @ zero
    word = clifford_equivalence_search(zero, target, dims, budget=100000)
    assert word is not None
    assert equal_up_to_phase(word_unitary(word, dims) @ zero, target)
