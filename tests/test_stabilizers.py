import csv
import functools
import hashlib
import io
import itertools
import json
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from quditmagic import stabilizers
from quditmagic.catalog import build, verify_catalog
from quditmagic.cli import main
from quditmagic.clifford import clifford_group_order, enumerate_reduced_clifford
from quditmagic.errors import BudgetExceededError, DimensionMismatchError, InvalidStabilizerError
from quditmagic.measures import stabilizer_fidelity
from quditmagic.measures import wigner_function
from quditmagic.phasespace import (
    Dims,
    count_maximal_isotropic,
    enumerate_maximal_isotropic,
    phase_points,
    point_index,
    reduce_by_pivots,
    symplectic_product,
)
from quditmagic.stabilizers import (
    StabilizerState,
    _dictionary_bytes,
    enumerate_stabilizer_states,
    max_overlap,
    stabilizer_count,
    stabilizer_state,
)
from quditmagic.weyl import (
    displace,
    equal_up_to_phase,
    phase_normalize,
    unit_phase,
)

from oracles import displacement_table, kron_displacement, point, span_elements

# the dims whose dictionaries the oracle tests rebuild (the seven-dim oracle
# lists add (5, 2))
ENUMERATED = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]


def subspaces(dims):
    """The enumerated bases, one (N, 2N) array per subspace."""
    return list(enumerate_maximal_isotropic(dims))


def contains(basis, chi, d):
    """Whether chi lies in the span of the basis rows."""
    return bool(np.any(np.all(span_elements(basis, d) == np.asarray(chi) % d, axis=1)))


def test_z_line_gives_ket0():
    dims = Dims(3, 1)
    M = next(s for s in subspaces(dims) if contains(s, point(0, 1, dims), 3))
    st = stabilizer_state(M, point(0, 0, dims), dims)
    assert np.allclose(st.vector, [1, 0, 0])


def test_x_line_gives_uniform():
    dims = Dims(3, 1)
    M = next(s for s in subspaces(dims) if contains(s, point(1, 0, dims), 3))
    st = stabilizer_state(M, point(0, 0, dims), dims)
    assert np.allclose(st.vector, np.ones(3) / np.sqrt(3))


def test_same_coset_same_ray():
    dims = Dims(3, 1)
    M = subspaces(dims)[0]
    chi = point(1, 2, dims)
    shifted = (chi + span_elements(M, 3)[1]) % 3
    s1 = stabilizer_state(M, chi, dims)
    s2 = stabilizer_state(M, shifted, dims)
    assert equal_up_to_phase(s1.vector, s2.vector)


@pytest.mark.parametrize("d,N,count", [(2, 1, 6), (3, 1, 12), (5, 1, 30),
                                       (2, 2, 60), (2, 3, 1080)])
def test_dictionary_counts(d, N, count):
    dd = enumerate_stabilizer_states(Dims(d, N))
    assert len(dd) == count == stabilizer_count(Dims(d, N))
    # pairwise distinct rays
    G = np.abs(dd.matrix.conj() @ dd.matrix.T)
    np.fill_diagonal(G, 0.0)
    assert np.max(G) < 1 - 1e-9


def test_every_state_passes_its_equations():
    for d, N in ((2, 1), (3, 1), (5, 1), (2, 2)):
        dd = enumerate_stabilizer_states(Dims(d, N))
        assert all(s.check(tol=1e-9) for s in dd)


def test_qutrit_stabilizer_wigner_support():
    # Wigner of |M, chi> is 1/d on an affine line and 0 elsewhere; with the
    # eigenvalue equation w^<chi,m> T_m psi = psi the state is T_(-chi)|M,0>,
    # so the supporting coset is M - chi
    dims = Dims(3, 1)
    for s in enumerate_stabilizer_states(dims):
        W = wigner_function(s.vector, dims).values
        support = (span_elements(s.basis, 3) - s.displacement) % 3
        idx = {int(3 * p[0] + p[1]) for p in support}
        for k, w in enumerate(W):
            target = 1 / 3 if k in idx else 0.0
            assert abs(w - target) < 1e-12
        assert np.min(W) > -1e-12  # non-negative for odd d


def test_max_overlap_stabilizer_input():
    dims = Dims(3, 1)
    dd = enumerate_stabilizer_states(dims)
    F, near = max_overlap(dd[5].vector, dd)
    assert abs(F - 1) < 1e-12 and len(near) == 1


def test_max_overlap_T0():
    dims = Dims(2, 1)
    dd = enumerate_stabilizer_states(dims)
    T0 = np.array([np.sqrt((3 + np.sqrt(3)) / 6),
                   np.exp(1j * np.pi / 4) * np.sqrt((3 - np.sqrt(3)) / 6)])
    F, near = max_overlap(T0, dd)
    assert abs(F - (3 + np.sqrt(3)) / 6) < 1e-12
    expected = [np.array([1, 0]), np.array([1, 1]) / np.sqrt(2),
                np.array([1, 1j]) / np.sqrt(2)]
    assert len(near) == 3
    for e in expected:
        assert any(equal_up_to_phase(e, s.vector) for s in near)


def test_max_overlap_strange_state():
    dd = enumerate_stabilizer_states(Dims(3, 1))
    S = np.array([0, 1, -1]) / np.sqrt(2)
    F, near = max_overlap(S, dd)
    assert abs(F - 0.5) < 1e-12 and len(near) == 8


def test_budget():
    # _dictionary_bytes: per state three D-vectors, an int64 D-index and six
    # 2N points, plus the enumeration's bound (per subspace four N x 2N
    # stacks, an int64 sort index and an N x N product, plus 1 MiB) and 1 MiB
    # for the build's own first calls; 5.64e9 for five qubits
    nbytes = (32 * 3 * 5 * 9 * 17 * 33 * (3 * 32 * 16 + 32 * 8 + 6 * 10 * 8)
              + 3 * 5 * 9 * 17 * 33 * (4 * 5 * 10 + 1 + 5 * 5) * 8 + 2 * 2 ** 20)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape(f"{nbytes:.3g} bytes")):
        enumerate_stabilizer_states(Dims(2, 5))
    assert time.perf_counter() - start < 1.0


def test_budget_message_for_estimates_beyond_float_range():
    dims = Dims(2, 45)
    nbytes = _dictionary_bytes(dims)  # about 2^1131, past the float range
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape(f"about 2^{nbytes.bit_length() - 1} bytes")):
        enumerate_stabilizer_states(dims)
    assert time.perf_counter() - start < 1.0


def test_newly_admitted_dims():
    for d, N in [(2, 4), (3, 3), (5, 2), (7, 2)]:
        dims = Dims(d, N)
        dd = enumerate_stabilizer_states(dims)
        cosets = Counter(s.basis.tobytes() for s in dd)
        assert len(dd) == stabilizer_count(dims)
        assert len(cosets) == count_maximal_isotropic(dims)
        assert set(cosets.values()) == {dims.D}
        assert all(dd[i].check() for i in range(0, len(dd), 97))
    # stabilizer fidelity is multiplicative for products of single-qubit states
    F, nearest = stabilizer_fidelity(
        functools.reduce(np.kron, [build("qubit:T0")] * 4), dims=Dims(2, 4))
    assert abs(F - ((3 + math.sqrt(3)) / 6) ** 4) < 1e-12
    assert len(nearest) == 81
    els = enumerate_reduced_clifford(Dims(7, 1))
    assert len(els) == 16464 == clifford_group_order(Dims(7, 1))
    assert len({(e.symplectic.tobytes(), e.displacement.tobytes()) for e in els}) == 16464


def test_dictionary_dump_round_trip(capsys):
    dd = enumerate_stabilizer_states(Dims(3, 1))
    assert main(["dictionary", "--dims", "3,1", "--json"]) == 0
    states = json.loads(capsys.readouterr().out)["states"]
    assert len(states) == 12
    for s, rec in zip(dd, states):
        assert rec["basis"] == s.basis.tolist() and rec["displacement"] == s.displacement.tolist()
        assert np.array_equal(np.array(rec["amplitudes"]) @ [1, 1j], s.vector)
    assert main(["dictionary", "--dims", "3,1"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out.strip())))
    assert rows[0] == ["basis", "displacement", "amplitudes"] and len(rows) == 13
    for s, (_, _, amps) in zip(dd, rows[1:]):
        assert np.array_equal([complex(a) for a in amps.split(";")], s.vector)


def test_lookup_by_subspace_and_coset():
    # every coset of every subspace, named by a random member: lookup finds
    # the state at position rank(M) * D + coset index, and the single-coset
    # construction agrees with it
    rng = np.random.default_rng(11)
    for d, N in ENUMERATED:
        dims = Dims(d, N)
        dd = enumerate_stabilizer_states(dims)
        for pos in range(len(dd)):
            M = dd.bases[pos // dims.D]
            chi = (dd.displacements[pos] + span_elements(M, d)[rng.integers(dims.D)]) % d
            s = dd.lookup(M, chi)
            ref = dd[pos]
            assert np.array_equal(s.basis, M)
            assert np.array_equal(ref.basis, M)
            assert np.array_equal(s.displacement, ref.displacement)
            assert np.array_equal(s.vector, ref.vector)
            assert np.max(np.abs(stabilizer_state(M, chi, dims).vector - s.vector)) < 1e-12
    # a nested-list basis and a list chi name the same state
    assert np.array_equal(dd.lookup(M.tolist(), chi.tolist()).vector, s.vector)
    with pytest.raises(KeyError):  # a basis without unit pivots is no dictionary key
        dd.lookup(2 * M % d, chi)
    with pytest.raises(KeyError):  # nor is a basis of fewer than N rows
        dd.lookup(M[:-1], chi)
    with pytest.raises(KeyError):  # nor one of other dims
        dd.lookup(M[:, 1:], chi)
    with pytest.raises(KeyError):  # nor a single row
        dd.lookup(M[0], chi)


def test_stabilizer_state_checks_its_basis():
    dims = Dims(3, 2)
    M, chi = enumerate_maximal_isotropic(dims)[5], np.array([1, 0, 2, 2])
    st = stabilizer_state(M.tolist(), chi, dims)  # a nested list is a basis too
    assert st.basis.dtype == np.int64 and np.array_equal(st.basis, M)
    assert st.dims == dims and st.check()
    assert np.array_equal(st.vector, enumerate_stabilizer_states(dims).lookup(M, chi).vector)
    for wrong_width in (M[:, :3], M[0], np.zeros((2, 2), dtype=np.int64)):
        with pytest.raises(DimensionMismatchError):
            stabilizer_state(wrong_width, chi, dims)
    with pytest.raises(DimensionMismatchError):
        stabilizer_state(M, chi, Dims(3, 1))
    for wrong_rows in (M[:1], np.concatenate([M, M[:1]])):
        with pytest.raises(InvalidStabilizerError, match="not maximal"):
            stabilizer_state(wrong_rows, chi, dims)
    # X and Z on the first qudit: an echelon basis whose rows do not commute
    for d in (2, 3):
        with pytest.raises(InvalidStabilizerError):
            stabilizer_state([[1, 0, 0, 0], [0, 0, 1, 0]], [0, 0, 0, 0], Dims(d, 2))
    # N rows that are not the echelon basis of a maximal subspace: a zero row,
    # a row that is zero mod d, a repeated row, and a non-unit pivot, whose
    # reduction would label chi = (1, 0) by (2, 0) rather than by (0, 0)
    for rows, chi, dims in (([[0, 0]], [0, 0], Dims(3, 1)), ([[3, 0]], [0, 0], Dims(3, 1)),
                            ([[1, 0, 0, 0], [1, 0, 0, 0]], [0, 0, 0, 0], Dims(3, 2)),
                            ([[2, 0]], [1, 0], Dims(3, 1))):
        with pytest.raises(InvalidStabilizerError, match="echelon"):
            stabilizer_state(rows, chi, dims)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 1), (3, 2)])
def test_every_dictionary_basis_builds_its_states(d, N):
    dims = Dims(d, N)
    dd = enumerate_stabilizer_states(dims)
    for M in dd.bases:
        for chi in (np.zeros(2 * N, dtype=np.int64), np.arange(1, 2 * N + 1)):
            assert np.array_equal(stabilizer_state(M, chi, dims).vector,
                                  dd.lookup(M, chi).vector)


def test_dictionary_builds_no_state_objects(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("StabilizerState built")

    stabilizers._dictionary_cached.cache_clear()
    monkeypatch.setattr(stabilizers, "StabilizerState", forbidden)
    for d, N in ENUMERATED:
        dd = enumerate_stabilizer_states(Dims(d, N))
        assert len(dd) == len(dd.matrix) == len(dd.displacements)
        assert not dd.matrix.flags.owndata  # a view of the build's coset vectors
        with pytest.raises(AssertionError, match="StabilizerState built"):
            dd[0]
    monkeypatch.undo()
    assert dd[0].check()


def test_records_are_built_only_for_the_states_read(monkeypatch):
    # one StabilizerState per state read, none per build, tie count or nearest set
    built = []

    def counted(*args):
        built.append(args)
        return StabilizerState(*args)

    stabilizers._dictionary_cached.cache_clear()
    monkeypatch.setattr(stabilizers, "StabilizerState", counted)
    for d, N in ENUMERATED + [(5, 2)]:
        dims = Dims(d, N)
        dd = enumerate_stabilizer_states(dims)
        assert dd.bases.shape == (count_maximal_isotropic(dims), N, 2 * N)
    assert built == []
    dd[7]
    assert len(built) == 1
    built.clear()
    _, near = max_overlap(build("qutrit:S"), enumerate_stabilizer_states(Dims(3, 1)))
    assert len(near) == 8 and built == []
    near[-1]
    assert len(built) == 1
    list(itertools.islice(near, 9))  # one past the end: iteration stops after 8
    assert len(built) == 1 + 8
    built.clear()
    assert not [c for c in verify_catalog() if not c.passed]
    assert built == []


def test_dictionary_indexing_is_list_like():
    dd = enumerate_stabilizer_states(Dims(3, 2))
    n = len(dd)
    for i in (0, 7, n - 1):
        for j in (i, i - n):
            s = dd[j]
            assert np.array_equal(s.basis, dd.bases[i // 9])
            assert np.shares_memory(s.vector, dd.matrix)
            assert np.array_equal(s.vector, dd.matrix[i])
            assert np.array_equal(s.displacement, dd.displacements[i])
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            dd[bad]
    assert [s.displacement.tolist() for s in dd] == dd.displacements.tolist()


# sha1 of the dictionary's integer labels in order, (subspace key bytes,
# displacement bytes) per state, as built by the per-state construction the
# array layout replaced
LABEL_SHA1 = {
    (2, 1): "219cdc28305f4234b8140d116a4a6fc4f30876ba",
    (2, 2): "931044e587a7c1dcd12d18a4318aeac72322e4ed",
    (2, 3): "4e06d37f651a162b000b84c9b204dabe06d06e5f",
    (3, 1): "640fadfbe7cbdd2ed4223e7fb63c343d8597ee02",
    (3, 2): "03a44216314c718265bb24f21868af9470143a53",
    (5, 1): "ed85dac46b994529ad0d48ee4a50aae1914557cc",
    (5, 2): "3d3cf6bd27fb2576e0d92c4f054f8d49201ba27a",
    (7, 1): "a155d4b5e80b875487926880211ff70b150c8d81",
    (2, 4): "5cc14020f32779424bdd9728eeed3da4c699fea8",
    (3, 3): "2764a9f46f0036bbe22f49b8c0f921a34e1f8194",
    (7, 2): "76a8b1d00057b2483742d52aa1ec269c27eb756c",
}


@pytest.mark.parametrize("d,N", list(LABEL_SHA1))
def test_dictionary_labels_pinned(d, N):
    dims = Dims(d, N)
    dd = enumerate_stabilizer_states(dims)
    h = hashlib.sha1()
    for pos, chi in enumerate(dd.displacements.astype("<i8")):
        h.update(dd.bases[pos // dims.D].astype("<i8").tobytes())
        h.update(chi.tobytes())
    assert h.hexdigest() == LABEL_SHA1[(d, N)]


def _projector_state(M, chi, dims):
    """Reference construction: the dominant column of the rank-one projector
    d^-N sum_m omega^<chi,m> T_m (odd d) or prod_i (I + s_i T_(b_i)) / 2
    (d = 2) on the dense displacement table, phase-normalized."""
    d, D = dims.d, dims.D
    T = displacement_table(dims)
    if d == 2:
        proj = np.eye(D, dtype=np.complex128)
        for b in M:
            sign = (-1) ** int(symplectic_product(chi, b, d))
            proj = proj @ (np.eye(D) + sign * T[point_index(b, dims)]) / 2.0
    else:
        proj = np.zeros((D, D), dtype=np.complex128)
        for m in span_elements(M, d):
            proj += unit_phase(symplectic_product(chi, m, d), d) * T[point_index(m, dims)]
        proj /= D
    v = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    return phase_normalize(v / np.linalg.norm(v))


def _projector_dictionary(dims):
    """Reference dictionary: subspaces in enumeration order, cosets in order of
    first appearance of their canonical representative among the points."""
    out = []
    for M in subspaces(dims):
        seen = set()
        for chi in phase_points(dims):
            rep = reduce_by_pivots(chi, M, dims.d)
            if rep.tobytes() not in seen:
                seen.add(rep.tobytes())
                out.append((M.tobytes(), rep.tobytes(), _projector_state(M, rep, dims)))
    return out


@pytest.mark.parametrize("d,N", ENUMERATED + [(5, 2)])
def test_dictionary_matches_projector_oracle(d, N):
    dims = Dims(d, N)
    dd = enumerate_stabilizer_states(dims)
    ref = _projector_dictionary(dims)
    assert [(s.basis.tobytes(), s.displacement.tobytes()) for s in dd] == \
        [(key, disp) for key, disp, _ in ref]
    assert np.max(np.abs(dd.matrix - np.array([v for _, _, v in ref]))) < 1e-12


@pytest.mark.parametrize("d,N", [(2, 4), (3, 3), (7, 2)])
def test_coset_representatives_match_first_appearance(d, N):
    """The closed-form representatives (zero at the pivot columns, free
    columns in lex order) equal the per-subspace scan they replaced: every
    point reduced mod M, kept in order of first appearance."""
    dims = Dims(d, N)
    pts = phase_points(dims)
    place = d ** np.arange(2 * N - 1, -1, -1)
    reps = []
    for M in subspaces(dims):
        chis = reduce_by_pivots(pts, M, d)
        _, first = np.unique(chis @ place, return_index=True)
        reps.append(chis[np.sort(first)])
    dd = enumerate_stabilizer_states(dims)
    assert np.array_equal(np.array([s.displacement for s in dd]),
                          np.concatenate(reps))


def test_single_coset_matches_dictionary():
    rng = np.random.default_rng(5)
    for d, N in ENUMERATED:
        dims = Dims(d, N)
        dd = enumerate_stabilizer_states(dims)
        for M in subspaces(dims)[::7]:
            chi = rng.integers(d, size=2 * N)  # any member of the coset
            st = stabilizer_state(M, chi, dims)
            assert np.array_equal(st.displacement, reduce_by_pivots(chi, M, d))
            assert np.max(np.abs(st.vector - dd.lookup(M, chi).vector)) < 1e-12
            assert st.check(tol=1e-10)


@pytest.mark.parametrize("d,N", [(3, 1), (3, 2), (5, 2)])
def test_flipped_coset_sign_raises_for_odd_d(monkeypatch, d, N):
    # the equations are checked on the N basis rows only; a wrong phase
    # omega^(<chi, b_i>) on any single row is still caught
    dims = Dims(d, N)
    M = subspaces(dims)[-1]
    chi = np.arange(2 * N) % d
    for row in range(N):
        calls = iter(range(N))

        def flipped(a, b, d, row=row, calls=calls):
            return (symplectic_product(a, b, d) + (next(calls) == row)) % d

        monkeypatch.setattr(stabilizers, "symplectic_product", flipped)
        with pytest.raises(InvalidStabilizerError):
            stabilizer_state(M, chi, dims)
    monkeypatch.undo()
    st = stabilizer_state(M, chi, dims)
    assert st.check()
    # the vector of another coset fails the equations of this one
    off = next(p for p in phase_points(dims) if not contains(M, p, d))
    other = stabilizer_state(M, chi + off, dims)
    assert not StabilizerState(M, st.displacement, other.vector, dims).check()


def test_dictionary_builds_no_table():
    stabilizers._dictionary_cached.cache_clear()
    for d, N in ENUMERATED + [(5, 2)]:
        dims = Dims(d, N)
        dd = enumerate_stabilizer_states(dims)
        assert len(dd) == stabilizer_count(dims)
        assert dd[-1].check()


@pytest.mark.parametrize("d,N", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_displace_matches_dense_operator(d, N):
    dims = Dims(d, N)
    rng = np.random.default_rng(d + N)
    pts = phase_points(dims)
    V = rng.normal(size=(len(pts), dims.D)) + 1j * rng.normal(size=(len(pts), dims.D))
    # the Kronecker oracle, so that the plan is not checked against itself
    dense = np.array([kron_displacement(chi, dims) @ v for chi, v in zip(pts, V)])
    assert np.max(np.abs(displace(pts, V, dims) - dense)) < 1e-12
    # one label on many vectors, and many labels on one vector
    assert np.max(np.abs(displace(pts[-1], V, dims) - V @ kron_displacement(pts[-1], dims).T)) < 1e-12
    assert np.max(np.abs(displace(pts, V[0], dims)
                         - np.array([kron_displacement(chi, dims) @ V[0] for chi in pts]))) < 1e-12
