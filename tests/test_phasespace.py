import pickle
import re
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditmagic.errors import BudgetExceededError, DimensionMismatchError, NonInvertibleError
from quditmagic.phasespace import (
    Dims,
    basis_keys,
    count_maximal_isotropic,
    enumerate_maximal_isotropic,
    is_symplectic,
    mod_inverse,
    phase_points,
    reduce_by_pivots,
    row_reduce,
    symplectic_group_order,
    symplectic_product,
)

from oracles import enumerate_symplectic_2x2, point, span_elements


def subspaces(dims):
    """The enumerated bases, one (N, 2N) array per subspace."""
    return list(enumerate_maximal_isotropic(dims))


def contains(basis, chi, d):
    """Whether chi lies in the span of the basis rows."""
    return bool(np.any(np.all(span_elements(basis, d) == np.asarray(chi) % d, axis=1)))


def brute_force_lines(d):
    """Independent oracle: all 1-dim subspaces of Z_d^2 via exhaustive scan."""
    seen = set()
    for v in phase_points(Dims(d, 1)):
        if not np.any(v):
            continue
        line = frozenset(tuple((k * v) % d) for k in range(d))
        seen.add(line)
    return seen


def test_dims_holds_D_and_compares_by_d_and_N():
    dims = Dims(3, 2)
    assert type(dims.D) is int and dims.D == 9
    for name in ("D", "d", "N"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(dims, name, 4)
    assert dims == Dims(3, 2) and dims != Dims(3, 1) and dims != Dims(2, 3)
    assert hash(dims) == hash((3, 2)) and {dims, Dims(3, 2)} == {Dims(3, 2)}
    assert repr(dims) == "Dims(d=3, N=2)"
    assert dims.__reduce__() == (Dims, (3, 2))
    back = pickle.loads(pickle.dumps(dims))
    assert back == dims and hash(back) == hash(dims) and back.D == 9


@pytest.mark.parametrize("d, N", [(3.9, 1), (2, 1.5), (2.0, 1), (3, 1.0), (True, 1),
                                  (2, True), ("3", 1), (np.float64(3), 1)])
def test_dims_refuses_non_integers(d, N):
    # 3.9 never entered the primality loop, and 1.5 made D = 2 ** 1.5
    with pytest.raises(ValueError, match="must be integers"):
        Dims(d, N)


def test_dims_reads_numpy_integers_as_ints():
    dims = Dims(np.int64(3), np.int64(2))
    assert dims == Dims(3, 2) and dims.D == 9
    assert all(type(v) is int for v in (dims.d, dims.N, dims.D))


def test_mod_inverse_examples():
    assert mod_inverse(2, 3) == 2
    assert mod_inverse(1, 5) == 1
    # derived by exhaustive scan of Z_5
    expected = next(x for x in range(5) if (3 * x) % 5 == 1)
    assert mod_inverse(3, 5) == expected == 2
    with pytest.raises(NonInvertibleError):
        mod_inverse(0, 5)
    with pytest.raises(NonInvertibleError):
        mod_inverse(10, 5)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 100))
def test_mod_inverse_property(d, a):
    if a % d == 0:
        return
    assert (mod_inverse(a, d) * a) % d == 1


def test_symplectic_product_examples():
    d3 = Dims(3, 1)
    assert symplectic_product(point(1, 0, d3), point(0, 1, d3), 3) == 1
    d5 = Dims(5, 1)
    assert symplectic_product(point(2, 1, d5), point(1, 2, d5), 5) == 3


@settings(max_examples=50)
@given(st.sampled_from([2, 3, 5]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_symplectic_antisymmetry_bilinearity(d, seed1, seed2):
    rng = np.random.default_rng(seed1 * 7 + seed2)
    c1 = rng.integers(0, d, size=4)
    c2 = rng.integers(0, d, size=4)
    c3 = rng.integers(0, d, size=4)
    s12 = symplectic_product(c1, c2, d)
    assert (s12 + symplectic_product(c2, c1, d)) % d == 0
    assert symplectic_product(c1, c1, d) == 0
    lhs = symplectic_product((c1 + c2) % d, c3, d)
    rhs = (symplectic_product(c1, c3, d) + symplectic_product(c2, c3, d)) % d
    assert lhs == rhs


def test_antisymmetry_exhaustive_n1():
    for d in (2, 3, 5):
        pts = phase_points(Dims(d, 1))
        prods = symplectic_product(pts[:, None, :], pts[None, :, :], d)
        assert np.all((prods + prods.T) % d == 0)


def test_is_symplectic():
    assert is_symplectic(np.eye(2, dtype=int), 3)
    assert is_symplectic(np.array([[0, -1], [1, 0]]), 3)
    assert is_symplectic(np.array([[1, 1], [0, 1]]), 3)
    assert not is_symplectic(np.array([[2, 0], [0, 1]]), 3)  # det = 2 mod 3


def test_symplectic_group_order_brute():
    for d in (2, 3, 5):
        assert len(enumerate_symplectic_2x2(d)) == symplectic_group_order(d, 1)


def test_maximal_isotropic_counts():
    assert len(enumerate_maximal_isotropic(Dims(3, 1))) == 4
    assert len(enumerate_maximal_isotropic(Dims(5, 1))) == 6
    # must equal stabilizer count 60 / d^N = 15
    assert len(enumerate_maximal_isotropic(Dims(2, 2))) == 15
    for d, N in ((2, 3), (3, 2), (5, 2)):
        subs = enumerate_maximal_isotropic(Dims(d, N))
        assert len(subs) == count_maximal_isotropic(Dims(d, N))


def test_lines_match_brute_force():
    for d in (2, 3, 5):
        subs = subspaces(Dims(d, 1))
        got = {frozenset(map(tuple, span_elements(s, d).tolist())) for s in subs}
        assert got == brute_force_lines(d)


def test_subspace_structure():
    for d, N in ((3, 1), (2, 2)):
        dims = Dims(d, N)
        for sub in subspaces(dims):
            elements = span_elements(sub, d)
            assert elements.shape[0] == dims.D
            # closed under addition
            sums = (elements[:, None, :] + elements[None, :, :]) % d
            members = {tuple(r) for r in elements.tolist()}
            assert all(tuple(r) in members
                       for r in sums.reshape(-1, 2 * N).tolist())
            prods = symplectic_product(elements[:, None, :], elements[None, :, :], d)
            assert np.all(prods == 0)


def test_budget_errors():
    # _isotropic_bytes: per subspace four N x 2N stacks, an int64 sort index
    # and an N x N product, plus 1 MiB; 1.28e10 for six qubits
    nbytes = 3 * 5 * 9 * 17 * 33 * 65 * (4 * 6 * 12 + 1 + 6 * 6) * 8 + 2 ** 20
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape(f"{nbytes:.3g} bytes")):
        enumerate_maximal_isotropic(Dims(2, 6))
    assert time.perf_counter() - start < 1.0
    assert Dims(2, 11).D == 2048  # Dims itself sets no size limit


def test_row_reduce_canonical():
    mat = row_reduce(np.array([[2, 2, 0, 0], [1, 1, 1, 1]]), 3)
    again = row_reduce(mat[::-1], 3)
    assert np.array_equal(mat, again)


def test_reduce_mod_canonical_coset():
    dims = Dims(3, 1)
    sub = enumerate_maximal_isotropic(dims)[0]
    for chi in phase_points(dims):
        rep = reduce_by_pivots(chi, sub, 3)
        assert contains(sub, (chi - rep) % 3, 3)


def _isotropic_by_row_reduction(dims):
    """Reference enumeration: every orthogonal point outside the span extends
    the basis, and every extension is row-reduced to its canonical key."""
    d = dims.d
    pts = phase_points(dims)
    level = {b"": np.zeros((0, 2 * dims.N), dtype=np.int64)}
    for _ in range(dims.N):
        nxt = {}
        for basis in level.values():
            members = span_elements(basis, d)
            if basis.shape[0]:
                ok = np.all(symplectic_product(pts[:, None, :], basis[None, :, :], d) == 0, axis=1)
                candidates = pts[ok]
            else:
                candidates = pts
            in_span = (candidates[:, None, :] == members[None, :, :]).all(axis=2).any(axis=1)
            for chi in candidates[~in_span]:
                new = row_reduce(np.vstack([basis, chi[None, :]]), d)
                nxt[new.tobytes()] = new
        level = nxt
    return sorted(level)


@pytest.mark.parametrize("d,N", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_isotropic_enumeration_matches_row_reduction_oracle(d, N):
    dims = Dims(d, N)
    subs = subspaces(dims)
    assert [s.tobytes() for s in subs] == _isotropic_by_row_reduction(dims)
    assert all(s.shape == (N, 2 * N) for s in subs)  # every subspace is maximal


def test_reduce_mod_vectorizes_over_points():
    dims = Dims(3, 2)
    sub = enumerate_maximal_isotropic(dims)[7]
    pts = phase_points(dims)
    reps = reduce_by_pivots(pts, sub, 3)
    assert np.array_equal(reps, np.array([reduce_by_pivots(chi, sub, 3) for chi in pts]))
    assert len({r.tobytes() for r in reps}) == dims.D


def test_reduce_by_pivots_over_a_stack_of_bases():
    dims = Dims(3, 2)
    subs = subspaces(dims)
    pts = phase_points(dims)
    stacked = reduce_by_pivots(np.broadcast_to(pts, (len(subs),) + pts.shape),
                               enumerate_maximal_isotropic(dims)[:, None], 3)
    assert np.array_equal(stacked, np.array([reduce_by_pivots(pts, s, 3) for s in subs]))


def _isotropic_by_canonical_rows(dims):
    """Reference enumeration, level by level: each extension of a basis is
    identified by one canonical row (an orthogonal point with the basis pivots
    cleared and a unit leading entry), and its RREF is formed by clearing that
    row's pivot column from the basis and inserting the row in pivot order."""
    d = dims.d
    pts = phase_points(dims)
    place = d ** np.arange(2 * dims.N - 1, -1, -1)
    inverse = np.array([0] + [mod_inverse(a, d) for a in range(1, d)])
    level = {b"": np.zeros((0, 2 * dims.N), dtype=np.int64)}
    for _ in range(dims.N):
        nxt = {}
        for basis in level.values():
            ok = np.all(symplectic_product(pts[:, None, :], basis[None, :, :], d) == 0, axis=1)
            rows = reduce_by_pivots(pts[ok], basis, d)
            rows = rows[np.any(rows != 0, axis=1)]
            lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
            rows = rows * inverse[lead][:, None] % d
            rows = rows[np.unique(rows @ place, return_index=True)[1]]
            pivot = np.argmax(rows != 0, axis=1)
            cleared = (basis - basis[:, pivot].T[:, :, None] * rows[:, None, :]) % d
            ext = np.concatenate([cleared, rows[:, None, :]], axis=1)
            order = np.argsort(np.concatenate(
                [np.broadcast_to(np.argmax(basis != 0, axis=1), cleared.shape[:2]),
                 pivot[:, None]], axis=1), axis=1)
            for new in np.take_along_axis(ext, order[:, :, None], axis=1):
                nxt[new.tobytes()] = new
        level = nxt
    return [level[key] for key in sorted(level)]


@pytest.mark.parametrize("d,N", [(7, 1), (7, 2), (3, 3)])
def test_isotropic_enumeration_matches_canonical_row_oracle(d, N):
    dims = Dims(d, N)
    subs = subspaces(dims)
    oracle = _isotropic_by_canonical_rows(dims)
    assert [s.tobytes() for s in subs] == [b.tobytes() for b in oracle]


def _gaussian_binomial(N, k, d):
    """[N choose k]_d, the number of k-dimensional subspaces of Z_d^N."""
    num = den = 1
    for i in range(k):
        num *= d ** (N - i) - 1
        den *= d ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("d,N", [(2, 4), (3, 3), (7, 2)])
def test_isotropic_counts_per_p_block_rank(d, N):
    ranks = Counter(int(np.count_nonzero(np.any(b[:, :N] != 0, axis=1)))
                    for b in enumerate_maximal_isotropic(Dims(d, N)))
    assert ranks == {k: _gaussian_binomial(N, k, d) * d ** (k * (k + 1) // 2)
                     for k in range(N + 1)}


def test_lagrangian_count_identity():
    assert [_gaussian_binomial(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]
    for d in (2, 3, 5, 7):
        for N in range(1, 7):
            total = sum(_gaussian_binomial(N, k, d) * d ** (k * (k + 1) // 2)
                        for k in range(N + 1))
            assert total == count_maximal_isotropic(Dims(d, N))


ORDER_DIMS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
              (5, 1), (5, 2), (7, 1), (7, 2)]


@pytest.mark.parametrize("d,N", ORDER_DIMS)
def test_enumeration_is_one_array_in_bytes_order(d, N):
    # the void-view argsort orders the bases as a sort of their Python bytes
    bases = enumerate_maximal_isotropic(Dims(d, N))
    assert bases.shape == (count_maximal_isotropic(Dims(d, N)), N, 2 * N)
    assert bases.dtype == np.int64 and bases.flags.c_contiguous
    keys = [b.tobytes() for b in bases]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_basis_keys_view_and_search():
    bases = enumerate_maximal_isotropic(Dims(3, 2))
    keys = basis_keys(bases)
    assert keys.shape == (len(bases),) and np.shares_memory(keys, bases)
    for i in (0, 17, len(bases) - 1):
        assert np.searchsorted(keys, basis_keys(bases[i][None])[0]) == i


def test_malformed_arguments_refused():
    with pytest.raises(ValueError, match="not prime"):
        Dims(1, 1)
    with pytest.raises(ValueError, match="must be >= 1"):
        Dims(3, 0)
    assert Dims(3, 1).__eq__((3, 1)) is NotImplemented and Dims(3, 1) != (3, 1)
    with pytest.raises(DimensionMismatchError, match="point lengths differ"):
        symplectic_product([1, 0], [1, 0, 0, 0], 3)
    assert not is_symplectic(np.eye(2, 4, dtype=np.int64), 3)
    # a single row is read as a one-row matrix
    assert np.array_equal(row_reduce([2, 1, 0, 2], 3), [[1, 2, 0, 1]])
