"""Arithmetic over Z_d and the discrete phase space Z_d^N x Z_d^N.

Phase-space points chi = (p, q) are stored as flat integer arrays of length
2N with the p block first.  All enumeration orders are lexicographic in
(p, q) so that tables and Wigner vectors are reproducible run to run.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import DimensionMismatchError, NonInvertibleError, check_budget


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class Dims:
    """System shape: N qudits of prime dimension d; immutable and hashable.

    A slotted class rather than a NamedTuple: every kernel reads its fields,
    and slot reads cost about half of NamedTuple field reads.  D = d^N is a
    slot too, set once, since a measure call reads it several times; equality,
    hashing and pickling go by (d, N) alone."""

    __slots__ = ("d", "N", "D")

    def __init__(self, d: int, N: int = 1):
        if any(isinstance(v, bool) or not hasattr(v, "__index__") for v in (d, N)):
            raise ValueError(f"d={d!r}, N={N!r}: both must be integers")
        d, N = operator.index(d), operator.index(N)
        if not _is_prime(d):
            raise ValueError(f"d={d} is not prime")
        if N < 1:
            raise ValueError(f"N={N} must be >= 1")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "D", d ** N)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Dims.{name}: Dims is immutable")

    def __reduce__(self):
        return self.__class__, (self.d, self.N)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and self.N == other.N

    def __hash__(self) -> int:
        return hash((self.d, self.N))

    def __repr__(self) -> str:
        return f"Dims(d={self.d}, N={self.N})"

    @property
    def odd(self) -> bool:
        return self.d % 2 == 1

    @property
    def n_points(self) -> int:
        """Number of phase-space points d^(2N)."""
        return self.d ** (2 * self.N)


def mod_inverse(a: int, d: int) -> int:
    """Inverse of a in Z_d (d prime).  Raises NonInvertibleError on a = 0 mod d."""
    a = int(a) % d
    if a == 0:
        raise NonInvertibleError(f"{a} has no inverse mod {d}")
    return pow(a, -1, d)


def lex_grid(d: int, n: int) -> np.ndarray:
    """All d^n tuples over Z_d as a (d^n, n) int64 array, in lexicographic order."""
    return np.ascontiguousarray(np.indices((d,) * n).reshape(n, d ** n).T, dtype=np.int64)


def phase_points(dims: Dims) -> np.ndarray:
    """All d^(2N) points as a (d^(2N), 2N) array, lexicographic in (p, q)."""
    check_budget(dims.n_points * 2 * dims.N * 8, f"the phase-point array for {dims}")
    return lex_grid(dims.d, 2 * dims.N)


def point_index(chi: np.ndarray, dims: Dims) -> int:
    """Index of a point in the lexicographic `phase_points` ordering."""
    chi = np.asarray(chi, dtype=np.int64) % dims.d
    idx = 0
    for c in chi:
        idx = idx * dims.d + int(c)
    return idx


def symplectic_form(N: int) -> np.ndarray:
    """Standard symplectic form J with <chi1, chi2> = chi1^T J chi2."""
    J = np.zeros((2 * N, 2 * N), dtype=np.int64)
    J[:N, N:] = np.eye(N, dtype=np.int64)
    J[N:, :N] = -np.eye(N, dtype=np.int64)
    return J


def symplectic_product(chi1, chi2, d: int):
    """<(p,q), (p',q')> = p.q' - q.p' mod d.  Vectorizes over leading axes."""
    chi1 = np.asarray(chi1, dtype=np.int64)
    chi2 = np.asarray(chi2, dtype=np.int64)
    if chi1.shape[-1] != chi2.shape[-1]:
        raise DimensionMismatchError(
            f"point lengths differ: {chi1.shape[-1]} vs {chi2.shape[-1]}"
        )
    n = chi1.shape[-1] // 2
    p1, q1 = chi1[..., :n], chi1[..., n:]
    p2, q2 = chi2[..., :n], chi2[..., n:]
    out = (np.sum(p1 * q2, axis=-1) - np.sum(q1 * p2, axis=-1)) % d
    if out.ndim == 0:
        return int(out)
    return out


def is_symplectic(S: np.ndarray, d: int) -> bool:
    """True iff S^T J S = J mod d."""
    S = np.asarray(S, dtype=np.int64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
        return False
    J = symplectic_form(S.shape[0] // 2)
    return bool(np.all((S.T @ J @ S - J) % d == 0))


def symplectic_group_order(d: int, N: int) -> int:
    """|Sp(2N, Z_d)| = d^(N^2) * prod_i (d^(2i) - 1)."""
    order = d ** (N * N)
    for i in range(1, N + 1):
        order *= d ** (2 * i) - 1
    return order


def row_reduce(rows: np.ndarray, d: int) -> np.ndarray:
    """Reduced row echelon form over Z_d with unit pivots; zero rows dropped."""
    mat = np.array(rows, dtype=np.int64) % d
    if mat.ndim == 1:
        mat = mat[None, :]
    n_rows, n_cols = mat.shape
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, n_rows):
            if mat[r, col] % d != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[pivot_row, pivot]] = mat[[pivot, pivot_row]]
        inv = mod_inverse(mat[pivot_row, col], d)
        mat[pivot_row] = (mat[pivot_row] * inv) % d
        for r in range(n_rows):
            if r != pivot_row and mat[r, col] % d != 0:
                mat[r] = (mat[r] - mat[r, col] * mat[pivot_row]) % d
        pivot_row += 1
        if pivot_row == n_rows:
            break
    mat = mat[:pivot_row]
    return mat


def reduce_by_pivots(chi: np.ndarray, basis: np.ndarray, d: int) -> np.ndarray:
    """chi with its entries at the unit pivots of an echelon basis (k, 2N)
    cleared by subtracting basis rows, mod d.  A stack of bases (..., k, 2N)
    reduces chi (..., 2N) with the basis its leading axes broadcast to."""
    v = np.asarray(chi, dtype=np.int64) % d
    basis = np.asarray(basis)
    nonzero = basis != 0
    lead = nonzero & (np.cumsum(nonzero, axis=-1) == 1)  # each row's pivot, one-hot
    for i in range(nonzero.shape[-2]):
        coef = np.sum(v * lead[..., i, :], axis=-1, keepdims=True)
        v = (v - coef * basis[..., i, :]) % d
    return v


def _rref_matrices(k: int, N: int, d: int):
    """Every k x N matrix over Z_d in reduced row echelon form with k unit
    pivots, with its pivot columns; [N choose k]_d of them."""
    for pivots in itertools.combinations(range(N), k):
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, N) if j not in pivots]
        for vals in itertools.product(range(d), repeat=len(free)):
            R = np.zeros((k, N), dtype=np.int64)
            R[np.arange(k), pivots] = 1
            for (i, j), v in zip(free, vals):
                R[i, j] = v
            yield R, list(pivots)


def _rank_blocks(k: int, N: int, d: int):
    """The bases [[R | Q], [0 | W]] of `enumerate_maximal_isotropic` whose p
    block has rank k, one (d^(k(k+1)/2), N, 2N) block per R."""
    upper = np.triu_indices(k)
    entries = lex_grid(d, len(upper[0]))
    S = np.zeros((len(entries), k, k), dtype=np.int64)
    S[:, upper[0], upper[1]] = entries
    S[:, upper[1], upper[0]] = entries
    for R, pivots in _rref_matrices(k, N, d):
        free = [j for j in range(N) if j not in pivots]
        null = np.zeros((N - k, N), dtype=np.int64)
        null[np.arange(N - k), free] = 1
        null[:, pivots] = -R[:, free].T
        W = row_reduce(null, d)
        Q = np.zeros((len(S), k, N), dtype=np.int64)
        Q[:, :, pivots] = S
        for row in W:
            Q = (Q - Q[:, :, int(np.argmax(row != 0)), None] * row) % d
        top = np.concatenate([np.broadcast_to(R, Q.shape), Q], axis=2)
        bottom = np.broadcast_to(np.concatenate([np.zeros_like(W), W], axis=1),
                                 (len(S), N - k, 2 * N))
        yield np.concatenate([top, bottom], axis=1)


def enumerate_maximal_isotropic(dims: Dims) -> np.ndarray:
    """All maximal isotropic (Lagrangian) subspaces of Z_d^2N, as the
    (n, N, 2N) int64 stack of their RREF bases sorted by `basis_keys`.

    Built in closed form (Dehaene & De Moor, quant-ph/0304125; Gross,
    quant-ph/0602001).  The RREF basis of a Lagrangian M whose p block has
    rank k is [[R | Q], [0 | W]]:

    - R is a k x N RREF over Z_d with pivot columns P, one of [N choose k]_d;
    - W is the RREF of the right null space of R, so that (0 | W) spans the
      points of M with p = 0;
    - Q is zero off P with Q[:, P] = S for a symmetric S in Z_d^(k x k), then
      cleared at W's pivot columns c_j by Q <- Q - Q[:, c_j] W_j.  Isotropy is
      R Q^T = S symmetric, and the clearing leaves R Q^T unchanged because
      R W^T = 0.

    Each (R, S) gives one subspace and every subspace arises once, so the
    count is sum_k [N choose k]_d d^(k(k+1)/2) = prod_i (d^i + 1).  The
    symmetric matrices of one R are built at once; the basis is already the
    subspace's canonical key, and isotropy is re-checked as B J B^T = 0 mod d
    for every basis B at once.  A subspace is its basis everywhere: its
    points are the combinations `lex_grid(d, N) @ basis % d` and the
    canonical representative of chi's coset is `reduce_by_pivots(chi, basis, d)`.
    """
    check_budget(_isotropic_bytes(dims), f"the isotropic-subspace enumeration for {dims}")
    d, N = dims.d, dims.N
    bases = np.concatenate([block for k in range(N + 1) for block in _rank_blocks(k, N, d)])
    bases = bases[np.argsort(basis_keys(bases))]
    if np.any(bases @ symplectic_form(N) @ bases.transpose(0, 2, 1) % d != 0):
        raise ValueError("basis does not span an isotropic subspace")
    return bases


def basis_keys(bases: np.ndarray) -> np.ndarray:
    """One np.void scalar per leading entry of an (n, ...) int64 stack, such
    as n bases (n, k, 2N), holding its bytes: a zero-copy view that sorts and
    searches as Python bytes do.  An empty stack gives no keys."""
    bases = np.ascontiguousarray(bases, dtype=np.int64)
    flat = bases.reshape(len(bases), math.prod(bases.shape[1:]))
    return flat.view(np.dtype((np.void, flat.shape[1] * 8)))[:, 0]


_FIRST_CALL_BYTES = 2 ** 20  # a first enumeration, or dictionary build, peaks ~0.5 MiB higher


def _isotropic_bytes(dims: Dims) -> int:
    """An upper bound on the peak bytes of `enumerate_maximal_isotropic`.

    Per subspace, every array it makes, of which at most two N x 2N stacks
    are alive at once: four N x 2N stacks (the basis blocks, their
    concatenation, its sorted copy and B J), the sort index and the N x N
    product B J B^T.  Once per process, the first use of the numpy routines
    it calls."""
    N, L = dims.N, 2 * dims.N
    return count_maximal_isotropic(dims) * (4 * N * L + 1 + N * N) * 8 + _FIRST_CALL_BYTES


def count_maximal_isotropic(dims: Dims) -> int:
    """prod_{i=1..N} (d^i + 1)."""
    n = 1
    for i in range(1, dims.N + 1):
        n *= dims.d ** i + 1
    return n
