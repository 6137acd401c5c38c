"""Arithmetic over Z_d and the discrete phase space Z_d^N x Z_d^N.

Phase-space points chi = (p, q) are stored as flat integer arrays of length
2N with the p block first.  All enumeration orders are lexicographic in
(p, q) so that tables and Wigner vectors are reproducible run to run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Dims:
    """System shape: N qudits of prime dimension d."""

    d: int
    N: int = 1

    def __post_init__(self):
        if not _is_prime(self.d):
            raise ValueError(f"d={self.d} is not prime")
        if self.N < 1:
            raise ValueError(f"N={self.N} must be >= 1")

    @property
    def D(self) -> int:
        """Hilbert-space dimension d^N."""
        return self.d ** self.N

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


def point(p, q, dims: Dims) -> np.ndarray:
    """Assemble a phase-space point from p and q parts, reduced mod d."""
    p = np.atleast_1d(np.asarray(p, dtype=np.int64))
    q = np.atleast_1d(np.asarray(q, dtype=np.int64))
    if p.shape != (dims.N,) or q.shape != (dims.N,):
        raise DimensionMismatchError(
            f"expected p, q of length {dims.N}, got {p.shape}, {q.shape}"
        )
    return np.concatenate([p % dims.d, q % dims.d])


def split_point(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat point into its (p, q) halves."""
    chi = np.asarray(chi)
    n = chi.shape[-1] // 2
    return chi[..., :n], chi[..., n:]


def phase_points(dims: Dims) -> np.ndarray:
    """All d^(2N) points as a (d^(2N), 2N) array, lexicographic in (p, q)."""
    check_budget(dims.n_points * 2 * dims.N * 8, f"the phase-point array for {dims}")
    grids = np.indices((dims.d,) * (2 * dims.N)).reshape(2 * dims.N, -1).T
    return np.ascontiguousarray(grids.astype(np.int64))


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


def enumerate_symplectic_2x2(d: int) -> list[np.ndarray]:
    """Brute-force Sp(2, Z_d) = SL(2, Z_d); test-scale only."""
    out = []
    for a, b, c, e in itertools.product(range(d), repeat=4):
        if (a * e - b * c) % d == 1:
            out.append(np.array([[a, b], [c, e]], dtype=np.int64))
    return out


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


def span_elements(basis: np.ndarray, d: int) -> np.ndarray:
    """All d^k points in the span of k basis rows, lexicographic in coefficients."""
    basis = np.asarray(basis, dtype=np.int64)
    k = basis.shape[0]
    if k == 0:
        return np.zeros((1, basis.shape[1]), dtype=np.int64)
    coeffs = np.indices((d,) * k).reshape(k, -1).T
    return (coeffs @ basis) % d


@dataclass(frozen=True)
class IsotropicSubspace:
    """A subspace of the phase space with vanishing symplectic products."""

    dims: Dims
    basis: np.ndarray  # echelonized, shape (k, 2N)
    elements: np.ndarray = field(compare=False)  # shape (d^k, 2N)
    maximal: bool

    @classmethod
    def from_basis(cls, basis: np.ndarray, dims: Dims) -> "IsotropicSubspace":
        basis = row_reduce(basis, dims.d)
        elements = span_elements(basis, dims.d)
        prods = symplectic_product(elements[:, None, :], elements[None, :, :], dims.d)
        if np.any(prods != 0):
            raise ValueError("basis does not span an isotropic subspace")
        return cls(
            dims=dims,
            basis=basis,
            elements=elements,
            maximal=basis.shape[0] == dims.N,
        )

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def key(self) -> bytes:
        return self.basis.tobytes()

    def contains(self, chi: np.ndarray) -> bool:
        return bool(np.any(np.all(self.elements == np.asarray(chi) % self.dims.d, axis=1)))

    def reduce_mod(self, chi: np.ndarray) -> np.ndarray:
        """Canonical coset representative of chi modulo this subspace;
        vectorizes over leading axes."""
        return _reduce_by_pivots(chi, self.basis, self.dims.d)


def _reduce_by_pivots(chi: np.ndarray, basis: np.ndarray, d: int) -> np.ndarray:
    """chi with its entries at the unit pivots of an echelon basis cleared by
    subtracting basis rows, mod d; vectorizes over leading axes of chi."""
    v = np.asarray(chi, dtype=np.int64) % d
    for row in basis:
        col = int(np.argmax(row != 0))  # pivot column (unit pivot)
        v = (v - v[..., col, None] * row) % d
    return v


def enumerate_maximal_isotropic(dims: Dims) -> list[IsotropicSubspace]:
    """All maximal isotropic subspaces of Z_d^2N, duplicate-free.

    Grows subspaces one echelonized basis row at a time, keeping only
    canonical (RREF) forms, so each subspace is produced exactly once.  The
    extensions of a basis are found without row-reducing every candidate:
    an orthogonal point outside the span, with its basis pivots cleared and
    its leading entry scaled to 1, is the same row for every point of one
    extension, and inserting that row in pivot order (after clearing its
    pivot column from the basis) gives the extension's RREF directly.
    """
    check_budget(count_maximal_isotropic(dims) * dims.D * 2 * dims.N * 8,
                 f"the isotropic-subspace enumeration for {dims}")
    d = dims.d
    pts = phase_points(dims)
    place = d ** np.arange(2 * dims.N - 1, -1, -1)
    inverse = np.array([0] + [mod_inverse(a, d) for a in range(1, d)])
    level = {b"": np.zeros((0, 2 * dims.N), dtype=np.int64)}
    for _ in range(dims.N):
        nxt: dict[bytes, np.ndarray] = {}
        for basis in level.values():
            # one canonical row per extension, from the orthogonal points
            ok = np.all(symplectic_product(pts[:, None, :], basis[None, :, :], d) == 0, axis=1)
            rows = _reduce_by_pivots(pts[ok], basis, d)
            rows = rows[np.any(rows != 0, axis=1)]
            lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
            rows = rows * inverse[lead][:, None] % d
            rows = rows[np.unique(rows @ place, return_index=True)[1]]
            # RREF of basis + row: clear the row's pivot column, sort by pivot
            pivot = np.argmax(rows != 0, axis=1)
            cleared = (basis - basis[:, pivot].T[:, :, None] * rows[:, None, :]) % d
            ext = np.concatenate([cleared, rows[:, None, :]], axis=1)
            order = np.argsort(np.concatenate(
                [np.broadcast_to(np.argmax(basis != 0, axis=1), cleared.shape[:2]),
                 pivot[:, None]], axis=1), axis=1)
            for new in np.take_along_axis(ext, order[:, :, None], axis=1):
                nxt[new.tobytes()] = new
        level = nxt
    out = [IsotropicSubspace.from_basis(b, dims) for b in level.values()]
    out.sort(key=lambda s: s.key())
    return out


def count_maximal_isotropic(dims: Dims) -> int:
    """prod_{i=1..N} (d^i + 1)."""
    n = 1
    for i in range(1, dims.N + 1):
        n *= dims.d ** i + 1
    return n
