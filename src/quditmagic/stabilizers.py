"""Construction and enumeration of pure stabilizer states.

A maximal isotropic subspace M, with echelonized basis rows b_1..b_N, and a
displacement chi define the state |M, chi> fixed by

    omega^(<chi, m>) T_m |M, chi> = |M, chi>

for every m in M (for d = 2 only the basis rows are imposed, omega = -1, since
the Hermitian Paulis of M need not multiply without signs).  The states are
built in closed form, with monomial gathers (`weyl.displace`) and no
projector or dense table:

- |M, 0> = prod_i (1/d) sum_k T_(b_i)^k e_0, normalized.  Each factor
  projects onto the +1 eigenspace of T_(b_i).  e_0 has a nonzero component:
  only terms with p = 0 reach <0|...|0>, and in echelon form those are
  products of the pure Z^q rows, each contributing +1.
- |M, chi> = T_(-chi) |M, 0> up to phase, because
  T_m T_a = omega^(-<m, a>) T_a T_m; all d^N cosets are one gather.
- The dictionary labels each coset of M by its canonical representative:
  the point that is zero at the N pivot columns of M's basis, with the other
  N columns running through Z_d^N in lex order.  `reduce_by_pivots` fixes
  exactly these points, and each is the lex-first point of its coset (a nonzero
  m in M has its first nonzero entry at a pivot column, where the
  representative is 0), so this order is the order of first appearance
  among the lex-ordered phase-space points.

Every vector is phase-normalized and re-checked against the equations of
the N basis rows.  For odd d these imply the rest: on an isotropic M,
T_m T_m' = T_(m + m') and m -> omega^(<chi, m>) is a character, so the
stabilizers of the basis rows generate those of all d^N elements.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidStabilizerError, check_budget
from .phasespace import (
    _FIRST_CALL_BYTES,
    Dims,
    _isotropic_bytes,
    basis_keys,
    count_maximal_isotropic,
    enumerate_maximal_isotropic,
    lex_grid,
    point_index,
    reduce_by_pivots,
    row_reduce,
    symplectic_product,
)
from .tolerances import BUILD_CHECK_TOL, IDENTITY_TOL, SPAN_TOL, TIE_TOL
from .weyl import displace, phase_normalize, unit_phase


class StabilizerState(NamedTuple):
    """A pure stabilizer state |M, chi>: the (N, 2N) echelon basis of M, the
    coset's canonical representative chi and the materialized vector."""

    basis: np.ndarray
    displacement: np.ndarray
    vector: np.ndarray
    dims: Dims

    def check(self, tol: float = IDENTITY_TOL) -> bool:
        """Re-derive the stabilization equations of the basis rows, which
        imply those of every element of the subspace, for the stored vector."""
        return _stabilizer_residual(self.basis[None], self.displacement[None, None],
                                    self.vector[None, None], self.dims) < tol


def _stabilizer_residual(basis: np.ndarray, chis: np.ndarray, vecs: np.ndarray,
                         dims: Dims) -> float:
    """The largest |omega^<chi, m> T_m v - v| over the basis rows m of every
    subspace, for basis (n, N, 2N) and displacements chis and vectors vecs of
    leading shape (n, k)."""
    d, worst = dims.d, 0.0
    roots = np.array([unit_phase(k, d) for k in range(d)])
    for i in range(dims.N):  # basis row i of every subspace at once
        m = basis[:, i, None, :]
        err = displace(m, vecs, dims)
        err *= roots[symplectic_product(chis, m, d)][..., None]
        err -= vecs
        worst = max(worst, float(np.max(np.abs(err))))
        del err  # freed before the next row's gather
    return worst


def _coset_vectors(basis: np.ndarray, chis: np.ndarray, dims: Dims) -> np.ndarray:
    """|M, chi> for every subspace M with echelon basis basis[i] and
    displacement chi = chis[i, j], as an array (len(basis), chis.shape[1], D);
    every vector is checked against the equations of M's basis rows within
    BUILD_CHECK_TOL."""
    d = dims.d
    psi = np.zeros((len(basis), dims.D), dtype=np.complex128)
    psi[:, 0] = 1.0
    for i in range(dims.N):
        term = acc = psi
        for _ in range(d - 1):
            term = displace(basis[:, i], term, dims)
            acc = acc + term
        psi = acc / d
    nrm = np.linalg.norm(psi, axis=1, keepdims=True)
    if np.min(nrm) < SPAN_TOL:
        raise InvalidStabilizerError("e_0 has no component on |M, 0>: basis not echelonized")
    vecs = phase_normalize(displace(-chis, (psi / nrm)[:, None, :], dims))
    if _stabilizer_residual(basis, chis, vecs, dims) >= BUILD_CHECK_TOL:
        raise InvalidStabilizerError("constructed vector fails stabilization equations")
    return vecs


def stabilizer_state(basis, chi, dims: Dims) -> StabilizerState:
    """The stabilizer state for the echelon basis (N, 2N) of a maximal
    isotropic M and displacement chi.  Any other basis of M is refused: the
    coset representative is canonical only for the echelon basis."""
    basis = np.asarray(basis, dtype=np.int64)
    if basis.ndim != 2 or basis.shape[1] != 2 * dims.N:
        raise DimensionMismatchError(f"basis of shape {basis.shape} for rows of {2 * dims.N}")
    if len(basis) != dims.N:
        raise InvalidStabilizerError("subspace is not maximal")
    if not np.array_equal(row_reduce(basis, dims.d), basis):
        raise InvalidStabilizerError("basis is not the echelon basis of a maximal subspace")
    rep = reduce_by_pivots(chi, basis, dims.d)
    return StabilizerState(basis, rep, _coset_vectors(basis[None], rep[None, None], dims)[0, 0],
                           dims)


class StabilizerDictionary:
    """The complete set SS_(N,d) as arrays: state i is |M, chi> with M
    spanned by bases[i // D], chi = displacements[i] (the coset's canonical
    representative) and vector matrix[i].  A StabilizerState is built only
    when a state is read."""

    def __init__(self, dims: Dims, bases: np.ndarray, displacements: np.ndarray,
                 matrix: np.ndarray):
        self.dims = dims
        self.bases = bases                  # (n / D, N, 2N), sorted by basis_keys
        self.displacements = displacements  # (n, 2N)
        self.matrix = matrix                # (n, D)

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, i: int) -> StabilizerState:
        """State i, list-like: negative indices count from the end, and the
        IndexError past it also ends iteration."""
        vector = self.matrix[i]
        i %= len(self.matrix)
        return StabilizerState(self.bases[i // len(vector)], self.displacements[i], vector,
                               self.dims)

    def lookup(self, basis, chi) -> StabilizerState:
        """The state of the subspace M with echelon basis `basis` and the coset
        of chi: M's rank in key order times D, plus the lex index of the
        representative's free columns."""
        basis = np.asarray(basis, dtype=np.int64)
        if basis.shape != self.bases.shape[1:]:
            raise KeyError("subspace is not in the dictionary")
        rank = int(np.searchsorted(basis_keys(self.bases), basis_keys(basis[None])[0]))
        if rank == len(self.bases) or not np.array_equal(self.bases[rank], basis):
            raise KeyError("subspace is not in the dictionary")
        free = np.delete(reduce_by_pivots(chi, basis, self.dims.d), np.argmax(basis != 0, axis=1))
        return self[rank * self.dims.D + point_index(free, self.dims)]

    def nearest(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        """Largest squared overlap with psi and the indices of the states tied for it."""
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (self.dims.D,):
            raise DimensionMismatchError(
                f"state has length {psi.shape}, dictionary needs {self.dims.D}"
            )
        overlaps = np.abs(self.matrix @ psi.conj())  # as in `overlaps`, squared in place
        return nearest_set(np.square(overlaps, out=overlaps))

    def overlaps(self, psi: np.ndarray) -> np.ndarray:
        """|<s|psi>|^2 for every dictionary state, as |<psi|s>|^2 so that only
        psi is conjugated."""
        return np.abs(self.matrix @ np.asarray(psi, dtype=np.complex128).conj()) ** 2


def stabilizer_count(dims: Dims) -> int:
    """d^N prod_{i=1..N} (d^i + 1)."""
    return dims.D * count_maximal_isotropic(dims)


def _dictionary_bytes(dims: Dims) -> int:
    """An upper bound on the peak bytes of a dictionary build.

    Per state: three vectors, for the coset vectors (which `matrix` views)
    with one `displace` output and its gather at the peak of the check; an
    int64 index of D, the index of the gather that builds the coset vectors;
    and six int64 points of 2N, for its coset representative (which
    `displacements` views) and the transients of its reduction.  Besides,
    the bound of the enumeration, whose sorted basis stack `bases` keeps,
    and, as the enumeration counts for its own, the first use in a process
    of the numpy routines the build calls, about 0.5 MiB at any size."""
    return (stabilizer_count(dims) * (3 * dims.D * 16 + dims.D * 8 + 6 * 2 * dims.N * 8)
            + _isotropic_bytes(dims) + _FIRST_CALL_BYTES)


@lru_cache(maxsize=None)
def _dictionary_cached(d: int, N: int) -> StabilizerDictionary:
    dims = Dims(d, N)
    check_budget(_dictionary_bytes(dims), f"the stabilizer dictionary for {dims}")
    bases = enumerate_maximal_isotropic(dims)
    # coset representatives: zero at M's pivot columns, the free columns in lex order
    is_free = np.ones((len(bases), 2 * N), dtype=bool)
    is_free[np.arange(len(bases))[:, None], np.argmax(bases != 0, axis=2)] = False
    free = np.nonzero(is_free)[1].reshape(len(bases), 1, N)
    reps = np.zeros((len(bases), dims.D, 2 * N), dtype=np.int64)
    np.put_along_axis(reps, np.broadcast_to(free, (len(bases), dims.D, N)),
                      lex_grid(d, N), axis=2)
    if not np.array_equal(reduce_by_pivots(reps, bases[:, None], d), reps):
        raise InvalidStabilizerError("a coset representative is not reduced modulo its subspace")
    vecs = _coset_vectors(bases, reps, dims)
    return StabilizerDictionary(dims, bases, reps.reshape(-1, 2 * N), vecs.reshape(-1, dims.D))


def enumerate_stabilizer_states(dims: Dims) -> StabilizerDictionary:
    """The full stabilizer dictionary for dims; cached per (d, N)."""
    return _dictionary_cached(dims.d, dims.N)


def nearest_set(overlaps: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest of the overlaps and the indices of every overlap within
    TIE_TOL of it: the nearest set."""
    best = float(np.maximum.reduce(overlaps))
    if not math.isfinite(best):
        raise ValueError(f"largest overlap {best!r}: the state is not finite")
    return best, (overlaps >= best - TIE_TOL).nonzero()[0]


def max_overlap(psi: np.ndarray, dictionary: StabilizerDictionary
                ) -> tuple[float, list[StabilizerState]]:
    """Largest squared overlap with the dictionary and all states tied for it."""
    best, ties = dictionary.nearest(psi)
    return best, [dictionary[i] for i in ties.tolist()]
