"""Weyl-Heisenberg displacement and phase-point operators, dense and table-free.

Conventions (odd d):
    omega = exp(2 pi i / d),  zeta = exp(i pi / d),  tau = omega^(2^-1)
    T_(p,q) = tau^(p.q) sum_j omega^(q.j) |p+j><j|
    A_(p,q) = sum_j omega^(2 q.(p-j)) |2p-j><j|

For d = 2 the displacement operators are the Hermitian Pauli representatives
zeta^(p.q) X^p Z^q = i^(p.q) X^p Z^q (one per phase-reduced label); the
phase-point operators are defined for odd d only.

Group-theoretic phases are kept as integer exponents of roots of unity and
materialized to complex doubles only when a matrix is built.

Measures and expansions never build the dense tables.  Every Weyl transform
they need is a shift in p followed by a character sum in q: index gathers and
one character matrix, in O(D^2) memory and O(D^3) time.  All of them read one
cached `TransformPlan` per (d, N), which holds the index tables, the character
matrix and the convention phases and passes one budget check for all of them
(48 D^2 bytes) when it is built.  The same transform gives the Pauli
coefficients Tr[T_chi^dag M] / D of any operator, which the Clifford module
uses to read conjugation actions, and `displace` applies T_chi to vectors
by the same index arithmetic for the stabilizer dictionary.  The dense
(d^2N, D, D) tables remain for `wh_kernel`/`wh_kernel_all` and the test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDimensionError, check_budget
from .phasespace import Dims, mod_inverse, phase_points, point_index, split_point

TOL_OP = 1e-10  # default operator tolerance
TOL_EQ = 1e-9   # default operator-equality tolerance


def unit_phase(k: int, order: int) -> complex:
    """exp(2 pi i k / order) with the exponent reduced first."""
    k = int(k) % order
    return np.exp(2j * np.pi * k / order)


def omega(d: int) -> complex:
    return unit_phase(1, d)


def zeta(d: int) -> complex:
    return unit_phase(1, 2 * d)


def tau_exponent(d: int) -> int:
    """tau = omega^tau_exponent with tau_exponent = 2^-1 mod d (odd d)."""
    if d % 2 == 0:
        raise UnsupportedDimensionError("tau = omega^(2^-1) needs odd d")
    return mod_inverse(2, d)


@dataclass
class DenseOperator:
    """A D x D complex matrix with a role tag checked at construction."""

    entries: np.ndarray
    dims: Dims
    role: str = "general"  # general | unitary | hermitian | density
    tol: float = TOL_OP

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        D = self.dims.D
        if self.entries.shape != (D, D):
            raise DimensionMismatchError(
                f"expected {D}x{D} matrix, got {self.entries.shape}"
            )
        m = self.entries
        if self.role == "unitary":
            if np.max(np.abs(m.conj().T @ m - np.eye(D))) >= self.tol:
                raise ValueError("matrix is not unitary to tolerance")
        elif self.role == "hermitian":
            if np.max(np.abs(m - m.conj().T)) >= self.tol:
                raise ValueError("matrix is not Hermitian to tolerance")
        elif self.role == "density":
            if np.max(np.abs(m - m.conj().T)) >= self.tol:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(m) - 1.0) >= max(self.tol, 1e-9):
                raise ValueError("density matrix trace is not 1")
            if np.min(np.linalg.eigvalsh(m)) < -self.tol:
                raise ValueError("density matrix has a negative eigenvalue")
        elif self.role != "general":
            raise ValueError(f"unknown role {self.role!r}")

    @property
    def m(self) -> np.ndarray:
        return self.entries


def asmatrix(op) -> np.ndarray:
    """Coerce DenseOperator | ndarray to a complex matrix."""
    if isinstance(op, DenseOperator):
        return op.entries
    return np.asarray(op, dtype=np.complex128)


def density_of(psi) -> np.ndarray:
    """Outer product |psi><psi| from a state vector; matrices pass through."""
    arr = asmatrix(psi) if not isinstance(psi, np.ndarray) else np.asarray(psi, dtype=np.complex128)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return arr


@lru_cache(maxsize=None)
def _single_displacements(d: int) -> np.ndarray:
    """Single-qudit T_(p,q) as a read-only (d, d, d, d) array indexed [p, q]."""
    singles = np.zeros((d, d, d, d), dtype=np.complex128)
    for p, q, j in np.ndindex(d, d, d):
        if d == 2:
            singles[p, q, (p + j) % d, j] = zeta(2) ** ((p * q) % 4) * unit_phase(q * j, d)
        else:  # tau^(p q) omega^(q j) = omega^(t p q + q j)
            singles[p, q, (p + j) % d, j] = unit_phase(tau_exponent(d) * p * q + q * j, d)
    singles.setflags(write=False)
    return singles


def _kron_table(singles: np.ndarray, dims: Dims) -> np.ndarray:
    """Read-only (d^2N, D, D) table of the products singles[p_1, q_1] x ... x
    singles[p_N, q_N], lex order in (p, q)."""
    check_budget(dims.n_points * dims.D ** 2 * 16, f"the dense operator table for {dims}")
    table = np.empty((dims.n_points, dims.D, dims.D), dtype=np.complex128)
    for i, chi in enumerate(phase_points(dims)):
        p, q = split_point(chi)
        table[i] = reduce(np.kron, singles[p, q])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _displacement_table_cached(d: int, N: int) -> np.ndarray:
    return _kron_table(_single_displacements(d), Dims(d, N))


def displacement_table(dims: Dims) -> np.ndarray:
    """All T_chi as a read-only (d^2N, D, D) array, lex order in (p, q)."""
    return _displacement_table_cached(dims.d, dims.N)


def displacement_matrix(chi, dims: Dims) -> np.ndarray:
    """T_chi alone: the Kronecker product of its single-qudit factors."""
    p, q = split_point(np.asarray(chi, dtype=np.int64) % dims.d)
    return reduce(np.kron, _single_displacements(dims.d)[p, q])


def displacement_operator(chi, dims: Dims) -> DenseOperator:
    """The Weyl-Heisenberg unitary T_chi."""
    return DenseOperator(displacement_matrix(chi, dims), dims, role="unitary")


@lru_cache(maxsize=None)
def _phase_point_table_cached(d: int, N: int) -> np.ndarray:
    if d % 2 == 0:
        raise UnsupportedDimensionError("phase-point operators require odd d")
    singles = np.zeros((d, d, d, d), dtype=np.complex128)
    for p, q, j in np.ndindex(d, d, d):
        singles[p, q, (2 * p - j) % d, j] = unit_phase(2 * q * (p - j), d)
    return _kron_table(singles, Dims(d, N))


def phase_point_table(dims: Dims) -> np.ndarray:
    """All A_chi as a read-only (d^2N, D, D) array, lex order in (p, q)."""
    return _phase_point_table_cached(dims.d, dims.N)


def phase_point_operator(chi, dims: Dims) -> DenseOperator:
    """The Hermitian phase-point operator A_chi (odd d only)."""
    idx = point_index(chi, dims)
    return DenseOperator(phase_point_table(dims)[idx].copy(), dims, role="hermitian")


def _digitwise(one: np.ndarray, N: int, place: int) -> np.ndarray:
    """N-fold digitwise extension of a d x d integer table, lex order:
    out[a, b] = sum_k one[a_k, b_k] place^(N-1-k) over the base-d digits."""
    out = np.zeros((1, 1), dtype=np.intp)
    d = one.shape[0]
    for _ in range(N):
        m = out.shape[0] * d
        out = (out[:, None, :, None] * place + one[None, :, None, :]).reshape(m, m)
    return out


class TransformPlan(NamedTuple):
    """The read-only index and phase tables every table-free transform of one
    (d, N) reads, built once per (d, N) by `transform_plan`.

    plus[p, j] = p+j, minus[p, j] = p-j  flat indices, digitwise mod d
    double[q] = 2q                       digitwise mod d, a permutation
    rows[j] = j
    characters[j, q] = omega^(q.j)       the N-fold Kronecker power of the DFT
    phases[p, q]                         T_(p,q) = phases[p, q] X^p Z^q: tau^(p.q)
                                         for odd d and i^(p.q) for d = 2, from
                                         exact integer exponents
    """

    D: int
    plus: np.ndarray
    minus: np.ndarray
    double: np.ndarray
    rows: np.ndarray
    characters: np.ndarray
    phases: np.ndarray


@lru_cache(maxsize=None)
def transform_plan(d: int, N: int) -> TransformPlan:
    """The `TransformPlan` of (d, N): 48 D^2 bytes (two index and two complex
    D x D tables), checked against the budget before any is built."""
    check_budget(48 * d ** (2 * N), f"the transform plan for {Dims(d, N)}")
    r = np.arange(d)
    plus = _digitwise((r[:, None] + r) % d, N, d)
    minus = _digitwise((r[:, None] - r) % d, N, d)
    pq = _digitwise(np.outer(r, r), N, 1)  # sum_k p_k q_k, not reduced
    roots = np.array([unit_phase(k, d) for k in range(d)])
    order, expo = (4, pq % 4) if d == 2 else (d, (tau_exponent(d) * pq) % d)
    plan = TransformPlan(
        D=d ** N, plus=plus, minus=minus, double=plus.diagonal().copy(),
        rows=np.arange(d ** N), characters=roots[pq % d],
        phases=np.array([unit_phase(k, order) for k in range(order)])[expo])
    for arr in plan[1:]:
        arr.setflags(write=False)
    return plan


def pauli_coefficients(M: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr[T_chi^dag M] / D for every chi, in lexicographic point order.

    Tr[T_(p,q)^dag M] = conj(phase_(p,q) sum_j omega^(q.j) conj(M[p+j, j])):
    a gather, one character sum and the convention phase of each label.
    """
    plan = transform_plan(dims.d, dims.N)
    sums = np.conj(M)[plan.plus, plan.rows] @ plan.characters
    return np.conj(sums * plan.phases).ravel() / plan.D


def displace(chi, vectors, dims: Dims) -> np.ndarray:
    """T_chi |v> without forming T_chi, broadcast over the leading axes of
    chi (..., 2N) and vectors (..., D).

    (T_(p,q) v)[i] = phase_(p,q) omega^(q.(i-p)) v[i-p]: a character
    product followed by one gather at the digitwise differences i - p.
    """
    d, N = dims.d, dims.N
    plan = transform_plan(d, N)
    chi = np.asarray(chi, dtype=np.int64) % d
    place = d ** np.arange(N - 1, -1, -1)
    p, q = chi[..., :N] @ place, chi[..., N:] @ place
    vals = (plan.phases[p, q][..., None] * plan.characters[q]
            * np.asarray(vectors, dtype=np.complex128))
    return np.take_along_axis(vals, np.broadcast_to(plan.minus.T[p], vals.shape), axis=-1)


def shifted_characters(x: np.ndarray, y: np.ndarray, dims: Dims) -> np.ndarray:
    """<x|X^p Z^q|y> for every (p, q), in lexicographic point order.

    This is <x|T_(p,q)|y> without the tau/zeta convention phase, which cancels
    in every |.|^2 and every product of kernels of one point.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.shape != (dims.D,) or y.shape != (dims.D,):
        raise DimensionMismatchError(f"state lengths {x.shape}, {y.shape} != {dims.D}")
    plan = transform_plan(dims.d, dims.N)
    return ((x.conj()[plan.plus] * y) @ plan.characters).ravel()


@dataclass(frozen=True)
class PauliElement:
    """(-1)^x zeta^k X^a Z^b with integer exponents."""

    a: tuple
    b: tuple
    k: int = 0  # exponent of zeta, in Z_2d
    x: int = 0  # sign bit

    def materialize(self, dims: Dims) -> np.ndarray:
        d = dims.d
        op = np.ones((1, 1), dtype=np.complex128)
        for ai, bi in zip(self.a, self.b):
            X = np.zeros((d, d), dtype=np.complex128)
            Z = np.zeros((d, d), dtype=np.complex128)
            for j in range(d):
                X[(j + ai) % d, j] = 1.0
                Z[j, j] = unit_phase(bi * j, d)
            op = np.kron(op, X @ Z)
        phase = (-1) ** (self.x % 2) * unit_phase(self.k, 2 * d)
        return phase * op


def pauli_group(dims: Dims, phase_reduced: bool = True) -> list[DenseOperator]:
    """The generalized Pauli group; d^2N elements if phase-reduced, else 2 d^(2N+1).

    Phase-reduced representatives are the displacement operators T_chi.
    """
    table = displacement_table(dims)
    if phase_reduced:
        return [DenseOperator(table[i].copy(), dims, role="unitary")
                for i in range(table.shape[0])]
    d = dims.d
    out = []
    pts = phase_points(dims)
    for i in range(table.shape[0]):
        a, b = split_point(pts[i])
        # strip the tau/zeta convention phase so every (k, x) pair is distinct
        base = PauliElement(tuple(int(v) for v in a), tuple(int(v) for v in b)).materialize(dims)
        for x in range(2):
            for k in range(d):
                phase = (-1) ** x * unit_phase(k, 2 * d)
                out.append(DenseOperator(phase * base, dims, role="unitary"))
    return out


def global_phase(A, B, tol: float = TOL_EQ):
    """Phase c with A = c B (|c| = 1), or None.  Works on vectors and matrices."""
    A = asmatrix(A) if not isinstance(A, np.ndarray) else np.asarray(A, dtype=np.complex128)
    B = asmatrix(B) if not isinstance(B, np.ndarray) else np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        return None
    idx = np.unravel_index(np.argmax(np.abs(B)), B.shape)
    if np.abs(B[idx]) < tol:
        return 1.0 if np.max(np.abs(A)) < tol else None
    c = A[idx] / B[idx]
    if abs(abs(c) - 1.0) > max(tol, 1e-7):
        return None
    if np.max(np.abs(A - c * B)) < tol * max(1.0, np.max(np.abs(B))):
        return c
    return None


def equal_up_to_phase(A, B, tol: float = TOL_EQ) -> bool:
    return global_phase(A, B, tol) is not None


def phase_normalize(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate the first non-negligible entry to the positive real axis."""
    v = np.asarray(v, dtype=np.complex128)
    flat = v.ravel()
    idx = np.flatnonzero(np.abs(flat) > tol)
    if idx.size == 0:
        return v.copy()
    ph = flat[idx[0]] / abs(flat[idx[0]])
    return v / ph


def operator_to_json(op: DenseOperator) -> dict:
    """Row-major [re, im] pairs plus dims and role."""
    m = op.entries
    return {
        "d": op.dims.d,
        "N": op.dims.N,
        "role": op.role,
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def operator_from_json(data: dict) -> DenseOperator:
    dims = Dims(int(data["d"]), int(data["N"]))
    D = dims.D
    flat = np.array([complex(re, im) for re, im in data["entries"]], dtype=np.complex128)
    return DenseOperator(flat.reshape(D, D), dims, role=data.get("role", "general"))


def state_to_json(psi: np.ndarray, dims: Dims) -> dict:
    return {
        "d": dims.d,
        "N": dims.N,
        "amplitudes": [[float(z.real), float(z.imag)] for z in np.asarray(psi).ravel()],
    }


def state_from_json(data: dict) -> tuple[np.ndarray, Dims]:
    dims = Dims(int(data["d"]), int(data["N"]))
    psi = np.array([complex(re, im) for re, im in data["amplitudes"]], dtype=np.complex128)
    if psi.shape != (dims.D,):
        raise DimensionMismatchError(f"expected {dims.D} amplitudes, got {psi.shape}")
    return psi, dims
