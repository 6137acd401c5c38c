"""Weyl-Heisenberg displacement and phase-point transforms, table-free.

Conventions (odd d):
    omega = exp(2 pi i / d),  zeta = exp(i pi / d),  tau = omega^(2^-1)
    T_(p,q) = tau^(p.q) sum_j omega^(q.j) |p+j><j|
    A_(p,q) = sum_j omega^(2 q.(p-j)) |2p-j><j|

For d = 2 the displacement operators are the Hermitian Pauli representatives
zeta^(p.q) X^p Z^q = i^(p.q) X^p Z^q (one per phase-reduced label); the
phase-point operators are defined for odd d only.

Group-theoretic phases are kept as integer exponents of roots of unity and
materialized to complex doubles, exact at 1, i, -1 and -i, when a matrix is built.

No table of all d^(2N) operators is ever built.  Every Weyl transform the
package needs is a shift in p followed by a character sum in q: index gathers
and one character matrix, in O(D^2) memory and O(D^3) time.  All of them read
one cached `TransformPlan` per (d, N), which passes one budget check for its
tables and one call's transients (120 D^2 bytes) when it is built.  Each
character sum is one zgemm called by `ndarray.dot`, which dispatches faster
than `@` at scan sizes, with the same bytes; a stack is one gemm on its
(n D, D) view, as OpenBLAS rounds a row alike at any offset (not a column).
The same transform gives the Pauli coefficients Tr[T_chi^dag M] / D of any
operator, which the Clifford module uses to read conjugation actions, and
`displace` applies T_chi to vectors by the same index arithmetic for the
stabilizer dictionary; `displacement_matrix` is `displace` applied to the
identity.  The rest are phase helpers; `catalog.resolve` reads state specs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDimensionError, check_budget
from .phasespace import Dims, mod_inverse
from .tolerances import AMPLITUDE_TOL, EQUALITY_TOL, UNIT_PHASE_TOL


def unit_phase(k: int, order: int) -> complex:
    """exp(2 pi i k / order) with the exponent reduced first; exactly 1, i, -1
    or -i at a quarter turn (4k = 0 mod order), where exp leaves a 1e-16 residue."""
    k = int(k) % order
    return 1j ** (4 * k // order) if 4 * k % order == 0 else np.exp(2j * np.pi * k / order)


def tau_exponent(d: int) -> int:
    """tau = omega^tau_exponent with tau_exponent = 2^-1 mod d (odd d)."""
    if d % 2 == 0:
        raise UnsupportedDimensionError("tau = omega^(2^-1) needs odd d")
    return mod_inverse(2, d)


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
    diagonals[p, j] = j D + (p+j)        flat index of rho[j, p+j] in a D x D rho
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
    diagonals: np.ndarray
    characters: np.ndarray
    phases: np.ndarray


@lru_cache(maxsize=None)
def transform_plan(d: int, N: int) -> TransformPlan:
    """The `TransformPlan` of (d, N): 56 D^2 bytes (three index and two complex
    D x D tables), checked against the budget before any is built together
    with 64 D^2 for the transients of one call that reads it.  Every reader
    peaks at about 100 D^2 in all at (3,6)."""
    check_budget(120 * d ** (2 * N), f"the transform plan for {Dims(d, N)}")
    r = np.arange(d)
    plus = _digitwise((r[:, None] + r) % d, N, d)
    minus = _digitwise((r[:, None] - r) % d, N, d)
    pq = _digitwise(np.outer(r, r), N, 1)  # sum_k p_k q_k, not reduced
    roots = np.array([unit_phase(k, d) for k in range(d)])
    order, expo = (4, pq % 4) if d == 2 else (d, (tau_exponent(d) * pq) % d)
    plan = TransformPlan(
        D=d ** N, plus=plus, minus=minus, double=plus.diagonal().copy(),
        rows=np.arange(d ** N), diagonals=np.arange(d ** N) * d ** N + plus,
        characters=roots[pq % d],
        phases=np.array([unit_phase(k, order) for k in range(order)])[expo])
    for arr in plan[1:]:
        arr.setflags(write=False)
    return plan


def pauli_coefficients(M: np.ndarray, dims: Dims) -> np.ndarray:
    """Tr[T_chi^dag M] / D for every chi, in lexicographic point order, for
    an operator M (D, D) or each operator of a stack (..., D, D).

    Tr[T_(p,q)^dag M] = conj(phase_(p,q) sum_j omega^(q.j) conj(M[p+j, j])):
    a gather, one character sum (one gemm for a stack), each label's phase.
    """
    plan = transform_plan(dims.d, dims.N)
    sums = M[..., plan.plus, plan.rows]
    sums = np.conj(sums, out=sums).reshape(-1, plan.D).dot(plan.characters).reshape(sums.shape)
    sums *= plan.phases
    return np.conj(sums, out=sums).reshape(M.shape[:-2] + (-1,)) / plan.D


def displace(chi, vectors, dims: Dims) -> np.ndarray:
    """T_chi |v> without forming T_chi, broadcast over the leading axes of
    chi (..., 2N) and vectors (..., D).

    (T_(p,q) v)[i] = phase_(p,q) omega^(q.(i-p)) v[i-p]: one flat gather of
    v at the digitwise differences i - p, then the character product in place.
    """
    d, N = dims.d, dims.N
    plan = transform_plan(d, N)
    chi = np.asarray(chi, dtype=np.int64) % d
    place = d ** np.arange(N - 1, -1, -1)
    p, q = chi[..., :N] @ place, chi[..., N:] @ place
    shift = plan.minus.T[p]  # i - p; row offsets make it one index into the flat v
    out = np.asarray(vectors, dtype=np.complex128)
    out = out.take(np.arange(0, out.size, plan.D).reshape(out.shape[:-1] + (1,)) + shift)
    factor = plan.phases[p, q][..., None] * plan.characters[q[..., None], shift]
    return np.multiply(factor, out, out=out)  # factor first: the bits of factor * v


def displacement_matrix(chi, dims: Dims) -> np.ndarray:
    """T_chi alone: `displace` applied to the columns of the identity."""
    transform_plan(dims.d, dims.N)  # the budget check comes before the identity is built
    return displace(chi, np.eye(dims.D), dims).T


def shifted_characters(x: np.ndarray, dims: Dims) -> np.ndarray:
    """<x|X^p Z^q|x> for every (p, q), in lexicographic point order.

    This is <x|T_(p,q)|x> without the tau/zeta convention phase, which cancels
    in every |.|^2 and every product of kernels of one point.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (dims.D,):
        raise DimensionMismatchError(f"state length {x.shape} != {dims.D}")
    plan = transform_plan(dims.d, dims.N)
    terms = x.conj()[plan.plus]
    terms *= x
    return terms.dot(plan.characters).ravel()


def global_phase(A, B, tol: float = EQUALITY_TOL):
    """Phase c with A = c B (|c| = 1), or None.  Works on vectors and matrices."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        return None
    idx = np.unravel_index(np.argmax(np.abs(B)), B.shape)
    if np.abs(B[idx]) < tol:
        return 1.0 if np.max(np.abs(A)) < tol else None
    c = A[idx] / B[idx]
    if abs(abs(c) - 1.0) > max(tol, UNIT_PHASE_TOL):
        return None
    if np.max(np.abs(A - c * B)) < tol * max(1.0, np.max(np.abs(B))):
        return c
    return None


def equal_up_to_phase(A, B) -> bool:
    return global_phase(A, B) is not None


def phase_normalize(v: np.ndarray, tol: float = AMPLITUDE_TOL) -> np.ndarray:
    """Rotate the first entry above tol of every row (the last axis) onto the
    positive real axis, dividing by lead / hypot(lead), the rounding of the
    scalar abs(lead); a row with no entry above tol is left unchanged."""
    v = np.asarray(v, dtype=np.complex128)
    first = np.argmax(np.abs(v) > tol, axis=-1)[..., None]
    lead = np.take_along_axis(v, first, axis=-1)
    size = np.hypot(lead.real, lead.imag)
    return v / np.divide(lead, size, out=np.ones_like(lead), where=size > tol)
