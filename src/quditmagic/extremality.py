"""Perturbation analysis around candidate states.

A path |psi(eps)> = (|psi> + eps |phi>) / sqrt(1 + eps^2) with <phi|psi> = 0
has the exact density decomposition

    psi(eps) = psi + eps/(1+eps^2) sigma + eps^2/(1+eps^2) mu,
    sigma = |phi><psi| + |psi><phi|,   mu = |phi><phi| - |psi><psi|.

So (1+eps^2) f(psi(eps)) = f(psi) + eps f(sigma) + eps^2 f(phi) for every
family f linear in the density operator, and `_family_expansion` reads the
three from vector transforms alone, with no D x D operator, by polarization:
f(sigma) = f(psi + phi) - f(psi) - f(phi).  Mana reads it for the Wigner
function, the fidelity for |<s|x>|^2 over the nearest stabilizer states s and
the order-8 series of Xi_2 for the characters <x|X^p Z^q|x>: three transforms.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDimensionError, check_budget
from .measures import wigner_function
from .phasespace import Dims
from .stabilizers import StabilizerDictionary
from .tolerances import COEFF_TOL, ORTHONORMAL_TOL, WIGNER_ZERO_TOL
from .weyl import shifted_characters


class PerturbationFrame:
    """Base state psi and orthogonal unit direction phi, the two vectors every
    expansion reads; sigma and mu are built only when read."""

    def __init__(self, dims: Dims, base: np.ndarray, direction: np.ndarray):
        self.dims = dims
        self.base = np.asarray(base, dtype=np.complex128)
        self.direction = np.asarray(direction, dtype=np.complex128)
        if self.base.shape != (dims.D,) or self.direction.shape != (dims.D,):
            raise DimensionMismatchError(f"frame vectors are not of length {dims.D}")
        _check_orthonormal([self.base, self.direction], "base and direction")

    @property
    def sigma(self) -> np.ndarray:
        return (np.outer(self.direction, self.base.conj())
                + np.outer(self.base, self.direction.conj()))

    @property
    def mu(self) -> np.ndarray:
        return (np.outer(self.direction, self.direction.conj())
                - np.outer(self.base, self.base.conj()))

    def state(self, eps: float) -> np.ndarray:
        return (self.base + eps * self.direction) / np.sqrt(1 + eps ** 2)


class CriticalReport(NamedTuple):
    measure: str       # mana | fidelity | xi2
    kind: str          # sharp_min | smooth_max | smooth_min | flat | inflection
    leading_order: int
    leading_coefficient: float


def _critical(measure: str, series) -> CriticalReport:
    """The report of the first (order, coefficient) pair of `series` whose
    coefficient exceeds COEFF_TOL in magnitude: order 1, an |eps| term, is a
    sharp minimum, another odd order an inflection and an even order a smooth
    minimum or maximum by sign.  When none does, the path is flat at the last
    pair."""
    for order, c in series:
        if abs(c) > COEFF_TOL:
            if order == 1:
                kind = "sharp_min"
            elif order % 2:
                kind = "inflection"
            else:
                kind = "smooth_min" if c > 0 else "smooth_max"
            return CriticalReport(measure, kind, order, float(c))
    return CriticalReport(measure, "flat", order, float(c))


# ---------------------------------------------------------------------------
# L and W matrices

def amplitudes(bras, kets) -> np.ndarray:
    """<x_i|y_j> for every row x_i of `bras` and y_j of `kets`, as an array
    (len(bras), len(kets)): one broadcast `np.vecdot`, which rounds each
    entry as `np.vdot(x_i, y_j)` does."""
    return np.vecdot(np.asarray(bras, dtype=np.complex128)[:, None],
                     np.asarray(kets, dtype=np.complex128)[None])


def _check_orthonormal(rows, what: str) -> None:
    """Refuse rows whose Gram matrix is not the identity, NaN and inf included."""
    if not np.max(np.abs(amplitudes(rows, rows) - np.eye(len(rows)))) <= ORTHONORMAL_TOL:
        raise ValueError(f"{what} are not orthonormal")


def l_matrix(basis: list[np.ndarray], nearest_states: list[np.ndarray]) -> np.ndarray:
    """First-order fidelity data: L[i, j] = <b_(j+1)|s_i><s_i|b_0>.

    `basis` is orthonormal with the candidate first; `nearest_states` fixes
    the row order.  Every column sums to zero for Clifford-stabilizer bases.
    """
    basis = np.asarray(basis, dtype=np.complex128)
    _check_orthonormal(basis, "the basis vectors")
    return amplitudes(basis[1:], nearest_states).T * amplitudes(nearest_states, basis[:1])


def w_matrix(basis: list[np.ndarray], dims: Dims) -> np.ndarray:
    """W[i, j] = sum_chi sign(W_chi(psi_i)) W_chi(psi_j), with sign(0) = 0."""
    if not dims.odd:
        raise UnsupportedDimensionError("W matrix requires odd d")
    W = np.array([wigner_function(b, dims).values for b in basis])
    signs = np.sign(W) * (np.abs(W) > WIGNER_ZERO_TOL)
    return signs @ W.T


# ---------------------------------------------------------------------------
# measure expansions along a frame

def _expansion_bytes(measure: str, dims: Dims) -> int:
    """An upper bound on the peak bytes of one mana or Xi_2 expansion: the
    transform plan (56 D^2), the arrays the expansion holds and one call's
    transients.  Traced peaks, plan build included, are 106-115 D^2 (mana)
    and 176-185 D^2 (xi2) from (2,6) to (3,6)."""
    return {"mana": 120, "xi2": 192}[measure] * dims.D ** 2


def _family_expansion(frame: PerturbationFrame, family) -> tuple:
    """(a0, a1, a2) with (1+eps^2) f(psi(eps)) = a0 + eps a1 + eps^2 a2 for a
    family f linear in the density operator, given as family(x) = f(|x><x|),
    a new array on each call: a0 = f(psi), a2 = f(phi) and, since
    |psi+phi><psi+phi| = psi + sigma + phi, a1 = f(sigma) = f(psi+phi) - a0 - a2."""
    a0, a1, a2 = family(frame.base), family(frame.base + frame.direction), family(frame.direction)
    a1 -= a0
    a1 -= a2
    return a0, a1, a2


def mana_expansion(frame: PerturbationFrame):
    """(linear_abs_coeff, quadratic_coeff, vanishing_pattern_ok) for the
    Wigner trace norm along the frame's path.

    linear_abs_coeff multiplies |eps|/(1+eps^2): the sum of |W_chi(sigma)|
    over the zero set of W(psi).  When it vanishes, quadratic_coeff
    multiplies eps^2/(1+eps^2): sign-weighted W(mu) plus |W(mu)| on the
    common zero set, with W(mu) = W(phi) - W(psi).
    """
    dims = frame.dims
    check_budget(_expansion_bytes("mana", dims), f"the mana expansion for {dims}")
    Wpsi, Wsig, Wphi = _family_expansion(frame, lambda x: wigner_function(x, dims).values)
    Wmu = Wphi - Wpsi
    zero = np.abs(Wpsi) <= WIGNER_ZERO_TOL
    linear = float(np.sum(np.abs(Wsig[zero])))
    pattern_ok = bool(np.all(np.abs(Wsig[zero]) <= COEFF_TOL))
    signs = np.sign(Wpsi) * (~zero)
    quadratic = float(signs @ Wmu + np.sum(np.abs(Wmu[zero & (np.abs(Wsig) <= WIGNER_ZERO_TOL)])))
    return linear, quadratic, pattern_ok


def classify_mana(frame: PerturbationFrame) -> CriticalReport:
    linear, quadratic, _ = mana_expansion(frame)
    return _critical("mana", [(1, linear), (2, quadratic)])


def fidelity_expansion(frame: PerturbationFrame,
                       dictionary: StabilizerDictionary) -> CriticalReport:
    """Classify the stabilizer fidelity at eps = 0 along the frame's path.

    |<s|psi(eps)>|^2 = F + eps/(1+eps^2) 2 Re(<phi|s><s|psi>)
                     + eps^2/(1+eps^2) (|<s|phi>|^2 - |<s|psi>|^2)
    exactly, for each nearest state s.
    """
    _, ties = dictionary.nearest(frame.base)
    states = dictionary.matrix[ties]
    F, linear, Fphi = _family_expansion(frame, lambda x: np.abs(np.vecdot(states, x)) ** 2)
    return _critical("fidelity", [(1, np.max(np.abs(linear))), (2, np.max(Fphi - F))])


# (1+eps^2)^-4 = sum_i comb(i+3, 3) (-eps^2)^i, as the matrix that takes the
# coefficients of (1+eps^2)^4 Xi_2 to those of Xi_2 up to order 8 (eps^(2i)
# shifts a coefficient by 2i)
_SERIES = sum(comb(i + 3, 3) * (-1) ** i * np.eye(9, k=-2 * i) for i in range(5))


def xi2_expansion(frame: PerturbationFrame) -> np.ndarray:
    """Taylor coefficients Xi_2^(0..8) of Xi_2(psi(eps)) about eps = 0.

    The characters c_chi(x) = <x|T_chi|x> are a family linear in |x><x|, so
    (1+eps^2) c_chi(psi(eps)) = a0 + eps a1 + eps^2 a2, and the exact polynomial
    (1+eps^2)^2 P_chi(eps) = sum_i eps^i Ptilde_chi^(i) has coefficients
    |a0|^2, 2Re(a0* a1), |a1|^2 + 2Re(a0* a2), 2Re(a1* a2), |a2|^2 over d^N.
    Xi_2 = sum_chi P_chi^2 is then divided by (1+eps^2)^4 as a power series.
    """
    dims = frame.dims
    check_budget(_expansion_bytes("xi2", dims), f"the Xi_2 expansion for {dims}")
    a0, a1, a2 = _family_expansion(frame, lambda x: shifted_characters(x, dims))
    P = np.empty((5, a0.size))  # row i: Ptilde_chi^(i) over d^N
    P[0] = np.abs(a0) ** 2
    P[1] = 2 * np.real(a0.conj() * a1)
    P[2] = np.abs(a1) ** 2 + 2 * np.real(a0.conj() * a2)
    P[3] = 2 * np.real(a1.conj() * a2)
    P[4] = np.abs(a2) ** 2
    P /= dims.D
    # order n of (1+eps^2)^4 Xi_2 = sum_chi (sum_i eps^i P_i)^2 sums (P P^T)[i, j] over i + j = n
    return _SERIES @ np.bincount(np.add.outer(np.arange(5), np.arange(5)).ravel(),
                                 (P @ P.T).ravel())


def classify_xi2(coefficients: np.ndarray) -> CriticalReport:
    """First nonzero of Xi_2^(2..8): even index -> min/max by sign, odd ->
    inflection; all zero -> the path is exactly flat, reported at order 0."""
    coefficients = np.asarray(coefficients, dtype=float)
    orders = range(2, min(9, coefficients.shape[0]))
    return _critical("xi2", [*((m, coefficients[m]) for m in orders), (0, 0.0)])
