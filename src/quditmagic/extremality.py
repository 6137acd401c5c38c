"""Perturbation analysis around candidate states.

A path |psi(eps)> = (|psi> + eps |phi>) / sqrt(1 + eps^2) with <phi|psi> = 0
has the exact density decomposition

    psi(eps) = psi + eps/(1+eps^2) sigma + eps^2/(1+eps^2) mu,
    sigma = |phi><psi| + |psi><phi|,   mu = |phi><phi| - |psi><psi|.

The module computes first/second-order data for the Wigner trace norm and
the stabilizer fidelity, and the order-8 series of Xi_2 along the path.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedDimensionError
from .measures import wigner_function
from .phasespace import Dims
from .stabilizers import StabilizerDictionary, max_overlap
from .tolerances import COEFF_TOL, ORTHONORMAL_TOL, WIGNER_ZERO_TOL
from .weyl import shifted_characters


class PerturbationFrame:
    """Base state, orthogonal direction, and the induced sigma/mu operators."""

    def __init__(self, dims: Dims, base: np.ndarray, direction: np.ndarray):
        self.dims = dims
        self.base = np.asarray(base, dtype=np.complex128)
        self.direction = np.asarray(direction, dtype=np.complex128)
        for name, v in (("base", self.base), ("direction", self.direction)):
            if abs(np.linalg.norm(v) - 1.0) > ORTHONORMAL_TOL:
                raise ValueError(f"{name} is not normalized")
        if abs(np.vdot(self.base, self.direction)) > ORTHONORMAL_TOL:
            raise ValueError("direction is not orthogonal to the base state")
        self.sigma = (np.outer(self.direction, self.base.conj())
                      + np.outer(self.base, self.direction.conj()))
        self.mu = (np.outer(self.direction, self.direction.conj())
                   - np.outer(self.base, self.base.conj()))

    def state(self, eps: float) -> np.ndarray:
        return (self.base + eps * self.direction) / np.sqrt(1 + eps ** 2)

    def density(self, eps: float) -> np.ndarray:
        psi = self.state(eps)
        return np.outer(psi, psi.conj())


class CriticalReport(NamedTuple):
    measure: str       # mana | fidelity | xi2
    kind: str          # sharp_min | smooth_max | smooth_min | flat | inflection | undetermined
    leading_order: int
    leading_coefficient: float


def angle_direction(basis, angles, phases) -> np.ndarray:
    """Hyperspherical direction over `basis` with polar angles and phases.

    For basis (b1..bk): coeffs are e^(i phi_1) cos t1, e^(i phi_2) sin t1 cos t2,
    ..., e^(i phi_k) sin t1 ... sin t_(k-1).
    """
    k = len(basis)
    if len(phases) != k or len(angles) != k - 1:
        raise ValueError("need k phases and k-1 angles")
    coeffs = []
    s = 1.0
    for i in range(k):
        c = s * (np.cos(angles[i]) if i < k - 1 else 1.0)
        coeffs.append(np.exp(1j * phases[i]) * c)
        if i < k - 1:
            s *= np.sin(angles[i])
    v = sum(c * np.asarray(b, dtype=np.complex128) for c, b in zip(coeffs, basis))
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# L and W matrices

def l_matrix(basis: list[np.ndarray], nearest_states: list[np.ndarray]) -> np.ndarray:
    """First-order fidelity data: L[i, j] = <b_(j+1)|s_i><s_i|b_0>.

    `basis` is orthonormal with the candidate first; `nearest_states` fixes
    the row order.  Every column sums to zero for Clifford-stabilizer bases.
    """
    basis = [np.asarray(b, dtype=np.complex128) for b in basis]
    G = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    if np.max(np.abs(G - np.eye(len(basis)))) > ORTHONORMAL_TOL:
        raise ValueError("basis is not orthonormal")
    psi = basis[0]
    rows = []
    for s in nearest_states:
        s = np.asarray(s, dtype=np.complex128)
        rows.append([np.vdot(b, s) * np.vdot(s, psi) for b in basis[1:]])
    return np.array(rows)


def w_matrix(basis: list[np.ndarray], dims: Dims) -> np.ndarray:
    """W[i, j] = sum_chi sign(W_chi(psi_i)) W_chi(psi_j), with sign(0) = 0."""
    if not dims.odd:
        raise UnsupportedDimensionError("W matrix requires odd d")
    W = np.array([wigner_function(b, dims).values for b in basis])
    signs = np.sign(W) * (np.abs(W) > WIGNER_ZERO_TOL)
    return signs @ W.T


# ---------------------------------------------------------------------------
# measure expansions along a frame

def mana_expansion(frame: PerturbationFrame):
    """(linear_abs_coeff, quadratic_coeff, vanishing_pattern_ok) for the
    Wigner trace norm along the frame's path.

    linear_abs_coeff multiplies |eps|/(1+eps^2): the sum of |W_chi(sigma)|
    over the zero set of W(psi).  When it vanishes, quadratic_coeff
    multiplies eps^2/(1+eps^2): sign-weighted W(mu) plus |W(mu)| on the
    common zero set.
    """
    dims = frame.dims
    Wpsi = wigner_function(np.outer(frame.base, frame.base.conj()), dims).values
    Wsig = wigner_function(frame.sigma, dims).values
    Wmu = wigner_function(frame.mu, dims).values
    zero = np.abs(Wpsi) <= WIGNER_ZERO_TOL
    linear = float(np.sum(np.abs(Wsig[zero])))
    pattern_ok = bool(np.all(np.abs(Wsig[zero]) <= COEFF_TOL))
    signs = np.sign(Wpsi) * (~zero)
    quadratic = float(signs @ Wmu + np.sum(np.abs(Wmu[zero & (np.abs(Wsig) <= WIGNER_ZERO_TOL)])))
    return linear, quadratic, pattern_ok


def classify_mana(frame: PerturbationFrame) -> CriticalReport:
    linear, quadratic, _ = mana_expansion(frame)
    if linear > COEFF_TOL:
        return CriticalReport("mana", "sharp_min", 1, linear)
    if quadratic < -COEFF_TOL:
        return CriticalReport("mana", "smooth_max", 2, quadratic)
    if quadratic > COEFF_TOL:
        return CriticalReport("mana", "smooth_min", 2, quadratic)
    return CriticalReport("mana", "flat", 2, quadratic)


def fidelity_expansion(frame: PerturbationFrame,
                       dictionary: StabilizerDictionary) -> CriticalReport:
    """Classify the stabilizer fidelity at eps = 0 along the frame's path.

    |<s|psi(eps)>|^2 = F + eps/(1+eps^2) 2 Re l_s + eps^2/(1+eps^2) <s|mu|s>
    exactly, for each nearest state s.
    """
    F, nearest = max_overlap(frame.base, dictionary)
    linear = np.array([2 * np.real(np.vdot(frame.direction, s.vector)
                                   * np.vdot(s.vector, frame.base))
                       for s in nearest])
    if np.max(np.abs(linear)) > COEFF_TOL:
        return CriticalReport("fidelity", "sharp_min", 1, float(np.max(np.abs(linear))))
    quad = np.array([np.real(np.vdot(s.vector, frame.mu @ s.vector)) for s in nearest])
    top = float(np.max(quad))
    if top < -COEFF_TOL:
        return CriticalReport("fidelity", "smooth_max", 2, top)
    if top > COEFF_TOL:
        return CriticalReport("fidelity", "smooth_min", 2, top)
    return CriticalReport("fidelity", "flat", 2, top)


def xi2_expansion(frame: PerturbationFrame) -> np.ndarray:
    """Taylor coefficients Xi_2^(0..8) of Xi_2(psi(eps)) about eps = 0.

    With b, v the frame's base and direction and c_xy = <x|T_chi|y>,
    (1+eps^2) <psi(eps)|T_chi|psi(eps)> = a0 + eps a1 + eps^2 a2 with
    a0 = c_bb, a1 = c_bv + c_vb, a2 = c_vv, so the exact polynomial
    (1+eps^2)^2 P_chi(eps) = sum_i eps^i Ptilde_chi^(i) has coefficients
    |a0|^2, 2Re(a0* a1), |a1|^2 + 2Re(a0* a2), 2Re(a1* a2), |a2|^2 over d^N.
    Xi_2 = sum_chi P_chi^2 is then divided by (1+eps^2)^4 as a power series.
    """
    dims = frame.dims
    b, v = frame.base, frame.direction
    a0 = shifted_characters(b, b, dims)
    a1 = shifted_characters(b, v, dims) + shifted_characters(v, b, dims)
    a2 = shifted_characters(v, v, dims)

    def cross(x, y):
        return 2 * np.real(x.conj() * y)

    P = [x / dims.D for x in (np.abs(a0) ** 2, cross(a0, a1),
                              np.abs(a1) ** 2 + cross(a0, a2),
                              cross(a1, a2), np.abs(a2) ** 2)]
    xt = np.zeros(9)
    for n in range(9):
        for i in range(max(0, n - 4), min(n, 4) + 1):
            xt[n] += float(np.sum(P[i] * P[n - i]))
    out = np.zeros(9)
    for n in range(9):
        for i in range(n // 2 + 1):
            out[n] += comb(i + 3, 3) * (-1) ** i * xt[n - 2 * i]
    return out


def xi2_series_bound(frame: PerturbationFrame) -> float:
    """Crude envelope constant K with |Xi_2 - order-8 truncation| <= K eps^9
    for |eps| <= 0.1 (used by the series cross-check)."""
    coeffs = xi2_expansion(frame)
    return 200.0 * max(1.0, float(np.sum(np.abs(coeffs))))


def classify_xi2(coefficients: np.ndarray) -> CriticalReport:
    """First nonzero of Xi_2^(2..8): even index -> min/max by sign, odd ->
    inflection; all zero -> the path is exactly flat."""
    coefficients = np.asarray(coefficients, dtype=float)
    for m in range(2, min(9, coefficients.shape[0])):
        c = coefficients[m]
        if abs(c) > COEFF_TOL:
            if m % 2 == 1:
                return CriticalReport("xi2", "inflection", m, float(c))
            kind = "smooth_min" if c > 0 else "smooth_max"
            return CriticalReport("xi2", kind, m, float(c))
    return CriticalReport("xi2", "flat", 0, 0.0)
