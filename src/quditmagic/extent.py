"""Stabilizer extent and G-stabilizer extent by complex L1 minimization.

    xi(psi) = min { (sum_i |c_i|)^2 : sum_i c_i |s_i> = P|psi> }

over a finite dictionary of rays.  Solved as complex basis pursuit with
scaled ADMM: alternating projection onto the affine constraint and complex
soft thresholding, with over-relaxation and a dual-certificate stopping
rule.  The dual of min ||c||_1 s.t. Ac = b is max Re<b, y> s.t.
||A^dag y||_inf <= 1, so a feasible dual vector certifies optimality.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfeasibleExtentError
from .measures import group_stabilizer_fidelity
from .stabilizers import StabilizerDictionary
from .tolerances import EXTENT_CHECK_TOL, EXTENT_TOL, FEASIBILITY_TOL, GRAM_CUTOFF


class ExtentProblem(NamedTuple):
    target: np.ndarray
    dictionary: np.ndarray               # (K, D): rows are dictionary states
    projector: np.ndarray | None = None  # optional projector onto span(S_G)

    @classmethod
    def from_states(cls, target, states, projector=None) -> "ExtentProblem":
        mat = np.array([np.asarray(s, dtype=np.complex128) for s in states])
        return cls(np.asarray(target, dtype=np.complex128), mat, projector)

    @classmethod
    def from_dictionary(cls, target, dictionary: StabilizerDictionary) -> "ExtentProblem":
        return cls(np.asarray(target, dtype=np.complex128), dictionary.matrix.copy())


class ExtentSolution(NamedTuple):
    value: float
    coefficients: np.ndarray
    residual: float
    dual_certificate: float | None = None
    duality_gap: float | None = None
    iterations: int = 0
    converged: bool = False  # duality gap within the solver tolerance

    @property
    def l1(self) -> float:
        return float(np.sum(np.abs(self.coefficients)))


def _soft_threshold(z: np.ndarray, kappa: float) -> np.ndarray:
    mag = np.abs(z)
    scale = np.maximum(mag - kappa, 0.0)
    out = np.zeros_like(z)
    nz = mag > 0
    out[nz] = z[nz] / mag[nz] * scale[nz]
    return out


def solve_extent(problem: ExtentProblem, tol: float = EXTENT_TOL,
                 max_iter: int = 100_000) -> ExtentSolution:
    """Minimize the l1 norm of c subject to A c = b (b = projected target)."""
    A = problem.dictionary.T           # (D, K) with columns the states
    b = problem.target.astype(np.complex128)
    if problem.projector is not None:
        b = problem.projector @ b
    D, K = A.shape
    Ah = A.conj().T                  # (K, D)
    # feasibility: b must lie in the column span of A
    gram = A @ Ah                    # (D, D)
    w, V = np.linalg.eigh(gram)
    keep = w > max(w.max(), 1.0) * GRAM_CUTOFF
    pinv = (V[:, keep] / w[keep]) @ V[:, keep].conj().T
    b_span = A @ (Ah @ (pinv @ b))
    if np.linalg.norm(b_span - b) > FEASIBILITY_TOL:
        raise InfeasibleExtentError(
            f"projected target misses the dictionary span by "
            f"{np.linalg.norm(b_span - b):.2e}"
        )

    def project_affine(v: np.ndarray) -> np.ndarray:
        return v - Ah @ (pinv @ (A @ v - b))

    alpha = 1.6  # over-relaxation
    x = Ah @ (pinv @ b)              # least-norm feasible start
    z = x.copy()
    u = np.zeros(K, dtype=np.complex128)
    best = None
    it = 0
    for it in range(1, max_iter + 1):
        x = project_affine(z - u)
        x_relax = alpha * x + (1 - alpha) * z
        z_new = _soft_threshold(x_relax + u, 1.0)
        u = u + x_relax - z_new
        z_step = np.linalg.norm(z_new - z)
        z = z_new
        if it % 25 == 0 or z_step < tol * 0.01:
            c = project_affine(z)
            l1 = float(np.sum(np.abs(c)))
            # dual candidate: least-squares lift of the subgradient u
            y = pinv @ (A @ u)
            dual_inf = float(np.max(np.abs(Ah @ y)))
            y_feas = y / max(dual_inf, 1.0)
            gap = abs(l1 - float(np.real(np.vdot(b, y_feas))))
            if best is None or l1 < best[0]:
                best = (l1, c.copy(), float(np.real(np.vdot(b, y_feas))))
            if gap < tol and np.linalg.norm(A @ c - b) < 10 * tol:
                best = (l1, c.copy(), float(np.real(np.vdot(b, y_feas))))
                break
    l1, c, dual_val = best
    return ExtentSolution(
        value=l1 ** 2,
        coefficients=c,
        residual=float(np.linalg.norm(A @ c - b)),
        dual_certificate=dual_val ** 2,
        duality_gap=abs(l1 - dual_val),
        iterations=it,
        converged=abs(l1 - dual_val) <= tol,
    )


def witness_bound(psi: np.ndarray, omega: np.ndarray, states) -> float:
    """Lower bound |<psi|omega>|^2 / F_G(omega) on the G-stabilizer extent."""
    psi = np.asarray(psi, dtype=np.complex128)
    omega = np.asarray(omega, dtype=np.complex128)
    if isinstance(states, StabilizerDictionary):
        states = states.matrix
    F, _ = group_stabilizer_fidelity(omega, states)
    if F <= 0:
        raise ZeroDivisionError("witness has zero G-stabilizer fidelity")
    return float(abs(np.vdot(psi, omega)) ** 2 / F)


class ExtentCheck(NamedTuple):
    name: str
    fidelity: float
    solved: float
    expected: float
    error: float
    passed: bool


def verify_clifford_stabilizer_extent(psi: np.ndarray,
                                      dictionary: StabilizerDictionary,
                                      name: str = "") -> ExtentCheck:
    """Check xi = 1/F for a Clifford-stabilizer state."""
    F, _ = group_stabilizer_fidelity(psi, dictionary.matrix)
    sol = solve_extent(ExtentProblem.from_dictionary(psi, dictionary))
    err = abs(sol.value - 1.0 / F)
    return ExtentCheck(name=name, fidelity=F, solved=sol.value,
                       expected=1.0 / F, error=err, passed=err <= EXTENT_CHECK_TOL)
