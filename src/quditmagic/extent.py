"""Stabilizer extent and G-stabilizer extent by complex L1 minimization.

    xi(psi) = min { (sum_i |c_i|)^2 : sum_i c_i |s_i> = |psi> }

over a finite dictionary of rays; the G-variant takes as its target P|psi>,
the projection of psi onto the span of the G-stabilizer states.  Solved as complex basis pursuit with
scaled ADMM: alternating projection onto the affine constraint and complex
soft thresholding, with over-relaxation and a dual-certificate stopping
rule.  The dual of min ||c||_1 s.t. Ac = b is max Re<b, y> s.t.
||A^dag y||_inf <= 1, so a feasible dual vector certifies optimality.

The solver stops at the first certificate that closes the gap.  At each
check the dual's active set {i : |(A^dag y)_i| >= 1 - ACTIVE_SET_TOL} fixes
the phases of an optimal c (complementary slackness), and one real least
squares on that set gives a polished candidate beside the ADMM iterate.  Once
the dual is exact, which on stabilizer targets comes long before the iterate
settles, the polished candidate closes the gap to rounding; either candidate
is returned only under the same duality-gap and residual gate, so weak
duality certifies every converged value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfeasibleExtentError
from .measures import group_stabilizer_fidelity
from .stabilizers import StabilizerDictionary
from .tolerances import ACTIVE_SET_TOL, EXTENT_TOL, FEASIBILITY_TOL, GRAM_CUTOFF


class ExtentProblem(NamedTuple):
    target: np.ndarray
    dictionary: np.ndarray  # (K, D): rows are dictionary states

    @classmethod
    def from_states(cls, target, states) -> "ExtentProblem":
        mat = np.array([np.asarray(s, dtype=np.complex128) for s in states])
        return cls(np.asarray(target, dtype=np.complex128), mat)

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


def solve_extent(problem: ExtentProblem, tol: float = EXTENT_TOL,
                 max_iter: int = 100_000) -> ExtentSolution:
    """Minimize the l1 norm of c subject to A c = b, b the target.

    Every 25th step, on a stalled step and on the last one, the scaled dual
    y certifies two candidates: the polished vector on y's active set and the
    ADMM iterate projected onto A c = b.  The first to close the duality gap
    within `tol`, with |A c - b| < 10 tol, is returned.  A solve that reaches
    `max_iter` first returns the checked ADMM candidate of least l1 norm, and
    `converged` says whether its gap is within `tol`."""
    if not 0 < tol < 1:  # an extent is at least 1: a gap of 1 or more certifies nothing
        raise ValueError(f"tol must be > 0 and < 1, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    A = problem.dictionary.T           # (D, K) with columns the states
    b = problem.target.astype(np.complex128)
    K = A.shape[1]
    Ah = A.conj().T                  # (K, D)
    w, V = np.linalg.eigh(A @ Ah)
    keep = w > max(w.max(), 1.0) * GRAM_CUTOFF
    pinv = (V[:, keep] / w[keep]) @ V[:, keep].conj().T
    M, pb = pinv @ A, pinv @ b       # v - Ah (M v - pb) projects v onto A c = b
    x = Ah @ pb                      # least-norm feasible start
    # feasibility: b must lie in the column span of A
    miss = np.linalg.norm(A @ x - b)
    if not miss <= FEASIBILITY_TOL:  # NaN and inf included
        raise InfeasibleExtentError(f"the target misses the dictionary span by {miss:.2e}")

    def solution(c: np.ndarray, dual: float, iterations: int) -> ExtentSolution:
        l1 = float(np.sum(np.abs(c)))
        return ExtentSolution(
            value=l1 ** 2,
            coefficients=c,
            residual=float(np.linalg.norm(A @ c - b)),
            dual_certificate=dual ** 2,
            duality_gap=abs(l1 - dual),
            iterations=iterations,
            converged=abs(l1 - dual) <= tol,
        )

    alpha = 1.6  # over-relaxation
    relaxed_Ah = alpha * Ah
    b_stacked = np.concatenate([b.real, b.imag])
    step_tol = (tol * 0.01) ** 2
    z = x
    u = np.zeros(K, dtype=np.complex128)
    best = None
    for it in range(1, max_iter + 1):
        # v = alpha x + (1 - alpha) z + u with x the projection of z - u
        v = z + (1 - alpha) * u - relaxed_Ah.dot(M.dot(z - u) - pb)
        u = v / np.maximum(np.abs(v), 1.0)  # v projected onto the unit l_inf ball
        z_new = v - u                       # so v - u is v soft-thresholded at 1
        step = z_new - z
        z = z_new
        if it % 25 == 0 or np.vdot(step, step).real < step_tol or it == max_iter:
            # dual candidate: least-squares lift of the subgradient u, scaled
            # into the feasible set |A^dag y| <= 1
            y = M.dot(u)
            g = Ah.dot(y)
            scale = max(float(np.max(np.abs(g))), 1.0)
            y, g = y / scale, g / scale
            dual = float(np.real(np.vdot(b, y)))
            # polish: complementary slackness puts c_i = t_i g_i / |g_i| with
            # t_i >= 0 on the active set |g_i| = 1 and c_i = 0 off it; solve
            # for real t by least squares.  A weight -s < 0 adds 2 s |g_i| to
            # the gap, so the gate below also rejects a wrong sign.
            mag = np.abs(g)
            active = np.flatnonzero(mag >= 1 - ACTIVE_SET_TOL)
            phase = g[active] / mag[active]
            AS = A[:, active] * phase
            t = np.linalg.lstsq(np.vstack([AS.real, AS.imag]), b_stacked, rcond=None)[0]
            polished = np.zeros(K, dtype=np.complex128)
            polished[active] = t * phase
            iterate = z - Ah.dot(M.dot(z) - pb)
            for c in (polished, iterate):
                l1 = float(np.sum(np.abs(c)))
                if abs(l1 - dual) < tol and np.linalg.norm(A.dot(c) - b) < 10 * tol:
                    return solution(c, dual, it)
            if best is None or l1 < best[1]:  # l1 of the iterate, the last candidate
                best = (iterate, l1, dual)
    c, _, dual = best
    return solution(c, dual, it)


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
