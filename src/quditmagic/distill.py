"""Exact density-matrix simulation of the doubled five-qubit distillation.

Two five-qubit perfect codes (systems A and B) are projected onto their
trivial syndromes.  Each of the five (A_i, B_i) pairs carries a state in the
basis

    psi_0 = (|T0 T0> - |T1 T1>)/sqrt2      (eigenvalue 1 of T x T^-1)
    psi_1 = |T0 T1>                        (eigenvalue e^(2 pi i/3))
    psi_2 = |T1 T0>                        (eigenvalue e^(-2 pi i/3))
    psi_3 = (|T0 T0> + |T1 T1>)/sqrt2      (the stabilizer state (|00>+i|11>)/sqrt2)

so the ten-qubit computation runs in the 4^5 = 1024-dimensional pair basis,
where trivial-syndrome projection preserves the parametrized form

    rho = (1 - e1 - e2 - e3) psi_0 + e1 psi_1 + e2 psi_2 + e3 psi_3
          + (a + ib)|psi_0><psi_3| + h.c.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .clifford import qubit_T_states, word_unitary
from .phasespace import Dims
from .tolerances import ORTHONORMAL_TOL, PSD_TOL
from .weyl import unit_phase

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


class PairParams(NamedTuple):
    """Error populations and psi_0/psi_3 coherences of one pair."""

    eps1: float = 0.0
    eps2: float = 0.0
    eps3: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def density(self) -> np.ndarray:
        """4x4 density matrix in the pair basis; raises unless finite and PSD."""
        if not np.all(np.isfinite(self)):
            raise ValueError(f"parameters must be finite, got {self}")
        rho = np.diag([1.0 - self.eps1 - self.eps2 - self.eps3,
                       self.eps1, self.eps2, self.eps3]).astype(np.complex128)
        rho[0, 3] = self.a + 1j * self.b
        rho[3, 0] = self.a - 1j * self.b
        if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
            raise ValueError("parameters do not define a PSD density matrix")
        return rho

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "PairParams":
        return cls(eps1=float(rho[1, 1].real), eps2=float(rho[2, 2].real),
                   eps3=float(rho[3, 3].real),
                   a=float(rho[0, 3].real), b=float(rho[0, 3].imag))


def _pairs(T0: np.ndarray, T1: np.ndarray) -> list[np.ndarray]:
    """psi_0..psi_3 built from a pair of T states, physical or logical."""
    return [(np.kron(T0, T0) - np.kron(T1, T1)) / np.sqrt(2), np.kron(T0, T1),
            np.kron(T1, T0), (np.kron(T0, T0) + np.kron(T1, T1)) / np.sqrt(2)]


def pair_basis() -> list[np.ndarray]:
    """The four orthonormal two-qubit pair states psi_0..psi_3."""
    return _pairs(*qubit_T_states())


@lru_cache(maxsize=1)
def code_projector() -> np.ndarray:
    """The five-qubit perfect code's trivial-syndrome projector: the product
    of (1 + g) / 2 over the generators g, each the Clifford word of its X and
    Z letters."""
    P = np.eye(32, dtype=np.complex128)
    for g in FIVE_QUBIT_GENERATORS:
        word = [f"{letter}@{site}" for site, letter in enumerate(g, 1) if letter != "I"]
        P = P @ (np.eye(32) + word_unitary(word, Dims(2, 5))) / 2.0
    return P


def project_T_overlaps() -> dict:
    """<T_x| Pi |T_x> and the phases of Pi |T_x> for all 32 bitstrings.

    Overlap by weight |x|: 1/6, 0, 1/12, 1/12, 0, 1/6.  Phases are relative
    to the logical states sqrt6 Pi |T_11111> (weight-2 sector) and
    sqrt6 Pi |T_00000> (weight-3 sector), in the gauge |T1> -> e^(i pi/3)|T1>
    that makes the weight-2 phases +-pi/3 and the weight-3 phases +-2pi/3;
    the partition of bitstrings into equal-phase sets is gauge-independent.
    """
    Pi = code_projector()
    T0, T1 = qubit_T_states()
    T1 = unit_phase(1, 6) * T1
    vecs = {}
    for x in range(32):
        vecs[x] = reduce(np.kron, [T1 if (x >> (4 - i)) & 1 else T0 for i in range(5)])
    T0L = np.sqrt(6) * Pi @ vecs[0b11111]   # logical |T0>
    T1L = np.sqrt(6) * Pi @ vecs[0b00000]   # logical |T1>
    out = {}
    for x, v in vecs.items():
        w = bin(x).count("1")
        pv = Pi @ v
        overlap = float(np.real(np.vdot(v, pv)))
        phase = None
        if w in (2, 3):
            ref = T0L if w == 2 else T1L
            amp = np.vdot(ref, pv) * np.sqrt(12)
            phase = float(np.angle(amp))
        out[x] = {"weight": w, "overlap": overlap, "phase": phase}
    return out


def logical_t_states() -> tuple[np.ndarray, np.ndarray]:
    """|T0_L>, |T1_L> of the five-qubit code: sqrt6 Pi |T1^x5> and
    sqrt6 Pi |T0^x5| (the trivial-syndrome projection flips the label)."""
    Pi = code_projector()
    return tuple(np.sqrt(6) * Pi @ reduce(np.kron, [t] * 5) for t in qubit_T_states()[::-1])


@lru_cache(maxsize=1)
def logical_pair_vectors() -> np.ndarray:
    """Columns L[:, n]: the logical pair basis, expressed in the 1024-dim
    physical pair-basis coordinates used by `distill_step`.

    The logical basis repeats the pair construction on the logical T states
    of the two codes, so the output PairParams live in the same convention
    as the input ones.
    """
    basis = pair_basis()
    L_block = np.array(_pairs(*logical_t_states())).T  # (A-block, B-block) order
    # A1..A5 B1..B5 qubit axes to pair-major A1 B1 A2 B2 ..
    L_pairmajor = L_block.reshape((2,) * 10 + (4,)).transpose(
        0, 5, 1, 6, 2, 7, 3, 8, 4, 9, 10).reshape(1024, 4)
    # express in pair-basis coordinates, matching the kron of 4x4 densities
    L = _act_on_pairs([np.array(basis).conj()] * 5, L_pairmajor)
    gram = L.conj().T @ L
    if np.max(np.abs(gram - np.eye(4))) > ORTHONORMAL_TOL:
        raise RuntimeError("logical pair vectors are not orthonormal")
    return L


def _act_on_pairs(ops: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """(ops[0] x ... x ops[4]) X for 4x4 ops and X of shape (1024, m), applied
    one pair axis at a time, so no 1024 x 1024 Kronecker product is formed."""
    X = X.reshape((4,) * 5 + (-1,))
    for axis, op in enumerate(ops):
        X = np.moveaxis(np.tensordot(op, X, axes=([1], [axis])), 0, axis)
    return X.reshape(1024, -1)


def distill_step(params: list[PairParams]) -> tuple[PairParams, float]:
    """One round on five pairs: project both codes on the trivial syndrome.

    Returns the renormalized logical PairParams and the success probability.
    """
    rho_L = logical_density(params)
    p_success = float(np.real(np.trace(rho_L)))
    return PairParams.from_density(rho_L / p_success), p_success


def logical_density(params: list[PairParams]) -> np.ndarray:
    """Unnormalized 4x4 logical operator L^dag (rho_1 x ... x rho_5) L after
    trivial-syndrome projection."""
    if len(params) != 5:
        raise ValueError("need exactly five pairs")
    L = logical_pair_vectors()
    return L.conj().T @ _act_on_pairs([p.density() for p in params], L)


def success_probability_exact(eps: float) -> float:
    """p(eps) for five identical copies with only eps3 = eps nonzero."""
    return (49 - 240 * eps + 600 * eps ** 2 - 640 * eps ** 3
            + 240 * eps ** 4) / 2304


def updated_error_exact(eps: float) -> float:
    """eps'(eps) for five identical copies with only eps3 = eps nonzero."""
    num = eps * (5 + 100 * eps - 240 * eps ** 2 + 160 * eps ** 3 - 16 * eps ** 4)
    den = 49 - 240 * eps + 600 * eps ** 2 - 640 * eps ** 3 + 240 * eps ** 4
    return num / den


def iterate_protocol(params: PairParams, rounds: int) -> list[dict]:
    """Repeat distill_step on five identical copies of the running state."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    traj = []
    current = params
    for r in range(rounds):
        current, p = distill_step([current] * 5)
        traj.append({"round": r + 1, "params": current, "p_success": p})
    return traj

