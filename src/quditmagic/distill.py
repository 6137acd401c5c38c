"""Exact density-matrix simulation of the doubled five-qubit distillation.

Two five-qubit perfect codes (systems A and B) are projected onto their
trivial syndromes.  Each of the five (A_i, B_i) pairs carries a state in the
basis

    psi_0 = (|T0 T0> - |T1 T1>)/sqrt2      (eigenvalue 1 of T x T^-1)
    psi_1 = |T0 T1>                        (eigenvalue e^(2 pi i/3))
    psi_2 = |T1 T0>                        (eigenvalue e^(-2 pi i/3))
    psi_3 = (|T0 T0> + |T1 T1>)/sqrt2      (the stabilizer state (|00>+i|11>)/sqrt2)

and trivial-syndrome projection preserves the parametrized form

    rho = (1 - e1 - e2 - e3) psi_0 + e1 psi_1 + e2 psi_2 + e3 psi_3
          + (a + ib)|psi_0><psi_3| + h.c.

No ten-qubit operator is built.  For a logical Pauli P of one code, P Pi is
P times the code's 16 stabilizers, weighted 1/16 in modulus, so on the product
input rho_1 x ... x rho_5 the doubled code's stabilizer group gives the sum

    Tr[rho (P_a Pi x P_b Pi)] = sum_(s, t) w_a(s) w_b(t) prod_i Tr[rho_i (s_i x t_i)]

of 256 products of pair expectations: the logical density's 16 Pauli values.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .clifford import qubit_T_states, word_unitary
from .phasespace import Dims, lex_grid
from .tolerances import COEFF_TOL, PSD_TOL
from .weyl import displacement_matrix, pauli_coefficients, unit_phase

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
        rho[0, 3], rho[3, 0] = self.a + 1j * self.b, self.a - 1j * self.b
        if np.min(np.linalg.eigvalsh(rho)) < -PSD_TOL:
            raise ValueError("parameters do not define a PSD density matrix")
        return rho

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "PairParams":
        return cls(float(rho[1, 1].real), float(rho[2, 2].real), float(rho[3, 3].real),
                   float(rho[0, 3].real), float(rho[0, 3].imag))


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
    Pi, (T0, T1) = code_projector(), qubit_T_states()
    T1 = unit_phase(1, 6) * T1
    vecs = {x: reduce(np.kron, [T1 if (x >> (4 - i)) & 1 else T0 for i in range(5)])
            for x in range(32)}
    T0L, T1L = (np.sqrt(6) * Pi @ vecs[x] for x in (0b11111, 0b00000))  # logical |T0>, |T1>
    out = {}
    for x, v in vecs.items():
        w, pv = bin(x).count("1"), Pi @ v
        ref = {2: T0L, 3: T1L}.get(w)
        phase = None if ref is None else float(np.angle(np.vdot(ref, pv) * np.sqrt(12)))
        out[x] = {"weight": w, "overlap": float(np.real(np.vdot(v, pv))), "phase": phase}
    return out


def logical_t_states() -> tuple[np.ndarray, np.ndarray]:
    """|T0_L>, |T1_L> of the five-qubit code: sqrt6 Pi |T1^x5> and
    sqrt6 Pi |T0^x5> (the trivial-syndrome projection flips the label)."""
    Pi = code_projector()
    return tuple(np.sqrt(6) * Pi @ reduce(np.kron, [t] * 5) for t in qubit_T_states()[::-1])


@lru_cache(maxsize=1)
def _code_tables() -> list[tuple[np.ndarray, np.ndarray]]:
    """The (p, q) labels, as (10, 16) columns, and weights of the 16 Pauli strings
    of P Pi for each logical Pauli P = T_(x^5, z^5) of the code, (x, z) = I, Z, X, Y."""
    Pi, dims, tables = code_projector(), Dims(2, 5), []
    for x, z in lex_grid(2, 2):
        coeffs = pauli_coefficients(displacement_matrix([x] * 5 + [z] * 5, dims) @ Pi, dims)
        terms = np.flatnonzero(np.abs(coeffs) > COEFF_TOL)
        tables.append((np.array(np.unravel_index(terms, (2,) * 10)), coeffs[terms]))
    return tables


@lru_cache(maxsize=1)
def _stabilizer_sum() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each logical Pauli P_a x P_b of the doubled code: the (5, 16, 256) flat
    indices of its terms' site labels (p_A, p_B, q_A, q_B) into the five pairs'
    stacked expectations, the (16, 256) weights w_a(s) w_b(t), the pair basis and
    <L_m| P_a x P_b |L_n> / 4 in the logical basis |0_L> = 4 Pi |0>, X^x5 |0_L>."""
    tables = _code_tables()
    sites = [4 * chi[:5] + chi[5:] for chi, _ in tables]  # 4 p_i + q_i of each term at site i
    index, weights, logicals = [], [], []
    for a, b in lex_grid(4, 2):
        index.append((2 * sites[a][:, :, None] + sites[b][:, None, :]).reshape(5, 256))
        weights.append(np.outer(tables[a][1], tables[b][1]).ravel())
        logicals.append(displacement_matrix([a >> 1, b >> 1, a & 1, b & 1], Dims(2, 2)))
    zero = 4 * code_projector()[:, 0]
    coords = np.array([zero, displacement_matrix([1] * 5 + [0] * 5, Dims(2, 5)) @ zero]).conj()
    L = np.array(_pairs(*(coords @ t for t in logical_t_states()))).T
    return (np.stack(index, axis=1) + 16 * np.arange(5)[:, None, None], np.array(weights),
            np.array(pair_basis()).T, L.conj().T @ np.array(logicals) @ L / 4)


def distill_step(params: list[PairParams]) -> tuple[PairParams, float]:
    """One round on five pairs: the renormalized logical PairParams after both
    codes are projected on the trivial syndrome, and the success probability."""
    rho_L = logical_density(params)
    p_success = float(np.real(np.trace(rho_L)))
    return PairParams.from_density(rho_L / p_success), p_success


def logical_density(params: list[PairParams]) -> np.ndarray:
    """Unnormalized 4x4 logical density <L_m| Pi (rho_1 x ... x rho_5) Pi |L_n>,
    read from the 16 Pauli expectations Tr[rho_i T_chi] of each distinct pair."""
    if len(params) != 5:
        raise ValueError("need exactly five pairs")
    index, weights, basis, contraction = _stabilizer_sum()
    distinct = list(dict.fromkeys(params))
    rho = basis @ np.array([p.density() for p in distinct]) @ basis.conj().T
    expectations = 4 * pauli_coefficients(rho, Dims(2, 2))
    sites = expectations[[distinct.index(p) for p in params]].ravel()
    values = (sites[index].prod(axis=0) * weights).sum(axis=-1)  # Tr[rho P_a x P_b Pi]
    return np.tensordot(values, contraction, axes=1)


def success_probability_exact(eps: float) -> float:
    """p(eps) for five identical copies with only eps3 = eps nonzero."""
    return (49 - 240 * eps + 600 * eps ** 2 - 640 * eps ** 3 + 240 * eps ** 4) / 2304


def updated_error_exact(eps: float) -> float:
    """eps'(eps) for five identical copies with only eps3 = eps nonzero."""
    num = eps * (5 + 100 * eps - 240 * eps ** 2 + 160 * eps ** 3 - 16 * eps ** 4)
    den = 49 - 240 * eps + 600 * eps ** 2 - 640 * eps ** 3 + 240 * eps ** 4
    return num / den


def iterate_protocol(params: PairParams, rounds: int) -> list[dict]:
    """Repeat distill_step on five identical copies of the running state."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    traj, current = [], params
    for r in range(rounds):
        current, p = distill_step([current] * 5)
        traj.append({"round": r + 1, "params": current, "p_success": p})
    return traj

