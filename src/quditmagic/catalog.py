"""Named states with exact constructors and their tabulated measure values.

Catalog names are prefixed by system: ``qubit:``, ``qutrit:``, ``ququint:``,
``2q:``, ``3q:``.  Expected values carry an exact-form string next to the
float so reports can print both.

An entry's M_alpha for every alpha comes from one formula, `_m_alpha`, over
the state's Pauli spectrum typed by hand: the (x, n) pairs, n labels chi with
|<psi|T_chi|psi>|^2 = x, one spectrum per factor of a product state, so that
M_alpha = log prod_f (sum n x^alpha / sum n x) / (1 - alpha).

Eigen-operators and eigenvalues follow this package's gate rows (`clifford._GATES`:
odd-d H times delta_d = (2/d) eps_d, S = diag tau^(j(j+1)), qubit S = diag(1, i));
where a source table used the opposite phase gauge the recorded eigenvalue
is the one this construction actually produces.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .clifford import (
    SL2_S_HAT,
    metaplectic_V,
    nondegenerate_eigenstates,
    qubit_T_gate,
    qubit_T_states,
    single_qudit_H,
    word_unitary,
)
from .errors import DimensionMismatchError, UnknownStateError
from .measures import sre, sre_upper_bound, wigner_trace_norm
from .phasespace import Dims
from .stabilizers import enumerate_stabilizer_states
from .tolerances import (CATALOG_NORM_TOL, EIGEN_RESIDUAL_TOL, EQUALITY_TOL, EXACT_TOL,
                         IDENTITY_TOL, ORTHONORMAL_TOL, PRINTED_TOL)
from .weyl import displacement_matrix, equal_up_to_phase, global_phase, unit_phase

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)


def _nm(vals) -> np.ndarray:
    v = np.asarray(vals, dtype=np.complex128)
    return v / np.linalg.norm(v)


def _m_alpha(*spectra) -> Callable[[float], float]:
    """M_alpha from one Pauli spectrum per pure factor; sum n x is a factor's D."""
    def m(alpha: float) -> float:
        return math.log(math.prod(sum(n * x ** alpha for x, n in s) / sum(n * x for x, n in s)
                                  for s in spectra)) / (1 - alpha)
    return m


# ---------------------------------------------------------------------------
# elementary states

def ket(*bits, d: int = 2) -> np.ndarray:
    D = d ** len(bits)
    idx = 0
    for b in bits:
        idx = idx * d + b
    v = np.zeros(D, dtype=np.complex128)
    v[idx] = 1.0
    return v


def qubit_H_states() -> tuple[np.ndarray, np.ndarray]:
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    return (np.array([c, s], dtype=np.complex128),
            np.array([-s, c], dtype=np.complex128))


W5 = unit_phase(1, 5)
XI9 = unit_phase(1, 9)
CHI5 = math.sqrt((5 + SQ5) / 10)           # the ququint structural constant
ETA_P = -math.sqrt(30 - 6 * SQ5) + SQ5 - 3
ETA_M = math.sqrt(30 - 6 * SQ5) + SQ5 - 3
KAPPA_P = 0.5 * (math.sqrt(6 * (5 + SQ5)) - SQ5 - 3)
KAPPA_M = 0.5 * (-math.sqrt(6 * (5 + SQ5)) - SQ5 - 3)


def _qutrit_states() -> dict:
    T0, T1, T2 = (_nm([XI9, 1, XI9 ** -1]),
                  _nm([XI9 ** -2, 1, XI9 ** 2]),
                  _nm([XI9 ** 4, 1, XI9 ** -4]))
    return {
        "S": _nm([0, 1, -1]),
        "N": _nm([-1, 2, -1]),
        "Hplus": _nm([1 + SQ3, 1, 1]),
        "Hminus": _nm([1 - SQ3, 1, 1]),
        "T0": T0, "T1": T1, "T2": T2,
        "NB1": _nm([1, 0, -1]),
        "NB2": _nm([1, 1, 1]),
    }


def _ququint_states() -> dict:
    return {
        "H,i": _nm([0, math.sqrt(1 + CHI5), math.sqrt(1 - CHI5),
                    -math.sqrt(1 - CHI5), -math.sqrt(1 + CHI5)]),
        "H,-i": _nm([0, math.sqrt(1 - CHI5), -math.sqrt(1 + CHI5),
                     math.sqrt(1 + CHI5), -math.sqrt(1 - CHI5)]),
        "H,-1": _nm([1 - SQ5, 1, 1, 1, 1]),
        "H,1;1": _nm([1 + SQ5, 2, 0, 0, 2]),
        "H,1;2": _nm([1 + SQ5, 0, 2, 2, 0]),
        "XVS,1": _nm([1, 1, W5 ** 3, 1, W5 ** 2]),
        "XVS,w": _nm([W5 ** 4, W5 ** 3, 1, W5, W5 ** 2]),
        "XVS,w-1": _nm([W5, W5 ** 2, W5, W5 ** 4, W5 ** 2]),
        "XVS,w2": _nm([W5 ** 3, W5, W5 ** 2, W5 ** 2, W5 ** 2]),
        "XVS,w-2": _nm([W5 ** 2, W5 ** 4, W5 ** 4, W5 ** 3, W5 ** 2]),
        "Bprime,-1": _nm([3 + SQ5, -2, -2, -2, -2]),
        "Bprime,-w": _nm([4 * KAPPA_P, -KAPPA_P ** 2, 4, 4, -KAPPA_P ** 2]),
        "Bprime,-wc": _nm([4 * KAPPA_M, -KAPPA_M ** 2, 4, 4, -KAPPA_M ** 2]),
        "Bprime,w": _nm([0, ETA_P, 4, -4, -ETA_P]),
        "Bprime,wc": _nm([0, ETA_M, 4, -4, -ETA_M]),
        "A,w2": _nm([0, 0, 1, 1, 0]),
        "A,-w2": _nm([0, 0, 1, -1, 0]),
        "A,p": _nm([0, -1, 0, 0, 1]),    # |4> - |1>
        "A,-p": _nm([0, 1, 0, 0, 1]),    # |1> + |4>
        "A,1": ket(0, d=5).astype(np.complex128),
    }


def _two_qubit_states() -> dict:
    T0, T1 = qubit_T_states()
    H0, H1 = qubit_H_states()
    e4 = unit_phase(1, 8)
    g16 = {
        "G16,1": _nm([-(10 + 3 * SQ5 - 2 * math.sqrt(5 * (5 + 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      (10 + 3 * SQ5 + 2 * math.sqrt(5 * (5 + 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      1j / math.sqrt(5 * (3 + SQ5) + math.sqrt(250 + 110 * SQ5)),
                      1 / math.sqrt(5 * (3 + SQ5) - math.sqrt(250 + 110 * SQ5))]),
        "G16,2": _nm([-(10 - 3 * SQ5 - 2 * math.sqrt(5 * (5 - 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      -(10 - 3 * SQ5 + 2 * math.sqrt(5 * (5 - 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      1j / 2 * math.sqrt((5 + SQ5 + math.sqrt(2 * (5 + SQ5))) / 5),
                      0.5 * math.sqrt(1 + 1 / SQ5 - math.sqrt(2 * (5 + SQ5)) / 5)]),
        "G16,3": _nm([(10 - 3 * SQ5 + 2 * math.sqrt(5 * (5 - 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      -(10 - 3 * SQ5 - 2 * math.sqrt(5 * (5 - 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      -1j / 2 * math.sqrt(1 + 1 / SQ5 - math.sqrt(2 * (5 + SQ5)) / 5),
                      0.5 * math.sqrt((5 + SQ5 + math.sqrt(2 * (5 + SQ5))) / 5)]),
        "G16,4": _nm([-(10 + 3 * SQ5 + 2 * math.sqrt(5 * (5 + 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      -(10 + 3 * SQ5 - 2 * math.sqrt(5 * (5 + 2 * SQ5))) ** 0.25
                      / math.sqrt(10) * e4,
                      -1j / 2 * math.sqrt((5 - SQ5 + math.sqrt(10 - 2 * SQ5)) / 5),
                      1 / math.sqrt(5 * (3 + SQ5) + math.sqrt(250 + 110 * SQ5))]),
    }
    states = {
        "00": ket(0, 0),
        "H0": np.kron(H0, ket(0)),
        "T0": np.kron(T0, ket(0)),
        "HH": np.kron(H0, H0),
        "TH": np.kron(T0, H0),
        "TT": np.kron(T0, T0),
        "G4,2": _nm([2, 1, 1, 0]),
        "G4,3": _nm([-1j, 1j, 1j, SQ3]),
        "G4,4": _nm([1j, -1j, -1j, SQ3]),
        "G18,1": _nm([1j * SQ2, 0, 2j, SQ2]),
        "G18,2": _nm([-1j * SQ2, -2j, 0, SQ2]),
        "G18,3": _nm([-1j * SQ2, 2j, 0, SQ2]),
        "G18,4": _nm([1j * SQ2, 0, -2j, SQ2]),
        "G20,1": _nm([1j, -1j, -(1 + 2j), 1]),
        "G20,2": _nm([-(2 - 1j), -(2 - 1j), 1 + 2j, 5]),
        "G20,3": _nm([-1j, 2 + 1j, -1, 1]),
        "G20,4": _nm([2 - 1j, -1j, 1, 1]),
        "psi0": _nm(np.kron(T0, T0) - np.kron(T1, T1)),
        "psi1": np.kron(T0, T1),
        "psi2": np.kron(T1, T0),
        "psi3": _nm(np.kron(T0, T0) + np.kron(T1, T1)),
        "psimax0": _nm([1, 1j, 1j, 1j]),
        "psimax1": _nm([1j, 1, 1, -1]),
        "psimax2": _nm([1j, 1, -1, 1]),
        "psimax3": _nm([-1j, 1, -1, -1]),
    }
    states.update(g16)
    return states


def _three_qubit_states() -> dict:
    W = np.zeros(8, dtype=np.complex128)
    W[[4, 2, 1]] = 1 / SQ3
    Wi = np.zeros(8, dtype=np.complex128)
    Wi[[4, 2, 1]] = 0.5
    Wi[7] = 0.5j
    TOF = np.zeros(8, dtype=np.complex128)
    TOF[[0, 2, 4, 7]] = 0.5
    CCZ = np.ones(8, dtype=np.complex128) / math.sqrt(8)
    CCZ[7] = -CCZ[7]
    return {"W": W, "Wi": Wi, "TOF": TOF, "CCZ": CCZ}


# ---------------------------------------------------------------------------
# eigen-operator builders

def _op_qutrit_H():
    return single_qudit_H(3)


def _op_qutrit_N():
    XH = displacement_matrix([1, 0], Dims(3, 1)) @ single_qudit_H(3)
    return XH @ metaplectic_V(np.array([[2, 0], [2, 2]]), 3) @ XH.conj().T


def _op_qutrit_T():
    T11 = displacement_matrix([1, 1], Dims(3, 1))
    return T11 @ metaplectic_V(SL2_S_HAT, 3)


def _op_ququint_H():
    return single_qudit_H(5)


def _op_ququint_XVS():
    return displacement_matrix([1, 0], Dims(5, 1)) @ metaplectic_V(SL2_S_HAT, 5)


def _op_ququint_Bprime():
    H5 = single_qudit_H(5)
    VK = metaplectic_V(np.array([[1, 2], [2, 0]]), 5)
    B = np.linalg.matrix_power(H5, 3) @ metaplectic_V(SL2_S_HAT, 5)
    return -VK @ B @ VK.conj().T


def _op_ququint_A():
    H5 = single_qudit_H(5)
    return metaplectic_V(SL2_S_HAT, 5) @ H5 @ H5


_2Q_CLASS_REPS = {
    4: ("CZ@1,2", "H@2", "H@1"),
    16: ("CZ@1,2", "S@1", "H@2", "H@1"),
    18: ("H@1", "H@2", "S@2", "S†@1", "CZ@1,2", "H@1", "H@2", "CZ@1,2"),
    20: ("H@1", "CZ@1,2", "H@2", "S@2", "CZ@1,2"),
}


def _op_2q_class(k: int):
    return word_unitary(_2Q_CLASS_REPS[k], Dims(2, 2))


# ---------------------------------------------------------------------------
# catalog entries

class CatalogEntry(NamedTuple):
    name: str
    dims: Dims
    build: Callable[[], np.ndarray]
    expected: dict    # key -> (exact_str, value)
    expected_nearest_count: int | None = None
    nearest_state: Callable[[], np.ndarray] | None = None
    eigen_operator: Callable[[], np.ndarray] | None = None
    eigen_value: complex | None = None
    m_alpha: Callable[[float], float] | None = None
    saturates_sre_bound: bool = False


def _entry(registry, name, dims, vec, **kw):
    kw.setdefault("expected", {})
    registry[name] = CatalogEntry(name=name, dims=dims, build=lambda: vec.copy(), **kw)


@lru_cache(maxsize=1)
def entries() -> dict:
    reg: dict[str, CatalogEntry] = {}
    qb, d3, d5 = Dims(2, 1), Dims(3, 1), Dims(5, 1)
    d22, d23 = Dims(2, 2), Dims(2, 3)
    T0, T1 = qubit_T_states()
    H0, H1 = qubit_H_states()

    # Pauli spectra of the states with an m_alpha, read by _m_alpha
    qubit_T, qubit_H = ((1, 1), (1 / 3, 3)), ((1, 1), (1 / 2, 2))

    _entry(reg, "qubit:T0", qb, T0,
           expected={"F": ("(3+sqrt3)/6", (3 + SQ3) / 6),
                     "M2": ("log(3/2)", math.log(1.5))},
           expected_nearest_count=3,
           nearest_state=lambda: ket(0),
           eigen_operator=qubit_T_gate, eigen_value=unit_phase(1, 6),
           m_alpha=_m_alpha(qubit_T), saturates_sre_bound=True)
    _entry(reg, "qubit:T1", qb, T1,
           expected={"F": ("(3+sqrt3)/6", (3 + SQ3) / 6),
                     "M2": ("log(3/2)", math.log(1.5))},
           expected_nearest_count=3,
           eigen_operator=qubit_T_gate, eigen_value=unit_phase(-1, 6),
           m_alpha=_m_alpha(qubit_T), saturates_sre_bound=True)
    _entry(reg, "qubit:H0", qb, H0,
           expected={"F": ("(2+sqrt2)/4", (2 + SQ2) / 4),
                     "M2": ("log(4/3)", math.log(4 / 3))},
           expected_nearest_count=2,
           nearest_state=lambda: ket(0),
           eigen_operator=lambda: single_qudit_H(2), eigen_value=1.0 + 0j,
           m_alpha=_m_alpha(qubit_H))
    _entry(reg, "qubit:H1", qb, H1,
           expected={"F": ("(2+sqrt2)/4", (2 + SQ2) / 4),
                     "M2": ("log(4/3)", math.log(4 / 3))},
           expected_nearest_count=2,
           eigen_operator=lambda: single_qudit_H(2), eigen_value=-1.0 + 0j,
           m_alpha=_m_alpha(qubit_H))

    q3 = _qutrit_states()
    qutrit_SN = ((1, 1), (1 / 4, 8))
    qutrit_H = ((1, 1), ((2 - SQ3) / 8, 4), ((2 + SQ3) / 8, 4))
    qutrit_T = ((1, 1), (1 / 3, 6))

    _entry(reg, "qutrit:S", d3, q3["S"],
           expected={"F": ("1/2", 0.5),
                     "wnorm": ("5/3", 5 / 3),
                     "mana": ("log(5/3)", math.log(5 / 3)),
                     "M2": ("log 2", math.log(2))},
           expected_nearest_count=8,
           nearest_state=lambda: ket(1, d=3),
           eigen_operator=_op_qutrit_H, eigen_value=1.0 + 0j,
           m_alpha=_m_alpha(qutrit_SN), saturates_sre_bound=True)
    _entry(reg, "qutrit:N", d3, q3["N"],
           expected={"F": ("2/3", 2 / 3),
                     "wnorm": ("5/3", 5 / 3),
                     "M2": ("log 2", math.log(2))},
           expected_nearest_count=3,
           nearest_state=lambda: ket(1, d=3),
           eigen_operator=_op_qutrit_N, eigen_value=unit_phase(1, 6),
           m_alpha=_m_alpha(qutrit_SN), saturates_sre_bound=True)
    # the M2 value differs from part of the earlier literature
    _entry(reg, "qutrit:Hplus", d3, q3["Hplus"],
           expected={"F": ("(3+sqrt3)/6", (3 + SQ3) / 6),
                     "wnorm": ("1/3+2/sqrt3", 1 / 3 + 2 / SQ3),
                     "M2": ("log(8/5)", math.log(8 / 5))},
           expected_nearest_count=2,
           nearest_state=lambda: ket(0, d=3),
           eigen_operator=_op_qutrit_H, eigen_value=-1j,
           m_alpha=_m_alpha(qutrit_H))
    _entry(reg, "qutrit:Hminus", d3, q3["Hminus"],
           expected={"M2": ("log(8/5)", math.log(8 / 5))},
           eigen_operator=_op_qutrit_H, eigen_value=1j,
           m_alpha=_m_alpha(qutrit_H))
    _entry(reg, "qutrit:T0", d3, q3["T0"],
           expected={"F": ("(1+2cos(2pi/9))^2/9",
                           (1 + 2 * math.cos(2 * math.pi / 9)) ** 2 / 9),
                     "wnorm": ("(1+4cos(pi/9))/3",
                               (1 + 4 * math.cos(math.pi / 9)) / 3),
                     "M2": ("log(9/5)", math.log(9 / 5))},
           expected_nearest_count=3,
           nearest_state=lambda: _nm([1, 1, 1]),
           eigen_operator=_op_qutrit_T, eigen_value=np.exp(-4j * math.pi / 9),
           m_alpha=_m_alpha(qutrit_T))
    _entry(reg, "qutrit:T1", d3, q3["T1"],
           expected={"M2": ("log(9/5)", math.log(9 / 5))},
           eigen_operator=_op_qutrit_T, eigen_value=np.exp(8j * math.pi / 9),
           m_alpha=_m_alpha(qutrit_T))
    _entry(reg, "qutrit:T2", d3, q3["T2"],
           expected={"M2": ("log(9/5)", math.log(9 / 5))},
           eigen_operator=_op_qutrit_T, eigen_value=np.exp(2j * math.pi / 9),
           m_alpha=_m_alpha(qutrit_T))
    _entry(reg, "qutrit:NB1", d3, q3["NB1"],
           expected={"F": ("1/2", 0.5)},
           eigen_operator=_op_qutrit_N, eigen_value=unit_phase(-1, 3))
    _entry(reg, "qutrit:NB2", d3, q3["NB2"],
           expected={"F": ("1", 1.0)},
           eigen_operator=_op_qutrit_N, eigen_value=-1.0 + 0j)

    q5 = _ququint_states()
    w5c = {
        "H,i": ("(3+2sqrt(5+2sqrt5))/5", (3 + 2 * math.sqrt(5 + 2 * SQ5)) / 5),
        "H,-i": ("(3+2sqrt(5+2sqrt5))/5", (3 + 2 * math.sqrt(5 + 2 * SQ5)) / 5),
        "H,-1": ("9/5", 1.8),
        "XVS,1": ("1+2/sqrt5", 1 + 2 / SQ5),
        "Bprime,-1": ("(1+4sqrt5)/5", (1 + 4 * SQ5) / 5),
        "Bprime,-w": ("(3+sqrt5+sqrt(15+6sqrt5))/5",
                      (3 + SQ5 + math.sqrt(15 + 6 * SQ5)) / 5),
        "Bprime,-wc": ("(3+sqrt5+sqrt(15+6sqrt5))/5",
                       (3 + SQ5 + math.sqrt(15 + 6 * SQ5)) / 5),
        "Bprime,w": ("(4+sqrt(15+6sqrt5))/5", (4 + math.sqrt(15 + 6 * SQ5)) / 5),
        "Bprime,wc": ("(4+sqrt(15+6sqrt5))/5", (4 + math.sqrt(15 + 6 * SQ5)) / 5),
        "A,w2": ("6/5+1/sqrt5", 1.2 + 1 / SQ5),
        "A,-w2": ("6/5+1/sqrt5", 1.2 + 1 / SQ5),
    }
    # printed Table-6 fidelity digits and nearest counts
    w5f = {
        "H,i": (0.4627, 4), "H,-i": (0.4627, 4), "H,-1": (0.7236, 2),
        "XVS,1": (0.5236, 5), "Bprime,-1": (0.6315, 3),
        "Bprime,-w": (0.4824, 3), "Bprime,-wc": (0.4824, 3),
        "Bprime,w": (0.4487, 6), "Bprime,wc": (0.4487, 6),
        "A,w2": (0.5, 2), "A,-w2": (0.5, 2),
    }
    w5near = {
        "H,i": lambda: ket(1, d=5),
        "H,-i": lambda: ket(2, d=5),
        "H,-1": lambda: _nm([unit_phase(2, 5), 1, unit_phase(-1, 5),
                             unit_phase(-1, 5), 1]),
        "XVS,1": lambda: _nm([unit_phase(2, 5), unit_phase(-1, 5),
                              unit_phase(1, 5), unit_phase(-2, 5), 1]),
        "Bprime,-1": lambda: ket(0, d=5),
        "Bprime,-w": lambda: _nm([1, 1, 1, 1, 1]),
        "Bprime,-wc": lambda: _nm([1, 1, 1, 1, 1]),
        "Bprime,w": lambda: _nm([unit_phase(2, 5), unit_phase(-1, 5),
                                 unit_phase(1, 5), unit_phase(-2, 5), 1]),
        "Bprime,wc": lambda: _nm([1, unit_phase(-1, 5), unit_phase(-2, 5),
                                  unit_phase(2, 5), unit_phase(1, 5)]),
        "A,w2": lambda: ket(2, d=5),
        "A,-w2": lambda: ket(2, d=5),
    }

    r1, r2 = math.sqrt(10 - 2 * SQ5), math.sqrt(2 * (5 + SQ5))
    s1, s2 = math.sqrt(15 - 6 * SQ5), math.sqrt(15 + 6 * SQ5)
    q5_H = ((1, 1), (1 / 16, 8), ((7 - SQ5 - 2 * r1) / 32, 4), ((7 - SQ5 + 2 * r1) / 32, 4),
            ((7 + SQ5 - 2 * r2) / 32, 4), ((7 + SQ5 + 2 * r2) / 32, 4))
    q5_Hm1 = ((1, 1), (1 / 16, 8), ((7 - 3 * SQ5) / 32, 8), ((7 + 3 * SQ5) / 32, 8))
    q5_XVS = ((1, 1), (1 / 5, 20))
    q5_Bm1 = ((1, 1), ((3 - SQ5) / 18, 12), ((3 + SQ5) / 18, 12))
    q5_Bmw = ((1, 1), ((12 + SQ5 - s1) / 72, 6), ((12 + SQ5 + s1) / 72, 6),
              ((12 - SQ5 - s2) / 72, 6), ((12 - SQ5 + s2) / 72, 6))
    q5_Bw = ((1, 1), ((4 - SQ5 - s1) / 24, 6), ((4 - SQ5 + s1) / 24, 6),
             ((4 + SQ5 - s2) / 24, 6), ((4 + SQ5 + s2) / 24, 6))
    q5_A = ((1, 1), (1 / 4, 10), ((3 - SQ5) / 8, 2), ((3 + SQ5) / 8, 2))

    q5_m2 = {
        "H,i": ("log 2", math.log(2), q5_H),
        "H,-i": ("log 2", math.log(2), q5_H),
        "H,-1": ("log 2", math.log(2), q5_Hm1),
        "XVS,1": ("log(25/9)", math.log(25 / 9), q5_XVS),
        "Bprime,-1": ("log(27/11)", math.log(27 / 11), q5_Bm1),
        "Bprime,-w": ("log(54/19)", math.log(54 / 19), q5_Bmw),
        "Bprime,-wc": ("log(54/19)", math.log(54 / 19), q5_Bmw),
        "Bprime,w": ("log 2", math.log(2), q5_Bw),
        "Bprime,wc": ("log 2", math.log(2), q5_Bw),
        "A,w2": ("log 2", math.log(2), q5_A),
        "A,-w2": ("log 2", math.log(2), q5_A),
    }
    q5_ops = {
        "H,i": (_op_ququint_H, -1j), "H,-i": (_op_ququint_H, 1j),
        "H,-1": (_op_ququint_H, 1.0 + 0j),
        "XVS,1": (_op_ququint_XVS, 1.0 + 0j),
        "XVS,w": (_op_ququint_XVS, W5), "XVS,w-1": (_op_ququint_XVS, W5 ** -1),
        "XVS,w2": (_op_ququint_XVS, W5 ** 2),
        "XVS,w-2": (_op_ququint_XVS, W5 ** -2),
        "Bprime,-1": (_op_ququint_Bprime, -1.0 + 0j),
        "Bprime,-w": (_op_ququint_Bprime, unit_phase(-1, 6)),
        "Bprime,-wc": (_op_ququint_Bprime, unit_phase(1, 6)),
        "Bprime,w": (_op_ququint_Bprime, unit_phase(1, 3)),
        "Bprime,wc": (_op_ququint_Bprime, unit_phase(-1, 3)),
        "A,w2": (_op_ququint_A, unit_phase(2, 5)),
        "A,-w2": (_op_ququint_A, unit_phase(-1, 10)),
        "A,p": (_op_ququint_A, unit_phase(1, 10)),
        "A,-p": (_op_ququint_A, unit_phase(-2, 5)),
        "A,1": (_op_ququint_A, 1.0 + 0j),
    }
    for name, vec in q5.items():
        kw = {}
        if name in w5c:
            kw["expected"] = {"wnorm": w5c[name]}
        if name in q5_m2:
            s, v, spectrum = q5_m2[name]
            kw.setdefault("expected", {})["M2"] = (s, v)
            kw["m_alpha"] = _m_alpha(spectrum)
        if name in w5f:
            printed, nn = w5f[name]
            kw.setdefault("expected", {})["F_printed"] = (f"{printed}", printed)
            kw["expected_nearest_count"] = nn
        if name in w5near:
            kw["nearest_state"] = w5near[name]
        if name in q5_ops:
            op, lam = q5_ops[name]
            kw["eigen_operator"] = op
            kw["eigen_value"] = lam
        _entry(reg, f"ququint:{name}", d5, vec, **kw)

    # two-qubit entries (Table-1 rows and companions)
    q2 = _two_qubit_states()

    G4 = ((1, 1), (1 / 9, 3), (4 / 9, 6))
    G16 = ((1, 1), (1 / 5, 5), ((5 - 2 * SQ5) / 25, 5), ((5 + 2 * SQ5) / 25, 5))
    G20 = ((1, 1), (1 / 4, 12))

    table1 = {
        "00": ("1", 1.0, 1, ()),
        "H0": ("(2+sqrt2)/4", (2 + SQ2) / 4, 2, (qubit_H,)),
        "T0": ("(3+sqrt3)/6", (3 + SQ3) / 6, 3, (qubit_T,)),
        "HH": ("(3+2sqrt2)/8", (3 + 2 * SQ2) / 8, 4, (qubit_H, qubit_H)),
        "TH": ("(2+sqrt2)(3+sqrt3)/24", (2 + SQ2) * (3 + SQ3) / 24, 6, (qubit_T, qubit_H)),
        "TT": ("(2+sqrt3)/6", (2 + SQ3) / 6, 9, (qubit_T, qubit_T)),
        "G4,2": ("3/4", 0.75, 2, (G4,)),
        "G16,1": ("(5+sqrt5+2sqrt(5+2sqrt5))/20",
                  (5 + SQ5 + 2 * math.sqrt(5 + 2 * SQ5)) / 20, 5, (G16,)),
        "G20,1": ("5/8", 0.625, 8, (G20,)),
    }
    m2_2q = {
        "G4,2": ("log(9/5)", math.log(9 / 5)), "psi0": ("log(9/5)", math.log(9 / 5)),
        "G16,1": ("log(25/12)", math.log(25 / 12)),
        "G20,1": ("log(16/7)", math.log(16 / 7)),
        "psimax0": ("log(16/7)", math.log(16 / 7)),
    }
    eig2q = {
        "G4,2": 4, "G4,3": 4, "G4,4": 4,
        "G16,1": 16, "G16,2": 16, "G16,3": 16, "G16,4": 16,
        "G18,1": 18, "G18,2": 18, "G18,3": 18, "G18,4": 18,
        "G20,1": 20, "G20,2": 20, "G20,3": 20, "G20,4": 20,
    }
    for name, vec in q2.items():
        kw = {}
        if name in table1:
            s, v, nn, spectra = table1[name]
            kw["expected"] = {"F": (s, v)}
            kw["expected_nearest_count"] = nn
            if spectra:  # a |0> factor contributes nothing
                kw["m_alpha"] = _m_alpha(*spectra)
        if name in m2_2q:
            kw.setdefault("expected", {})["M2"] = m2_2q[name]
        if name in eig2q:
            kw["eigen_operator"] = (lambda c=eig2q[name]: _op_2q_class(c))
        _entry(reg, f"2q:{name}", d22, vec, **kw)
    reg["2q:psi0"].expected["F"] = ("3/4", 0.75)
    reg["2q:psi0"] = reg["2q:psi0"]._replace(expected_nearest_count=2)

    q3q = _three_qubit_states()
    _entry(reg, "3q:W", d23, q3q["W"],
           expected={"F": ("3/4", 0.75)}, expected_nearest_count=2)
    _entry(reg, "3q:Wi", d23, q3q["Wi"],
           expected={"F": ("5/8", 0.625)}, expected_nearest_count=8)
    _entry(reg, "3q:TOF", d23, q3q["TOF"],
           expected={"F": ("9/16", 9 / 16)}, expected_nearest_count=8)
    _entry(reg, "3q:CCZ", d23, q3q["CCZ"],
           expected={"F": ("9/16", 9 / 16)}, expected_nearest_count=8)
    return reg


_ALIASES = {
    "qubit:T": "qubit:T0", "qubit:H": "qubit:H0",
    "qutrit:T": "qutrit:T0", "qutrit:H+": "qutrit:Hplus",
    "qutrit:H-": "qutrit:Hminus",
    "2q:psi00": "2q:psi0", "2q:psi11": "2q:psi3",
    "3q:W3": "3q:W",
}


def build(name: str) -> np.ndarray:
    """Construct a catalog state by name; see `entries()` for the registry."""
    return entry(name).build()


def entry(name: str) -> CatalogEntry:
    reg = entries()
    key = _ALIASES.get(name, name)
    if key not in reg:
        raise UnknownStateError(f"unknown catalog state {name!r}")
    return reg[key]


def resolve(spec: str) -> tuple[np.ndarray, Dims]:
    """The state and dims of a state spec: a catalog name or alias,
    prod:<bit>,<spec> for |bit> (x) the state of a qubit spec, @file.json, or
    inline JSON {"d": .., "N": .., "amplitudes": [[re, im], ..]} of a unit
    vector.  UnknownStateError, naming the spec, for one that cannot be read;
    DimensionMismatchError for a wrong amplitude count."""
    if spec.startswith("prod:"):
        bit, _, inner = spec[len("prod:"):].partition(",")
        try:
            if bit not in ("0", "1"):
                raise UnknownStateError(f"the bit {bit!r} is not 0 or 1")
            psi, dims = resolve(inner)
            if dims.d != 2:
                raise UnknownStateError(f"{inner!r} is not a qubit state")
        except UnknownStateError as exc:
            raise UnknownStateError(f"cannot read state spec {spec!r}: {exc}") from None
        return np.kron(ket(int(bit)), psi), Dims(2, dims.N + 1)
    if not spec.startswith("@") and not spec.lstrip().startswith("{"):
        return build(spec), entry(spec).dims
    import json

    try:
        data = json.loads(Path(spec[1:]).read_text() if spec.startswith("@") else spec)
        dims = Dims(data["d"], data["N"])
        psi = np.array([complex(re, im) for re, im in data["amplitudes"]], dtype=np.complex128)
        if psi.shape != (dims.D,):
            raise DimensionMismatchError(f"expected {dims.D} amplitudes, got {psi.shape}")
        if not abs(np.linalg.norm(psi) - 1.0) <= ORTHONORMAL_TOL:
            raise ValueError(f"amplitudes of norm {np.linalg.norm(psi):.6g} are not a unit vector")
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise UnknownStateError(f"cannot read state spec {spec!r}: "
                                f"{type(exc).__name__}: {exc}") from None
    return psi, dims


# ---------------------------------------------------------------------------
# verification harness

class Check(NamedTuple):
    name: str
    expected: float
    got: float
    abs_error: float
    passed: bool
    exact: str = ""


def verify_catalog() -> list[Check]:
    """Recompute every expected value in the catalog within EXACT_TOL, the
    printed digits within PRINTED_TOL; failures are data."""
    out: list[Check] = []

    def add(name, expected, got, tol, exact=""):
        err = abs(got - expected)
        out.append(Check(name, float(expected), float(got), float(err),
                         bool(err <= tol), exact))

    for name, e in entries().items():
        psi = e.build()
        add(f"{name}:norm", 1.0, float(np.linalg.norm(psi)), CATALOG_NORM_TOL)
        wants = e.expected.keys()
        F = nearest = m2 = wnorm = mana = None
        if (wants & {"F", "F_printed"} or e.expected_nearest_count is not None
                or e.nearest_state is not None):
            F, nearest = enumerate_stabilizer_states(e.dims).nearest(psi)
        if "M2" in wants or e.m_alpha is not None or e.saturates_sre_bound:
            m2 = sre(psi, e.dims, 2.0)
        if wants & {"wnorm", "mana"}:
            wnorm = wigner_trace_norm(psi, e.dims)
            mana = math.log(wnorm)
        # expected key -> (check label, recomputed value, tolerance)
        checks = {"F": ("F", F, EXACT_TOL), "F_printed": ("F~", F, PRINTED_TOL),
                  "wnorm": ("wnorm", wnorm, EXACT_TOL), "mana": ("mana", mana, EXACT_TOL),
                  "M2": ("M2", m2, EXACT_TOL)}
        for key, (exact, val) in e.expected.items():
            label, got, tol = checks[key]
            add(f"{name}:{label}", val, got, tol, exact)
        if e.expected_nearest_count is not None:
            add(f"{name}:nearest", e.expected_nearest_count, len(nearest), 0.5)
        if e.nearest_state is not None:
            s = e.nearest_state()
            add(f"{name}:F==|<s|psi>|^2", abs(np.vdot(s, psi)) ** 2, F, EXACT_TOL)
        if e.m_alpha is not None:
            add(f"{name}:M2==Malpha(2)", e.m_alpha(2.0), m2, EXACT_TOL)
            add(f"{name}:M3==Malpha(3)", e.m_alpha(3.0), sre(psi, e.dims, 3.0), EXACT_TOL)
        if e.eigen_operator is not None:
            U = e.eigen_operator()
            resid = float(np.linalg.norm(U @ psi - (e.eigen_value or 1.0) * psi)) \
                if e.eigen_value is not None else 0.0
            add(f"{name}:eigen", 0.0, resid, EIGEN_RESIDUAL_TOL)
            eigs = nondegenerate_eigenstates(U, e.dims)
            hit = any(equal_up_to_phase(v, psi) for _, v in eigs)
            add(f"{name}:nondegenerate", 1.0, 1.0 if hit else 0.0, 0.5)
        if e.saturates_sre_bound:
            add(f"{name}:sre-bound-saturated", sre_upper_bound(e.dims, 2.0), m2, IDENTITY_TOL)
    return out


# equivalence words verified in this package's gate conventions: each row
# reads (source, word, target) with word(source) = target up to global phase.
# Two of the source-table words needed an S <-> S-dagger or inverse-reading
# adjustment; the Wi certificate was rediscovered by randomized search.
EQUIVALENCES = [
    ("2q:psi0", ("S†@1", "H@1", "CZ@1,2", "H@2", "CZ@1,2", "S†@1", "H@2", "H@1"),
     "2q:G4,2"),
    ("2q:psi2", ("S†@2", "H@2", "H@1", "CZ@1,2", "H@1", "CZ@1,2"), "2q:G4,3"),
    ("2q:G4,3", ("CZ@1,2",), "2q:G4,4"),
    ("2q:HH", ("S†@2", "H@1", "Z@1", "CNOT@1,2"), "2q:G18,1"),
    ("2q:G18,1", ("SWAP@1,2", "CZ@1,2"), "2q:G18,2"),
    ("2q:G18,2", ("Z@1", "Z@2"), "2q:G18,3"),
    ("2q:G18,1", ("Z@1", "Z@2"), "2q:G18,4"),
    ("2q:G20,1", ("H@1", "S†@1", "H@1", "H@2"), "2q:G20,2"),
    ("2q:G20,1", ("H@1", "S†@1", "H@1", "CZ@1,2", "H@2"), "2q:G20,3"),
    ("2q:G20,1", ("H@2", "S†@2", "Z@1", "H@1", "S†@1"), "2q:G20,4"),
    ("2q:psimax0", ("CZ@1,2", "S†@1", "H@1", "CZ@1,2", "S@1", "H@2"), "2q:G20,1"),
    ("3q:W", ("H@2", "S@1", "CZ@2,3", "H@1", "H@2", "H@3", "S@3", "S@2",
              "S@1", "CZ@1,2", "CZ@1,3", "S@1", "H@1", "H@3", "H@3",
              "CZ@2,3", "S@1"), "prod:0,2q:G4,2"),
    ("prod:0,2q:G20,4", ("H@1", "S†@1", "CZ@1,3", "H@3", "S†@1", "CZ@1,2",
                         "H@1", "H@2", "CZ@2,3", "S†@2"), "3q:Wi"),
]


class EquivalenceCheck(NamedTuple):
    source: str
    target: str
    word: tuple
    passed: bool


def verify_equivalences(tol: float = EQUALITY_TOL) -> list[EquivalenceCheck]:
    """Apply each stated Clifford word and compare up to a global phase."""
    out = []
    for source_label, word, target_label in EQUIVALENCES:
        src, dims = resolve(source_label)
        tgt, _ = resolve(target_label)
        mapped = word_unitary(word, dims) @ src
        out.append(EquivalenceCheck(source_label, target_label, word,
                                    global_phase(tgt, mapped, tol=tol) is not None))
    return out
