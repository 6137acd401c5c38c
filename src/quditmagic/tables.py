"""Reference tables: expected matrices and the machinery to regenerate them.

Exact entries are evaluated from closed forms; entries that are only known
to the printed number of digits carry a per-table tolerance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .catalog import SQ2, SQ3, build, entries, entry
from .errors import UnknownTableError
from .extremality import amplitudes, l_matrix, w_matrix
from .measures import sre, wigner_function
from .phasespace import Dims
from .stabilizers import enumerate_stabilizer_states
from .tolerances import EXACT_TOL, PRINTED_TOL
from .weyl import unit_phase

E4 = unit_phase(1, 8)
W3 = unit_phase(1, 3)


# ---------------------------------------------------------------------------
# expected data

QUTRIT_WIGNER = {
    "qutrit:S": np.array([[-1 / 3, 1 / 6, 1 / 6],
                          [1 / 6, 1 / 6, 1 / 6],
                          [1 / 6, 1 / 6, 1 / 6]]),
    "qutrit:N": np.array([[-1 / 6, 1 / 6, 1 / 6],
                          [1 / 3, 1 / 6, 1 / 6],
                          [-1 / 6, 1 / 6, 1 / 6]]),
    "qutrit:Hplus": np.array(
        [[1 / 3, (1 + SQ3) / 12, (1 + SQ3) / 12],
         [(1 + SQ3) / 12, (1 - SQ3) / 12, (1 - SQ3) / 12],
         [(1 + SQ3) / 12, (1 - SQ3) / 12, (1 - SQ3) / 12]]),
    "qutrit:T0": np.array(
        [[(1 + 2 * math.cos(2 * math.pi / 9)) / 9,
          (1 - 2 * math.cos(math.pi / 9)) / 9,
          (1 + 2 * math.sin(math.pi / 18)) / 9],
         [(1 + 2 * math.sin(math.pi / 18)) / 9,
          (1 + 2 * math.cos(2 * math.pi / 9)) / 9,
          (1 - 2 * math.cos(math.pi / 9)) / 9],
         [(1 + 2 * math.cos(2 * math.pi / 9)) / 9,
          (1 - 2 * math.cos(math.pi / 9)) / 9,
          (1 + 2 * math.sin(math.pi / 18)) / 9]]),
}

QUQUINT_WIGNER_PRINTED = {
    "ququint:H,i": np.array([
        [-0.2, 0.1451, -0.0451, -0.0451, 0.1451],
        [0.1451, 0.1088, 0.05, 0.05, 0.1088],
        [-0.0451, 0.05, -0.0088, -0.0088, 0.05],
        [-0.0451, 0.05, -0.0088, -0.0088, 0.05],
        [0.1451, 0.1088, 0.05, 0.05, 0.1088]]),
    "ququint:H,-1": np.array([
        [0.2, 0.0191, 0.0191, 0.0191, 0.0191],
        [0.0191, 0.1309, -0.05, -0.05, 0.1309],
        [0.0191, -0.05, 0.1309, 0.1309, -0.05],
        [0.0191, -0.05, 0.1309, 0.1309, -0.05],
        [0.0191, 0.1309, -0.05, -0.05, 0.1309]]),
    "ququint:XVS,1": np.array([
        [-0.0894, 0.0894, 0.1447, 0.0, 0.0553],
        [-0.0894, 0.0894, 0.1447, 0.0, 0.0553],
        [0.0553, -0.0894, 0.0894, 0.1447, 0.0],
        [0.1447, 0.0, 0.0553, -0.0894, 0.0894],
        [0.0553, -0.0894, 0.0894, 0.1447, 0.0]]),
    "ququint:Bprime,-1": np.array([
        [0.2, 0.1079, 0.1079, 0.1079, 0.1079],
        [-0.0412, 0.1079, -0.0412, -0.0412, 0.1079],
        [-0.0412, -0.0412, 0.1079, 0.1079, -0.0412],
        [-0.0412, -0.0412, 0.1079, 0.1079, -0.0412],
        [-0.0412, 0.1079, -0.0412, -0.0412, 0.1079]]),
    "ququint:Bprime,-w": np.array([
        [0.2, 0.0849, -0.0928, -0.0928, 0.0849],
        [0.0916, -0.0928, 0.0496, 0.0496, -0.0928],
        [0.0496, 0.0916, 0.0849, 0.0849, 0.0916],
        [0.0496, 0.0916, 0.0849, 0.0849, 0.0916],
        [0.0916, -0.0928, 0.0496, 0.0496, -0.0928]]),
    "ququint:Bprime,w": np.array([
        [-0.2, 0.071, 0.029, 0.029, 0.071],
        [-0.0388, 0.029, 0.1388, 0.1388, 0.029],
        [0.1388, -0.0388, 0.071, 0.071, -0.0388],
        [0.1388, -0.0388, 0.071, 0.071, -0.0388],
        [-0.0388, 0.029, 0.1388, 0.1388, 0.029]]),
    "ququint:A,-w2": np.array([
        [-0.2, -0.0618, 0.1618, 0.1618, -0.0618],
        [0, 0, 0, 0, 0],
        [0.1, 0.1, 0.1, 0.1, 0.1],
        [0.1, 0.1, 0.1, 0.1, 0.1],
        [0, 0, 0, 0, 0]]),
    "ququint:A,w2": np.array([
        [0.2, 0.0618, -0.1618, -0.1618, 0.0618],
        [0, 0, 0, 0, 0],
        [0.1, 0.1, 0.1, 0.1, 0.1],
        [0.1, 0.1, 0.1, 0.1, 0.1],
        [0, 0, 0, 0, 0]]),
}

_ap = 1 / (2 * math.sqrt(3 + SQ3))
_am = 1 / (2 * math.sqrt(3 - SQ3))
_bp = (1 + SQ3) / (2 * math.sqrt(2 * (3 + SQ3)))
_bm = (-1 + SQ3) / (2 * math.sqrt(2 * (3 - SQ3)))

QUBIT_L = {
    "qubit:T0": np.array([[complex(-1 / math.sqrt(6))],
                          [unit_phase(-1, 6) / math.sqrt(6)],
                          [unit_phase(1, 6) / math.sqrt(6)]]),
    "qubit:H0": np.array([[complex(-1 / (2 * SQ2))], [complex(1 / (2 * SQ2))]]),
}

_t18 = math.sin(math.pi / 18)
_c9, _c29 = math.cos(math.pi / 9), math.cos(2 * math.pi / 9)
_tA = (2 / 9) * (2 * _c29 + _t18)
_tB = (2 / 9) * (-2 * _c9 + _c29)
_tC = (1 / 9) * (-SQ3 * math.cos(math.pi / 18) - 3 * _t18)

QUTRIT_L = {
    # basis (S; H+, H-), 8 nearest
    "qutrit:S": np.array([
        [_ap, _am],
        [-_ap, -_am],
        [-_bp * E4, _bm * E4.conjugate()],
        [-_bp * E4.conjugate(), _bm * E4],
        [_bp * E4.conjugate(), -_bm * E4],
        [-1j * _ap, 1j * _am],
        [1j * _ap, -1j * _am],
        [_bp * E4, -_bm * E4.conjugate()],
    ]),
    # basis (H+; H-, S), 2 nearest
    "qutrit:Hplus": np.array([
        [-(1 + SQ3) / (SQ2 * (3 + SQ3)), 0],
        [-(SQ3 - 3) / 6 * math.sqrt(2 + SQ3), 0],
    ]).astype(complex),
    # basis (N; NB1, NB2), 3 nearest
    "qutrit:N": np.array([
        [0, SQ2 / 3],
        [0, (SQ3 - 3j) ** 2 / (18 * SQ2)],
        [0, 1j * (SQ3 + 1j) / (3 * SQ2)],
    ]),
    # basis (T0; T1, T2), 3 nearest
    "qutrit:T0": np.array([
        [_tA, _tB],
        [_tA * W3.conjugate(), _tC * W3],
        [_tA * W3, _tC * W3.conjugate()],
    ]),
}

QUTRIT_W = {
    "qutrit:S": (("qutrit:S", "qutrit:Hplus", "qutrit:Hminus"),
                 np.array([[5 / 3, 1 / 3, 1 / 3],
                           [-1 / 3, 1 / 3 + 2 / SQ3, 1 / 3 - 2 / SQ3],
                           [-1 / 3, 1 / 3 - 2 / SQ3, 1 / 3 + 2 / SQ3]])),
    "qutrit:N": (("qutrit:N", "qutrit:NB1", "qutrit:NB2"),
                 np.array([[5 / 3, 1 / 3, -1 / 3],
                           [1 / 3, 5 / 3, 1 / 3],
                           [0, 0, 1]])),
    "qutrit:T0": (("qutrit:T0", "qutrit:T1", "qutrit:T2"),
                  np.array([[1 + 4 * _c9,
                             1 - 2 * _c9 - 2 * SQ3 * math.sin(math.pi / 9),
                             1 - 2 * _c9 + 2 * SQ3 * math.sin(math.pi / 9)],
                            [1 - 2 * _c9 + 2 * SQ3 * math.sin(math.pi / 9),
                             1 + 4 * _c9,
                             1 - 2 * _c9 - 2 * SQ3 * math.sin(math.pi / 9)],
                            [1 - 2 * _c9 - 2 * SQ3 * math.sin(math.pi / 9),
                             1 - 2 * _c9 + 2 * SQ3 * math.sin(math.pi / 9),
                             1 + 4 * _c9]]) / 3),
}

QUQUINT_W_PRINTED = {
    "Bprime": (("ququint:Bprime,-1", "ququint:Bprime,-w", "ququint:Bprime,-wc",
                "ququint:Bprime,w", "ququint:Bprime,wc"),
               np.array([
                   [1.98885, -0.694427, -0.694427, -0.2, -0.2],
                   [-0.294427, 2.11335, -0.0189273, 0.651682, 0.148318],
                   [-0.294427, -0.0189273, 2.11335, 0.148318, 0.651682],
                   [1.09443, -0.498895, 0.00446812, 1.86614, -0.266141],
                   [1.09443, 0.00446812, -0.498895, -0.266141, 1.86614]])),
    "H": (("ququint:H,i", "ququint:H,-i", "ququint:H,-1",
           "ququint:H,1;1", "ququint:H,1;2"),
          np.array([
              [1.83107, -0.631073, -0.6, 0.385871, -0.0929356],
              [-0.631073, 1.83107, -0.6, -0.0929356, 0.385871],
              [0.2, 0.2, 1.8, 0.307064, 0.307064],
              [1.07023, 0.129772, -0.0472136, 1.90706, 0.653532],
              [0.129772, 1.07023, -0.0472136, 0.653532, 1.90706]])),
}

QUQUINT_L_PRINTED = {
    "ququint:H,i": (("ququint:H,-i", "ququint:H,-1", "ququint:H,1;1",
                     "ququint:H,1;2"),
                    np.array([
                        [0.1314, 0.2893, 0.3165, 0],
                        [0.1314, -0.2893, -0.3165, 0],
                        [-0.1314, 0.2893j, -0.3165j, 0],
                        [-0.1314, -0.2893j, 0.3165j, 0]], dtype=complex)),
    "ququint:H,-1": (("ququint:H,i", "ququint:H,-i", "ququint:H,1;1",
                      "ququint:H,1;2"),
                     np.array([
                         [0, 0, 0.2081j, -0.2081j],
                         [0, 0, -0.2081j, 0.2081j]], dtype=complex)),
    "ququint:XVS,1": (("ququint:XVS,w", "ququint:XVS,w-1", "ququint:XVS,w2",
                       "ququint:XVS,w-2"),
                      np.array([
                          [0.1 - 0.3078j, 0, 0.2618 + 0.1902j, -0.1618 + 0.1176j],
                          [0.3236, 0, -0.3236, 0.2],
                          [-0.2618 + 0.1902j, 0, -0.1 + 0.3078j, 0.0618 + 0.1902j],
                          [0.1 + 0.3078j, 0, 0.2618 - 0.1902j, -0.1618 - 0.1176j],
                          [-0.2618 - 0.1902j, 0, -0.1 - 0.3078j, 0.0618 - 0.1902j]],
                          dtype=complex)),
    "ququint:Bprime,-1": (("ququint:Bprime,-w", "ququint:Bprime,-wc",
                           "ququint:Bprime,w", "ququint:Bprime,wc"),
                          np.array([
                              [0.3411, -0.3411, 0, 0],
                              [-0.1706 + 0.2954j, 0.1706 + 0.2954j, 0, 0],
                              [-0.1706 - 0.2954j, 0.1706 - 0.2954j, 0, 0]],
                              dtype=complex)),
    "ququint:Bprime,-w": (("ququint:Bprime,-wc", "ququint:Bprime,w",
                           "ququint:Bprime,wc", "ququint:Bprime,-1"),
                          np.array([
                              [-0.4824, 0, 0, -0.1303],
                              [0.2412 + 0.4178j, 0, 0, 0.0651 - 0.1128j],
                              [0.2412 - 0.4178j, 0, 0, 0.0651 + 0.1128j]],
                              dtype=complex)),
    "ququint:Bprime,w": (("ququint:Bprime,wc", "ququint:Bprime,-1",
                          "ququint:Bprime,-w", "ququint:Bprime,-wc"),
                         np.array([
                             [0.1518, 0.329j, 0.2812j, 0.1924j],
                             [0.1518, -0.329j, -0.2812j, -0.1924j],
                             [-0.0759 + 0.1314j, 0.2849 - 0.1645j, 0.2812j,
                              -0.1666 - 0.0962j],
                             [-0.0759 - 0.1314j, 0.2849 + 0.1645j, -0.2812j,
                              -0.1666 + 0.0962j],
                             [-0.0759 - 0.1314j, -0.2849 - 0.1645j, 0.2812j,
                              0.1666 - 0.0962j],
                             [-0.0759 + 0.1314j, -0.2849 + 0.1645j, -0.2812j,
                              0.1666 + 0.0962j]], dtype=complex)),
    "ququint:A,-w2": (("ququint:A,p", "ququint:A,w2", "ququint:A,-p",
                       "ququint:A,1"),
                      np.array([[0, 0.5, 0, 0], [0, -0.5, 0, 0]], dtype=complex)),
    "ququint:A,w2": (("ququint:A,-p", "ququint:A,p", "ququint:A,-w2",
                      "ququint:A,1"),
                     np.array([[0, 0, 0.5, 0], [0, 0, -0.5, 0]], dtype=complex)),
}

TABLE1_ROWS = ["2q:00", "2q:H0", "2q:T0", "2q:HH", "2q:TH", "2q:TT",
               "2q:G4,2", "2q:G16,1", "2q:G20,1"]

# the states, candidates or bases each table lists, by table id; an SRE table
# lists the catalog states of its system with a closed-form M2, the sphere a grid
_TABLE_STATES = {
    "qutrit-wigner": QUTRIT_WIGNER, "qutrit-fidelity": QUTRIT_WIGNER,
    "ququint-wigner": QUQUINT_WIGNER_PRINTED, "ququint-fidelity": QUQUINT_WIGNER_PRINTED,
    "2q-eigenstates": TABLE1_ROWS, "qubit-L": QUBIT_L, "qutrit-L": QUTRIT_L,
    "ququint-L": QUQUINT_L_PRINTED, "qutrit-W": QUTRIT_W, "ququint-W": QUQUINT_W_PRINTED,
    "qubit-sre": (), "qutrit-sre": (), "ququint-sre": (), "2q-sre": (),
    "qubit-fidelity-sphere": (),
}


# ---------------------------------------------------------------------------
# recompute-and-compare helpers

class TableResult(NamedTuple):
    table_id: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def computed_l_matrix(name: str, basis_names: tuple[str, ...]) -> np.ndarray:
    psi, dd = build(name), enumerate_stabilizer_states(entry(name).dims)
    return l_matrix([psi] + [build(b) for b in basis_names], dd.matrix[dd.nearest(psi)[1]])


def _l_table(name: str) -> np.ndarray:
    """The L matrix of a tabulated candidate, in the form its table prints.
    The directions listed for a printed ququint candidate, two degenerate
    Hadamard eigenvectors, are not orthogonal: its table is the raw form
    <b_j|s_i><s_i|psi>, without `l_matrix`'s orthonormality check."""
    if name not in QUQUINT_L_PRINTED:
        return computed_l_matrix(name, _L_BASES[name])
    psi, dd = build(name), enumerate_stabilizer_states(entry(name).dims)
    dirs = [build(b) for b in QUQUINT_L_PRINTED[name][0]]
    states = dd.matrix[dd.nearest(psi)[1]]
    return amplitudes(dirs, states).T * amplitudes(states, [psi])


def _w_table(basis_names: tuple[str, ...]) -> np.ndarray:
    return w_matrix([build(b) for b in basis_names], entry(basis_names[0]).dims)


def row_multiset_error(A: np.ndarray, B: np.ndarray) -> float:
    """Best-match row assignment error between two complex matrices."""
    if A.shape != B.shape:
        return float("inf")
    rows_a = [tuple(r) for r in A]
    remaining = list(range(B.shape[0]))
    worst = 0.0
    for ra in rows_a:
        best, best_err = None, float("inf")
        for j in remaining:
            err = float(np.max(np.abs(np.array(ra) - B[j])))
            if err < best_err:
                best, best_err = j, err
        remaining.remove(best)
        worst = max(worst, best_err)
    return worst


_L_BASES = {
    "qubit:T0": ("qubit:T1",),
    "qubit:H0": ("qubit:H1",),
    "qutrit:S": ("qutrit:Hplus", "qutrit:Hminus"),
    "qutrit:Hplus": ("qutrit:Hminus", "qutrit:S"),
    "qutrit:N": ("qutrit:NB1", "qutrit:NB2"),
    "qutrit:T0": ("qutrit:T1", "qutrit:T2"),
}


def check_l_tables(exact_tol: float = EXACT_TOL,
                   printed_tol: float = PRINTED_TOL) -> list[TableResult]:
    printed = {name: L for name, (_, L) in QUQUINT_L_PRINTED.items()}
    out = []
    for tables, tol in (({**QUBIT_L, **QUTRIT_L}, exact_tol), (printed, printed_tol)):
        for name, expected in tables.items():
            got = _l_table(name)
            out.append(TableResult(f"L[{name}]", row_multiset_error(expected, got), tol))
    return out


def check_w_tables(exact_tol: float = EXACT_TOL,
                   printed_tol: float = PRINTED_TOL) -> list[TableResult]:
    out = []
    for tables, tol in ((QUTRIT_W, exact_tol), (QUQUINT_W_PRINTED, printed_tol)):
        for key, (basis_names, expected) in tables.items():
            got = _w_table(basis_names)
            out.append(TableResult(f"W[{key}]", float(np.max(np.abs(got - expected))), tol))
    return out


def qubit_fidelity_sphere(n_theta: int, n_phi: int) -> np.ndarray:
    """Grid of (theta, phi, F) over the Bloch sphere."""
    dd = enumerate_stabilizer_states(Dims(2, 1))
    th, ph = np.meshgrid(np.linspace(0, np.pi, n_theta), np.linspace(0, 2 * np.pi, n_phi),
                         indexing="ij")
    amps = np.stack([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)], axis=-1)
    F = np.max(np.abs(amps.reshape(-1, 2).conj() @ dd.matrix.T) ** 2, axis=1)
    return np.column_stack([th.ravel(), ph.ravel(), F])


def table_rows(table_id: str, grid: tuple[int, int]) -> list[list]:
    """Rows (lists of strings/numbers) for a named table; CSV-ready."""
    if table_id not in _TABLE_STATES:
        raise UnknownTableError(f"unknown table id {table_id!r}")
    system, _, kind = table_id.partition("-")
    names = _TABLE_STATES[table_id]
    if kind == "wigner":
        rows = [["state", "wigner(row p, col q)", "trace_norm"]]
        for name in names:
            Wf = wigner_function(build(name), entry(name).dims)
            rows.append([name, np.round(Wf.as_grid(), 10).tolist(), Wf.trace_norm])
        return rows
    if kind in ("fidelity", "eigenstates"):
        m2 = kind == "eigenstates"  # Table 1 also lists M2
        rows = [["state", "fidelity", "nearest_count"] + ["M2"] * m2]
        for name in names:
            psi, dims = build(name), entry(name).dims
            F, near = enumerate_stabilizer_states(dims).nearest(psi)
            rows.append([name, F, len(near)] + [sre(psi, dims)] * m2)
        return rows
    if kind == "L":
        return [["candidate", "L matrix"]] + [[name, np.round(_l_table(name), 10).tolist()]
                                              for name in names]
    if kind == "W":
        return [["basis", "W matrix"]] + [[key, np.round(_w_table(basis), 10).tolist()]
                                          for key, (basis, _) in names.items()]
    if kind == "sre":
        return [["state", "M2", "exact"]] + [
            [name, sre(e.build(), e.dims), e.expected["M2"][0]] for name, e in entries().items()
            if name.startswith(f"{system}:") and "M2" in e.expected]
    return [["theta", "phi", "fidelity"]] + qubit_fidelity_sphere(*grid).tolist()
