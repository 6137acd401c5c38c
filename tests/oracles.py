"""Dense Weyl-Heisenberg references for the tests.

The package never builds a table of all d^(2N) operators: its transforms are
index gathers and character sums.  The tables below stack every T_chi and
every A_chi as a (d^(2N), D, D) array in lexicographic point order, so the
tests can check operator identities exhaustively and compare the table-free
transforms against plain contractions.  They cost O(D^4) memory and are
cached per (d, N).  The brute-force Sp(2, Z_d) enumeration at the end is a
reference for the single-qudit Clifford tests.
"""

import itertools
from functools import lru_cache, reduce

import numpy as np

from quditmagic.phasespace import Dims, phase_points, split_point
from quditmagic.weyl import displacement_matrix, unit_phase


@lru_cache(maxsize=None)
def _displacement_table(d: int, N: int) -> np.ndarray:
    dims = Dims(d, N)
    table = np.array([displacement_matrix(chi, dims) for chi in phase_points(dims)])
    table.setflags(write=False)
    return table


def displacement_table(dims: Dims) -> np.ndarray:
    """All T_chi as a read-only (d^2N, D, D) array, lex order in (p, q)."""
    return _displacement_table(dims.d, dims.N)


@lru_cache(maxsize=None)
def _phase_point_table(d: int, N: int) -> np.ndarray:
    assert d % 2, "phase-point operators require odd d"
    singles = np.zeros((d, d, d, d), dtype=np.complex128)
    for p, q, j in np.ndindex(d, d, d):
        singles[p, q, (2 * p - j) % d, j] = unit_phase(2 * q * (p - j), d)
    table = np.array([reduce(np.kron, singles[split_point(chi)])
                      for chi in phase_points(Dims(d, N))])
    table.setflags(write=False)
    return table


def phase_point_table(dims: Dims) -> np.ndarray:
    """All A_chi as a read-only (d^2N, D, D) array, lex order in (p, q)."""
    return _phase_point_table(dims.d, dims.N)


def kernel_all(O1, O2, dims: Dims) -> np.ndarray:
    """The Weyl-Heisenberg kernel K_chi(O1, O2) = d^-N Tr[O1 T_chi O2 T_chi^dag]
    for every chi, in lexicographic point order."""
    T = displacement_table(dims)
    return np.einsum('ij,kjl,lm,kim->k', O1, T, O2, T.conj(), optimize=True) / dims.D


def enumerate_symplectic_2x2(d: int) -> list[np.ndarray]:
    """Brute-force Sp(2, Z_d) = SL(2, Z_d); test-scale only."""
    out = []
    for a, b, c, e in itertools.product(range(d), repeat=4):
        if (a * e - b * c) % d == 1:
            out.append(np.array([[a, b], [c, e]], dtype=np.int64))
    return out
