"""Magic measures: mana, stabilizer fidelity, and stabilizer Renyi entropies.

All phase-space sums run over the lexicographic point order of
`phasespace.phase_points`.  Logs are natural.  Every M_alpha of a state is a
moment of one Pauli spectrum: `pauli_distribution` keeps the last in one slot,
keyed by (d, N, shape, bytes) of its complex128 input, and shares it read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, UnsupportedDimensionError
from .phasespace import Dims
from .stabilizers import StabilizerDictionary, enumerate_stabilizer_states, max_overlap, nearest_set
from .tolerances import WIGNER_IMAG_TOL
from .weyl import shifted_characters, transform_plan


class WignerFunction:
    """Real quasi-probability values indexed by phase-space point."""

    __slots__ = ("dims", "values")

    def __init__(self, dims: Dims, values: np.ndarray):
        self.dims = dims
        self.values = values

    def as_grid(self) -> np.ndarray:
        """(d^N, d^N) view with rows indexed by p and columns by q."""
        D = self.dims.D
        return self.values.reshape(D, D)

    @property
    def trace_norm(self) -> float:
        return float(np.add.reduce(np.abs(self.values)))


def wigner_function(rho, dims: Dims) -> WignerFunction:
    """W_chi = d^-N Tr(A_chi rho); accepts density matrices, state vectors and
    Hermitian operators of any trace.

    W(p, q) = d^-N sum_m omega^(2q.m) rho[p-m, p+m]: a gather, then a
    character sum evaluated at 2q.  A state vector psi is gathered as
    psi[p-m] conj(psi[p+m]), the same products |psi><psi| holds, without
    forming |psi><psi|.
    """
    if not dims.odd:
        raise UnsupportedDimensionError("Wigner function requires odd d")
    arr = np.asarray(rho, dtype=np.complex128)
    D = dims.D
    if arr.shape != (D,) and arr.shape != (D, D):
        raise DimensionMismatchError(f"shape {arr.shape} is neither {(D,)} nor {(D, D)}")
    plan = transform_plan(dims.d, dims.N)
    if arr.ndim == 1:
        vals = arr[plan.minus]
        vals *= arr.conj()[plan.plus]
    else:
        vals = arr[plan.minus, plan.plus]
    vals = vals @ plan.characters  # rebinding frees the gather before the column pick
    vals = vals.take(plan.double, axis=1).ravel()
    vals /= D
    imag = np.maximum.reduce(np.abs(vals.imag))
    # the scale max(1, |W|) only matters once imag exceeds the tolerance itself;
    # written `not <=` so that a NaN imag is refused too
    if not imag <= WIGNER_IMAG_TOL and not (
            imag <= WIGNER_IMAG_TOL * max(1.0, np.maximum.reduce(np.abs(vals)))):
        raise ValueError("Wigner values have a non-negligible or non-finite imaginary part")
    return WignerFunction(dims, vals.real.copy())


def wigner_trace_norm(rho, dims: Dims) -> float:
    return wigner_function(rho, dims).trace_norm


def mana(rho, dims: Dims) -> float:
    """log of the Wigner trace norm; 0 exactly on the stabilizer polytope."""
    return math.log(wigner_trace_norm(rho, dims))


def stabilizer_fidelity(psi: np.ndarray, dictionary: StabilizerDictionary | None = None,
                        dims: Dims | None = None):
    """Max squared overlap with the stabilizer set, plus the argmax states."""
    if dictionary is None:
        if dims is None:
            raise ValueError("need a dictionary or dims")
        dictionary = enumerate_stabilizer_states(dims)
    return max_overlap(psi, dictionary)


def group_stabilizer_fidelity(psi: np.ndarray, states: np.ndarray | list[np.ndarray]):
    """Fidelity against an arbitrary finite set of rays (the G-stabilizer set),
    given as a (K, D) array of rows, used as it is, or a sequence of vectors."""
    if len(states) == 0:
        raise ValueError("empty G-stabilizer set")
    psi = np.asarray(psi, dtype=np.complex128)
    best, ties = nearest_set(np.abs(np.asarray(states) @ psi.conj()) ** 2)
    return best, [states[i] for i in ties]


class PauliDistribution:
    """P_chi = d^-N |<psi|T_chi|psi>|^2 over phase-reduced Pauli labels.

    This and WignerFunction are built on every measure call, so they are
    slotted classes, which are quicker to build and read than NamedTuples."""

    __slots__ = ("dims", "probs")

    def __init__(self, dims: Dims, probs: np.ndarray):
        self.dims = dims
        self.probs = probs


_last_spectrum = (None, None)


def pauli_distribution(psi: np.ndarray, dims: Dims) -> PauliDistribution:
    """P_chi = d^-N |<psi|T_chi|psi>|^2; the slot is read once and replaced by one
    tuple, so no caller, in any thread, pairs a key with another input's spectrum.
    Non-finite input gives non-finite P, returned as computed (`xi` refuses it)."""
    global _last_spectrum
    x = np.asarray(psi, dtype=np.complex128)
    key = (dims.d, dims.N, x.shape, x.tobytes())
    last_key, probs = _last_spectrum
    if key != last_key:
        _last_spectrum = (None, None)
        probs = np.abs(shifted_characters(x, dims))
        np.square(probs, out=probs)
        probs /= dims.D
        probs.setflags(write=False)
        _last_spectrum = (key, probs)
    return PauliDistribution(dims, probs)


def xi(psi: np.ndarray, dims: Dims, alpha: float = 2.0) -> float:
    """Xi_alpha = sum_chi P_chi^alpha, for a finite alpha."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    probs = pauli_distribution(psi, dims).probs
    total = np.add.reduce(np.square(probs) if alpha == 2 else np.power(probs, alpha))
    if not math.isfinite(total):
        raise ValueError(f"Xi_{alpha:g} = {total}: the state is not finite")
    return float(total)


def sre(psi: np.ndarray, dims: Dims, alpha: float = 2.0) -> float:
    """alpha-stabilizer Renyi entropy, offset so stabilizer states give 0."""
    if alpha < 2:
        raise ValueError("alpha < 2 is outside the supported contract")
    return sre_from_xi(xi(psi, dims, alpha), dims, alpha)


def sre_from_xi(xi_alpha: float, dims: Dims, alpha: float) -> float:
    """M_alpha = log(Xi_alpha) / (1 - alpha) - N log d, from a computed Xi_alpha."""
    return float(math.log(xi_alpha) / (1 - alpha) - dims.N * math.log(dims.d))


def sre_upper_bound(dims: Dims, alpha: float = 2.0) -> float:
    """(1-alpha)^-1 log[(1 + (D-1)(D+1)^(1-alpha)) / D]."""
    D = dims.D
    return float(np.log((1 + (D - 1) * (D + 1) ** (1 - alpha)) / D) / (1 - alpha))


def mixed_sre2(rho, dims: Dims) -> float:
    """Mixed-state 2-SRE of rho, or of |psi><psi| for a vector: -log of the
    quartic/quadratic Pauli-moment ratio."""
    rho = np.asarray(rho, dtype=np.complex128)
    rho = np.outer(rho, rho.conj()) if rho.ndim == 1 else rho
    if rho.shape != (dims.D, dims.D):
        raise DimensionMismatchError(f"operator shape {rho.shape} != {(dims.D, dims.D)}")
    plan = transform_plan(dims.d, dims.N)
    # |Tr(T_(p,q) rho)| = |sum_j omega^(q.j) rho[j, p+j]|, gathered by flat index
    traces = np.abs(rho.take(plan.diagonals) @ plan.characters)
    quartic = np.add.reduce(traces ** 4, axis=None)
    quadratic = np.add.reduce(np.square(traces, out=traces), axis=None)
    ratio = float(quartic) / float(quadratic) if quadratic else math.nan
    if not math.isfinite(ratio):
        raise ValueError(f"Pauli-moment ratio {ratio!r}: the operator is zero or not finite")
    return -math.log(ratio)

