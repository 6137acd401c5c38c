"""Clifford unitaries: generators, affine-symplectic data, enumeration,
eigenstates, twirling, and randomized equivalence search.

Single-qudit generators for odd d (delta_d fixed so det H = 1):
    S = sum_j tau^(j(j+1)) |j><j|,   H = (delta_d / sqrt d) sum_jk omega^(jk) |j><k|
together with the metaplectic homomorphism V: SL(2, Z_d) -> SU(d).
For d = 2 the standard qubit H and S = diag(1, i) are used.

Conjugation sends T_chi to omega^(-<a_C, S_C chi>) T_(S_C chi).  A Clifford is
handled through its exact integer action on all d^(2N) Pauli labels,
    U T_chi U^dag = omega^k[chi] T_perm[chi],
a permutation `perm` of the labels and phase exponents k mod d.  The action
of a unitary is read once per label with the gather-and-character transform
of `weyl.pauli_coefficients` (no dense table).  Actions compose exactly,
(G U): perm2 = g_perm[perm], k2 = k + g_k[perm], and the bytes of (perm, k)
identify the element modulo global phase, so the reduced group is enumerated
by a BFS over integer data.  S_C and a_C are read off the 2N unit labels e_i:
column i of S_C is the label perm[e_i], and a_C = S_C J k_b with
k_b = -k[e_i], because S_C is symplectic.

For d = 2 the Hermitian representatives i^(p.q) X^p Z^q carry a residual
sign on non-basis labels that no affine phase omega^(-<a, S chi>) describes;
the action still holds it exactly, as k[chi] with omega = -1, because it
covers every label and not only the basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NonClosedGroupError,
    NotCliffordError,
    UnsupportedDimensionError,
    check_budget,
)
from .phasespace import (
    Dims,
    mod_inverse,
    phase_points,
    symplectic_form,
)
from .stabilizers import enumerate_stabilizer_states
from .weyl import (
    asmatrix,
    displacement_matrix,
    equal_up_to_phase,
    pauli_coefficients,
    phase_normalize,
    unit_phase,
)


def legendre(a: int, d: int) -> int:
    """Legendre symbol (a/d) for odd prime d."""
    a = a % d
    if a == 0:
        return 0
    r = pow(a, (d - 1) // 2, d)
    return 1 if r == 1 else -1


def _epsilon(d: int) -> complex:
    """Quadratic Gauss-sum phase: 1 for d = 1 mod 4, i for d = 3 mod 4."""
    return 1.0 + 0j if d % 4 == 1 else 1j


def delta_d(d: int) -> complex:
    """Hadamard normalization phase by residue of d mod 8."""
    return {1: 1.0 + 0j, 3: -1j, 5: -1.0 + 0j, 7: 1j}[d % 8]


SL2_S_HAT = np.array([[1, 0], [1, 1]], dtype=np.int64)
SL2_H_HAT = np.array([[0, -1], [1, 0]], dtype=np.int64)


def metaplectic_V(F: np.ndarray, d: int) -> np.ndarray:
    """The SU(d) image of F in SL(2, Z_d), odd d.

    Satisfies V_F T_chi V_F^dag = T_(F chi) exactly and
    V_(F1) V_(F2) = V_(F1 F2) up to a global phase.
    """
    if d % 2 == 0:
        raise NotCliffordError("metaplectic map needs odd d")
    F = np.asarray(F, dtype=np.int64) % d
    a, b, c, dd = int(F[0, 0]), int(F[0, 1]), int(F[1, 0]), int(F[1, 1])
    if (a * dd - b * c) % d != 1:
        raise NotCliffordError("matrix is not in SL(2, Z_d)")
    V = np.zeros((d, d), dtype=np.complex128)
    if b % d != 0:
        inv2b = mod_inverse(2 * b, d)
        coeff = legendre(-2 * b, d) * _epsilon(d) / np.sqrt(d)
        for j in range(d):
            for k in range(d):
                expo = (a * k * k - 2 * j * k + dd * j * j) * inv2b
                V[j, k] = coeff * unit_phase(expo, d)
    else:
        inv2 = mod_inverse(2, d)
        coeff = legendre(a, d)
        for k in range(d):
            V[(a * k) % d, k] = coeff * unit_phase(a * c * k * k * inv2, d)
    return V


def single_qudit_H(d: int) -> np.ndarray:
    if d == 2:
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    jk = np.outer(np.arange(d), np.arange(d)) % d
    return delta_d(d) / np.sqrt(d) * np.exp(2j * np.pi * jk / d)


def single_qudit_S(d: int) -> np.ndarray:
    if d == 2:
        return np.diag([1.0, 1j]).astype(np.complex128)
    t = mod_inverse(2, d)
    diag = [unit_phase(t * j * (j + 1), d) for j in range(d)]
    return np.diag(diag).astype(np.complex128)


def _conjugated_label(U: np.ndarray, chi: np.ndarray, dims: Dims,
                      tol: float = 1e-8) -> tuple[int, complex]:
    """Index j and phase c with U T_chi U^dag = c T_j; NotClifford if none."""
    coeffs = pauli_coefficients(U @ displacement_matrix(chi, dims) @ U.conj().T, dims)
    idx = np.flatnonzero(np.abs(coeffs) > tol)
    if idx.size != 1 or abs(abs(coeffs[idx[0]]) - 1.0) > tol:
        raise NotCliffordError("conjugation leaves the displacement basis")
    return int(idx[0]), complex(coeffs[idx[0]])


def _pauli_action(U: np.ndarray, dims: Dims, labels: np.ndarray, tol: float = 1e-8
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Label indices perm and exponents k with U T_chi U^dag = omega^k T_perm,
    one entry per row of `labels`."""
    d = dims.d
    perm = np.empty(len(labels), dtype=np.intp)
    k = np.empty(len(labels), dtype=np.int64)
    for i, chi in enumerate(labels):
        perm[i], c = _conjugated_label(U, chi, dims, tol)
        k[i] = int(np.rint(np.angle(c) * d / (2 * np.pi))) % d
        if abs(c - unit_phase(k[i], d)) > 1e-6:
            raise NotCliffordError("conjugation phase is not a d-th root of unity")
    return perm, k


def _compose_action(outer: tuple, inner: tuple, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer action of C_outer C_inner from the actions of its factors.

    Stacks compose pairwise: outer actions on leading axes (G, n) and inner
    ones on (F, n) give the (G, F, n) stack of products."""
    (g_perm, g_k), (perm, k) = outer, inner
    return g_perm[..., perm], (k + g_k[..., perm]) % d


def _affine_data(perm_basis: np.ndarray, k_basis: np.ndarray, dims: Dims
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(S, a) from the action on the unit labels e_i, batched over leading axes:
    S e_i is the label with index perm_basis[i], and -k_basis[i] = <a, S e_i>
    gives a = S J (-k_basis) because S is symplectic."""
    S = np.stack(np.unravel_index(perm_basis, (dims.d,) * (2 * dims.N)), axis=-2)
    return S, (S @ symplectic_form(dims.N) @ -k_basis[..., None])[..., 0] % dims.d


def is_clifford(U, dims: Dims, tol: float = 1e-8) -> bool:
    """True iff U maps every basis displacement to a displacement under conjugation."""
    try:
        _pauli_action(asmatrix(U), dims, np.eye(2 * dims.N, dtype=np.int64), tol)
    except NotCliffordError:
        return False
    return True


def affine_from_clifford(U, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Recover (S_C, a_C) from the conjugation action of a Clifford unitary."""
    basis = np.eye(2 * dims.N, dtype=np.int64)
    S, a = _affine_data(*_pauli_action(asmatrix(U), dims, basis), dims)
    J = symplectic_form(dims.N)
    if not np.all((S.T @ J @ S - J) % dims.d == 0):
        raise NotCliffordError("recovered label map is not symplectic")
    return S, a


def clifford_from_affine(S: np.ndarray, a: np.ndarray, dims: Dims) -> np.ndarray:
    """A unitary with affine data (S, a) for a single qudit.

    Odd d uses the closed-form section T_a V_S; d = 2 falls back to a
    lookup in the enumerated reduced group (24 elements)."""
    if dims.N != 1:
        raise NotCliffordError("closed-form section implemented for single qudits")
    S = np.asarray(S, dtype=np.int64) % dims.d
    a = np.asarray(a, dtype=np.int64) % dims.d
    if dims.odd:
        return displacement_matrix(a, dims) @ metaplectic_V(S, dims.d)
    for el in enumerate_reduced_clifford(dims):
        if np.array_equal(el.symplectic, S) and np.array_equal(el.displacement, a):
            return el.unitary
    raise NotCliffordError("no qubit Clifford with the requested affine data")


@dataclass
class CliffordElement:
    """A Clifford unitary with its associated symplectic matrix and displacement."""

    unitary: np.ndarray
    symplectic: np.ndarray
    displacement: np.ndarray
    dims: Dims
    word: tuple = ()

    @classmethod
    def from_unitary(cls, U, dims: Dims, word: tuple = ()) -> "CliffordElement":
        U = asmatrix(U)
        S, a = affine_from_clifford(U, dims)
        return cls(U, S, a, dims, word)


def qudit_clifford_generators(d: int) -> tuple[CliffordElement, CliffordElement]:
    """The (H, S) generator pair for a single qudit."""
    dims = Dims(d, 1)
    H = CliffordElement.from_unitary(single_qudit_H(d), dims, word=("H@1",))
    S = CliffordElement.from_unitary(single_qudit_S(d), dims, word=("S@1",))
    return H, S


# ---------------------------------------------------------------------------
# qubit gate library and Clifford words

_QUBIT_GATES = {
    "H": single_qudit_H(2),
    "S": single_qudit_S(2),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _embed(op: np.ndarray, sites: tuple[int, ...], dims: Dims) -> np.ndarray:
    """Embed an operator acting on `sites` (1-based) into the N-qudit space."""
    d, N = dims.d, dims.N
    k = len(sites)
    full = np.tensordot(
        op.reshape((d,) * (2 * k)),
        np.eye(d ** (N - k)).reshape((d,) * (2 * (N - k))),
        axes=0,
    )
    # axes: out(sites), in(sites), out(rest), in(rest) -> interleave to site order
    out_axes = list(range(k)) + list(range(2 * k, 2 * k + (N - k)))
    in_axes = list(range(k, 2 * k)) + list(range(2 * k + (N - k), 2 * N))
    order = [0] * (2 * N)
    rest = [s for s in range(1, N + 1) if s not in sites]
    for pos, site in enumerate(list(sites) + rest):
        order[site - 1] = out_axes[pos]
        order[N + site - 1] = in_axes[pos]
    return full.transpose(order).reshape(dims.D, dims.D)


def gate_unitary(token: str, dims: Dims) -> np.ndarray:
    """Matrix for a word token like 'H@1', 'S†@2', 'CZ@1,2', 'CNOT@1,2', 'SWAP@1,2'."""
    name, _, where = token.partition("@")
    dagger = name.endswith("†") or name.endswith("dag")
    name = name.removesuffix("†").removesuffix("dag")
    sites = tuple(int(s) for s in where.split(",")) if where else (1,)
    d = dims.d
    if name in ("H", "S", "X", "Z"):
        if d == 2:
            op = _QUBIT_GATES[name]
        else:
            op = {"H": single_qudit_H, "S": single_qudit_S}.get(name, None)
            if op is not None:
                op = op(d)
            elif name == "X":
                op = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
            else:
                op = np.diag([unit_phase(j, d) for j in range(d)])
        mat = _embed(op, sites[:1], dims)
    elif name == "CZ":
        if d != 2:
            raise NotCliffordError("CZ word tokens are qubit-only here")
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)
        mat = _embed(cz, sites, dims)
    elif name == "CNOT":
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                      dtype=np.complex128)
        mat = _embed(cx, sites, dims)
    elif name == "SWAP":
        sw = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                      dtype=np.complex128)
        mat = _embed(sw, sites, dims)
    else:
        raise NotCliffordError(f"unknown gate token {token!r}")
    return mat.conj().T if dagger else mat


def word_unitary(word, dims: Dims) -> np.ndarray:
    """Product of tokens in writing order (leftmost acts last on kets)."""
    # the product, one embedded gate and its unpermuted copy (a later eig of U: a few D^2 more)
    check_budget(3 * dims.D ** 2 * 16, f"a dense Clifford word on {dims}")
    U = np.eye(dims.D, dtype=np.complex128)
    for token in word:
        U = U @ gate_unitary(token, dims)
    return U


# ---------------------------------------------------------------------------
# group enumeration

def _quantize(v: np.ndarray, grid: float) -> bytes:
    pairs = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    return np.round(pairs / grid).astype(np.int64).tobytes()


def _exact_key(U: np.ndarray, grid: float = 1e-8) -> bytes:
    return _quantize(np.asarray(U).ravel(), grid)


def clifford_group_order(dims: Dims) -> int:
    """d^2N * d^(N^2) * prod_i (d^(2i) - 1)  (reduced group)."""
    order = dims.d ** (2 * dims.N) * dims.d ** (dims.N ** 2)
    for i in range(1, dims.N + 1):
        order *= dims.d ** (2 * i) - 1
    return order


def clifford_generator_words(dims: Dims) -> list[tuple[str, ...]]:
    if dims.N == 1:
        return [("H@1",), ("S@1",)]
    if dims.d != 2:
        raise UnsupportedDimensionError("multi-qudit generators implemented for qubits only")
    words = []
    for i in range(1, dims.N + 1):
        words.append((f"H@{i}",))
        words.append((f"S@{i}",))
    for i in range(1, dims.N + 1):
        for j in range(i + 1, dims.N + 1):
            words.append((f"CZ@{i},{j}",))
    return words


@lru_cache(maxsize=None)
def _reduced_elements_cached(d: int, N: int) -> tuple:
    dims = Dims(d, N)
    n = dims.n_points
    words = clifford_generator_words(dims)
    # per element: its (perm, k) action codes and its dense unitary
    check_budget(clifford_group_order(dims) * (2 * n * 8 + dims.D ** 2 * 16),
                 f"the reduced Clifford group for {dims}")
    gens = [word_unitary(w, dims) for w in words]
    actions = [_pauli_action(G, dims, phase_points(dims)) for G in gens]
    g_action = (np.array([p for p, _ in actions]), np.array([k for _, k in actions]))
    # BFS in (element, generator) order; an element's action on every label
    # is coded as perm * d + k, and the bytes of that code are its key
    unitaries, elem_words = [np.eye(dims.D, dtype=np.complex128)], [()]
    levels = [np.arange(n)[None] * d]
    seen = {levels[0].tobytes()}
    start = 0
    while start < len(unitaries):
        perm, k = _compose_action(g_action, (levels[-1] // d, levels[-1] % d), d)
        cand = np.ascontiguousarray((perm * d + k).swapaxes(0, 1)).reshape(-1, n)
        keys = cand.view(np.dtype((np.void, cand.itemsize * n))).ravel().tolist()
        fresh = []
        for r, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                fresh.append(r)
                f, g = divmod(r, len(gens))
                unitaries.append(gens[g] @ unitaries[start + f])
                elem_words.append(words[g] + elem_words[start + f])
        start += len(levels[-1])
        levels.append(cand[fresh])
    if len(unitaries) != clifford_group_order(dims):
        raise NotCliffordError(f"closure produced {len(unitaries)} elements, "
                               f"expected {clifford_group_order(dims)}")
    on_basis = np.concatenate(levels)[:, d ** np.arange(2 * N - 1, -1, -1)]
    S, a = _affine_data(on_basis // d, on_basis % d, dims)
    return tuple(CliffordElement(U, S[i], a[i], dims, w)
                 for i, (U, w) in enumerate(zip(unitaries, elem_words)))


def enumerate_reduced_clifford(dims: Dims) -> list[CliffordElement]:
    """One representative per element of the reduced Clifford group."""
    return list(_reduced_elements_cached(dims.d, dims.N))


# ---------------------------------------------------------------------------
# finite unitary groups, projectors, twirling

@dataclass
class FiniteUnitaryGroup:
    """A finite set of unitaries closed under multiplication with exact phases."""

    elements: list[np.ndarray]
    generators: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def generate(cls, generators, max_order: int = 20000) -> "FiniteUnitaryGroup":
        gens = [asmatrix(g) for g in generators]
        D = gens[0].shape[0]
        eye = np.eye(D, dtype=np.complex128)
        seen = {_exact_key(eye): eye}
        frontier = [eye]
        while frontier:
            nxt = []
            for U in frontier:
                for G in gens:
                    V = G @ U
                    key = _exact_key(V)
                    if key not in seen:
                        if len(seen) >= max_order:
                            raise BudgetExceededError("group closure exceeds budget")
                        seen[key] = V
                        nxt.append(V)
            frontier = nxt
        return cls(list(seen.values()), gens)

    def __len__(self) -> int:
        return len(self.elements)

    def check_closed(self) -> None:
        keys = {_exact_key(U) for U in self.elements}
        for U in self.elements:
            for G in self.generators or self.elements:
                if _exact_key(G @ U) not in keys:
                    raise NonClosedGroupError("set is not closed under multiplication")


def group_projector(group: FiniteUnitaryGroup) -> np.ndarray:
    """Projector onto the jointly stabilized subspace: the group average."""
    group.check_closed()
    P = sum(group.elements) / len(group.elements)
    if np.max(np.abs(P @ P - P)) > 1e-7 or np.max(np.abs(P - P.conj().T)) > 1e-7:
        raise NonClosedGroupError("group average is not a projector")
    return P


def twirl(O, group: FiniteUnitaryGroup) -> np.ndarray:
    """Average of g O g^dag over the group; projects onto the commutant."""
    O = asmatrix(O)
    acc = np.zeros_like(O)
    for g in group.elements:
        acc += g @ O @ g.conj().T
    return acc / len(group.elements)


def _eigenspaces(U: np.ndarray, tol: float = 1e-8) -> list[np.ndarray]:
    """Orthonormal bases of the eigenspaces of a unitary: eigenvalues are
    clustered within tol, and each cluster of size k spans the null space of
    U - lambda I, read off as its k smallest right singular vectors."""
    U = np.asarray(U, dtype=np.complex128)
    evals = np.linalg.eigvals(U)
    eye = np.eye(U.shape[0])
    remaining = list(range(evals.shape[0]))
    spaces = []
    while remaining:
        i = remaining[0]
        idx = [j for j in remaining if abs(evals[j] - evals[i]) < tol]
        remaining = [j for j in remaining if j not in idx]
        _, _, vh = np.linalg.svd(U - np.mean(evals[idx]) * eye)
        spaces.append(vh[-len(idx):].conj().T)
    return spaces


def group_stabilizer_states(group: FiniteUnitaryGroup,
                            tol: float = 1e-8) -> list[np.ndarray]:
    """Rays uniquely stabilized, up to phase, by subgroups of `group`.

    Equivalently: one-dimensional joint eigenspaces of single elements or of
    pairs of elements (the phase needed to turn an eigenvector relation into
    exact stabilization lives in the eigenphase extension of the group).
    """
    states: list[np.ndarray] = []
    state_keys = set()

    def _add(vec: np.ndarray) -> None:
        vec = phase_normalize(vec)
        key = _quantize(np.round(vec, 9), 1e-8)
        if key not in state_keys:
            state_keys.add(key)
            states.append(vec)

    spaces_per_element = [_eigenspaces(u, tol) for u in group.elements]
    for spaces in spaces_per_element:
        for E in spaces:
            if E.shape[1] == 1:
                _add(E[:, 0])
    for (s1, u2) in itertools.product(spaces_per_element, group.elements):
        for E in s1:
            if E.shape[1] < 2:
                continue
            sub = E.conj().T @ u2 @ E
            if np.max(np.abs(sub.conj().T @ sub - np.eye(E.shape[1]))) > 1e-7:
                continue  # u2 does not preserve this eigenspace
            for F in _eigenspaces(sub, tol):
                if F.shape[1] == 1:
                    _add(E @ F[:, 0])
    return states


def eigenphase_extended_group(C, dims: Dims, max_order: int = 4096) -> FiniteUnitaryGroup:
    """Closure of <C> together with the scalar phases from its spectrum."""
    C = asmatrix(C)
    vals = np.linalg.eigvals(C)
    scalars = [val * np.eye(dims.D, dtype=np.complex128) for val in vals]
    return FiniteUnitaryGroup.generate([C] + scalars, max_order=max_order)


# ---------------------------------------------------------------------------
# eigenstates

def eigenpairs(U: np.ndarray, tol: float = 1e-8
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w (n, D), unit eigenvectors V (n, D, D; column i belongs
    to w[:, i]) and the mask (n, D) of eigenvalues whose cluster within tol is
    a singleton, for a stack of n unitaries of shape (n, D, D).

    A singleton eigenvalue of a normal matrix has a one-dimensional
    eigenspace, so its eigenvector is unique up to phase.
    """
    U = np.asarray(U, dtype=np.complex128)
    eye = np.eye(U.shape[-1])
    if np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - eye)) > 1e-8:
        raise ValueError("eigenstate extraction requires a unitary input")
    w, V = np.linalg.eig(U)
    single = np.sum(np.abs(w[..., :, None] - w[..., None, :]) < tol, axis=-1) == 1
    return w, V, single


def nondegenerate_eigenstates(C, dims: Dims, tol: float = 1e-8
                              ) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a unitary whose eigenvalue cluster is one-dimensional,
    in eigenvalue order, each eigenvector phase-normalized."""
    U = asmatrix(C)
    if U.shape != (dims.D, dims.D):
        raise DimensionMismatchError(f"expected a {dims.D}x{dims.D} unitary, got {U.shape}")
    w, V, single = eigenpairs(U[None], tol)
    return [(complex(w[0, i]), phase_normalize(V[0, :, i])) for i in np.flatnonzero(single[0])]


# ---------------------------------------------------------------------------
# randomized Clifford equivalence search

def state_invariant(psi: np.ndarray, dims: Dims, decimals: int = 8) -> tuple:
    """Sorted multiset of |<s|psi>|^2 over the stabilizer dictionary."""
    dd = enumerate_stabilizer_states(dims)
    ov = np.sort(dd.overlaps(psi))
    return tuple(np.round(ov, decimals).tolist())


def _state_key(psi: np.ndarray, grid: float = 1e-7) -> bytes:
    return _quantize(phase_normalize(psi, tol=1e-6), grid)


def clifford_equivalence_search(psi1: np.ndarray, psi2: np.ndarray, dims: Dims,
                                budget: int = 20000, seed: int = 0,
                                max_depth: int = 40):
    """Search for a generator word mapping psi1 to psi2 up to global phase.

    Meet-in-the-middle over the generator alphabet; a found word is verified
    before being returned.  None means inconclusive, not inequivalence.
    """
    psi1 = np.asarray(psi1, dtype=np.complex128)
    psi2 = np.asarray(psi2, dtype=np.complex128)
    if equal_up_to_phase(psi1, psi2):
        return ()
    if state_invariant(psi1, dims) != state_invariant(psi2, dims):
        return None
    rng = np.random.default_rng(seed)
    gen_words = clifford_generator_words(dims)
    gens = [(w, word_unitary(w, dims)) for w in gen_words]
    gens += [(invert_word(w), U.conj().T) for w, U in list(gens)
             if invert_word(w) != w]

    # forward layer from psi1, backward layer from psi2
    fwd = {_state_key(psi1): ((), psi1)}
    bwd = {_state_key(psi2): ((), psi2)}
    frontier_f = [((), psi1)]
    frontier_b = [((), psi2)]
    expansions = 0
    while expansions < budget and (frontier_f or frontier_b):
        for layer, frontier, other in ((fwd, frontier_f, bwd), (bwd, frontier_b, fwd)):
            new = []
            order = rng.permutation(len(frontier))
            for i in order:
                word, v = frontier[i]
                if len(word) >= max_depth:
                    continue
                for gw, G in gens:
                    expansions += 1
                    w2 = gw + word
                    v2 = G @ v
                    key = _state_key(v2)
                    if key in layer:
                        continue
                    layer[key] = (w2, v2)
                    new.append((w2, v2))
                    if key in other:
                        candidate = _compose_meet(
                            w2 if layer is fwd else other[key][0],
                            other[key][0] if layer is fwd else w2,
                        )
                        U = word_unitary(candidate, dims)
                        if equal_up_to_phase(U @ psi1, psi2):
                            return candidate
                    if expansions >= budget:
                        break
                if expansions >= budget:
                    break
            frontier[:] = new
            if expansions >= budget:
                break
    return None


_SELF_INVERSE = {"H", "Z", "X", "CZ", "CNOT", "SWAP"}


def invert_word(word: tuple) -> tuple:
    """Token-wise inverse in reverse order; involutions stay as they are."""
    out = []
    for t in reversed(word):
        name, _, where = t.partition("@")
        if name in _SELF_INVERSE:
            out.append(t)
        elif name.endswith("†"):
            out.append(name[:-1] + "@" + where)
        else:
            out.append(name + "†@" + where)
    return tuple(out)


def _compose_meet(word_fwd: tuple, word_bwd: tuple) -> tuple:
    # word_bwd maps psi2 toward the meeting state; invert it to continue to psi2
    return invert_word(word_bwd) + word_fwd
