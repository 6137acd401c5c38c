"""Clifford unitaries: generators, affine-symplectic data, enumeration,
eigenstates, twirling, and a deterministic equivalence search, batched by
breadth-first level.

Every named gate is a row (S, a) of `_GATES` built by `clifford_from_affine`:
H = (H hat, 0), S = (S hat, (0, 2^-1)) for odd d and (S hat, 0) for qubits,
X = (1, (1, 0)), Z = (1, (0, 1)), and the qubit CZ, CNOT and SWAP.  Two phase
rules remain: odd-d H takes delta_d = (2/d) eps_d, so det H = 1, and the
metaplectic image V_F of F = [[a, b], [c, e]] in SL(2, Z_d) takes (-2b/d) eps_d,
or (a/d) when b = 0 (Gross, quant-ph/0602001; Appleby, quant-ph/0412001).

Conjugation sends T_chi to omega^(-<a_C, S_C chi>) T_(S_C chi).  A Clifford is
handled through its exact integer action on the d^(2N) Pauli labels,
    U T_chi U^dag = omega^k[chi] T_perm[chi],
a permutation `perm` of the labels and phase exponents k mod d, held as one
code perm * d + k per label, never as a (perm, k) pair.  The action of a
unitary is read for any labels in one batched transform: `weyl.displace`
applies every T_chi to the columns of U^dag, and the gather-and-character
transform of `weyl.pauli_coefficients` reads the whole stack U T_chi U^dag
(no dense table).  Codes compose exactly: G after code c gives
image - image mod d + (image + c) mod d with image = g_code[c // d], and
`_code_steps` tabulates that map over every code, per generator.

The action on the 2N unit labels e_i (X_i and Z_i) already identifies an
element modulo global phase: every T_chi is a product of the T_(e_i) up to a
known phase, so their images fix the image of every label, and a unitary that
commutes with every Pauli is a scalar.  The reduced group is therefore
enumerated by a BFS that stores, per element, only its 2N codes on the e_i,
packed into one exact int64 key; a child G U reads its parent's codes
through G's row of the step table, one gather per level.  S_C and a_C are
read off the same codes: column i of S_C is the label perm[e_i], and
a_C = S_C J k_b with k_b = -k[e_i], because S_C is symplectic.  Words and the
codes on any labels (`actions`: the same gather per level) are rebuilt from
each element's parent and generator when asked for.

A unitary is built from its unit codes alone, for a group element or for any
(S, a) on any (d, N) (`clifford_from_affine`: perm(e_i) = S e_i, k = S^T J a).
The codes fix U up to a global phase; `_unitary_from_codes` makes the first
entry of U|0> above AMPLITUDE_TOL real and positive.  So a group element's
eigenvalues, and the eigenphase order of the `eigenstates` sweep, follow its
codes, not the generators on its BFS path.

Conjugacy classes are exact on the same codes.  With y = perm_h^-1(e_i),
h g h^-1 sends e_i to perm_h(perm_g(y)) with exponent
k_g(y) + k_h(perm_g(y)) - k_h(y), so the action of every element on the few
labels y gives the codes of all its conjugates by the generators; one lookup
of their keys gives the conjugation permutations, and the classes are their
orbits.

For d = 2 the Hermitian representatives i^(p.q) X^p Z^q carry a residual
sign on non-basis labels that no affine phase omega^(-<a, S chi>) describes;
the action still holds it exactly, as k[chi] with omega = -1, because it
covers every label and not only the basis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonClosedGroupError,
    NotCliffordError,
    UnsupportedDimensionError,
    check_budget,
)
from .phasespace import (
    Dims,
    basis_keys,
    is_symplectic,
    mod_inverse,
    phase_points,
    symplectic_form,
    symplectic_group_order,
)
from .tolerances import (EIGEN_CLUSTER_TOL, GROUP_MATRIX_TOL, KEY_GRID, OVERLAP_DECIMALS,
                         PAULI_TOL, ROOT_OF_UNITY_TOL, SEARCH_LEAD_TOL, UNITARY_TOL)
from .weyl import (
    displace,
    equal_up_to_phase,
    pauli_coefficients,
    phase_normalize,
    unit_phase,
)


def legendre(a: int, d: int) -> int:
    """Legendre symbol (a/d) for odd prime d."""
    r = pow(a % d, (d - 1) // 2, d)
    return -1 if r == d - 1 else r


def _epsilon(d: int) -> complex:
    """Quadratic Gauss-sum phase: 1 for d = 1 mod 4, i for d = 3 mod 4."""
    return 1.0 + 0j if d % 4 == 1 else 1j


SL2_H_HAT = np.array([[0, -1], [1, 0]], dtype=np.int64)  # X -> Z, Z -> X^-1
SL2_S_HAT = np.array([[1, 0], [1, 1]], dtype=np.int64)


def metaplectic_V(F: np.ndarray, d: int) -> np.ndarray:
    """The SU(d) image of F in SL(2, Z_d), odd d, with its phase rule (see the
    module docstring): V_F T_chi V_F^dag = T_(F chi) exactly, and
    V_(F1) V_(F2) = V_(F1 F2) up to a global phase."""
    dims = Dims(d, 1)
    if d == 2:
        raise NotCliffordError("metaplectic map needs odd d")
    F = _integer_affine(F, (0, 0), dims)[0]
    a, b, c, e = F.ravel().tolist()
    if (a * e - b * c) % d != 1:
        raise NotCliffordError("matrix is not in SL(2, Z_d)")
    phase = legendre(-2 * b, d) * _epsilon(d) if b else legendre(a, d)
    return phase * clifford_from_affine(F, (0, 0), dims)


def single_qudit_H(d: int) -> np.ndarray:
    return _gate("H", d).copy()


def single_qudit_S(d: int) -> np.ndarray:
    return _gate("S", d).copy()


def qubit_T_gate() -> np.ndarray:
    """T = e^(i pi/4) S H: the order-3 qubit Clifford, transversal on the five-qubit code."""
    return unit_phase(1, 8) * single_qudit_S(2) @ single_qudit_H(2)


def qubit_T_states() -> tuple[np.ndarray, np.ndarray]:
    """|T0>, |T1>: the eigenstates of `qubit_T_gate` at e^(+-i pi/3)."""
    a, b, e = np.sqrt((3 + np.sqrt(3)) / 6), np.sqrt((3 - np.sqrt(3)) / 6), unit_phase(1, 8)
    return np.array([a, e * b]), np.array([-b, e * a])


def _pauli_action(U: np.ndarray, dims: Dims, labels: np.ndarray) -> np.ndarray:
    """The code perm * d + k of U T_chi U^dag = omega^k T_perm for each row
    of `labels`, read in one transform of the stack U T_chi U^dag (T_chi
    applied to the columns of U^dag by `displace`)."""
    if U.shape != (dims.D, dims.D):
        raise DimensionMismatchError(f"expected a {dims.D}x{dims.D} unitary, got {U.shape}")
    d = dims.d  # the stack peaks at four (n, D, D) arrays while its coefficients are read
    check_budget(4 * len(labels) * dims.D ** 2 * 16, f"the Pauli action on {dims}")
    # stays one gemm per label: stacking the labels as columns moves OpenBLAS's bits
    conjugated = U @ displace(labels[:, None, :], U.conj(), dims).swapaxes(1, 2)
    coeffs = pauli_coefficients(conjugated, dims)
    hits = np.abs(coeffs) > PAULI_TOL
    perm = np.argmax(hits, axis=1)
    c = coeffs[np.arange(len(labels)), perm]
    if np.any(np.sum(hits, axis=1) != 1) or np.any(np.abs(np.abs(c) - 1.0) > PAULI_TOL):
        raise NotCliffordError("conjugation leaves the displacement basis")
    k = np.rint(np.angle(c) * d / (2 * np.pi)).astype(np.int64) % d
    if np.any(np.abs(c - np.exp(2j * np.pi * k / d)) > ROOT_OF_UNITY_TOL):
        raise NotCliffordError("conjugation phase is not a d-th root of unity")
    return perm * d + k


def _affine_data(codes: np.ndarray, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """(S, a) from the codes on the unit labels e_i, batched over leading
    axes: S e_i is the label codes[i] // d, and -k[i] = <a, S e_i> with
    k = codes % d gives a = S J (-k) because S is symplectic.  The codes may
    be unsigned; k is negated as int64, where it cannot wrap."""
    S = np.stack(np.unravel_index(codes // dims.d, (dims.d,) * (2 * dims.N)), axis=-2)
    k = (codes % dims.d).astype(np.int64)
    return S, (S @ symplectic_form(dims.N) @ -k[..., None])[..., 0] % dims.d


def _unitary_from_codes(codes: np.ndarray, dims: Dims) -> np.ndarray:
    """The unitary (..., D, D) with the unit codes (..., 2N).  An image
    omega^k T_chi of X_i or Z_i has the powers omega^(mk) T_(m chi), m < d, one
    `displace` call.  The powers of the Z_i images sum to the projector onto
    U|0>; its largest row is normalized and `phase_normalize`d.  U|x> applies
    the powers x_i of the X_i images to U|0>, digit by digit."""
    d, N, D = dims.d, dims.N, dims.D
    codes = np.asarray(codes, dtype=np.int64)
    lead, m = codes.shape[:-1], np.arange(d)
    # a projected identity and its sum, and power stacks: `displace` peaks near 2 of the 4 counted
    check_budget((4 * d + 2) * int(np.prod(lead)) * D * D * 16, f"Clifford unitaries on {dims}")
    labels = np.stack(np.unravel_index(codes // d, (d,) * (2 * N)), axis=-1)
    roots = np.array([unit_phase(j, d) for j in range(d)])

    def powers(i: int, v: np.ndarray) -> np.ndarray:  # (..., R, D) -> (..., d, R, D)
        out = displace(m[:, None, None] * labels[..., None, None, i, :], v[..., None, :, :], dims)
        out *= roots[m * codes[..., i, None] % d][..., None, None]
        return out

    v = np.broadcast_to(np.eye(D, dtype=np.complex128), lead + (D, D))
    for i in range(N, 2 * N):
        v = powers(i, v).sum(axis=-3)
    best = np.argmax(np.linalg.norm(v, axis=-1), axis=-1)[..., None, None]
    v = np.take_along_axis(v, best, axis=-2)
    cols = phase_normalize(v / np.linalg.norm(v, axis=-1, keepdims=True))
    for i in range(N):
        cols = powers(i, cols).swapaxes(-3, -2).reshape(lead + (-1, D))
    return cols.swapaxes(-1, -2)


def is_clifford(U, dims: Dims) -> bool:
    """True iff U maps every basis displacement to a displacement under conjugation."""
    try:
        _pauli_action(np.asarray(U, dtype=np.complex128), dims, np.eye(2 * dims.N, dtype=np.int64))
    except NotCliffordError:
        return False
    return True


def affine_from_clifford(U, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Recover (S_C, a_C) from the conjugation action of a Clifford unitary."""
    U, basis = np.asarray(U, dtype=np.complex128), np.eye(2 * dims.N, dtype=np.int64)
    S, a = _affine_data(_pauli_action(U, dims, basis), dims)
    if not is_symplectic(S, dims.d):
        raise NotCliffordError("recovered label map is not symplectic")
    return S, a


def _integer_affine(S, a, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """(S, a) as int64 mod d; NotCliffordError unless both are finite, integral, 2N x 2N and 2N."""
    L, d = 2 * dims.N, dims.d
    S, a = np.asarray(S), np.asarray(a)
    with np.errstate(invalid="ignore"):  # inf and nan leave a nan remainder: refused
        if (S.shape != (L, L) or a.shape != (L,) or not {S.dtype.kind, a.dtype.kind} <= set("iuf")
                or np.any(np.mod(S, 1) != 0) or np.any(np.mod(a, 1) != 0)):
            raise NotCliffordError(f"(S, a) is not an integer {L}x{L} matrix and {L}-vector")
    return S.astype(np.int64) % d, a.astype(np.int64) % d


def clifford_from_affine(S: np.ndarray, a: np.ndarray, dims: Dims) -> np.ndarray:
    """A unitary with affine data (S, a) on any (d, N), from the unit codes
    perm(e_i) = S e_i and k = S^T J a mod d that `_affine_data` inverts.
    NotCliffordError unless S is integer and symplectic mod d, a integer."""
    L, d = 2 * dims.N, dims.d
    S, a = _integer_affine(S, a, dims)
    if not is_symplectic(S, d):
        raise NotCliffordError(f"S is not symplectic mod {d}")
    perm = np.ravel_multi_index(tuple(S), (d,) * L)
    return _unitary_from_codes(perm * d + S.T @ symplectic_form(dims.N) @ a % d, dims)


class CliffordElement(NamedTuple):
    """A Clifford unitary with its associated symplectic matrix and displacement."""

    unitary: np.ndarray
    symplectic: np.ndarray
    displacement: np.ndarray
    dims: Dims
    word: tuple = ()


# ---------------------------------------------------------------------------
# gate library and Clifford words

# name -> (S, a) on the gate's own qudits, labels (p_1, .., q_1, ..): S's columns
# are the images of X_1, .., Z_1, ..; for odd d, a gains 2^-1 times _HALF_SHIFTS[name]
_GATES = {"H": (SL2_H_HAT, (0, 0)), "S": (SL2_S_HAT, (0, 0)),
          "X": (np.eye(2, dtype=np.int64), (1, 0)), "Z": (np.eye(2, dtype=np.int64), (0, 1)),
          "CZ": (np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1]]), (0,) * 4),
          "CNOT": (np.array([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]), (0,) * 4),
          "SWAP": (np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), (0,) * 4)}
_HALF_SHIFTS = {"S": (0, 1)}  # odd-d S = diag tau^(j(j+1)) = V_(S hat) Z^(2^-1)


@lru_cache(maxsize=None)
def _gate(name: str, d: int) -> np.ndarray:
    """The read-only unitary of `_GATES[name]` on its own qudits, U|0> with a real
    positive first entry; odd-d H takes delta_d = (2/d) eps_d, which makes det H = 1."""
    S, a = _GATES[name]
    dims = Dims(d, len(S) // 2)
    half = mod_inverse(2, d) if d % 2 else 0
    U = clifford_from_affine(S, np.add(a, half * np.array(_HALF_SHIFTS.get(name, 0))), dims)
    if name == "H" and d % 2:
        U *= legendre(2, d) * _epsilon(d)
    U.setflags(write=False)
    return U


def _embed(op: np.ndarray, sites: tuple[int, ...], dims: Dims) -> np.ndarray:
    """Embed an operator acting on `sites` (1-based) into the N-qudit space."""
    d, N = dims.d, dims.N
    rest = [s for s in range(1, N + 1) if s not in sites]
    # op (x) 1 with axes out(sites, rest), in(sites, rest), each half permuted to site order
    full = np.tensordot(op, np.eye(d ** len(rest)), axes=0).transpose(0, 2, 1, 3)
    full = full.reshape((d,) * (2 * N))
    order = sorted(range(N), key=(list(sites) + rest).__getitem__)
    return full.transpose(order + [N + i for i in order]).reshape(dims.D, dims.D)


def gate_unitary(token: str, dims: Dims) -> np.ndarray:
    """Matrix for a word token like 'H@1', 'S†@2', 'CZ@1,2', 'CNOT@1,2', 'SWAP@1,2'.

    A one-qudit token without sites acts on qudit 1.  NotCliffordError for an
    unknown gate, or for sites that are not distinct integers in 1..N, one
    per qudit the gate acts on."""
    name, _, where = token.partition("@")
    dagger = name.endswith("†") or name.endswith("dag")
    name = name.removesuffix("†").removesuffix("dag")
    if name not in _GATES:
        raise NotCliffordError(f"unknown gate token {token!r}")
    arity = len(_GATES[name][0]) // 2
    sites = tuple(int(s) if s.isdecimal() else 0 for s in where.split(",")) if where else (1,)
    if len(sites) != arity or len(set(sites)) != arity or not all(0 < s <= dims.N for s in sites):
        raise NotCliffordError(f"gate token {token!r} needs {arity} distinct site(s) "
                               f"in 1..{dims.N}")
    if arity == 2 and dims.d != 2:
        raise NotCliffordError("two-qudit word tokens are qubit-only here")
    mat = _embed(_gate(name, dims.d), sites, dims)
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
# breadth-first closures and their exact keys

def _grid_keys(arr: np.ndarray) -> np.ndarray:
    """One exact key per leading entry of arr, as raw bytes: the real and
    imaginary parts of its entries, in C order, on the KEY_GRID grid."""
    grid = np.round(np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64) / KEY_GRID)
    return basis_keys(grid.astype(np.int64))


def _ray_keys(vecs: np.ndarray) -> np.ndarray:
    """One exact key per row of vecs, the same for every global phase: the
    row's `_grid_keys` after its first entry above SEARCH_LEAD_TOL is rotated
    onto the positive real axis."""
    return _grid_keys(phase_normalize(vecs, SEARCH_LEAD_TOL))


class _Closure:
    """The states of a breadth-first closure, by exact key.

    States 0 .. len(roots) - 1 are the roots; every later state i was reached
    from state parent[i] by generator generator[i].  `keys` holds the sorted
    keys of all states, with the state index at each position in `at`."""

    def __init__(self, roots: np.ndarray):
        self.at = np.argsort(roots, kind="stable")
        self.keys = roots[self.at]
        self.parent = self.generator = np.zeros(len(roots), dtype=np.intp)

    def __len__(self) -> int:
        return len(self.parent)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The state index of each key, or -1 where no state has it."""
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, self.at[pos], -1)

    def extend(self, keys: np.ndarray, base: int, G: int) -> np.ndarray:
        """Add the candidates with new keys and return their positions in
        `keys`.  Candidate j is generator j % G applied to state base + j // G,
        so `keys` runs in (state, generator) order; of equal new keys the
        first is kept."""
        uniq, first = np.unique(keys, return_index=True)
        pos = np.searchsorted(self.keys, uniq)  # sorted queries search faster
        new = self.keys[np.minimum(pos, len(self.keys) - 1)] != uniq
        uniq, first, pos = uniq[new], first[new], pos[new]
        fresh = np.sort(first)
        self.keys = np.insert(self.keys, pos, uniq)
        self.at = np.insert(self.at, pos, len(self) + np.searchsorted(fresh, first))
        self.parent = np.concatenate([self.parent, base + fresh // G])
        self.generator = np.concatenate([self.generator, fresh % G])
        return fresh


def _lineage(parent: np.ndarray, generator: np.ndarray, i: int) -> list[int]:
    """The generators that reach BFS node i from node 0, the last applied first."""
    out = []
    while i:
        out.append(generator.item(i))
        i = parent.item(i)
    return out


def _orbit_minima(maps: np.ndarray) -> tuple[np.ndarray, int]:
    """The lowest point of the orbit of every point of range(n) under the
    permutations `maps` (the rows of an (m, n) array), and the rounds taken.

    A round pulls to each point the smallest label across every permutation
    and its inverse, hands that label on to the point its old label names,
    and jumps each label to its label's label.  Labels only ever name points
    of their own orbit and only decrease, and a round that changes nothing
    leaves them constant on each orbit."""
    edges = list(maps) + [np.argsort(m) for m in maps]  # and their inverses
    labels, rounds = np.arange(maps.shape[1]), 0
    while True:
        pulled = labels.copy()
        for e in edges:
            np.minimum(pulled, labels[e], out=pulled)
        np.minimum.at(pulled, labels, pulled)
        pulled = pulled[pulled]
        rounds += 1
        if np.array_equal(pulled, labels):
            return labels, rounds
        labels = pulled


# ---------------------------------------------------------------------------
# group enumeration

def clifford_group_order(dims: Dims) -> int:
    """d^2N |Sp(2N, Z_d)|  (reduced group)."""
    return dims.n_points * symplectic_group_order(dims.d, dims.N)


def clifford_generator_words(dims: Dims) -> list[tuple[str, ...]]:
    if dims.N > 1 and dims.d != 2:
        raise UnsupportedDimensionError("multi-qudit generators implemented for qubits only")
    sites = range(1, dims.N + 1)
    return ([(f"{g}@{i}",) for i in sites for g in "HS"]
            + [(f"CZ@{i},{j}",) for i in sites for j in sites if i < j])


def _code_steps(g_codes: np.ndarray, d: int) -> np.ndarray:
    """steps[g, c]: the code of generator g applied after code c on some
    label, for every c below n_points * d, from g's codes on every label."""
    c = np.arange(g_codes.shape[1] * d)
    image = g_codes[:, c // d]
    return image - image % d + (image + c % d) % d


def _code_radix(dims: Dims) -> np.ndarray:
    """Digit weights that read the 2N unit-label codes, each below n * d, as
    one int64 key; (n * d)^(2N) fits in 63 bits for every group within the
    budget."""
    return (dims.n_points * dims.d) ** np.arange(2 * dims.N - 1, -1, -1)


def _group_bytes(dims: Dims, n_gens: int) -> int:
    """Peak bytes of the BFS that enumerates the reduced group.

    It holds the codes, the closure's four intp arrays (keys, their state
    indices, parent and generator) and the merged copy of one, the narrowed
    parent and generator, and one level's candidate block, bounded by the
    order: per candidate four int64 code blocks of 2N (its gathered codes and
    their transposed copy, counted twice) and four int64 (its key, and the
    copy, sort order and sorted key of `np.unique`)."""
    order, L = clifford_group_order(dims), 2 * dims.N
    code_size = np.min_scalar_type(dims.n_points * dims.d - 1).itemsize
    return order * (L * code_size + 5 * 8 + 8 + 1) + order * n_gens * (4 * L * 8 + 4 * 8)


def _class_bytes(order: int, n_y: int, L: int, G: int) -> int:
    """Peak bytes of `ReducedCliffordGroup.conjugacy_classes`, with these
    arrays counted as int64 and as alive at once: the action on the n_y
    labels y; the (order, G, L) blocks of conjugate codes and of their key
    digits; the group's int64 codes and keys, and the argsort, sorted keys
    and parent array of its `_Closure`; per conjugate its key, sort order,
    search position, found index, and its forward and inverse map; and four
    labels-sized arrays.  The lookup's other transients live while some of
    these are already freed."""
    return 8 * order * (n_y + 2 * G * L + L + 4 + 6 * G + 4)


class ReducedCliffordGroup:
    """The reduced Clifford group as integer arrays, in BFS order.

    Element 0 is the identity; element i > 0 is gen_words[generator[i]]
    applied after element parent[i], which lies on the previous BFS level.
    codes[i, j] = perm * d + k codes element i's action on the unit label
    e_(j+1), and offsets[l]:offsets[l + 1] is level l.  Words, (S, a), unitaries,
    conjugacy classes and each CliffordElement view are derived from these,
    uncached, when asked for."""

    def __init__(self, dims: Dims, gen_words: list[tuple[str, ...]], steps: np.ndarray,
                 codes: np.ndarray, parent: np.ndarray, generator: np.ndarray,
                 offsets: np.ndarray):
        self.dims = dims
        self.gen_words = gen_words
        self.steps = steps          # (G, n_points * d): `_code_steps` of the generators
        self.codes = codes          # (order, 2N), the smallest unsigned dtype holding n_points * d
        self.parent = parent        # (order,)
        self.generator = generator  # (order,) indices into gen_words
        self.offsets = offsets      # (levels + 1,)

    def __len__(self) -> int:
        return len(self.codes)

    def word(self, i: int) -> tuple[str, ...]:
        """The word of element i: its generator, then its parent's word."""
        chain = _lineage(self.parent, self.generator, i)
        return tuple(t for g in chain for t in self.gen_words[g])

    def affine(self, i=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(S, a) of element i, or of all: shapes (order, 2N, 2N), (order, 2N).
        The budget counts (S, a) of the elements asked for, with their int64
        transients."""
        codes, L = self.codes[i], 2 * self.dims.N
        check_budget(codes.size // L * (4 * L * L * 8 + 4 * L * 8),
                     f"(S, a) of the Clifford group for {self.dims}")
        return _affine_data(codes, self.dims)

    def unitary(self, i) -> np.ndarray:
        """The unitary of element i, an int or an index array, built from its
        codes by `_unitary_from_codes`."""
        return _unitary_from_codes(self.codes[i], self.dims)

    def actions(self, labels: np.ndarray) -> np.ndarray:
        """The (order, len(labels)) codes, in the codes' dtype, of every element
        on the labels with these list-like indices: labels * d for the identity,
        then one gather per BFS level.  The budget counts the output and the
        widest level's parent rows and gathered steps, as int64."""
        labels = np.arange(self.dims.n_points)[labels]
        n, widest = len(labels), np.diff(self.offsets).max()
        check_budget(len(self) * n * self.codes.itemsize + 2 * widest * n * 8,
                     f"the action of the Clifford group for {self.dims} on {n} labels")
        acts = np.empty((len(self), n), dtype=self.codes.dtype)
        acts[0] = labels * self.dims.d
        for lo, hi in zip(self.offsets[1:-1], self.offsets[2:]):
            acts[lo:hi] = self.steps[self.generator[lo:hi, None], acts[self.parent[lo:hi]]]
        return acts

    def conjugacy_classes(self) -> np.ndarray:
        """The class label of every element: the lowest BFS index in its
        conjugacy class, read off the codes exactly (see the module
        docstring).  The codes on y = perm_h^-1(e_i) are `actions`; those of
        the conjugates by each generator h are looked up among the group's
        keys; the labels are the orbit minima of those G permutations."""
        d, L, order, radix = self.dims.d, 2 * self.dims.N, len(self), _code_radix(self.dims)
        perm, k = np.divmod(self.steps[:, ::d], d)  # each generator on every label
        y = np.argsort(perm, axis=1)[:, d ** np.arange(L - 1, -1, -1)]  # (G, L)
        ys, at = np.unique(y, return_inverse=True)
        G, nd = self.steps.shape
        check_budget(_class_bytes(order, len(ys), L, G),
                     f"the conjugacy classes of the Clifford group for {self.dims}")
        acts = self.actions(ys)
        # digit[h, i, c]: the key digit of h g h^-1 on e_i when g has code c on y[h, i]
        high, low = np.divmod(self.steps[:, None], d)
        digit = (high * d + (low - np.take_along_axis(k, y, axis=1)[..., None]) % d
                 ) * radix[:, None]
        rows = np.arange(G * L).reshape(G, L) * nd
        keys = digit.ravel()[acts[:, at.reshape(G, L)] + rows].sum(axis=2).ravel()
        by_key = np.argsort(keys)  # sorted queries search the sorted keys faster
        maps = np.empty_like(by_key)
        maps[by_key] = _Closure(self.codes.astype(np.int64) @ radix).lookup(keys[by_key])
        if np.any(maps < 0):
            raise NotCliffordError("a conjugate by a generator left the enumerated group")
        return _orbit_minima(maps.reshape(order, G).T)[0]

    def __getitem__(self, i: int) -> CliffordElement:
        """Element i as a CliffordElement: its word from its lineage, the rest
        from its codes.  List-like: negative indices count from the end."""
        i = range(len(self))[i]
        return CliffordElement(self.unitary(i), *self.affine(i), self.dims, self.word(i))

    def __iter__(self):
        """The elements in order, their unitaries and (S, a) built a block at a time."""
        step = max(1, 2 ** 14 // self.dims.D ** 2)
        for lo in range(0, len(self), step):
            block = np.arange(lo, min(lo + step, len(self)))
            for i, U, S, a in zip(block.tolist(), self.unitary(block), *self.affine(block)):
                yield CliffordElement(U, S, a, self.dims, self.word(i))


@lru_cache(maxsize=None)
def _reduced_group_cached(d: int, N: int) -> ReducedCliffordGroup:
    dims = Dims(d, N)
    n, order = dims.n_points, clifford_group_order(dims)
    words = clifford_generator_words(dims)
    steps = _code_steps(np.array([_pauli_action(word_unitary(w, dims), dims, phase_points(dims))
                                  for w in words]), d)
    units, radix = d ** np.arange(2 * N - 1, -1, -1), _code_radix(dims)
    codes = np.empty((order, 2 * N), dtype=np.min_scalar_type(n * d - 1))
    codes[0] = units * d
    closure = _Closure(codes[:1].astype(np.int64) @ radix)
    offsets = [0, 1]
    while offsets[-1] > offsets[-2]:
        lo, hi = offsets[-2:]
        cand = steps[:, codes[lo:hi]].swapaxes(0, 1).reshape(-1, 2 * N)  # (element, generator)
        fresh = closure.extend(cand @ radix, lo, len(words))
        if len(closure) > order:
            raise NotCliffordError(f"closure exceeds the expected {order} elements")
        codes[hi:len(closure)] = cand[fresh]
        offsets.append(len(closure))
    if offsets[-1] != order:
        raise NotCliffordError(f"closure produced {offsets[-1]} elements, expected {order}")
    return ReducedCliffordGroup(dims, words, steps, codes,
                                closure.parent.astype(np.min_scalar_type(order - 1)),
                                closure.generator.astype(np.uint8), np.array(offsets[:-1]))


def enumerate_reduced_clifford(dims: Dims) -> ReducedCliffordGroup:
    """The reduced Clifford group as integer arrays, cached per (d, N): a
    sequence of CliffordElement views in BFS order, each derived when it is
    read.

    The budget check before the BFS counts the BFS alone; (S, a) and the
    unitaries read off the group later are checked by `affine` and `unitary`
    for the elements they are asked for."""
    words = clifford_generator_words(dims)
    check_budget(_group_bytes(dims, len(words)), f"the reduced Clifford group for {dims}")
    return _reduced_group_cached(dims.d, dims.N)


# ---------------------------------------------------------------------------
# finite unitary groups, projectors, twirling

def _products(gens: np.ndarray, frontier: np.ndarray, held: int = 0) -> np.ndarray:
    """Every gens[g] @ frontier[f], (F G, D, D) in (f, g) order: gens as rows, one gemm per f."""
    # the bytes the caller holds, the stack, its keys and the key-sized transients
    # of `_Closure.extend` (looked-up keys; new keys, their sorted copies, unique)
    check_budget(held + 6 * gens.size * len(frontier) * 16, "a finite group closure level")
    return np.matmul(gens.reshape(-1, gens.shape[-1]), frontier).reshape((-1,) + gens.shape[1:])


class FiniteUnitaryGroup:
    """A finite set of unitaries closed under multiplication with exact phases,
    `elements` an (n, D, D) array."""

    def __init__(self, elements, generators=()):
        self.elements = np.asarray(elements, dtype=np.complex128)
        self.generators = np.asarray(generators, dtype=np.complex128)

    @classmethod
    def generate(cls, generators) -> "FiniteUnitaryGroup":
        """The closure of the generators, in breadth-first order from the
        identity, each level one batched product keyed by `_grid_keys`.
        BudgetExceededError, from `_products`, before a level whose products
        and the elements held would pass MEMORY_BUDGET."""
        gens = np.asarray(generators, dtype=np.complex128)
        levels = [np.eye(gens.shape[1], dtype=np.complex128)[None]]
        closure = _Closure(_grid_keys(levels[0]))
        while len(levels[-1]):
            # the elements kept so far, their keys and the copy np.insert makes of them
            cand = _products(gens, levels[-1], 3 * len(closure) * gens[0].size * 16)
            base = len(closure) - len(levels[-1])
            levels.append(cand[closure.extend(_grid_keys(cand), base, len(gens))])
        return cls(np.concatenate(levels), gens)

    def __len__(self) -> int:
        return len(self.elements)

    def check_closed(self) -> None:
        gens = self.generators if len(self.generators) else self.elements
        products = _grid_keys(_products(gens, self.elements))
        if np.any(_Closure(_grid_keys(self.elements)).lookup(products) < 0):
            raise NonClosedGroupError("set is not closed under multiplication")


def group_projector(group: FiniteUnitaryGroup) -> np.ndarray:
    """Projector onto the jointly stabilized subspace: the group average."""
    group.check_closed()
    P = group.elements.mean(axis=0)
    if max(np.max(np.abs(P @ P - P)), np.max(np.abs(P - P.conj().T))) > GROUP_MATRIX_TOL:
        raise NonClosedGroupError("group average is not a projector")
    return P


def twirl(O, group: FiniteUnitaryGroup) -> np.ndarray:
    """Average of g O g^dag over the group; projects onto the commutant."""
    U = group.elements
    check_budget(3 * U.nbytes, "a group twirl")  # U O, U^dag and their product
    return (U @ np.asarray(O, dtype=np.complex128) @ U.conj().swapaxes(1, 2)).mean(axis=0)


def _degenerate_bases(w: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
    """An orthonormal basis of every degenerate eigenspace of a stack of
    `eigenpairs` (w, V), in (element, eigenvalue) order: the QR of the
    eigenvector columns of each cluster, listed at its first eigenvalue."""
    close = np.abs(w[:, :, None] - w[:, None, :]) < EIGEN_CLUSTER_TOL
    first = np.argmax(close, axis=-1) == np.arange(w.shape[1])
    leads = np.argwhere(first & (close.sum(axis=-1) > 1))
    return [np.linalg.qr(V[i][:, close[i, j]])[0] for i, j in leads]


def group_stabilizer_states(group: FiniteUnitaryGroup) -> list[np.ndarray]:
    """Rays uniquely stabilized, up to phase, by subgroups of `group`.

    Equivalently: one-dimensional joint eigenspaces of single elements or of
    pairs of elements (the phase needed to turn an eigenvector relation into
    exact stabilization lives in the eigenphase extension of the group).
    Phase classes share eigenspaces, so one `eigenpairs` call decomposes the
    first element g of each, and one more per distinct degenerate eigenspace
    E the restrictions E^dag g E that are unitary (g preserves E).  Rays are
    phase-normalized, in order of first appearance.
    """
    els = group.elements
    first = np.unique(_ray_keys(els.reshape(len(els), -1)), return_index=True)[1]
    reps = els[np.sort(first)]
    w, V, single = eigenpairs(reps)
    rays = [V.swapaxes(1, 2)[single]]
    spaces = _degenerate_bases(w, V)
    projectors = np.array([E @ E.conj().T for E in spaces]).reshape((-1,) + reps.shape[1:])
    for i in np.sort(np.unique(_grid_keys(projectors), return_index=True)[1]):
        E = spaces[i]
        sub = E.conj().T @ reps @ E
        drift = np.abs(sub.conj().swapaxes(1, 2) @ sub - np.eye(E.shape[1])).max(axis=(1, 2))
        _, F, kept_single = eigenpairs(sub[drift <= UNITARY_TOL])
        rays.append((E @ F).swapaxes(1, 2)[kept_single])
    rays = np.concatenate(rays)
    first = np.unique(_ray_keys(rays), return_index=True)[1]
    return list(phase_normalize(rays[np.sort(first)]))


# ---------------------------------------------------------------------------
# eigenstates

def eigenpairs(U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues w (n, D), unit eigenvectors V (n, D, D; column i belongs
    to w[:, i]) and the mask (n, D) of eigenvalues whose cluster within
    EIGEN_CLUSTER_TOL is a singleton, for a stack of n unitaries of shape
    (n, D, D).

    A singleton eigenvalue of a normal matrix has a one-dimensional
    eigenspace, so its eigenvector is unique up to phase.
    """
    U = np.asarray(U, dtype=np.complex128)
    if np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1]))) > UNITARY_TOL:
        raise ValueError("eigenstate extraction requires a unitary input")
    w, V = np.linalg.eig(U)
    single = np.sum(np.abs(w[..., :, None] - w[..., None, :]) < EIGEN_CLUSTER_TOL, axis=-1) == 1
    return w, V, single


def nondegenerate_eigenstates(C, dims: Dims) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a unitary whose eigenvalue cluster is one-dimensional, in
    `np.linalg.eig`'s order (not by eigenvalue), eigenvectors phase-normalized."""
    U = np.asarray(C, dtype=np.complex128)
    if U.shape != (dims.D, dims.D):
        raise DimensionMismatchError(f"expected a {dims.D}x{dims.D} unitary, got {U.shape}")
    w, V, single = eigenpairs(U[None])
    return list(zip(w[0, single[0]].tolist(), phase_normalize(V[0].T[single[0]])))


# ---------------------------------------------------------------------------
# Clifford equivalence search

def class_keys(overlaps: np.ndarray) -> np.ndarray:
    """The Clifford-class key of each row of stabilizer overlaps |<s|psi>|^2:
    the row sorted, as int64 multiples of 10^-OVERLAP_DECIMALS (np.round's grid)."""
    return np.rint(np.sort(overlaps, axis=-1) * 10 ** OVERLAP_DECIMALS).astype(np.int64)


def clifford_equivalence_search(psi1: np.ndarray, psi2: np.ndarray, dims: Dims,
                                budget: int):
    """Search for a generator word mapping psi1 to psi2 up to global phase.

    A deterministic meet-in-the-middle search over the generator alphabet
    (the generators and the inverses that differ from them), level-synchronous
    from both ends: the forward side applies the alphabet to psi1, the
    backward side its inverses to psi2, and they alternate a level each.  A
    level is one batched product of the frontier with the alphabet, its
    candidates in (frontier, generator) order; each is keyed by `_ray_keys`
    (its phase-normalized vector on the `tolerances.KEY_GRID` grid, 1e-8),
    and the first candidate with a new key is kept.  `budget` caps the
    candidates over both sides, and the level that reaches it is cut there.
    A key reached from both ends gives the word (backward generators, first
    applied leftmost) + (forward word), verified before it is returned.  None
    means inconclusive, not inequivalence.  States that are not both length-D
    vectors raise DimensionMismatchError.
    """
    D = dims.D
    psi1, psi2 = (np.asarray(psi, dtype=np.complex128) for psi in (psi1, psi2))
    if psi1.shape != (D,) or psi2.shape != (D,):
        raise DimensionMismatchError(
            f"states of shapes {psi1.shape} and {psi2.shape} are not both vectors on {dims}")
    if equal_up_to_phase(psi1, psi2):
        return ()
    words = clifford_generator_words(dims)
    words += [invert_word(w, dims.d) for w in words if invert_word(w, dims.d) != w]
    G = len(words)
    # keys of every stored state, one side's copy while it grows, the frontier,
    # and one level block (budget + G - 1 vectors at most) with 3 key transients
    check_budget((3 * budget + 4 * (budget + G)) * D * 16,
                 f"a Clifford equivalence search on {dims} with budget {budget}")
    stack = np.array([word_unitary(w, dims) for w in words])
    stacks, frontiers = (stack, stack.conj().swapaxes(1, 2)), [psi1[None], psi2[None]]
    fwd, bwd = (_Closure(_ray_keys(f)) for f in frontiers)
    expansions = 0
    while expansions < budget and (len(frontiers[0]) or len(frontiers[1])):
        for n, (side, other) in enumerate(((fwd, bwd), (bwd, fwd))):
            base = len(side) - len(frontiers[n])  # the frontier is the last level
            rows = frontiers[n][:-(-(budget - expansions) // G)]  # those the budget allows
            block = np.einsum("gij,fj->fgi", stacks[n], rows).reshape(-1, D)[:budget - expansions]
            expansions += len(block)
            keys, at = _ray_keys(block), len(side)
            fresh = side.extend(keys, base, G)
            frontiers[n] = block[fresh]
            met = other.lookup(keys[fresh])
            for j in np.flatnonzero(met >= 0):
                i_fwd, i_bwd = (at + j, met[j]) if side is fwd else (met[j], at + j)
                chain = _lineage(bwd.parent, bwd.generator, i_bwd)[::-1]
                chain += _lineage(fwd.parent, fwd.generator, i_fwd)
                word = tuple(t for g in chain for t in words[g])
                if equal_up_to_phase(word_unitary(word, dims) @ psi1, psi2):
                    return word
            if expansions >= budget:
                break
    return None


_QUBIT_INVOLUTIONS = {"H", "Z", "X", "CZ", "CNOT", "SWAP"}


def invert_word(word: tuple, d: int) -> tuple:
    """Token-wise inverse in reverse order, for qudit dimension d.  On qubits
    H, X, Z and the two-qubit gates are involutions and stay as they are; any
    other token takes a dagger or drops the one it has.  For odd d, H^2 is
    the parity and X^2, Z^2 are not 1, so every token does."""
    out = []
    for t in reversed(word):
        name, sep, where = t.partition("@")
        base = name.removesuffix("†").removesuffix("dag")
        if d == 2 and name in _QUBIT_INVOLUTIONS:
            out.append(t)
        else:  # drop the dagger, or add one
            out.append((base if base != name else name + "†") + sep + where)
    return tuple(out)

