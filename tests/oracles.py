"""Dense Weyl-Heisenberg references and other slow oracles for the tests.

The package never builds a table of all d^(2N) operators: its transforms are
index gathers and character sums.  The tables below stack every T_chi and
every A_chi as a (d^(2N), D, D) array in lexicographic point order, so the
tests can check operator identities exhaustively and compare the table-free
transforms against plain contractions.  They cost O(D^4) memory and are
cached per (d, N).  Each operator is a Kronecker product of single-qudit
factors, whose phases come from their own exact exponents, so the tables are
independent of the transform plan they check.  `take_along_displace` is
`weyl.displace` with the gather it had before its flat `take`.
`span_elements` lists the points of an isotropic subspace from its basis, and
`random_clifford` draws a Clifford from random (S, a) for covariance checks on
dims whose group is not enumerated.  The gates written out (the qubit
literals, delta_d and the closed-form odd-d H, S, X, Z, CZ, SWAP and SUM, with
`literal_gate_unitary` embedding them) and the Gauss-sum formula of the
metaplectic map are references for the gates that `clifford` builds from
affine data.  The brute-force
Sp(2, Z_d) enumeration is a reference for the single-qudit Clifford tests,
the stack of every reduced-group unitary as a lineage product of its
generator words, for `ReducedCliffordGroup.unitary`, its conjugation by the
generators, keyed by floats, for `.conjugacy_classes`, the per-element
closure loop for `FiniteUnitaryGroup.generate`, the per-pair eigenspace loop for
`group_stabilizer_states`, the per-vector scalar phase of
`weyl.phase_normalize`, the per-entry L form for `extremality.l_matrix`,
the Wigner functions and nearest-state forms of
the dense operators sigma and mu for `extremality.mana_expansion` and
`extremality.fidelity_expansion`, the nine Weyl-Heisenberg kernels of psi,
sigma and phi for `extremality.xi2_expansion`, the plain ADMM loop, with no active-set
polish, for `extent.solve_extent`, and the Kronecker products of Pauli
matrices at the end for the five-qubit code's generators in
`distill.code_projector`, followed by the 4^5 = 1024-dimensional pair-basis
route of `distill.logical_density`: the logical pair vectors as (1024, 4)
columns, contracted with the five pair densities one pair axis at a time.
"""

import itertools
from functools import lru_cache, reduce
from math import comb

import numpy as np

from quditmagic.clifford import (_embed, _epsilon, _ray_keys, clifford_from_affine, legendre,
                                 word_unitary)
from quditmagic.distill import PairParams, _pairs, logical_t_states, pair_basis
from quditmagic.errors import BudgetExceededError, InfeasibleExtentError
from quditmagic.extent import ExtentProblem, ExtentSolution
from quditmagic.extremality import CriticalReport
from quditmagic.measures import wigner_function
from quditmagic.phasespace import Dims, lex_grid, mod_inverse, phase_points, symplectic_form
from quditmagic.stabilizers import max_overlap
from quditmagic.tolerances import (COEFF_TOL, EIGEN_CLUSTER_TOL, EXTENT_TOL, FEASIBILITY_TOL,
                                   GRAM_CUTOFF, GROUP_MATRIX_TOL, WIGNER_ZERO_TOL)
from quditmagic.weyl import phase_normalize, tau_exponent, transform_plan, unit_phase


def point(p, q, dims: Dims) -> np.ndarray:
    """The phase-space point with p and q parts, reduced mod d."""
    return np.concatenate([np.atleast_1d(p), np.atleast_1d(q)]).astype(np.int64) % dims.d


def split_point(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat point into its (p, q) halves."""
    chi = np.asarray(chi)
    n = chi.shape[-1] // 2
    return chi[..., :n], chi[..., n:]


def span_elements(basis: np.ndarray, d: int) -> np.ndarray:
    """All d^k points in the span of k basis rows, lexicographic in coefficients;
    a stack of bases (..., k, 2N) gives a stack of spans (..., d^k, 2N)."""
    basis = np.asarray(basis, dtype=np.int64)
    return lex_grid(d, basis.shape[-2]) @ basis % d


def zeta(d: int) -> complex:
    return unit_phase(1, 2 * d)


@lru_cache(maxsize=None)
def _single_displacements(d: int) -> np.ndarray:
    """Single-qudit T_(p,q) as a read-only (d, d, d, d) array indexed [p, q],
    each entry one root of unity from its exact exponent."""
    singles = np.zeros((d, d, d, d), dtype=np.complex128)
    for p, q, j in np.ndindex(d, d, d):
        if d == 2:
            singles[p, q, (p + j) % d, j] = zeta(2) ** ((p * q) % 4) * unit_phase(q * j, d)
        else:  # tau^(p q) omega^(q j) = omega^(t p q + q j)
            singles[p, q, (p + j) % d, j] = unit_phase(tau_exponent(d) * p * q + q * j, d)
    singles.setflags(write=False)
    return singles


def kron_displacement(chi, dims: Dims) -> np.ndarray:
    """T_chi as the Kronecker product of its single-qudit factors, with no
    use of the transform plan that `weyl.displacement_matrix` reads."""
    p, q = split_point(np.asarray(chi, dtype=np.int64) % dims.d)
    return reduce(np.kron, _single_displacements(dims.d)[p, q])


def take_along_displace(chi, vectors, dims: Dims) -> np.ndarray:
    """`weyl.displace` with its former gather, `np.take_along_axis` over an
    index broadcast to the output, which builds index arrays of its size."""
    d, N = dims.d, dims.N
    plan = transform_plan(d, N)
    chi = np.asarray(chi, dtype=np.int64) % d
    place = d ** np.arange(N - 1, -1, -1)
    p, q = chi[..., :N] @ place, chi[..., N:] @ place
    vals = (plan.phases[p, q][..., None] * plan.characters[q]
            * np.asarray(vectors, dtype=np.complex128))
    return np.take_along_axis(vals, np.broadcast_to(plan.minus.T[p], vals.shape), axis=-1)


@lru_cache(maxsize=None)
def _displacement_table(d: int, N: int) -> np.ndarray:
    dims = Dims(d, N)
    table = np.array([kron_displacement(chi, dims) for chi in phase_points(dims)])
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


# the gate matrices written out, as `clifford` built them before every gate
# became a row of affine data read by `clifford_from_affine`
QUBIT_GATES = {"H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2),
               "S": np.diag([1.0, 1j]).astype(np.complex128),
               "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
               "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128)}
TWO_QUBIT_GATES = {"CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128),
                   "CNOT": np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]],  # rows permuted
                   "SWAP": np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]}


def delta_d(d: int) -> complex:
    """Hadamard normalization phase by residue of d mod 8 (odd d)."""
    return {1: 1.0 + 0j, 3: -1j, 5: -1.0 + 0j, 7: 1j}[d % 8]


def closed_form_gate(name: str, d: int) -> np.ndarray:
    """A named gate in closed form: for odd d, H = (delta_d / sqrt d)
    sum_jk omega^(jk) |j><k|, S = sum_j tau^(j(j+1)) |j><j|, X and Z the
    displacements T_(1,0) and T_(0,1), CZ = sum_jk omega^(jk) |jk><jk|, SWAP
    and CNOT = SUM |j, k> -> |j, j + k>; the qubit literals for d = 2."""
    if d == 2:
        return {**QUBIT_GATES, **TWO_QUBIT_GATES}[name]
    if name in TWO_QUBIT_GATES:
        j, k = np.divmod(np.arange(d * d), d)
        if name == "CZ":
            return np.diag([unit_phase(x, d) for x in j * k % d])
        image = k * d + j if name == "SWAP" else j * d + (j + k) % d
        return np.eye(d * d, dtype=np.complex128)[:, image]
    if name == "H":
        jk = np.outer(np.arange(d), np.arange(d)) % d
        return delta_d(d) / np.sqrt(d) * np.exp(2j * np.pi * jk / d)
    if name == "S":
        return np.diag([unit_phase(tau_exponent(d) * j * (j + 1), d) for j in range(d)])
    return kron_displacement((1, 0) if name == "X" else (0, 1), Dims(d, 1))


def literal_gate_unitary(token: str, dims: Dims) -> np.ndarray:
    """`clifford.gate_unitary` from the written-out gates: the token's matrix
    embedded on its sites by `clifford._embed`, conjugated for a dagger."""
    name, _, where = token.partition("@")
    base = name.removesuffix("†").removesuffix("dag")
    sites = tuple(int(s) for s in where.split(",")) if where else (1,)
    mat = _embed(closed_form_gate(base, dims.d), sites, dims)
    return mat.conj().T if base != name else mat


def gauss_sum_metaplectic(F, d: int) -> np.ndarray:
    """The metaplectic image V_F of F = [[a, b], [c, e]] in SL(2, Z_d), odd d,
    from its Gauss-sum formula (Gross, quant-ph/0602001; Appleby,
    quant-ph/0412001): for b != 0,
        V_F = (-2b/d) eps_d / sqrt d sum_jk omega^((a k^2 - 2jk + e j^2) / 2b) |j><k|,
    and for b = 0, V_F = (a/d) sum_k omega^(a c k^2 / 2) |a k><k|."""
    a, b, c, e = (int(x) % d for x in np.ravel(F))
    j, k = np.arange(d)[:, None], np.arange(d)
    roots = np.array([unit_phase(x, d) for x in range(d)])
    if b:
        coeff = legendre(-2 * b, d) * _epsilon(d) / np.sqrt(d)
        return coeff * roots[(a * k * k - 2 * j * k + e * j * j) * mod_inverse(2 * b, d) % d]
    V = np.zeros((d, d), dtype=np.complex128)
    V[a * k % d, k] = legendre(a, d) * roots[a * c * k * k * mod_inverse(2, d) % d]
    return V


def generator_unitaries(group) -> np.ndarray:
    """The (G, D, D) unitaries of a ReducedCliffordGroup's generator words."""
    return np.array([word_unitary(w, group.dims) for w in group.gen_words])


def random_clifford(dims: Dims, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, S, a): S a product of 4N random symplectic transvections
    x -> x + c <v, x> v mod d, a random, and U = clifford_from_affine(S, a),
    which needs no enumerated group."""
    L, J = 2 * dims.N, symplectic_form(dims.N)
    S = np.eye(L, dtype=np.int64)
    for _ in range(2 * L):
        v, c = rng.integers(0, dims.d, size=L), rng.integers(1, dims.d) if dims.odd else 1
        S = (S + c * np.outer(v, v @ J) @ S) % dims.d
    a = rng.integers(0, dims.d, size=L)
    return clifford_from_affine(S, a, dims), S, a


def clifford_unitary_stack(group) -> np.ndarray:
    """The (order, D, D) unitaries of a ReducedCliffordGroup as lineage
    products, filled level by level in blocks of 4096: each block one batched
    product of its generators and its parents, read back from the stack."""
    gens = generator_unitaries(group)
    U = np.empty((len(group),) + gens.shape[1:], dtype=np.complex128)
    U[0] = np.eye(group.dims.D)
    for lo, hi in zip(group.offsets[1:-1], group.offsets[2:]):
        for start in range(lo, hi, 4096):
            block = slice(start, min(start + 4096, hi))
            np.matmul(gens[group.generator[block]], U[group.parent[block]], out=U[block])
    return U


def conjugation_maps(group) -> np.ndarray:
    """(2G, order) for a ReducedCliffordGroup: the index of h U h^dag, then
    of h^dag U h, for every generator h and element U, found by matching the
    dense products by their `_ray_keys` (entries up to a global phase)."""
    U = clifford_unitary_stack(group)
    index = {key: i for i, key in enumerate(_ray_keys(U.reshape(len(U), -1)).tolist())}
    maps = []
    for h in generator_unitaries(group):
        for conj in (h @ U @ h.conj().T, h.conj().T @ U @ h):
            maps.append([index[key] for key in _ray_keys(conj.reshape(len(U), -1)).tolist()])
    return np.array(maps)


def conjugacy_class_labels(group) -> np.ndarray:
    """The lowest index in each element's conjugacy class, by walking the
    orbits of `conjugation_maps` one element at a time."""
    maps = conjugation_maps(group)
    labels = np.full(len(group), -1)
    for i in range(len(group)):
        if labels[i] < 0:
            labels[i], todo = i, [i]
            while todo:
                for j in maps[:, todo.pop()]:
                    if labels[j] < 0:
                        labels[j] = i
                        todo.append(j)
    return labels


def generate_group(generators, max_order: int = 20000) -> list[np.ndarray]:
    """The closure of the generators one product at a time, breadth-first
    from the identity; each element is keyed by its real and imaginary parts
    on the 1e-8 grid, and the first product with a new key is kept."""
    def key(V):
        return np.round(V.view(np.float64) / 1e-8).astype(np.int64).tobytes()

    gens = [np.asarray(g, dtype=np.complex128) for g in generators]
    eye = np.eye(gens[0].shape[0], dtype=np.complex128)
    seen = {key(eye): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for U in frontier:
            for G in gens:
                V = G @ U
                k = key(V)
                if k not in seen:
                    if len(seen) >= max_order:
                        raise BudgetExceededError("group closure exceeds budget")
                    seen[k] = V
                    nxt.append(V)
        frontier = nxt
    return list(seen.values())


def eigenspaces(U: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of the eigenspaces of a unitary: eigenvalues are
    clustered within EIGEN_CLUSTER_TOL, and each cluster of size k spans the
    null space of U - lambda I, read off as its k smallest right singular
    vectors."""
    U = np.asarray(U, dtype=np.complex128)
    evals = np.linalg.eigvals(U)
    eye = np.eye(U.shape[0])
    remaining = list(range(evals.shape[0]))
    spaces = []
    while remaining:
        i = remaining[0]
        idx = [j for j in remaining if abs(evals[j] - evals[i]) < EIGEN_CLUSTER_TOL]
        remaining = [j for j in remaining if j not in idx]
        _, _, vh = np.linalg.svd(U - np.mean(evals[idx]) * eye)
        spaces.append(vh[-len(idx):].conj().T)
    return spaces


def group_stabilizer_states(group) -> list[np.ndarray]:
    """The one-dimensional joint eigenspaces of single elements and of pairs
    of elements of a FiniteUnitaryGroup, one `eigenspaces` call per element
    and per (element, element) pair, phases included; the rays in order of
    first appearance, each phase-normalized."""
    spaces_per_element = [eigenspaces(u) for u in group.elements]
    rays = [E[:, 0] for spaces in spaces_per_element for E in spaces if E.shape[1] == 1]
    for (s1, u2) in itertools.product(spaces_per_element, group.elements):
        for E in s1:
            if E.shape[1] < 2:
                continue
            sub = E.conj().T @ u2 @ E
            if np.max(np.abs(sub.conj().T @ sub - np.eye(E.shape[1]))) > GROUP_MATRIX_TOL:
                continue  # u2 does not preserve this eigenspace
            rays += [E @ F[:, 0] for F in eigenspaces(sub) if F.shape[1] == 1]
    if not rays:
        return []
    first = np.unique(_ray_keys(np.array(rays)), return_index=True)[1]
    return [phase_normalize(rays[i]) for i in np.sort(first)]


def scalar_phase_normalize(v: np.ndarray, tol: float) -> np.ndarray:
    """One vector divided by the phase of its first entry above tol, taken
    with the scalar abs(); a vector with none is returned as it is."""
    idx = np.flatnonzero(np.abs(v) > tol)
    return v / (v[idx[0]] / abs(v[idx[0]])) if idx.size else v.copy()


def ell_form(psi, directions, nearest_states) -> np.ndarray:
    """<b_j|s_i><s_i|psi> for every nearest state s_i and direction b_j, one
    pair of `np.vdot` calls per entry."""
    return np.array([[np.vdot(b, s) * np.vdot(s, psi) for b in directions]
                     for s in nearest_states])


def mana_expansion(frame):
    """(linear, quadratic, pattern_ok) of the Wigner trace norm along a
    PerturbationFrame, from the Wigner functions of the D x D operators
    |psi><psi|, sigma and mu."""
    dims = frame.dims
    Wpsi = wigner_function(np.outer(frame.base, frame.base.conj()), dims).values
    Wsig = wigner_function(frame.sigma, dims).values
    Wmu = wigner_function(frame.mu, dims).values
    zero = np.abs(Wpsi) <= WIGNER_ZERO_TOL
    linear = float(np.sum(np.abs(Wsig[zero])))
    pattern_ok = bool(np.all(np.abs(Wsig[zero]) <= COEFF_TOL))
    signs = np.sign(Wpsi) * (~zero)
    quadratic = float(signs @ Wmu + np.sum(np.abs(Wmu[zero & (np.abs(Wsig) <= WIGNER_ZERO_TOL)])))
    return linear, quadratic, pattern_ok


def classify_mana(frame) -> CriticalReport:
    """The mana report of the dense expansion, by its own ladder."""
    linear, quadratic, _ = mana_expansion(frame)
    if linear > COEFF_TOL:
        return CriticalReport("mana", "sharp_min", 1, linear)
    if quadratic < -COEFF_TOL:
        return CriticalReport("mana", "smooth_max", 2, quadratic)
    if quadratic > COEFF_TOL:
        return CriticalReport("mana", "smooth_min", 2, quadratic)
    return CriticalReport("mana", "flat", 2, quadratic)


def fidelity_expansion(frame, dictionary) -> CriticalReport:
    """The fidelity report from 2 Re <phi|s><s|psi> and <s|mu|s> of each
    nearest state s, one `np.vdot` and one product with the dense mu each."""
    _, nearest = max_overlap(frame.base, dictionary)
    linear = np.array([2 * np.real(np.vdot(frame.direction, s.vector)
                                   * np.vdot(s.vector, frame.base))
                       for s in nearest])
    if np.max(np.abs(linear)) > COEFF_TOL:
        return CriticalReport("fidelity", "sharp_min", 1, float(np.max(np.abs(linear))))
    quad = np.array([np.real(np.vdot(s.vector, frame.mu @ s.vector)) for s in nearest])
    top = float(np.max(quad))
    if top < -COEFF_TOL:
        return CriticalReport("fidelity", "smooth_max", 2, top)
    if top > COEFF_TOL:
        return CriticalReport("fidelity", "smooth_min", 2, top)
    return CriticalReport("fidelity", "flat", 2, top)


def xi2_expansion(frame):
    """Xi_2^(0..8) from the nine Weyl-Heisenberg kernels K_chi(A, B) of the
    dense operators |psi><psi|, sigma and |phi><phi|."""
    dims = frame.dims
    ops = {"psi": np.outer(frame.base, frame.base.conj()),
           "sig": frame.sigma,
           "phi": np.outer(frame.direction, frame.direction.conj())}
    K = {(a, b): kernel_all(ops[a], ops[b], dims) for a in ops for b in ops}
    P = [K["psi", "psi"],
         K["psi", "sig"] + K["sig", "psi"],
         K["psi", "phi"] + K["sig", "sig"] + K["phi", "psi"],
         K["phi", "sig"] + K["sig", "phi"],
         K["phi", "phi"]]
    P = [np.real(x) for x in P]
    xt = [sum(float(np.sum(P[i] * P[n - i])) for i in range(max(0, n - 4), min(n, 4) + 1))
          for n in range(9)]
    return np.array([sum(comb(i + 3, 3) * (-1) ** i * xt[n - 2 * i] for i in range(n // 2 + 1))
                     for n in range(9)])


def _soft_threshold(z: np.ndarray, kappa: float) -> np.ndarray:
    mag = np.abs(z)
    scale = np.maximum(mag - kappa, 0.0)
    out = np.zeros_like(z)
    nz = mag > 0
    out[nz] = z[nz] / mag[nz] * scale[nz]
    return out


def admm_extent(problem: ExtentProblem, tol: float = EXTENT_TOL,
                max_iter: int = 100_000) -> ExtentSolution:
    """The extent solver before its active-set polish: scaled, over-relaxed
    ADMM that stops only when its own iterate closes the duality gap."""
    A = problem.dictionary.T
    b = problem.target.astype(np.complex128)
    D, K = A.shape
    Ah = A.conj().T
    gram = A @ Ah
    w, V = np.linalg.eigh(gram)
    keep = w > max(w.max(), 1.0) * GRAM_CUTOFF
    pinv = (V[:, keep] / w[keep]) @ V[:, keep].conj().T
    b_span = A @ (Ah @ (pinv @ b))
    if np.linalg.norm(b_span - b) > FEASIBILITY_TOL:
        raise InfeasibleExtentError(
            f"the target misses the dictionary span by "
            f"{np.linalg.norm(b_span - b):.2e}"
        )

    def project_affine(v: np.ndarray) -> np.ndarray:
        return v - Ah @ (pinv @ (A @ v - b))

    alpha = 1.6
    x = Ah @ (pinv @ b)
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


PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_string(spec: str) -> np.ndarray:
    """The Kronecker product of the Pauli matrices named by the letters of
    spec, first letter on the first qubit: 'XZZXI' -> X (x) Z (x) Z (x) X (x) I."""
    return reduce(np.kron, [PAULI[ch] for ch in spec], np.ones((1, 1), dtype=np.complex128))


@lru_cache(maxsize=1)
def logical_pair_vectors() -> np.ndarray:
    """Columns L[:, n]: the logical pair basis, expressed in the 1024-dim
    physical pair-basis coordinates of the five pairs.

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
    return _act_on_pairs([np.array(basis).conj()] * 5, L_pairmajor)


def _act_on_pairs(ops: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """(ops[0] x ... x ops[4]) X for 4x4 ops and X of shape (1024, m), applied
    one pair axis at a time, so no 1024 x 1024 Kronecker product is formed."""
    X = X.reshape((4,) * 5 + (-1,))
    for axis, op in enumerate(ops):
        X = np.moveaxis(np.tensordot(op, X, axes=([1], [axis])), 0, axis)
    return X.reshape(1024, -1)


def logical_density(params: list[PairParams]) -> np.ndarray:
    """L^dag (rho_1 x ... x rho_5) L for the logical pair vectors L."""
    L = logical_pair_vectors()
    return L.conj().T @ _act_on_pairs([p.density() for p in params], L)


def distill_step(params: list[PairParams]) -> tuple[PairParams, float]:
    """`distill.distill_step` on the 1024-dimensional route."""
    rho_L = logical_density(params)
    p_success = float(np.real(np.trace(rho_L)))
    return PairParams.from_density(rho_L / p_success), p_success
