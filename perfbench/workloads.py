"""The benchmark's workloads: seeded inputs, timed operations and checks.

Every input comes from the workload seed; the package only ever receives the
generated states, frames and command lines.  Every check returns a list of
problems, empty when the result is correct, and runs outside the timed
region.

measure-scan  warm, in one process: the measure bundle of many states over a
              ladder of (d, N) on tables and dictionaries built in set-up.
large-d-cold  one fresh process per pass: one-shot measures at large D and
              perturbation expansions, table builds included.
clifford-cli  one fresh process per `quditmagic` command: Clifford
              enumeration, catalog verification, extent, search, distillation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

import quditmagic as qm
from quditmagic import catalog, distill, stabilizers
from quditmagic.phasespace import Dims

# Haar-random states per rung of measure-scan.  A small-D bundle costs about
# 0.2 ms, (2,4) about 0.75 ms, (5,2), (3,3) and (2,5) 6-10 ms and (2,6) about
# 200 ms.  With the 62 catalog states these counts put the median inside the
# small-D ops and the 90th percentile in the middle of the (3,3) ops, so
# neither percentile sits on a boundary between groups of very different cost.
SCAN_HAAR = {(3, 1): 24, (5, 1): 24, (2, 2): 24, (3, 2): 24, (2, 3): 24,
             (2, 4): 16, (3, 3): 16, (5, 2): 16, (2, 5): 16, (2, 6): 2}
# rungs whose stabilizer dictionary fits the budget get the fidelity too
FIDELITY_RUNGS = ((3, 1), (5, 1), (2, 2), (3, 2), (2, 3))

COLD_RUNGS = ((2, 4), (3, 3), (5, 2), (2, 5), (2, 6))
FRAME_RUNGS = ((5, 1), (3, 2), (2, 3), (2, 4))

EIGEN_CLASSES = {"3,1": 4, "5,1": 8, "2,2": 8}
EXTENT_STATES = ("3q:W", "3q:TOF", "2q:G20,1")
EXTENT_TOL = 1e-8
DISTILL_EPS3 = (0.0, 0.2, 0.01)
DISTILL_ROUNDS = 5

ID_TOL = 1e-10    # identities that hold to rounding
CAT_TOL = 1e-9    # tabulated catalog values
TIE_TOL = 1e-9    # argmax ties, as in the package
SERIES_EPS = 0.01


def haar_state(rng: np.random.Generator, D: int) -> np.ndarray:
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    return v / np.linalg.norm(v)


def label(dims: Dims) -> str:
    return f"{dims.d},{dims.N}"


# ---------------------------------------------------------------------------
# measure-scan

@dataclass
class ScanState:
    name: str
    dims: Dims
    psi: np.ndarray
    rho: np.ndarray          # depolarized density matrix for mixed_sre2
    depol: float
    fidelity: bool
    catalog_name: str | None = None


def scan_states(seed: int) -> list[ScanState]:
    """Haar-random states on every rung, then every catalog state of a rung."""
    rng = np.random.default_rng(seed)

    def make(name, dims, psi, catalog_name=None):
        p = float(rng.uniform(0.05, 0.5))
        rho = (1 - p) * np.outer(psi, psi.conj()) + p * np.eye(dims.D) / dims.D
        return ScanState(name, dims, psi, rho, p,
                         (dims.d, dims.N) in FIDELITY_RUNGS, catalog_name)

    out = []
    for (d, N), count in SCAN_HAAR.items():
        dims = Dims(d, N)
        for _ in range(count):
            out.append(make(f"haar {label(dims)}", dims, haar_state(rng, dims.D)))
    for name, e in catalog.entries().items():
        if (e.dims.d, e.dims.N) in SCAN_HAAR:
            out.append(make(f"catalog {label(e.dims)}", e.dims, e.build(), name))
    return out


def scan_setup() -> None:
    """Run the bundle once per rung on |0...0>, which builds every table and
    dictionary the scan uses, whatever the package caches (counted in setup_s)."""
    for d, N in SCAN_HAAR:
        dims = Dims(d, N)
        psi = np.zeros(dims.D, dtype=np.complex128)
        psi[0] = 1
        scan_bundle(ScanState("setup", dims, psi, np.outer(psi, psi), 0.0,
                              (d, N) in FIDELITY_RUNGS))


def scan_bundle(s: ScanState) -> dict:
    """One operation: the measure bundle of one state."""
    out = {}
    if s.fidelity:
        F, nearest = qm.stabilizer_fidelity(s.psi, dims=s.dims)
        out["F"], out["nearest"] = F, len(nearest)
    out["M2"] = qm.sre(s.psi, s.dims, 2.0)
    out["M3"] = qm.sre(s.psi, s.dims, 3.0)
    out["mixed_M2"] = qm.mixed_sre2(s.rho, s.dims)
    if s.dims.odd:
        out["mana"] = qm.mana(s.psi, s.dims)
    return out


def check_scan(s: ScanState, out: dict) -> list[str]:
    problems = []
    dims, D = s.dims, s.dims.D
    log_d = dims.N * math.log(dims.d)
    P = qm.pauli_distribution(s.psi, dims).probs
    if abs(P.sum() - 1) > ID_TOL:
        problems.append(f"sum P = {P.sum()!r}")
    for alpha, key in ((2, "M2"), (3, "M3")):
        ref = math.log(float(np.sum(P ** alpha))) / (1 - alpha) - log_d
        if abs(out[key] - ref) > ID_TOL:
            problems.append(f"{key} = {out[key]!r}, from P {ref!r}")
        if not -ID_TOL <= out[key] <= qm.sre_upper_bound(dims, alpha) + ID_TOL:
            problems.append(f"{key} = {out[key]!r} outside [0, bound]")
    # depolarizing keeps the identity label and shrinks the others by (1-p)
    q = 1 - s.depol
    ref = -math.log((1 + q ** 4 * (D * math.exp(-out["M2"]) - 1))
                    / (1 + q ** 2 * (D - 1)))
    if abs(out["mixed_M2"] - ref) > CAT_TOL:
        problems.append(f"mixed_M2 = {out['mixed_M2']!r}, expected {ref!r}")
    if dims.odd:
        W = qm.wigner_function(s.psi, dims).values
        if abs(W.sum() - 1) > ID_TOL:
            problems.append(f"sum W = {W.sum()!r}")
        if abs(out["mana"] - math.log(np.abs(W).sum())) > ID_TOL:
            problems.append(f"mana = {out['mana']!r}")
    if s.fidelity:
        ov = stabilizers.enumerate_stabilizer_states(dims).overlaps(s.psi)
        best = float(ov.max())
        if abs(out["F"] - best) > ID_TOL or not 1 / D - ID_TOL <= out["F"] <= 1 + ID_TOL:
            problems.append(f"F = {out['F']!r}, max overlap {best!r}")
        if out["nearest"] != int(np.sum(ov >= best - TIE_TOL)):
            problems.append(f"nearest count {out['nearest']}")
    if s.catalog_name is not None:
        e = catalog.entry(s.catalog_name)
        got = {"F": out.get("F"), "M2": out["M2"], "mana": out.get("mana"),
               "wnorm": math.exp(out["mana"]) if "mana" in out else None}
        for key, (_, value) in e.expected.items():
            if key in got and abs(got[key] - value) > CAT_TOL:
                problems.append(f"{s.catalog_name} {key} = {got[key]!r}, table {value!r}")
        if e.expected_nearest_count is not None and out["nearest"] != e.expected_nearest_count:
            problems.append(f"{s.catalog_name} nearest {out['nearest']}")
    return problems


# ---------------------------------------------------------------------------
# large-d-cold

def cold_inputs(seed: int):
    """States for the one-shot rungs and (base, direction) frames."""
    rng = np.random.default_rng(seed)
    states = [(Dims(d, N), haar_state(rng, d ** N)) for d, N in COLD_RUNGS]
    frames = []
    for d, N in FRAME_RUNGS:
        dims = Dims(d, N)
        base = haar_state(rng, dims.D)
        direction = haar_state(rng, dims.D)
        direction = direction - np.vdot(base, direction) * base
        frames.append(qm.PerturbationFrame(dims, base, direction / np.linalg.norm(direction)))
    return states, frames


def cold_pass(seed: int, run) -> None:
    """The large-d-cold operations in order.

    `run(name, thunk, check)` times `thunk()`, checks the result outside the
    timed region and returns it (None when the call or the check failed).
    """
    states, frames = cold_inputs(seed)
    for dims, psi in states:
        tag = label(dims)
        run(f"sre {tag}", lambda: qm.sre(psi, dims), lambda m2: check_sre(m2, psi, dims))
        run(f"pauli_distribution {tag}", lambda: qm.pauli_distribution(psi, dims),
            lambda dist: check_pauli(dist.probs, dims))
        if dims.odd:
            run(f"wigner_trace_norm {tag}", lambda: qm.wigner_trace_norm(psi, dims),
                lambda w: check_wigner_norm(w, psi, dims))
    for frame in frames:
        dims, tag = frame.dims, label(frame.dims)
        # classify_xi2 only reads the nine coefficients: one operation with them
        run(f"xi2_expansion {tag}", lambda: classified_xi2(frame),
            lambda out: check_xi2(out[0], frame) + check_classify_xi2(out[1], out[0]))
        if dims.odd:
            run(f"classify_mana {tag}", lambda: qm.classify_mana(frame),
                lambda r: check_classify_mana(r, frame))
        if (dims.d, dims.N) in FIDELITY_RUNGS:
            run(f"fidelity_expansion {tag}",
                lambda: qm.fidelity_expansion(frame, qm.enumerate_stabilizer_states(dims)),
                lambda r: check_fidelity_expansion(r, frame))


def classified_xi2(frame):
    coeffs = qm.xi2_expansion(frame)
    return coeffs, qm.classify_xi2(coeffs)


def check_sre(m2: float, psi: np.ndarray, dims: Dims) -> list[str]:
    P = qm.pauli_distribution(psi, dims).probs
    ref = -math.log(float(np.sum(P ** 2))) - dims.N * math.log(dims.d)
    problems = []
    if abs(m2 - ref) > ID_TOL:
        problems.append(f"M2 = {m2!r}, from P {ref!r}")
    if not -ID_TOL <= m2 <= qm.sre_upper_bound(dims) + ID_TOL:
        problems.append(f"M2 = {m2!r} outside [0, bound]")
    return problems


def check_pauli(P: np.ndarray, dims: Dims) -> list[str]:
    problems = []
    if P.shape != (dims.n_points,):
        return [f"shape {P.shape}"]
    if abs(P.sum() - 1) > ID_TOL or P.min() < -ID_TOL:
        problems.append(f"sum P = {P.sum()!r}, min {P.min()!r}")
    if abs(P[0] - 1 / dims.D) > ID_TOL:   # the identity label
        problems.append(f"P_0 = {P[0]!r}")
    return problems


def check_wigner_norm(w: float, psi: np.ndarray, dims: Dims) -> list[str]:
    W = qm.wigner_function(psi, dims).values
    problems = []
    if abs(W.sum() - 1) > ID_TOL:
        problems.append(f"sum W = {W.sum()!r}")
    if abs(w - np.abs(W).sum()) > ID_TOL or w < 1 - ID_TOL:
        problems.append(f"trace norm {w!r}")
    return problems


def check_xi2(coeffs: np.ndarray, frame) -> list[str]:
    problems = []
    xi0 = qm.xi(frame.base, frame.dims, 2)
    if abs(coeffs[0] - xi0) > ID_TOL:
        problems.append(f"Xi2^(0) = {coeffs[0]!r}, xi {xi0!r}")
    # the order-8 truncation is off by O(eps^9) along the path
    series = float(np.polyval(coeffs[::-1], SERIES_EPS))
    direct = qm.xi(frame.state(SERIES_EPS), frame.dims, 2)
    if abs(series - direct) > 1e-12:
        problems.append(f"series {series!r} != Xi2(psi(eps)) {direct!r}")
    return problems


def _expected_kind(measure: str, order: int, coeff: float) -> str:
    if order == 1:
        return "sharp_min"
    if measure == "xi2" and order % 2 == 1:
        return "inflection"
    return "smooth_min" if coeff > 0 else "smooth_max"


def check_classify_xi2(report, coeffs) -> list[str]:
    nonzero = [m for m in range(2, 9) if abs(coeffs[m]) > TIE_TOL]
    if not nonzero:
        ok = report.kind == "flat"
    else:
        m = nonzero[0]
        ok = (report.leading_order == m and report.leading_coefficient == coeffs[m]
              and report.kind == _expected_kind("xi2", m, coeffs[m]))
    return [] if ok else [f"classify_xi2 gave {report}"]


def check_classify_mana(report, frame) -> list[str]:
    dims = frame.dims
    W = qm.wigner_function(np.outer(frame.base, frame.base.conj()), dims).values
    Wsig = qm.wigner_function(frame.sigma, dims).values
    Wmu = qm.wigner_function(frame.mu, dims).values
    zero = np.abs(W) <= 1e-10
    linear = float(np.abs(Wsig[zero]).sum())
    if linear > TIE_TOL:
        order, coeff = 1, linear
    else:
        order = 2
        signs = np.sign(W) * ~zero
        coeff = float(signs @ Wmu + np.abs(Wmu[zero & (np.abs(Wsig) <= 1e-10)]).sum())
    if abs(coeff) <= TIE_TOL:
        ok = report.kind == "flat"
    else:
        ok = report.kind == _expected_kind("mana", order, coeff)
    if not ok or report.leading_order != order or abs(report.leading_coefficient - coeff) > CAT_TOL:
        return [f"classify_mana gave {report}, expected order {order} coefficient {coeff!r}"]
    return []


def check_fidelity_expansion(report, frame) -> list[str]:
    dd = qm.enumerate_stabilizer_states(frame.dims)
    ov = dd.overlaps(frame.base)
    nearest = dd.matrix[ov >= ov.max() - TIE_TOL]
    amp_psi = nearest.conj() @ frame.base
    amp_phi = nearest.conj() @ frame.direction
    linear = 2 * np.real(amp_phi.conj() * amp_psi)
    if np.abs(linear).max() > TIE_TOL:
        order, coeff = 1, float(np.abs(linear).max())
    else:
        quad = np.real(np.einsum("ki,ij,kj->k", nearest.conj(), frame.mu, nearest))
        order, coeff = 2, float(quad.max())
    if abs(coeff) <= TIE_TOL:
        ok = report.kind == "flat"
    else:
        ok = report.kind == _expected_kind("fidelity", order, coeff)
    if not ok or report.leading_order != order or abs(report.leading_coefficient - coeff) > CAT_TOL:
        return [f"fidelity_expansion gave {report}, expected order {order} coefficient {coeff!r}"]
    return []


# ---------------------------------------------------------------------------
# clifford-cli

def resolve_state(name: str) -> tuple[np.ndarray, Dims]:
    """A catalog state, or `prod:<bit>,<name>` for |bit> (x) state."""
    if name.startswith("prod:"):
        bit, rest = name[len("prod:"):].split(",", 1)
        inner = catalog.entry(rest).dims
        return np.kron(catalog.ket(int(bit)), catalog.build(rest)), Dims(2, inner.N + 1)
    return catalog.build(name), catalog.entry(name).dims


def state_spec(name: str) -> str:
    """The CLI state argument: the catalog name, or inline JSON amplitudes."""
    if not name.startswith("prod:"):
        return name
    psi, dims = resolve_state(name)
    return json.dumps({"d": dims.d, "N": dims.N,
                       "amplitudes": [[float(a.real), float(a.imag)] for a in psi]})


def cli_commands(seed: int) -> list[tuple[str, list[str]]]:
    """(operation name, argv) for every command of one clifford-cli pass."""
    cmds = [(f"eigenstates {dims}", ["eigenstates", "--dims", dims, "--all-cliffords", "--json"])
            for dims in EIGEN_CLASSES]
    cmds.append(("catalog verify", ["catalog", "verify", "--json"]))
    cmds += [(f"extent {s}", ["extent", "solve", "--state", s, "--tol", repr(EXTENT_TOL), "--json"])
             for s in EXTENT_STATES]
    for source, _, target in catalog.EQUIVALENCES:
        cmds.append((f"search {source}->{target}",
                     ["search", "--source", state_spec(source),
                      "--target", state_spec(target), "--seed", str(seed)]))
    start, stop, step = DISTILL_EPS3
    cmds.append(("distill sweep", ["distill", "sweep", "--eps3", f"{start}:{stop}:{step}",
                                   "--rounds", str(DISTILL_ROUNDS), "--json"]))
    return cmds


def check_cli(name: str, rc: int, stdout: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    kind, _, arg = name.partition(" ")
    return _CLI_CHECKS[kind](payload, arg)


def _check_eigenstates(payload, dims: str) -> list[str]:
    problems = []
    if len(payload) != EIGEN_CLASSES[dims]:
        problems.append(f"{len(payload)} classes, expected {EIGEN_CLASSES[dims]}")
    if any(c["fidelity"] > 1 - TIE_TOL for c in payload):
        problems.append("a class is a stabilizer state")
    return problems


def _check_catalog(payload, _) -> list[str]:
    if payload["failures"] != 0 or not payload["checks"]:
        return [f"{payload['failures']} catalog failures"]
    return []


def _check_extent(payload, _) -> list[str]:
    if payload["duality_gap"] is None or payload["duality_gap"] > EXTENT_TOL:
        return [f"duality gap {payload['duality_gap']!r} > {EXTENT_TOL}"]
    if payload["extent"] < 1 - CAT_TOL:
        return [f"extent {payload['extent']!r} < 1"]
    return []


def _check_search(payload, pair: str) -> list[str]:
    if not payload.get("found"):
        return ["no word found"]
    source, target = pair.split("->")
    psi1, dims = resolve_state(source)
    psi2, _ = resolve_state(target)
    mapped = qm.word_unitary(tuple(payload["word"]), dims) @ psi1
    if abs(abs(np.vdot(psi2, mapped)) - 1) > CAT_TOL:
        return [f"word {payload['word']} does not map {source} to {target}"]
    return []


def _check_distill(payload, _) -> list[str]:
    start, stop, step = DISTILL_EPS3
    expected = np.arange(start, stop + 1e-12, step)
    if len(payload) != len(expected):
        return [f"{len(payload)} sweep points, expected {len(expected)}"]
    problems = []
    for point, eps in zip(payload, expected):
        first = point["trajectory"][0]
        p_ref = distill.success_probability_exact(eps)
        e_ref = distill.updated_error_exact(eps)
        if (len(point["trajectory"]) != DISTILL_ROUNDS or abs(point["eps3"] - eps) > ID_TOL
                or abs(first["p_success"] - p_ref) > ID_TOL
                or abs(first["eps3"] - e_ref) > ID_TOL):
            problems.append(f"eps3 {eps:g}: p {first['p_success']!r} (exact {p_ref!r}), "
                            f"eps3' {first['eps3']!r} (exact {e_ref!r})")
    return problems


_CLI_CHECKS = {
    "eigenstates": _check_eigenstates,
    "catalog": _check_catalog,
    "extent": _check_extent,
    "search": _check_search,
    "distill": _check_distill,
}
