"""Command-line front end.

The nine subcommands are declared in COMMANDS.  Every state argument is a
spec that `catalog.resolve` reads: a catalog name, prod:, @file.json or JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, InfeasibleExtentError, QuditMagicError
from .tolerances import (COMPANION_TOL, EXTENT_TOL, ORTHONORMAL_TOL, RANGE_END_SLACK, RANK_TOL,
                         SPAN_TOL, TIE_TOL)

if TYPE_CHECKING:
    from .phasespace import Dims

# Each command imports the modules it uses, so a process loads only those;
# the table ids are listed here so that parsing them does not import tables.
TABLE_IDS = ["qutrit-wigner", "qutrit-fidelity", "ququint-wigner",
             "ququint-fidelity", "2q-eigenstates", "qubit-L", "qutrit-L",
             "ququint-L", "qutrit-W", "ququint-W", "qubit-sre", "qutrit-sre",
             "ququint-sre", "2q-sre", "qubit-fidelity-sphere"]


def parse_dims(text: str) -> Dims:
    """The `--dims d,N` argument; argparse reports a malformed value."""
    from .phasespace import Dims

    try:
        d, n = text.split(",")
        return Dims(int(d), int(n))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not d,N with d prime: {exc}")


def parse_grid(text: str) -> tuple[int, int]:
    """An `RxC` grid argument; argparse reports a malformed value."""
    try:
        rows, cols = (int(x) for x in text.split("x"))
        if min(rows, cols) < 1:
            raise ValueError("sizes must be positive")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not RxC: {exc}")
    return rows, cols


def finite_float(text: str) -> float:
    """A float argument that must be finite; argparse reports any other."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_alphas(text: str) -> tuple[float, ...]:
    """The `--alphas a,b,..` argument: finite SRE orders, each at least 2."""
    try:
        alphas = tuple(finite_float(a) for a in text.split(","))
        if min(alphas) < 2:
            raise ValueError("every alpha must be >= 2")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of alphas: {exc}")
    return alphas


def parse_count(least: int, what: str):
    """The parser of a whole-number argument, `what`, of at least `least`:
    distillation `--rounds` (1) and search `--budget` (0)."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what} >= {least}")
        return int(text)
    return parse


def parse_tol(text: str) -> float:
    """The `--tol` argument of `extent`: 0 < tol < 1."""
    try:
        tol = float(text)
        if not 0 < tol < 1:
            raise ValueError("must be > 0 and < 1")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a tolerance: {exc}")
    return tol


def parse_eps3(text: str) -> float | tuple[float, float, float]:
    """`--eps3`: a finite float, or a finite start:stop:step with step > 0 and stop >= start."""
    try:
        values = tuple(finite_float(x) for x in text.split(":"))
        if len(values) == 1:
            return values[0]
        if len(values) != 3 or values[2] <= 0 or values[1] < values[0]:
            raise ValueError("need a float or start:stop:step with step > 0 and stop >= start")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a float or a range: {exc}")
    return values


def parse_direction(text: str) -> tuple[str, float | str]:
    """The `--direction` argument: phase:<phi> or state:<spec>."""
    kind, _, value = text.partition(":")
    try:
        if kind in ("phase", "state") and value:
            return kind, finite_float(value) if kind == "phase" else value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not phase:<phi> or state:<spec>")


def _emit(args, payload, rows=None):
    """Print, or write to --out, `payload` as JSON, or `rows` as CSV when not
    --json.  A file always ends with a newline."""
    if args.json or rows is None:
        text = json.dumps(payload, indent=1, default=_jsonable)
    else:
        import csv

        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def cmd_measures(args) -> int:
    from . import catalog
    from .measures import sre_from_xi, wigner_trace_norm, xi
    from .stabilizers import enumerate_stabilizer_states

    psi, dims = catalog.resolve(args.state)
    try:
        exact = {k: v[0] for k, v in catalog.entry(args.state).expected.items()}
    except QuditMagicError:
        exact = {}
    F, nearest = enumerate_stabilizer_states(dims).nearest(psi)
    xis = {a: xi(psi, dims, a) for a in args.alphas}
    sres = {a: sre_from_xi(value, dims, a) for a, value in xis.items()}
    norm = wigner_trace_norm(psi, dims) if dims.odd else None
    mana = None if norm is None else math.log(norm)
    if args.json:
        payload = {"d": dims.d, "N": dims.N, "stabilizer_fidelity": F,
                   "nearest_count": len(nearest), "sre": {str(a): v for a, v in sres.items()},
                   "xi": {str(a): v for a, v in xis.items()},
                   "mana": mana, "wigner_trace_norm": norm}
        if exact:
            payload["exact_forms"] = exact
        _emit(args, payload)
    else:
        print(f"dims: d={dims.d} N={dims.N}")
        print(f"stabilizer fidelity: {F:.12g}" + (f"   [{exact['F']}]" if "F" in exact else ""))
        print(f"nearest stabilizer states: {len(nearest)}")
        for a in args.alphas:
            print(f"M_{a:g}: {sres[a]:.12g}"
                  + (f"   [{exact['M2']}]" if a == 2.0 and "M2" in exact else ""))
        if norm is not None:
            print(f"wigner trace norm: {norm:.12g}"
                  + (f"   [{exact['wnorm']}]" if "wnorm" in exact else ""))
            print(f"mana: {mana:.12g}")
    return 0


def cmd_tables(args) -> int:
    from .tables import table_rows

    rows = table_rows(args.table, grid=args.grid or (181, 361))
    _emit(args, {"table": args.table, "rows": rows}, rows=rows)
    return 0


def cmd_eigenstates(args) -> int:
    from .clifford import (class_keys, eigenpairs, enumerate_reduced_clifford,
                           nondegenerate_eigenstates, word_unitary)
    from .phasespace import basis_keys
    from .stabilizers import enumerate_stabilizer_states
    from .weyl import phase_normalize

    dims = args.dims
    if not args.word and not args.all_cliffords:
        raise QuditMagicError("need --word or --all-cliffords")
    results = []
    if args.word:
        U = word_unitary(args.word.split(), dims)
        for val, vec in nondegenerate_eigenstates(U, dims):
            results.append({"eigenvalue": val, "state": vec})
    else:
        dd = enumerate_stabilizer_states(dims)
        group = enumerate_reduced_clifford(dims)
        # conjugate elements have the same eigenstate classes, and the first
        # element to show a class is the lowest of its conjugacy class
        labels = group.conjugacy_classes()
        reps = np.flatnonzero(labels == np.arange(len(group)))
        w, V, single = eigenpairs(group.unitary(reps))
        owner, col = np.nonzero(single)
        # element order, then eigenphase order on a 2^-20 pi grid where -pi is pi,
        # so that the classes do not follow the BLAS kernel's eigenvalue order
        phase = np.rint(np.angle(w[owner, col]) * 2 ** 20 / np.pi).astype(np.int64) % 2 ** 21
        owner, col = np.array([owner, col])[:, np.lexsort((phase, owner))]
        vecs = V[owner, :, col]
        ov = np.abs(vecs @ dd.matrix.conj().T) ** 2
        magic = np.flatnonzero(np.max(ov, axis=1) <= 1 - TIE_TOL)
        # the first eigenvector of each class, in order of appearance
        first = magic[np.sort(np.unique(basis_keys(class_keys(ov[magic])), return_index=True)[1])]
        results = [{"class": c, "state": state, "fidelity": float(np.max(ov[i])),
                    "word": list(group.word(reps[owner[i]]))}
                   for c, (i, state) in enumerate(zip(first, phase_normalize(vecs[first])))]
        print(f"# {len(results)} non-stabilizer inequivalence classes",
              file=sys.stderr)
    _emit(args, results)
    return 0


def _direction_basis(name: str, psi: np.ndarray, dims: Dims) -> list[np.ndarray]:
    """The first two directions orthogonal to psi (one on a qubit): the other
    eigenstates of the catalog eigen-operator when available, then a
    Gram-Schmidt completion over the computational basis."""
    from . import catalog
    from .clifford import nondegenerate_eigenstates

    try:
        e = catalog.entry(name)
    except QuditMagicError:
        e = None
    basis = []
    if e is not None and e.eigen_operator is not None:
        for _, vec in nondegenerate_eigenstates(e.eigen_operator(), e.dims):
            if abs(np.vdot(vec, psi)) < COMPANION_TOL:
                basis.append(vec)
    want = min(2, dims.D - 1)
    for k in range(dims.D):
        if len(basis) >= want:
            break
        v = np.zeros(dims.D, dtype=np.complex128)
        v[k] = 1.0
        for b in [psi] + basis:
            v = v - np.vdot(b, v) * b
        if np.linalg.norm(v) > SPAN_TOL:
            basis.append(v / np.linalg.norm(v))
    return basis[:want]


def cmd_extremality(args) -> int:
    from . import catalog
    from .extremality import (PerturbationFrame, classify_mana, classify_xi2, fidelity_expansion,
                              xi2_expansion)
    from .stabilizers import enumerate_stabilizer_states

    psi, dims = catalog.resolve(args.state)
    dd = enumerate_stabilizer_states(dims)
    basis = _direction_basis(args.state, psi, dims)

    def classify(direction):
        """The reports along one direction, and its Xi_2 coefficients."""
        frame = PerturbationFrame(dims, psi, direction)
        coefficients = xi2_expansion(frame)
        out = {"fidelity": fidelity_expansion(frame, dd)}
        if dims.odd:
            out["mana"] = classify_mana(frame)
        out["xi2"] = classify_xi2(coefficients)
        return out, coefficients

    if args.sweep:
        nt, np_ = args.sweep
        rows = [["theta", "phi", "measure", "kind", "leading_order",
                 "leading_coefficient"]]
        for th in np.linspace(0, np.pi / 2, nt):
            for ph in np.linspace(0, 2 * np.pi, np_, endpoint=False):
                if len(basis) == 1:
                    direction = np.exp(1j * ph) * basis[0]
                else:
                    direction = np.cos(th) * basis[0] + np.exp(1j * ph) * np.sin(th) * basis[1]
                direction = direction / np.linalg.norm(direction)
                for m, rep in classify(direction)[0].items():
                    rows.append([float(th), float(ph), m, rep.kind,
                                 rep.leading_order, rep.leading_coefficient])
        _emit(args, {"rows": rows}, rows=rows)
        return 0

    kind, value = args.direction
    if kind == "phase":
        direction = np.exp(1j * value) * basis[0]
    else:
        vec, vec_dims = catalog.resolve(value)
        if vec_dims != dims:
            raise DimensionMismatchError(f"direction {value!r} is not on {dims}")
        vec = vec - np.vdot(psi, vec) * psi
        if np.linalg.norm(vec) < ORTHONORMAL_TOL:
            raise QuditMagicError(f"direction {value!r} has no part orthogonal to the state")
        direction = vec / np.linalg.norm(vec)
    reports, coefficients = classify(direction)
    payload = {m: r._asdict() for m, r in reports.items()}
    payload["xi2_coefficients"] = coefficients.tolist()
    _emit(args, payload)
    return 0


def cmd_distill(args) -> int:
    from .distill import PairParams, distill_step, iterate_protocol

    try:  # PairParams.density raises ValueError for parameters that are not a state
        if args.mode == "step":
            params = PairParams(**{k: getattr(args, k) for k in PairParams._fields
                                   if getattr(args, k) is not None})
            out, p = distill_step([params] * 5)
        else:
            start, stop, step = args.eps3 or (0.0, 0.2, 0.01)
            sweep = [(eps, iterate_protocol(PairParams(eps3=float(eps)), args.rounds))
                     for eps in np.arange(start, stop + RANGE_END_SLACK, step)]
    except ValueError as exc:
        raise QuditMagicError(f"distill {args.mode}: {exc}") from None
    if args.mode == "step":
        _emit(args, {"p_success": p, "out": out._asdict()})
        return 0
    rows = [["eps3_in", "round", "eps3_out", "p_success"]]
    payload = []
    for eps, traj in sweep:
        payload.append({"eps3": float(eps),
                        "trajectory": [{"round": t["round"],
                                        "eps3": t["params"].eps3,
                                        "p_success": t["p_success"]}
                                       for t in traj]})
        for t in traj:
            rows.append([float(eps), t["round"], t["params"].eps3,
                         t["p_success"]])
    _emit(args, payload, rows=rows)
    return 0


def cmd_extent(args) -> int:
    from . import catalog
    from .extent import ExtentProblem, solve_extent, witness_bound

    psi, dims = catalog.resolve(args.state)
    if args.group:
        from .clifford import FiniteUnitaryGroup, group_stabilizer_states, word_unitary

        # a comma before a letter starts a token; others separate sites, as in CZ@1,2
        gens = [word_unitary([g], dims) for g in re.split(r",(?=[^\d\s])", args.group)]
        G = FiniteUnitaryGroup.generate(gens)
        states = group_stabilizer_states(G)
        if not states:
            raise InfeasibleExtentError(f"group {args.group!r} stabilizes no state")
        u, s, _ = np.linalg.svd(np.array(states).T, full_matrices=False)
        basis = u[:, :int(np.sum(s > RANK_TOL))]  # left singular vectors span the states
        P = basis @ basis.conj().T  # the target is psi's projection onto span(S_G)
        sol = solve_extent(ExtentProblem.from_states(P @ psi, states), tol=args.tol)
        wb = None
    else:
        from .stabilizers import enumerate_stabilizer_states

        dd = enumerate_stabilizer_states(dims)
        sol = solve_extent(ExtentProblem.from_dictionary(psi, dd), tol=args.tol)
        wb = witness_bound(psi, psi, dd)
    _emit(args, {"extent": sol.value, "l1": sol.l1,
                 "residual": sol.residual, "duality_gap": sol.duality_gap,
                 "iterations": sol.iterations, "converged": sol.converged,
                 "self_witness_lower_bound": wb})
    if not sol.converged:
        print(f"extent: not converged after {sol.iterations} iterations "
              f"(duality gap {sol.duality_gap:.3g} > tol {args.tol:g})", file=sys.stderr)
        return 1
    return 0


def cmd_catalog(args) -> int:
    from . import catalog

    checks = catalog.verify_catalog()
    equivs = catalog.verify_equivalences()
    n_fail = sum(not c.passed for c in checks) + sum(not e.passed for e in equivs)
    if args.json:
        _emit(args, {"checks": [c._asdict() for c in checks],
                     "equivalences": [{"source": e.source, "target": e.target,
                                       "word": list(e.word), "passed": e.passed}
                                      for e in equivs],
                     "failures": n_fail})
    else:
        for c in checks:
            status = "ok " if c.passed else "FAIL"
            print(f"{status} {c.name}: expected {c.expected:.10g} "
                  f"got {c.got:.10g} (err {c.abs_error:.2e})")
        for e in equivs:
            print(f"{'ok ' if e.passed else 'FAIL'} equivalence "
                  f"{e.source} -> {e.target}")
        print(f"{len(checks) + len(equivs)} checks, {n_fail} failures")
    return 1 if n_fail else 0


def cmd_dictionary(args) -> int:
    from .stabilizers import enumerate_stabilizer_states

    dd = enumerate_stabilizer_states(args.dims)
    if args.json:
        _emit(args, {"d": dd.dims.d, "N": dd.dims.N, "states": [
            {"basis": s.basis.tolist(), "displacement": s.displacement.tolist(),
             "amplitudes": [[float(a.real), float(a.imag)] for a in s.vector]} for s in dd]})
    else:
        _emit(args, None, rows=[["basis", "displacement", "amplitudes"]] + [
            [";".join(",".join(map(str, row)) for row in s.basis),
             ",".join(map(str, s.displacement)),
             ";".join(f"{a.real:.17g}{a.imag:+.17g}j" for a in s.vector)] for s in dd])
    return 0


def cmd_search(args) -> int:
    from . import catalog
    from .clifford import clifford_equivalence_search

    psi1, dims = catalog.resolve(args.source)
    psi2, _ = catalog.resolve(args.target)
    word = clifford_equivalence_search(psi1, psi2, dims, budget=args.budget)
    if word is None:
        print(json.dumps({"found": False}))
        return 1
    print(json.dumps({"found": True, "word": list(word)}))
    return 0


def _arg(*flags, **options):
    """The arguments of one `add_argument` call."""
    return flags, options


JSON = _arg("--json", action="store_true")
OUT = _arg("--out", default=None)

# name: (help, handler, arguments); a list of arguments is a mutually exclusive group
COMMANDS = {
    "measures": ("magic measures of a state", cmd_measures, [
        _arg("state"),
        _arg("--alphas", type=parse_alphas, default=(2.0,),
             help="comma-separated SRE orders, each >= 2"),
        JSON]),
    "tables": ("regenerate a reference table", cmd_tables, [
        _arg("table", choices=TABLE_IDS),
        _arg("--grid", type=parse_grid, default=None,
             help="RxC for qubit-fidelity-sphere (default 181x361)"),
        JSON, OUT]),
    "eigenstates": ("non-degenerate Clifford eigenstates", cmd_eigenstates, [
        _arg("--dims", required=True, type=parse_dims),
        [_arg("--all-cliffords", action="store_true"),
         _arg("--word", default=None, help="space-separated tokens, e.g. 'CZ@1,2 H@2 H@1'")],
        JSON, OUT]),
    "extremality": ("criticality along a direction", cmd_extremality, [
        _arg("state"),
        [_arg("--direction", type=parse_direction, default=("phase", 0.0),
              help="phase:<phi> or state:<spec>"),
         _arg("--sweep", type=parse_grid, default=None, help="NTxNP angle grid -> CSV")],
        JSON, OUT]),
    "distill": ("doubled five-qubit code simulation", cmd_distill, [
        _arg("mode", choices=["step", "sweep"]),
        _arg("--eps1", type=finite_float, default=None, help="step only (default 0)"),
        _arg("--eps2", type=finite_float, default=None, help="step only (default 0)"),
        _arg("--eps3", type=parse_eps3, default=None,
             help="a float for step, start:stop:step for sweep"),
        _arg("--a", type=finite_float, default=None, help="step only (default 0)"),
        _arg("--b", type=finite_float, default=None, help="step only (default 0)"),
        _arg("--rounds", type=parse_count(1, "a round count"), default=1),
        JSON, OUT]),
    "extent": ("stabilizer extent by L1 minimization", cmd_extent, [
        _arg("mode", choices=["solve"]),
        _arg("--state", required=True),
        _arg("--group", default=None,
             help="comma-separated generator tokens for the G-variant"),
        _arg("--tol", type=parse_tol, default=EXTENT_TOL),
        JSON]),
    "catalog": ("verify tabulated values", cmd_catalog, [
        _arg("mode", choices=["verify"]),
        JSON]),
    "dictionary": ("dump a stabilizer dictionary", cmd_dictionary, [
        _arg("--dims", required=True, type=parse_dims),
        JSON, OUT]),
    "search": ("deterministic Clifford equivalence search", cmd_search, [
        _arg("--source", required=True),
        _arg("--target", required=True),
        _arg("--budget", type=parse_count(0, "an expansion count"), default=100000),
        _arg("--seed", type=int, default=0,
             help="accepted and ignored: the search is deterministic")]),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the named command's parser is built; with no known command, all of
    # them, for the help and the invalid-choice error.  Either way the
    # top-level usage names all nine.
    names = [argv[0]] if argv and argv[0] in COMMANDS else list(COMMANDS)
    ap = argparse.ArgumentParser(prog="quditmagic",
                                 description=__doc__.strip().splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="{%s}" % ",".join(COMMANDS) if len(names) == 1 else None)
    parsers = {}
    for name in names:
        help_text, fn, arguments = COMMANDS[name]
        p = parsers[name] = sub.add_parser(name, help=help_text)
        for arg in arguments:
            group = p.add_mutually_exclusive_group() if isinstance(arg, list) else p
            for flags, options in arg if isinstance(arg, list) else [arg]:
                group.add_argument(*flags, **options)
        p.set_defaults(fn=fn)

    args = ap.parse_args(argv)
    if args.command == "tables" and args.grid and args.table != "qubit-fidelity-sphere":
        parsers["tables"].error(f"argument --grid: only qubit-fidelity-sphere reads a grid, "
                                f"not {args.table}")
    if args.command == "distill":
        if args.eps3 is not None and isinstance(args.eps3, tuple) != (args.mode == "sweep"):
            form = "start:stop:step" if args.mode == "sweep" else "a float"
            parsers["distill"].error(f"argument --eps3: {args.mode} takes {form}")
        if args.mode == "step" and args.rounds != 1:
            parsers["distill"].error(f"argument --rounds: step runs one round, not {args.rounds}")
        given = [name for name in ("eps1", "eps2", "a", "b") if getattr(args, name) is not None]
        if args.mode == "sweep" and given:
            parsers["distill"].error(f"argument --{given[0]}: sweep reads only --eps3")
    try:
        return args.fn(args)
    except QuditMagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
