import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from golden.regenerate import two_qutrits
from quditmagic import catalog, cli, errors, extent, stabilizers
from quditmagic.cli import main
from quditmagic.clifford import enumerate_reduced_clifford, gate_unitary, nondegenerate_eigenstates
from quditmagic.errors import NotCliffordError, UnknownStateError
from quditmagic.phasespace import Dims
from quditmagic.stabilizers import enumerate_stabilizer_states


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_measures_catalog_name(capsys):
    code, out = run(capsys, "measures", "qutrit:S", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["stabilizer_fidelity"] - 0.5) < 1e-12
    assert abs(data["mana"] - np.log(5 / 3)) < 1e-12
    assert abs(data["sre"]["2.0"] - np.log(2)) < 1e-12


def test_measures_text_with_alphas(capsys):
    code, out = run(capsys, "measures", "qutrit:S")
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["dims: d=3 N=1", "stabilizer fidelity: 0.5   [1/2]",
                         "nearest stabilizer states: 8", "M_2: 0.69314718056   [log 2]"]
    assert lines[4:] == ["wigner trace norm: 1.66666666667   [5/3]", "mana: 0.510825623766"]
    code, out = run(capsys, "measures", "qutrit:S", "--alphas", "2,3")
    assert code == 0
    # the one added line is M_3, the text of the JSON's sre["3.0"]
    assert out.splitlines() == lines[:4] + ["M_3: 0.490414626506"] + lines[4:]
    _, out = run(capsys, "measures", "qutrit:S", "--alphas", "2,3", "--json")
    assert f"{json.loads(out)['sre']['3.0']:.12g}" == "0.490414626506"


def test_measures_json_round_trip(capsys, tmp_path):
    psi = np.array([1, 1j, 0]) / np.sqrt(2)
    spec = {"d": 3, "N": 1,
            "amplitudes": [[float(a.real), float(a.imag)] for a in psi]}
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "measures", f"@{path}", "--json")
    assert code == 0
    data = json.loads(out)
    assert 0 <= data["stabilizer_fidelity"] <= 1


def test_measures_table1_value(capsys):
    code, out = run(capsys, "measures", "2q:G16,1", "--json")
    data = json.loads(out)
    assert abs(data["stabilizer_fidelity"] - 0.669572) < 1e-5


def test_tables_csv_and_unknown(capsys, tmp_path):
    code, out = run(capsys, "tables", "qutrit-fidelity")
    assert code == 0 and "qutrit:S" in out
    with pytest.raises(SystemExit):
        main(["tables", "not-a-table"])
    out_path = tmp_path / "grid.csv"
    code, _ = run(capsys, "tables", "qubit-fidelity-sphere",
                  "--grid", "5x9", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("theta") and len(lines) == 1 + 5 * 9


def test_table_ids_match_the_tables_module():
    # a table only the CLI lists makes it fail; one only tables lists is unreachable
    from quditmagic.tables import _TABLE_STATES

    assert sorted(cli.TABLE_IDS) == sorted(_TABLE_STATES)


def test_every_table_id_has_rows():
    # the CLI lists the ids itself, so that parsing them does not import tables
    from quditmagic.tables import table_rows

    for table_id in cli.TABLE_IDS:
        assert len(table_rows(table_id, grid=(2, 3))) > 1, table_id


@pytest.mark.parametrize("argv", [
    ["tables", "qubit-fidelity-sphere", "--grid", "3by4"],
    ["tables", "qubit-fidelity-sphere", "--grid", "3x4x5"],
    ["tables", "qubit-fidelity-sphere", "--grid", "0x4"],
    ["extremality", "qubit:T0", "--sweep", "3x"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_malformed_grid_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}" in capsys.readouterr().err


# option pairs of which one would be silently ignored: (argv, the other option)
REJECTED_PAIRS = [
    (["eigenstates", "--dims", "3,1", "--all-cliffords", "--word", "H@1"], "--all-cliffords"),
    (["extremality", "qutrit:S", "--direction", "phase:0", "--sweep", "3x4"], "--direction"),
    (["distill", "step", "--rounds", "2"], "step"),
    *((["distill", "sweep", "--eps3", "0:0.01:0.01", option, "0.3"], "--eps3")
      for option in ("--eps1", "--eps2", "--a", "--b")),
    (["tables", "qubit-L", "--grid", "3x3"], "qubit-L"),
]


@pytest.mark.parametrize("argv", [
    ["measures", "qutrit:S", "--alphas", "2,x"],
    ["distill", "sweep", "--eps3", "0:0.02"],
    ["distill", "sweep", "--eps3", "abc"],
    ["distill", "step", "--eps3", "abc"],
    ["distill", "step", "--eps3", "0:0.2:0.01"],
    ["distill", "sweep", "--rounds", "0"],
    ["extent", "solve", "--state", "qubit:T0", "--tol", "0"],
    ["extent", "solve", "--state", "qubit:T0", "--tol", "-1"],
    ["extent", "solve", "--state", "qubit:T0", "--tol", "nan"],
    ["measures", "qutrit:S", "--alphas", "inf"],
    ["measures", "qutrit:S", "--alphas", "nan"],
    ["measures", "qutrit:S", "--alphas", "2,1e400"],
    ["measures", "qutrit:S", "--alphas", "2,1.5"],
    ["extent", "solve", "--state", "qubit:T0", "--tol", "inf"],
    ["extent", "solve", "--state", "qubit:T0", "--tol", "1e300"],
    ["extent", "solve", "--state", "qubit:T0", "--tol", "1"],
    ["distill", "step", "--eps3", "nan"],
    ["distill", "sweep", "--eps3", "0:inf:0.1"],
    ["distill", "sweep", "--eps3", "0.3:0.1:0.01"],  # stop < start would sweep nothing
    ["distill", "step", "--eps1", "nan"],
    ["distill", "step", "--eps2", "inf"],
    ["distill", "step", "--a", "-inf"],
    ["distill", "step", "--b", "1e400"],
    ["search", "--source", "qubit:T0", "--target", "qubit:T1", "--budget", "-5"],
    *(argv for argv, _ in REJECTED_PAIRS),
], ids=" ".join)
def test_malformed_alphas_and_eps3_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, other", REJECTED_PAIRS,
                         ids=[" ".join(argv) for argv, _ in REJECTED_PAIRS])
def test_rejected_pair_names_both_options(capsys, argv, other):
    with pytest.raises(SystemExit):
        main(argv)
    line = capsys.readouterr().err.splitlines()[-1]
    assert f"error: argument {argv[-2]}" in line and other in line.split(":", 2)[2]


@pytest.mark.parametrize("argv", [
    ["catalog", "verify", "--tol", "1e-10"],
    ["extent", "solve", "--state", "qubit:T0", "--dims", "2,1"],
], ids=" ".join)
def test_retired_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _count_parsers(monkeypatch):
    """The list that every ArgumentParser built from now on is appended to."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


NINE = "{measures,tables,eigenstates,extremality,distill,extent,catalog,dictionary,search}"


@pytest.mark.parametrize("command", NINE[1:-1].split(","))
def test_a_known_command_builds_two_parsers(capsys, monkeypatch, command):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and len(built) == 2
    assert capsys.readouterr().out.startswith(f"usage: quditmagic {command}")


def test_help_lists_the_nine_commands(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and len(built) == 10
    words = " ".join(capsys.readouterr().out.split())  # whatever the terminal width
    assert "{" + ",".join(cli.COMMANDS) + "}" == NINE and words.count(NINE) == 2
    for name, (help_text, _, _) in cli.COMMANDS.items():
        assert f" {name} {help_text} " in words, name


def test_unknown_command_names_the_nine(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    choices = ", ".join(repr(name) for name in NINE[1:-1].split(","))
    assert capsys.readouterr().err.endswith(
        f"quditmagic: error: argument command: invalid choice: 'bogus' (choose from {choices})\n")


def test_unrecognized_argument_shows_the_nine_in_the_usage(capsys):
    # only the measures parser is built, yet the top-level usage lists every command
    with pytest.raises(SystemExit) as exc:
        main(["measures", "qutrit:S", "--bogus"])
    assert exc.value.code == 2
    usage, _, message = capsys.readouterr().err.partition("quditmagic: error: ")
    assert NINE in usage and message == "unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("token, N", [
    ("H@5", 1), ("H@0", 1), ("CZ@1,1", 2), ("CZ@1,2", 1), ("SWAP@1", 2), ("H@x", 1),
    ("H@1,2", 2),
])
def test_bad_word_sites_exit_2(capsys, token, N):
    dims = Dims(2, N)
    with pytest.raises(NotCliffordError, match="site"):
        gate_unitary(token, dims)
    state = "qubit:T0" if N == 1 else "2q:G20,1"
    for argv in (["eigenstates", "--dims", f"2,{N}", "--word", token],
                 ["extent", "solve", "--state", state, "--group", f"S@1,{token}"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert repr(token) in captured.err


def test_extent_group_takes_two_qubit_tokens(capsys):
    code, out = run(capsys, "extent", "solve", "--state", "2q:G20,1",
                    "--group", "CZ@1,2,H@1", "--json")
    assert code == 0 and json.loads(out)["converged"]


@pytest.mark.parametrize("direction", ["phase:abc", "foo", "state:", "phase:inf", "phase:nan"])
def test_malformed_direction_exits_2(capsys, direction):
    with pytest.raises(SystemExit) as exc:
        main(["extremality", "qutrit:S", "--direction", direction])
    assert exc.value.code == 2
    assert "error: argument --direction" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["extremality", "qutrit:S", "--direction", "state:qutrit:S"], "no part orthogonal"),
    (["extremality", "qutrit:S", "--direction", "state:qubit:T0"], "is not on Dims(d=3, N=1)"),
    (["eigenstates", "--dims", "3,1"], "need --word or --all-cliffords"),
    (["extent", "solve", "--state", "2q:TT", "--group", "H@1"], "group 'H@1' stabilizes no state"),
    (["extent", "solve", "--state", "2q:TT", "--group", "X@1"], "group 'X@1' stabilizes no state"),
    (["distill", "step", "--eps1", "0.9", "--eps2", "0.9"], "not define a PSD density matrix"),
    (["distill", "sweep", "--eps3", "0.9:1.2:0.2"], "not define a PSD density matrix"),
], ids=["direction with no orthogonal part", "direction on other dims",
        "eigenstates without an operator", "extent group H",
        "extent group X", "distill step not PSD", "distill sweep not PSD"])
def test_input_error_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("spec, message", [
    ("@{missing}", "No such file"),
    ('{"d": 3, "N": 1, "amplitudes": [[1, 0]', "Expecting"),
    ('{"d": 3, "N": 1}', "KeyError: 'amplitudes'"),
    ('{"d": 4, "N": 1, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}', "not prime"),
    ("qutrit:nope", "unknown catalog state"),
    ('{"d": 2, "N": 1, "amplitudes": [[1, 0], [1, 0]]}', "norm 1.41421 are not a unit vector"),
    ('{"d": 2, "N": 1, "amplitudes": [[0, 0], [0, 0]]}', "norm 0 are not a unit vector"),
    ("prod:0,qutrit:S", "'qutrit:S' is not a qubit state"),
    ("prod:2,qubit:T0", "the bit '2' is not 0 or 1"),
    ("prod:0", "unknown catalog state ''"),
    ("prod:0,prod:1,qutrit:S", "'qutrit:S' is not a qubit state"),
    ('{"d": 3.9, "N": 1, "amplitudes": [[0, 0], [1, 0], [0, 0]]}', "must be integers"),
    ('{"d": 2, "N": 1.5, "amplitudes": [[1, 0], [0, 0]]}', "must be integers"),
    ('{"d": 3, "N": 1, "amplitudes": [[NaN, 0], [1, 0], [0, 0]]}', "norm nan are not a unit"),
], ids=["missing file", "malformed json", "no amplitudes", "d not prime", "unknown name",
        "norm sqrt2", "zero vector", "prod of a qutrit", "prod bit 2", "prod without a state",
        "nested prod of a qutrit", "d not an integer", "N not an integer", "NaN amplitude"])
def test_unreadable_state_spec_exits_2(capsys, tmp_path, spec, message):
    spec = spec.replace("{missing}", str(tmp_path / "missing.json"))
    with pytest.raises(UnknownStateError, match=message):
        catalog.resolve(spec)
    assert main(["measures", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert repr(spec) in captured.err


NESTED = "prod:1,prod:0,qubit:T0"


@pytest.mark.parametrize("argv", [
    ["measures", "{}", "--alphas", "2,3", "--json"],
    ["extremality", "{}", "--json"],
    ["extremality", "3q:W", "--direction", "state:{}", "--json"],
    ["extent", "solve", "--state", "{}", "--json"],
    ["search", "--source", "prod:0,prod:0,qubit:T0", "--target", "{}"],
], ids=["measures", "extremality", "extremality direction", "extent", "search"])
def test_every_state_argument_reads_a_nested_prod_spec(capsys, argv):
    # the nested prod: spec and the inline JSON of the same amplitudes print the same
    psi, dims = catalog.resolve(NESTED)
    inline = json.dumps({"d": dims.d, "N": dims.N,
                         "amplitudes": [[a.real, a.imag] for a in psi.tolist()]})
    nested, as_json = (run(capsys, *[a.replace("{}", spec) for a in argv])
                       for spec in (NESTED, inline))
    assert nested[0] == 0 and nested == as_json


def test_eigenstates_word(capsys):
    code, out = run(capsys, "eigenstates", "--dims", "2,2",
                    "--word", "CZ@1,2 H@2 H@1", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 4  # the class-4 representative has 4 nondegenerate


def test_eigenstates_all_cliffords_qutrit(capsys):
    code, out = run(capsys, "eigenstates", "--dims", "3,1",
                    "--all-cliffords", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 4


def _eigenstate_classes_per_element(dims):
    """Reference sweep: one eigendecomposition per group element, classes
    keyed by the rounded sorted stabilizer overlaps, first appearance wins."""
    dd = enumerate_stabilizer_states(dims)
    classes = {}
    for el in enumerate_reduced_clifford(dims):
        # in eigenphase order on the CLI's 2^-20 pi grid, where -pi is pi
        pairs = sorted(nondegenerate_eigenstates(el.unitary, dims),
                       key=lambda p: round(np.angle(p[0]) * 2 ** 20 / np.pi) % 2 ** 21)
        for _, vec in pairs:
            ov = dd.overlaps(vec)
            key = tuple(np.round(np.sort(ov), 8).tolist())
            if np.max(ov) <= 1 - 1e-9 and key not in classes:
                classes[key] = (list(el.word), float(np.max(ov)), vec)
    return list(classes.values())


@pytest.mark.parametrize("dims,budget_mib", [("3,1", 1024), ("5,1", 1024), ("5,1", 7), ("2,2", 1024)])
def test_eigenstates_batched_sweep_matches_per_element(capsys, monkeypatch, dims, budget_mib):
    # the sweep diagonalizes one element per conjugacy class, and its output
    # does not depend on the memory budget: (5,1) runs whole within 7 MiB
    monkeypatch.setattr(errors, "MEMORY_BUDGET", budget_mib * 2 ** 20)
    code, out = run(capsys, "eigenstates", "--dims", dims, "--all-cliffords", "--json")
    assert code == 0
    data = json.loads(out)
    ref = _eigenstate_classes_per_element(Dims(*map(int, dims.split(","))))
    assert len(data) == len(ref) == {"3,1": 4, "5,1": 8, "2,2": 8}[dims]
    for got, (word, fid, vec) in zip(data, ref):
        assert got["word"] == word
        assert abs(got["fidelity"] - fid) < 1e-12
        assert np.max(np.abs(np.array(got["state"]) @ [1, 1j] - vec)) < 1e-12


def test_extremality_classification(capsys):
    code, out = run(capsys, "extremality", "qutrit:N",
                    "--direction", "phase:0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fidelity"]["kind"] == "smooth_max"
    assert abs(data["fidelity"]["leading_coefficient"] + 2 / 3) < 1e-9
    assert data["mana"]["kind"] == "smooth_max"


def test_extremality_sweep(capsys):
    code, out = run(capsys, "extremality", "qubit:T0", "--sweep", "3x4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theta")
    assert all("sharp_min" in ln for ln in lines[1:] if "fidelity" in ln)


def _reports(capsys, *argv):
    code, out = run(capsys, "extremality", *argv, "--json")
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("state, grid", [("qutrit:S", "4x5"), ("ququint:H,1;1", "3x3")])
def test_extremality_sweep_turns_between_two_directions(capsys, state, grid):
    # ququint:H,1;1 has no eigen-operator, so both directions are Gram-Schmidt completions
    psi, dims = catalog.resolve(state)
    b0, b1 = cli._direction_basis(state, psi, dims)
    assert np.allclose(np.array([psi, b0, b1]).conj() @ np.array([psi, b0, b1]).T, np.eye(3),
                       atol=1e-12)
    code, out = run(capsys, "extremality", state, "--sweep", grid)
    assert code == 0
    n_theta, n_phi = cli.parse_grid(grid)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == n_theta * n_phi * 3  # fidelity, mana and xi2
    # theta 0 is b0 at every phase, the default direction; theta pi/2 at phase 0 is b1
    ends = {0.0: _reports(capsys, state),
            np.pi / 2: _reports(capsys, state, "--direction", "state:" + json.dumps(
                {"d": dims.d, "N": dims.N, "amplitudes": [[v.real, v.imag] for v in b1]}))}
    checked = 0
    for theta, phi, measure, kind, order, coefficient in rows:
        if float(theta) == 0 or (float(theta) == np.pi / 2 and float(phi) == 0):
            want = ends[float(theta)][measure]
            assert (kind, int(order)) == (want["kind"], want["leading_order"])
            assert abs(float(coefficient) - want["leading_coefficient"]) < 1e-9
            checked += 1
    assert checked == (n_phi + 1) * 3


def test_extremality_direction_from_a_state_spec(capsys):
    # Hplus is the first companion eigenstate of qutrit:S, the default direction
    got = _reports(capsys, "qutrit:S", "--direction", "state:qutrit:Hplus")
    want = _reports(capsys, "qutrit:S", "--direction", "phase:0")
    for measure in ("fidelity", "mana", "xi2"):
        assert got[measure]["kind"] == want[measure]["kind"]
        assert got[measure]["leading_order"] == want[measure]["leading_order"]
        assert abs(got[measure]["leading_coefficient"]
                   - want[measure]["leading_coefficient"]) < 1e-9


def test_distill_step_and_sweep(capsys):
    code, out = run(capsys, "distill", "step", "--eps3", "0.05", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["p_success"]
               - (49 - 240 * .05 + 600 * .05 ** 2 - 640 * .05 ** 3
                  + 240 * .05 ** 4) / 2304) < 1e-12
    code, out = run(capsys, "distill", "sweep", "--eps3", "0:0.02:0.01",
                    "--rounds", "2", "--json")
    assert code == 0
    assert len(json.loads(out)) == 3
    code, out = run(capsys, "distill", "sweep", "--eps3", "0.05:0.05:0.01", "--json")
    assert code == 0
    assert [row["eps3"] for row in json.loads(out)] == [0.05]


def test_extent_solve(capsys):
    code, out = run(capsys, "extent", "solve", "--state", "qubit:T0", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(data["extent"] - (3 - np.sqrt(3))) < 1e-6
    assert data["self_witness_lower_bound"] <= data["extent"] + 1e-6
    assert data["converged"] is True


def test_extent_solve_unconverged_exits_nonzero(capsys, monkeypatch):
    solve = extent.solve_extent

    def capped(problem, tol):
        return solve(problem, tol=tol, max_iter=50)

    monkeypatch.setattr(extent, "solve_extent", capped)
    code = main(["extent", "solve", "--state", "qubit:T0", "--tol", "1e-12", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["converged"] is False
    assert "not converged" in captured.err


def test_extent_group_builds_no_dictionary(capsys, monkeypatch):
    def refuse(dims):
        raise AssertionError("the --group path built the stabilizer dictionary")

    monkeypatch.setattr(stabilizers, "enumerate_stabilizer_states", refuse)
    code, out = run(capsys, "extent", "solve", "--state", "qubit:T0", "--group", "S@1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True and data["self_witness_lower_bound"] is None


def test_cli_import_does_not_load_scipy():
    code = ("import sys, quditmagic.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_search_does_not_load_numpy_random():
    code = ("import sys\nfrom quditmagic.cli import main\n"
            "rc = main(['search', '--source', '2q:G20,1', '--target', '2q:G20,4', '--seed', '1'])\n"
            "print(rc, sorted(m for m in sys.modules if m == 'numpy.random' "
            "or m.startswith('numpy.random.')))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "0 []"


def test_catalog_verify_exit_code(capsys):
    code, out = run(capsys, "catalog", "verify")
    assert code == 0
    assert out.splitlines()[-1] == "363 checks, 0 failures"
    code, out = run(capsys, "catalog", "verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert (len(data["checks"]) + len(data["equivalences"]), data["failures"]) == (363, 0)


def test_dictionary_dump(capsys, tmp_path):
    code, out = run(capsys, "dictionary", "--dims", "2,1")
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    # a JSON file holds what stdout shows, final newline included
    _, out = run(capsys, "dictionary", "--dims", "2,1", "--json")
    path = tmp_path / "dict.json"
    assert run(capsys, "dictionary", "--dims", "2,1", "--json", "--out", str(path)) == (0, "")
    assert path.read_text() == out


@pytest.mark.parametrize("dims", ["4,1", "2"])
def test_dictionary_rejects_bad_dims(capsys, dims):
    with pytest.raises(SystemExit) as exc:
        main(["dictionary", "--dims", dims])
    assert exc.value.code == 2
    assert "error: argument --dims" in capsys.readouterr().err


@pytest.mark.parametrize("argv, estimate", [
    # 3 D^2 * 16 bytes for a dense word at D = 2^14
    (["eigenstates", "--dims", "2,14", "--word", "H@1"], f"{3 * 4 ** 14 * 16:.3g} bytes"),
    # 2 * stabilizer_count * D * 16 bytes is past the float range at 45 qubits
    (["dictionary", "--dims", "2,45"], "about 2^"),
])
def test_oversized_dims_exit_2_before_allocating(capsys, argv, estimate):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and estimate in err and "memory budget" in err


def test_search_roundtrip(capsys):
    code, out = run(capsys, "search", "--source", "2q:G20,1",
                    "--target", "2q:G20,4", "--budget", "200000")
    assert code == 0
    data = json.loads(out)
    assert data["found"]


def test_two_qutrit_search_and_word_eigenstates(capsys):
    # (|00> + |11>)/sqrt 2 to its X@2 image, both as inline JSON; then a word with SUM
    code, out = run(capsys, "search", "--source", two_qutrits(0, 4), "--target", two_qutrits(1, 5))
    assert code == 0 and json.loads(out)["found"]
    code, out = run(capsys, "eigenstates", "--dims", "3,2", "--word", "CNOT@1,2 H@2", "--json")
    assert code == 0 and len(json.loads(out)) == 3


def test_search_without_a_word_exits_1(capsys):
    code, out = run(capsys, "search", "--source", "2q:G20,1", "--target", "2q:G20,3",
                    "--budget", "1")
    assert (code, json.loads(out)) == (1, {"found": False})


def test_search_across_dims_exits_2(capsys):
    assert main(["search", "--source", "qubit:T0", "--target", "qutrit:S"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_direction_basis_for_a_json_spec():
    # a JSON spec names no catalog entry, so the basis is a Gram-Schmidt completion
    spec = json.dumps({"d": 3, "N": 1, "amplitudes": [[0, 0], [1, 0], [0, 0]]})
    psi, dims = catalog.resolve(spec)
    basis = cli._direction_basis(spec, psi, dims)
    frame = np.array([psi] + basis)
    assert np.allclose(frame.conj() @ frame.T, np.eye(3), atol=1e-12)


def test_unknown_table_id_refused():
    from quditmagic.errors import UnknownTableError
    from quditmagic.tables import row_multiset_error, table_rows

    with pytest.raises(UnknownTableError, match="unknown table id"):
        table_rows("qutrit-nope", (5, 9))
    assert row_multiset_error(np.zeros((2, 2)), np.zeros((2, 3))) == float("inf")
