"""Every numerical threshold of the package is a named constant of
`quditmagic.tolerances`: no other module holds a small float literal, the
README lists each constant with its value, and a tolerance parameter is kept
only where a caller sets it."""

import ast
import pathlib
import re

import quditmagic
from quditmagic import tolerances

PACKAGE = pathlib.Path(quditmagic.__file__).parent
README = PACKAGE.parents[1] / "README.md"

# the README Conventions defaults
CONVENTIONS = {"IDENTITY_TOL": 1e-10, "EQUALITY_TOL": 1e-9, "TIE_TOL": 1e-9,
               "WIGNER_ZERO_TOL": 1e-10, "EXTENT_TOL": 1e-8}

# (function, parameter) pairs that callers set: the CLI, the acceptance
# tests and other tests with non-default values, and verify_equivalences
# passing its tol on to global_phase
KEPT_PARAMETERS = {
    ("solve_extent", "tol"), ("verify_equivalences", "tol"), ("global_phase", "tol"),
    ("check_l_tables", "exact_tol"), ("check_l_tables", "printed_tol"),
    ("check_w_tables", "exact_tol"), ("check_w_tables", "printed_tol"),
    ("check", "tol"), ("phase_normalize", "tol"),
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "tolerances.py":
            yield path.name, ast.parse(path.read_text())


def test_no_small_float_literal_outside_tolerances():
    found = [f"{name}:{node.lineno} {node.value!r}"
             for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             and 0 < abs(node.value) <= 1e-3]
    assert found == []


def test_tolerance_parameters_are_the_ones_callers_set():
    found = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if "tol" in arg.arg or arg.arg in ("grid", "decimals"):
                        found.add((node.name, arg.arg))
    # table_rows(grid) is a sphere size and add(tol) a per-check value
    assert found - {("table_rows", "grid"), ("add", "tol")} == KEPT_PARAMETERS


def test_readme_conventions_values_are_the_constants():
    for name, value in CONVENTIONS.items():
        assert getattr(tolerances, name) == value, name


def test_readme_lists_every_constant_with_its_value():
    rows = dict(re.findall(r"^\| `([A-Z_]+)` \| ([^ |]+) \|", README.read_text(), re.M))
    constants = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert rows.keys() == constants.keys()
    for name, value in constants.items():
        assert type(value)(rows[name]) == value, name
