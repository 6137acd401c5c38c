"""Write the golden corpus: the standard output of each CLI command in CASES,
one file per command, next to this script.

Run it from the repository root after a change that moves an output on
purpose, and list each moved command in CHANGES.md; it rewrites only the
files whose bytes change and prints, for each, the largest absolute float
change against the file it replaces and whether anything but floats changed:

    PYTHONPATH=src python tests/golden/regenerate.py

So a drift of the last bits (another BLAS kernel) reads as small float moves
and nothing else, and a real change shows as a large move or another change.
tests/test_golden.py reruns every command in-process and compares it with its
file by the same walk, `differences`: structure, integers and strings
exactly, floats within 1e-12 absolute.
"""

import contextlib
import io
import json
import os
import re

from quditmagic import catalog
from quditmagic.cli import TABLE_IDS, main

HERE = os.path.dirname(os.path.abspath(__file__))


def stem(label: str) -> str:
    """A state label as part of a file name: qutrit:S -> qutrit_S."""
    return label.replace(":", "_").replace(",", "_")


# file name -> argv; a .json file holds JSON output, a .txt file text
CASES = {}
for state in ("qutrit:S", "ququint:H,i", "2q:G20,1", "3q:W"):
    CASES[f"measures_{stem(state)}.txt"] = ["measures", state, "--alphas", "2,3"]
    CASES[f"measures_{stem(state)}.json"] = ["measures", state, "--alphas", "2,3", "--json"]
CASES["measures_prod_0_2q_G4_2.json"] = ["measures", "prod:0,2q:G4,2", "--alphas", "2,3", "--json"]
CASES["catalog_verify.txt"] = ["catalog", "verify"]
CASES["catalog_verify.json"] = ["catalog", "verify", "--json"]
for dims in ("3,1", "2,2", "7,1", "5,1", "11,1", "13,1"):
    CASES[f"eigenstates_{stem(dims)}.json"] = [
        "eigenstates", "--dims", dims, "--all-cliffords", "--json"]
for state in ("3q:W", "3q:TOF", "2q:G20,1"):
    CASES[f"extent_{stem(state)}.json"] = ["extent", "solve", "--state", state,
                                            "--tol", "1e-08", "--json"]
for state, group in (("2q:G20,1", "H@1,S@1,CZ@1,2"), ("qutrit:S", "H@1,S@1")):
    CASES[f"extent_group_{stem(state)}.json"] = ["extent", "solve", "--state", state,
                                                  "--group", group, "--json"]
for source, _, target in catalog.EQUIVALENCES:
    CASES[f"search_{stem(source)}_to_{stem(target)}.json"] = [
        "search", "--source", source, "--target", target, "--seed", "1"]
CASES["distill_sweep.json"] = ["distill", "sweep", "--eps3", "0.0:0.2:0.01",
                               "--rounds", "5", "--json"]
CASES["distill_step.json"] = ["distill", "step", "--eps3", "0.05", "--json"]
for state in ("qutrit:S", "ququint:A,-w2", "2q:G20,1"):
    CASES[f"extremality_{stem(state)}.json"] = ["extremality", state, "--json"]
# not 2,3: its dictionary is 750 KB
for dims in ("2,2", "3,2"):
    CASES[f"dictionary_{stem(dims)}.json"] = ["dictionary", "--dims", dims, "--json"]
for table in TABLE_IDS:
    CASES[f"tables_{table}.json"] = ["tables", table, "--json"] + (
        ["--grid", "5x9"] if table == "qubit-fidelity-sphere" else [])


# a number in text output; the split keeps it, so the text around it is kept too
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def differences(got, want, where="output"):
    """Each place where parsed JSON `got` differs from `want`, as
    (where, got, want, move): move is |got - want| where both are floats, and
    None where anything else differs (a type, the keys or their order, a
    list's length, an integer, a string or a null)."""
    if type(got) is not type(want):
        yield where, got, want, None
    elif isinstance(want, dict):
        if list(got) != list(want):
            yield where, list(got), list(want), None
            return
        for key in want:
            yield from differences(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        if len(got) != len(want):
            yield where, len(got), len(want), None
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from differences(g, w, f"{where}[{i}]")
    elif got != want:
        yield where, got, want, abs(got - want) if isinstance(want, float) else None


def _number(text: str) -> int | float:
    """A number as JSON would parse it: an int unless it has a point or an exponent."""
    return float(text) if re.search(r"[.eE]", text) else int(text)


def text_differences(got: str, want: str):
    """`differences` of text output: the text between numbers as one string
    each, then the numbers, parsed as JSON would parse them."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    yield from differences(got_parts[::2], want_parts[::2], "text")
    yield from differences([_number(s) for s in got_parts[1::2]],
                           [_number(s) for s in want_parts[1::2]], "numbers")


def file_differences(name: str, got: str, want: str):
    """`differences` of two outputs of the case `name`, JSON or text by its suffix."""
    if name.endswith(".json"):
        return differences(json.loads(got), json.loads(want), name)
    return text_differences(got, want)


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def describe(name: str, got: str, want: str) -> str:
    """One line for a rewritten file: its largest float move and the first
    difference that is not a float, if any."""
    diffs = list(file_differences(name, got, want))
    largest = max((move for *_, move in diffs if move is not None), default=0.0)
    other = [where for where, _, _, move in diffs if move is None]
    return (f"{name}: largest float move {largest:.2g}, "
            + (f"{len(other)} other differences, the first at {other[0]}" if other
               else "nothing but floats changed"))


if __name__ == "__main__":
    changed = []
    for name, argv in CASES.items():
        code, text = run(argv)
        if code != 0:
            raise SystemExit(f"quditmagic {' '.join(argv)} exited with {code}")
        path = os.path.join(HERE, name)
        old = open(path, "rb").read().decode() if os.path.exists(path) else None
        if old != text:
            with open(path, "wb") as fh:
                fh.write(text.encode())
            changed.append(f"{name}: new file" if old is None else describe(name, text, old))
    print(f"{len(changed)} of {len(CASES)} files in {HERE} changed", *changed, sep="\n")
