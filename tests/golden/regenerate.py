"""Write the golden corpus: the standard output of each CLI command in CASES,
one file per command, next to this script.

Run it from the repository root after a change that moves an output on
purpose, and list each moved command in CHANGES.md; it rewrites only the
files whose bytes change and prints their names:

    PYTHONPATH=src python tests/golden/regenerate.py

tests/test_golden.py reruns every command in-process and compares it with its
file: structure, integers and strings exactly, floats within 1e-12 absolute.
"""

import contextlib
import io
import os

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


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


if __name__ == "__main__":
    changed = []
    for name, argv in CASES.items():
        code, text = run(argv)
        if code != 0:
            raise SystemExit(f"quditmagic {' '.join(argv)} exited with {code}")
        path, data = os.path.join(HERE, name), text.encode()
        if not os.path.exists(path) or open(path, "rb").read() != data:
            with open(path, "wb") as fh:
                fh.write(data)
            changed.append(name)
    print(f"{len(changed)} of {len(CASES)} files in {HERE} changed", *changed, sep="\n")
