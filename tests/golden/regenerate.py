"""Write the golden corpus: the standard output of each CLI command in CASES,
one file per command, next to this script.

Run it from the repository root after a change that moves an output on
purpose, and list each moved command in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py

tests/test_golden.py reruns every command in-process and compares it with its
file: structure, integers and strings exactly, floats within 1e-12 absolute.
"""

import contextlib
import io
import os

from quditmagic.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

# file name -> argv; a .json file holds JSON output, a .txt file text
CASES = {}
for state in ("qutrit:S", "ququint:H,i", "2q:G20,1", "3q:W"):
    stem = "measures_" + state.replace(":", "_").replace(",", "_")
    CASES[stem + ".txt"] = ["measures", state, "--alphas", "2,3"]
    CASES[stem + ".json"] = ["measures", state, "--alphas", "2,3", "--json"]
CASES["catalog_verify.txt"] = ["catalog", "verify"]
CASES["catalog_verify.json"] = ["catalog", "verify", "--json"]
# not 5,1: there the class order follows the BLAS kernel's eigenvalue order
for dims in ("3,1", "2,2"):
    CASES[f"eigenstates_{dims.replace(',', '_')}.json"] = [
        "eigenstates", "--dims", dims, "--all-cliffords", "--json"]


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, text = run(argv)
        if code != 0:
            raise SystemExit(f"quditmagic {' '.join(argv)} exited with {code}")
        with open(os.path.join(HERE, name), "w") as fh:
            fh.write(text)
    print(f"wrote {len(CASES)} files to {HERE}")
