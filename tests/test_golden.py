"""The golden corpus: each command of tests/golden/regenerate.py, rerun
in-process, against its committed output.  Structure, integers and strings
must match exactly and floats within FLOAT_TOL absolute, so the corpus holds
across BLAS kernels that move the last bits; one test reruns every command
under OpenBLAS's generic kernel to show it."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import quditmagic
from golden.regenerate import (CASES, HERE, describe, differences, file_differences, run, stem,
                               text_differences)
from quditmagic.catalog import EQUIVALENCES

FLOAT_TOL = 1e-12


def assert_within_tolerance(diffs):
    """Every difference that `differences` walks to is a float move of at
    most FLOAT_TOL: the same structure, keys in the same order, the same
    integers, strings and nulls."""
    for at, got, want, move in diffs:
        assert move is not None and move <= FLOAT_TOL, (at, got, want)


def test_the_corpus_holds_exactly_the_cases():
    assert {n for n in os.listdir(HERE) if n.endswith((".json", ".txt"))} == set(CASES)


def assert_matches_the_corpus(name: str, text: str):
    with open(os.path.join(HERE, name)) as fh:
        want = fh.read()
    assert_within_tolerance(file_differences(name, text, want))


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_the_corpus(name):
    code, text = run(CASES[name])
    assert code == 0
    assert_matches_the_corpus(name, text)


@pytest.mark.parametrize("source, target", [(s, t) for s, _, t in EQUIVALENCES],
                         ids=[f"{s}->{t}" for s, _, t in EQUIVALENCES])
def test_equivalence_rows_search_as_written(source, target):
    # the row's labels, prod: ones included, are the command's state specs
    code, text = run(["search", "--source", source, "--target", target, "--seed", "1"])
    with open(os.path.join(HERE, f"search_{stem(source)}_to_{stem(target)}.json")) as fh:
        assert (code, text) == (0, fh.read())


BLAS = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})


@pytest.mark.skipif("DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
                    reason=f"numpy's BLAS ({BLAS.get('name', 'unknown')}) is not an OpenBLAS "
                           "built with DYNAMIC_ARCH, so OPENBLAS_CORETYPE cannot select the "
                           "generic kernel")
def test_the_corpus_holds_under_the_generic_kernel():
    # every command in one fresh process, on OpenBLAS's generic x86-64 kernel
    probe = ("import json\nfrom golden.regenerate import CASES, run\n"
             "print(json.dumps({name: run(argv) for name, argv in CASES.items()}))")
    path = os.pathsep.join([os.path.dirname(os.path.dirname(quditmagic.__file__)),
                            os.path.dirname(HERE)])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"})
    outputs = json.loads(out.stdout)
    assert list(outputs) == list(CASES)
    for name, (code, text) in outputs.items():
        assert code == 0, name
        assert_matches_the_corpus(name, text)


def test_the_comparator_reads_json():
    with open(os.path.join(HERE, "measures_qutrit_S.json")) as fh:
        want = fh.read()
    mana = "0.5108256237659903"
    assert_within_tolerance(differences(json.loads(want.replace(mana, "0.5108256237659913")),
                                        json.loads(want)))
    for moved in (want.replace(mana, "0.5108256238659903"),
                  want.replace('"nearest_count": 8', '"nearest_count": 8.0'),
                  want.replace('"M2": "log 2"', '"M2": "log(2)"'),
                  want.replace(f'"mana": {mana},', "")):
        assert moved != want
        with pytest.raises(AssertionError):
            assert_within_tolerance(differences(json.loads(moved), json.loads(want)))


def test_the_comparator_reads_numbers_in_text():
    with open(os.path.join(HERE, "measures_qutrit_S.txt")) as fh:
        want = fh.read()
    assert_within_tolerance(text_differences(want.replace("0.69314718056", "0.693147180560001"),
                                             want))
    for moved in (want.replace("0.69314718056", "0.69314718057"),
                  want.replace("states: 8", "states: 9"),
                  want.replace("[log 2]", "[log(2)]")):
        with pytest.raises(AssertionError):
            assert_within_tolerance(text_differences(moved, want))


def test_regenerate_reports_the_largest_float_move_and_any_other_change():
    with open(os.path.join(HERE, "measures_qutrit_S.json")) as fh:
        want = fh.read()
    mana = "0.5108256237659903"
    assert describe("a.json", want.replace(mana, "0.5108256237659913"), want) == (
        "a.json: largest float move 1e-15, nothing but floats changed")
    moved = want.replace(mana, "0.52").replace('"nearest_count": 8', '"nearest_count": 8.0')
    assert describe("a.json", moved, want) == (
        "a.json: largest float move 0.0092, 1 other differences, the first at a.json.nearest_count")
    with open(os.path.join(HERE, "measures_qutrit_S.txt")) as fh:
        want = fh.read()
    assert describe("a.txt", want.replace("states: 8", "states: 9"), want).endswith(
        "largest float move 0, 1 other differences, the first at numbers[5]")
