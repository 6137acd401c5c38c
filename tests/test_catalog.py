import json
import math
import re

import numpy as np
import pytest

from quditmagic.catalog import (
    EQUIVALENCES,
    build,
    entries,
    entry,
    ket,
    resolve,
    verify_catalog,
    verify_equivalences,
)
from quditmagic.clifford import nondegenerate_eigenstates
from quditmagic.errors import DimensionMismatchError, UnknownStateError
from quditmagic.measures import sre, sre_upper_bound
from quditmagic.phasespace import Dims
from quditmagic.weyl import equal_up_to_phase


def test_build_examples():
    S = build("qutrit:S")
    assert np.allclose(S, np.array([0, 1, -1]) / np.sqrt(2))
    x = build("ququint:XVS,1")
    w = np.exp(2j * np.pi / 5)
    assert np.allclose(x, np.array([1, 1, w ** 3, 1, w ** 2]) / np.sqrt(5))
    g = build("2q:G4,2")
    assert np.allclose(g, np.array([2, 1, 1, 0]) / np.sqrt(6))


def test_aliases_and_unknown():
    assert np.allclose(build("qubit:T"), build("qubit:T0"))
    with pytest.raises(UnknownStateError):
        build("qutrit:bogus")


def test_resolve_names_and_aliases():
    for name in ("qutrit:S", "qubit:T", "2q:psi00", "ququint:H,1;1"):
        psi, dims = resolve(name)
        assert np.array_equal(psi, build(name)) and dims == entry(name).dims


def test_resolve_prod():
    psi, dims = resolve("prod:1,2q:G20,1")
    assert np.array_equal(psi, np.kron(ket(1), build("2q:G20,1"))) and dims == Dims(2, 3)
    psi, dims = resolve("prod:1,prod:0,qubit:T0")
    assert np.array_equal(psi, np.kron(ket(1), np.kron(ket(0), build("qubit:T0"))))
    assert dims == Dims(2, 3)
    # the prod: labels of the equivalence rows
    labels = {label for s, _, t in EQUIVALENCES for label in (s, t) if label.startswith("prod:")}
    assert labels == {"prod:0,2q:G4,2", "prod:0,2q:G20,4"}
    for label in labels:
        assert resolve(label)[1] == Dims(2, 3)


def test_resolve_json_inline_and_from_a_file(tmp_path):
    psi = np.array([1, 1j, -1]) / np.sqrt(3)
    s = 1 / np.sqrt(3)
    text = json.dumps({"d": 3, "N": 1, "amplitudes": [[s, 0.0], [0.0, s], [-s, 0.0]]})
    path = tmp_path / "psi.json"
    path.write_text(text)
    for spec in (text, f"@{path}", "prod:0," + json.dumps(
            {"d": 2, "N": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]})):
        vec, dims = resolve(spec)
        if spec.startswith("prod:"):
            assert np.array_equal(vec, ket(0, 1)) and dims == Dims(2, 2)
        else:
            assert np.allclose(vec, psi) and dims == Dims(3, 1)
    with pytest.raises(DimensionMismatchError, match="expected 3 amplitudes"):
        resolve('{"d": 3, "N": 1, "amplitudes": [[1, 0], [0, 0]]}')


def test_all_states_normalized():
    for name, e in entries().items():
        assert abs(np.linalg.norm(e.build()) - 1) < 1e-12, name


def test_verify_catalog_all_pass():
    checks = verify_catalog()
    failed = [c for c in checks if not c.passed]
    assert not failed, [(c.name, c.expected, c.got) for c in failed]


def test_m_alpha_is_the_sre_of_the_state_at_every_alpha():
    # verify_catalog compares alpha 2 and 3 only; the spectra hold at any alpha
    with_m_alpha = {name: e for name, e in entries().items() if e.m_alpha is not None}
    assert len(with_m_alpha) == 30
    for name, e in with_m_alpha.items():
        psi = e.build()
        for alpha in (2.0, 2.5, 3.0, 4.0, 7.0):
            assert abs(e.m_alpha(alpha) - sre(psi, e.dims, alpha)) < 1e-12, (name, alpha)


def _evaluate_exact(text: str) -> float:
    """The value of an exact-form string such as '(1+2cos(2pi/9))^2/9' or
    'log 2': sqrtN reads as sqrt(N), and a digit or ')' before a name or '('
    is a product."""
    expr = text.replace("^", "**").replace("log 2", "log(2)")
    expr = re.sub(r"sqrt(\d+)", r"sqrt(\1)", expr)
    expr = re.sub(r"(?<=[\d)])(?=[a-z(])", "*", expr)
    return eval(expr, {"__builtins__": {}}, vars(math))


def test_exact_forms_evaluate_to_their_values():
    pairs = [pair for e in entries().values() for pair in e.expected.values()]
    assert len(pairs) == 78 and len({exact for exact, _ in pairs}) == 41
    for exact, value in pairs:
        assert _evaluate_exact(exact) == value, exact


def test_verify_equivalences_all_pass():
    res = verify_equivalences()
    assert all(e.passed for e in res), [(e.source, e.target)
                                        for e in res if not e.passed]


def test_eigenstate_declarations():
    for name, e in entries().items():
        if e.eigen_operator is None:
            continue
        psi = e.build()
        U = e.eigen_operator()
        if e.eigen_value is not None:
            assert np.linalg.norm(U @ psi - e.eigen_value * psi) < 1e-8, name
        eigs = nondegenerate_eigenstates(U, e.dims)
        assert any(equal_up_to_phase(v, psi) for _, v in eigs), name


def test_pair_basis_entries_match_distill_module():
    from quditmagic.distill import pair_basis
    pb = pair_basis()
    for i, name in enumerate(("2q:psi0", "2q:psi1", "2q:psi2", "2q:psi3")):
        assert np.allclose(build(name), pb[i])
    # psi3 is the stabilizer state (|00> + i|11>)/sqrt2
    expect = np.zeros(4, dtype=complex)
    expect[0], expect[3] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    assert np.allclose(build("2q:psi3"), expect, atol=1e-12)


def test_sre_bound_saturation_sets():
    # exactly T (d=2) and S, N (d=3) saturate the generic bound at alpha = 2;
    # G20,1 has the maximal two-qubit value log(16/7) but sits strictly below
    # the bound log(5/2), and no ququint eigenstate reaches log 3
    sat = {n for n, e in entries().items() if e.saturates_sre_bound}
    assert sat == {"qubit:T0", "qubit:T1", "qutrit:S", "qutrit:N"}
    for name in sat:
        e = entry(name)
        assert abs(sre(e.build(), e.dims) - sre_upper_bound(e.dims)) < 1e-10
    g = entry("2q:G20,1")
    assert sre(g.build(), g.dims) < sre_upper_bound(g.dims) - 0.05
    for name, e in entries().items():
        if name.startswith("ququint:") and e.eigen_operator is not None:
            assert sre(e.build(), e.dims) < sre_upper_bound(e.dims) - 1e-3, name


def test_catalog_eigenvalue_pairs_unique():
    # non-degenerate means each declared (operator, eigenvalue) pair is unique
    seen = {}
    for name, e in entries().items():
        if e.eigen_operator is None or e.eigen_value is None:
            continue
        key = (e.eigen_operator.__name__ if hasattr(e.eigen_operator, "__name__")
               else name, np.round(e.eigen_value, 9))
        assert key not in seen or seen[key] == name, (name, seen[key])
        seen[key] = name
