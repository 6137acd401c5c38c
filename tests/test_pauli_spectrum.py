"""The one-slot Pauli spectrum memo of `measures.pauli_distribution`, and the
refusal of non-finite input by the scalar measures.

Every M_alpha of one state is a moment of one spectrum, so a second alpha on
the same state reads the stored spectrum.  The slot is keyed by (d, N, shape,
bytes) of the complex128 input: anything else recomputes.
"""

import numpy as np
import pytest

from quditmagic import catalog, measures
from quditmagic.cli import main
from quditmagic.errors import DimensionMismatchError
from quditmagic.measures import (
    mana,
    mixed_sre2,
    pauli_distribution,
    sre,
    stabilizer_fidelity,
    wigner_function,
    xi,
)
from quditmagic.phasespace import Dims
from test_measure_kernels import SCAN_DIMS


def haar_state(D, rng):
    v = rng.normal(size=D) + 1j * rng.normal(size=D)
    return v / np.linalg.norm(v)


@pytest.fixture
def transforms(monkeypatch):
    """Counts the character transforms `pauli_distribution` runs, from an empty slot."""
    calls = []
    real = measures.shifted_characters

    def counted(x, dims):
        calls.append(dims)
        return real(x, dims)

    monkeypatch.setattr(measures, "shifted_characters", counted)
    monkeypatch.setattr(measures, "_last_spectrum", (None, None))
    return calls


@pytest.mark.parametrize("dims", SCAN_DIMS, ids=str)
def test_hit_returns_the_bits_of_a_fresh_miss(dims, transforms):
    rng = np.random.default_rng(dims.D)
    psi, other = haar_state(dims.D, rng), haar_state(dims.D, rng)
    first = pauli_distribution(psi, dims).probs
    hit = pauli_distribution(psi, dims).probs
    hit_xi = (xi(psi, dims, 2.0), xi(psi, dims, 3.0), sre(psi, dims, 2.5))
    assert hit is first and len(transforms) == 1
    pauli_distribution(other, dims)                      # evicts psi's spectrum
    fresh = pauli_distribution(psi, dims).probs
    assert len(transforms) == 3 and fresh is not first
    assert fresh.tobytes() == first.tobytes()
    for alpha, value in zip((2.0, 3.0), hit_xi):
        pauli_distribution(other, dims)
        assert xi(psi, dims, alpha) == value
    pauli_distribution(other, dims)
    assert sre(psi, dims, 2.5) == hit_xi[2]


def test_other_input_bytes_or_dims_recompute(transforms):
    dims = Dims(2, 2)
    psi = haar_state(dims.D, np.random.default_rng(3))
    pauli_distribution(psi, dims)
    pauli_distribution(psi.copy(), dims)                 # same bytes, another array
    assert len(transforms) == 1
    nudged = psi.copy()
    nudged[1] = np.nextafter(nudged[1].real, 2.0) + 1j * nudged[1].imag
    pauli_distribution(nudged, dims)                     # one ulp in one amplitude
    assert len(transforms) == 2
    before = pauli_distribution(psi, dims).probs
    psi[2] *= -1                                         # an in-place edit of the caller's array
    after = pauli_distribution(psi, dims).probs
    assert len(transforms) == 4 and not np.array_equal(before, after)
    real = np.array([1.0, 0.0, 0.0, 0.0])
    pauli_distribution(real.astype(np.complex128), dims)
    pauli_distribution(real, dims)                       # real dtype, same complex128 bytes: a hit
    assert len(transforms) == 5
    pauli_distribution([0, 1, 0, 0], dims)               # a list: other bytes
    pauli_distribution(np.array([1.0, 0.0]), Dims(2, 1))  # other dims
    assert len(transforms) == 7
    three = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=np.complex128)
    pauli_distribution(three, Dims(3, 2))
    pauli_distribution(three[:3], Dims(3, 1))
    assert len(transforms) == 9


def test_same_bytes_in_another_shape_still_refused(transforms):
    dims = Dims(3, 1)
    psi = haar_state(dims.D, np.random.default_rng(4))
    for shape, other in (((1, dims.D), dims), ((dims.D,), Dims(2, 1))):
        pauli_distribution(psi, dims)
        with pytest.raises(DimensionMismatchError):
            pauli_distribution(psi.reshape(shape), other)
        assert measures._last_spectrum == (None, None)   # a refused call stores nothing


def test_spectrum_is_read_only():
    dims = Dims(3, 1)
    psi = haar_state(dims.D, np.random.default_rng(5))
    probs = pauli_distribution(psi, dims).probs
    with pytest.raises(ValueError):
        probs[0] = 0
    kept = probs.copy()
    xi(psi, dims)        # the alpha = 2 branch squares a copy, not the stored spectrum
    assert pauli_distribution(psi, dims).probs is probs and np.array_equal(probs, kept)


def test_cli_alphas_run_one_transform(transforms, capsys):
    assert main(["measures", "qutrit:S", "--alphas", "2,3,4"]) == 0
    assert capsys.readouterr().out.count("M_") == 3
    assert len(transforms) == 1


def test_verify_catalog_runs_one_transform_per_m2_entry(transforms):
    computes_m2 = [e for e in catalog.entries().values()
                   if "M2" in e.expected or e.m_alpha is not None or e.saturates_sre_bound]
    checks = catalog.verify_catalog()
    assert len(transforms) == len(computes_m2)
    assert any(e.m_alpha is not None for e in computes_m2)   # these read M3 from the slot
    failures = [c for c in checks if not c.passed]
    equivalences = catalog.verify_equivalences()
    failures += [c for c in equivalences if not c.passed]
    assert (len(checks) + len(equivalences), failures) == (363, [])


NON_FINITE = [np.array([np.nan, 1, 0]), np.array([np.inf, 1, 0]),
              np.array([1, 0, np.nan]) / 1j]


@pytest.mark.parametrize("psi", NON_FINITE, ids=["nan", "inf", "nan-phase"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scalar_measures_refuse_non_finite_input(psi):
    dims = Dims(3, 1)
    calls = [lambda: sre(psi, dims), lambda: sre(psi, dims, 3.0), lambda: xi(psi, dims, 2.5),
             lambda: mana(psi, dims), lambda: wigner_function(psi, dims),
             lambda: mixed_sre2(psi, dims), lambda: mixed_sre2(np.outer(psi, psi.conj()), dims),
             lambda: stabilizer_fidelity(psi, dims=dims)]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # the spectrum itself is returned as computed
    assert not np.isfinite(pauli_distribution(psi, dims).probs).all()


def test_mixed_sre2_refuses_the_zero_operator():
    dims = Dims(3, 1)
    for zero in (np.zeros((3, 3)), np.zeros(3)):
        with pytest.raises(ValueError, match="zero or not finite"):
            mixed_sre2(zero, dims)
