"""Stabilizer formalism and magic measures for prime-dimensional qudits.

Table-free Weyl-Heisenberg transforms, stabilizer-state enumeration,
Clifford groups, the mana / stabilizer-fidelity / stabilizer-Renyi-entropy
measure family, perturbative extremality analysis, a doubled five-qubit
distillation simulator, and a stabilizer-extent solver.

The public names below load their submodule on first access (PEP 562), so
`import quditmagic` itself imports no submodule.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": ("build", "entries", "entry", "verify_catalog", "verify_equivalences"),
    "clifford": ("CliffordElement", "FiniteUnitaryGroup", "ReducedCliffordGroup",
                 "affine_from_clifford", "clifford_equivalence_search", "clifford_from_affine",
                 "clifford_group_order", "enumerate_reduced_clifford", "group_projector",
                 "group_stabilizer_states", "is_clifford", "metaplectic_V",
                 "nondegenerate_eigenstates", "twirl", "word_unitary"),
    "distill": ("PairParams", "distill_step", "iterate_protocol", "pair_basis",
                "project_T_overlaps"),
    "extent": ("ExtentProblem", "ExtentSolution", "solve_extent", "witness_bound"),
    "extremality": ("CriticalReport", "PerturbationFrame", "classify_mana", "classify_xi2",
                    "fidelity_expansion", "l_matrix", "mana_expansion", "w_matrix",
                    "xi2_expansion"),
    "measures": ("group_stabilizer_fidelity", "mana", "mixed_sre2", "pauli_distribution", "sre",
                 "sre_upper_bound", "stabilizer_fidelity", "wigner_function",
                 "wigner_trace_norm", "xi"),
    "phasespace": ("Dims", "enumerate_maximal_isotropic", "is_symplectic", "mod_inverse",
                   "symplectic_product"),
    "stabilizers": ("StabilizerDictionary", "StabilizerState", "enumerate_stabilizer_states",
                    "max_overlap", "stabilizer_state"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "errors", "tables", "tolerances", "weyl"}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f".{_HOME[name]}", __name__)
    # Bind the public names of every loaded submodule at once: later reads of
    # any of them are plain attribute lookups, so a hot loop over
    # `quditmagic.sre` and its siblings never comes back here.
    namespace = globals()
    for home, names in _EXPORTS.items():
        module = sys.modules.get(f"{__name__}.{home}")
        if module is not None:
            for export in names:
                namespace.setdefault(export, getattr(module, export))
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
