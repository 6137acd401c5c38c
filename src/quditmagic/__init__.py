"""Stabilizer formalism and magic measures for prime-dimensional qudits.

Table-free Weyl-Heisenberg transforms, stabilizer-state enumeration,
Clifford groups, the mana / stabilizer-fidelity / stabilizer-Renyi-entropy
measure family, perturbative extremality analysis, a doubled five-qubit
distillation simulator, and a stabilizer-extent solver.
"""

from .catalog import build, entries, entry, verify_catalog, verify_equivalences
from .clifford import (
    CliffordElement,
    FiniteUnitaryGroup,
    ReducedCliffordGroup,
    affine_from_clifford,
    clifford_equivalence_search,
    clifford_from_affine,
    clifford_group_order,
    enumerate_reduced_clifford,
    group_projector,
    group_stabilizer_states,
    is_clifford,
    metaplectic_V,
    nondegenerate_eigenstates,
    qudit_clifford_generators,
    reduced_clifford_group,
    twirl,
    word_unitary,
)
from .distill import (
    PairParams,
    distill_step,
    iterate_protocol,
    pair_basis,
    project_T_overlaps,
)
from .extent import ExtentProblem, ExtentSolution, solve_extent, witness_bound
from .extremality import (
    CriticalReport,
    PerturbationFrame,
    classify_mana,
    classify_xi2,
    fidelity_expansion,
    l_matrix,
    mana_expansion,
    w_matrix,
    xi2_expansion,
)
from .measures import (
    MeasureReport,
    group_stabilizer_fidelity,
    mana,
    measure_report,
    mixed_sre2,
    pauli_distribution,
    sre,
    sre_upper_bound,
    stabilizer_fidelity,
    wigner_function,
    wigner_trace_norm,
    xi,
)
from .phasespace import (
    Dims,
    IsotropicSubspace,
    enumerate_maximal_isotropic,
    is_symplectic,
    mod_inverse,
    symplectic_product,
)
from .stabilizers import (
    StabilizerDictionary,
    StabilizerState,
    enumerate_stabilizer_states,
    max_overlap,
    stabilizer_state,
)

__version__ = "0.1.0"
