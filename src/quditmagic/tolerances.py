"""Every numerical threshold of the package, named once.

Plain module-level numbers, read at import: functions use them by name, or as
the default of the few tolerance parameters that callers set, so no call does
any work to find one.  Each comment says what the value decides.  The first
five are the defaults listed under Conventions in the README.
"""

# README Conventions defaults
IDENTITY_TOL = 1e-10       # exact identities: stabilizer-state equations, a saturated SRE bound
EQUALITY_TOL = 1e-9        # A = c B up to a global phase c, entrywise and relative to max(1, |B|)
TIE_TOL = 1e-9             # overlaps within this of the largest tie with it (the nearest set)
WIGNER_ZERO_TOL = 1e-10    # |W_chi| at or below this is a zero of the Wigner function
EXTENT_TOL = 1e-8          # duality gap at which the extent solver stops and reports convergence

# states, bases and phases
AMPLITUDE_TOL = 1e-12      # amplitudes at or below this are passed over for the phase reference
UNIT_PHASE_TOL = 1e-7      # least slack for |c| = 1 of a global phase c, whatever tol is given
ORTHONORMAL_TOL = 1e-9     # normalization, orthogonality and Gram-matrix checks of given vectors
SPAN_TOL = 1e-8            # a residual shorter than this lies in the span it was projected off
PSD_TOL = 1e-12            # density-matrix eigenvalues down to -PSD_TOL are rounding, not negative
RANGE_END_SLACK = 1e-12    # added to the stop of an eps3 sweep so that the stop itself is swept

# Wigner function and perturbative expansions
WIGNER_IMAG_TOL = 1e-9     # largest imaginary part of W, scaled by max(1, |W|), taken as rounding
COEFF_TOL = 1e-9           # an expansion coefficient at or below this in magnitude counts as zero

# stabilizer dictionary
BUILD_CHECK_TOL = 1e-8     # every built coset vector meets its subspace's equations within this

# Clifford operators, eigenstates and keys
PAULI_TOL = 1e-8           # U T U^dag has one Pauli coefficient above this, of modulus 1 within it
ROOT_OF_UNITY_TOL = 1e-6   # a conjugation phase this close to a d-th root of unity is that root
UNITARY_TOL = 1e-8         # |U^dag U - 1| allowed before eigenvectors are read off U
EIGEN_CLUSTER_TOL = 1e-8   # eigenvalues closer than this are one degenerate eigenvalue
GROUP_MATRIX_TOL = 1e-7    # a group average is a projector, a restricted element unitary
KEY_GRID = 1e-8            # grid of exact keys: group elements, searched and stabilized states
OVERLAP_DECIMALS = 8       # decimals of the sorted stabilizer overlaps that key a Clifford class
COMPANION_TOL = 1e-6       # an eigenstate overlapping the state by less is a companion direction
SEARCH_LEAD_TOL = 1e-6     # a state key's phase reference is the first entry above this

# stabilizer extent
FEASIBILITY_TOL = 1e-9     # the projected target may miss the dictionary span by this much
GRAM_CUTOFF = 1e-12        # Gram eigenvalues below this times max(1, the largest) count as zero
RANK_TOL = 1e-10           # singular values above this count toward the rank of a span
ACTIVE_SET_TOL = 1e-6      # |(A^dag y)_i| >= 1 - this puts atom i in the dual's active set

# catalog and tables
EXACT_TOL = 1e-9           # a closed-form catalog or table value is reproduced within this
PRINTED_TOL = 1e-4         # a value the paper prints to four decimals is reproduced within this
CATALOG_NORM_TOL = 1e-12   # a catalog state has unit norm within this
EIGEN_RESIDUAL_TOL = 1e-8  # |U psi - lambda psi| of a catalog eigenstate
