"""Numerical laboratory for conclusive purification of two-qubit pure states.

Builds the two-parameter Kraus family whose success branch turns two copies
of any pure input into a state diagonal in {|00>, |11>}, chains two such
rounds into an exact Bell-state pipeline, checks the closed-form success
probabilities and optimality bounds at matrix level, and computes Haar
averages of the success probability both analytically and by seeded,
reproducible Monte Carlo.
"""

from .kraus import (
    CANONICAL_PARAMS,
    KrausParams,
    apply_kraus,
    build_kraus,
    check_universality_constraints,
    lift_local_kraus,
    pauli_expand,
)
from .linalg import (
    bell_phi_plus,
    fidelity_up_to_phase,
    schmidt_state,
)
from .protocols import (
    ProtocolResult,
    four_copy_bell_bound,
    full_pipeline,
    kalman_stage1_prob,
    kalman_stage2_prob,
    schmidt_conversion_bound,
    schmidt_pair_bound,
    stage1,
    stage2,
)
from .sampling import (
    MonteCarloEstimate,
    known_basis_average_mc,
    known_basis_average_quadrature,
    schmidt_lambda_pdf,
    unknown_basis_average_exact,
    unknown_basis_average_mc,
)
from .vidal import (
    monotones,
    optimal_two_copy_prob,
    universal_two_copy_prob,
    vidal_probability,
)

__version__ = "0.1.0"
