"""Simulation and certification toolkit for steering on linear quantum
networks with trusted endpoints and independent sources."""

from .operators import (
    QOperator,
    is_density,
)
from .states import (
    DEWParams,
    classical_correlated,
    dew,
    psi_minus,
    werner,
)
from .measurements import (
    POVM,
    SeparableMeasurement,
    bell_swap_povm,
    computational_basis_povm,
    input_encoded_measurement,
    pauli_projective,
)
from .network import (
    LinearNetwork,
    NetworkAssemblage,
    condition_on_trusted_measurement,
    lift_inputless_to_conditional,
    line_assemblage,
    standard_assemblage,
    untrusted_input_to_outcome,
)
from .certificates import (
    Verdict,
    certify_network_steering,
    claims_pipeline,
    linear_steering_witness,
)
from .nlhs import (
    NLHSModel,
    SeparableDecomposition,
    SourceSlot,
    build_percolation_line,
    nlhs_to_separable_realization,
    reconstruct,
    separabilize_endpoint,
)

__version__ = "0.1.0"
