"""Seeded state-vector simulator for eigenvalue extraction by phase estimation.

The package splits into a simulation core (:mod:`~spectral_qpe.statevector`,
:mod:`~spectral_qpe.qft`), Hamiltonian evolution
(:mod:`~spectral_qpe.hamiltonian`), the estimation pipeline
(:mod:`~spectral_qpe.phase_estimation`), demo problems and resource
arithmetic (:mod:`~spectral_qpe.problems`), a dense classical reference
engine (:mod:`~spectral_qpe.oracle`), and a batch CLI
(:mod:`~spectral_qpe.cli`).
"""

from .errors import AuditFailure, ConfigFieldError, ContractViolation
from .hamiltonian import (
    HamiltonianSum,
    LocalTerm,
    exact_unitary,
    term_exponential,
    unitary_from_decomposition,
)
from .oracle import (
    MAX_DENSE_QUBITS,
    SpectralDecomposition,
    assemble_dense,
    eigendecompose,
    embed_operator,
    spectral_amplitudes,
    spectral_components,
)
from .phase_estimation import (
    EigenResult,
    PhaseEstimationConfig,
    PhaseSample,
    Run,
    analytic_bin_distribution,
    analytic_collapsed_states,
    apply_conditional_powers_binary,
    apply_conditional_powers_flag_loop,
    audit,
    default_peak_threshold,
    eigenvector_fidelity,
    phase_to_energy,
    pre_measurement_distribution,
    pre_measurement_state,
    prepare_index_superposition,
    sample_spectrum,
)
from .problems import (
    GridRecipe,
    ResourceEstimate,
    build_transverse_ising,
    product_state_guess,
    resource_estimate,
    sample_potential,
)
from .qft import qft_forward, qft_inverse
from .statevector import (
    GateMatrix,
    RegisterLayout,
    StateVector,
    apply_controlled_gate,
    apply_diagonal_phase,
    apply_gate,
    hadamard,
    load_amplitudes,
    new_basis_state,
    register_distribution,
    register_values,
    swap_gate,
    trial_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AuditFailure",
    "ConfigFieldError",
    "ContractViolation",
    "HamiltonianSum",
    "LocalTerm",
    "exact_unitary",
    "term_exponential",
    "unitary_from_decomposition",
    "MAX_DENSE_QUBITS",
    "SpectralDecomposition",
    "assemble_dense",
    "eigendecompose",
    "embed_operator",
    "spectral_amplitudes",
    "spectral_components",
    "EigenResult",
    "PhaseEstimationConfig",
    "PhaseSample",
    "Run",
    "analytic_bin_distribution",
    "analytic_collapsed_states",
    "apply_conditional_powers_binary",
    "apply_conditional_powers_flag_loop",
    "audit",
    "default_peak_threshold",
    "eigenvector_fidelity",
    "phase_to_energy",
    "pre_measurement_distribution",
    "pre_measurement_state",
    "prepare_index_superposition",
    "sample_spectrum",
    "GridRecipe",
    "ResourceEstimate",
    "build_transverse_ising",
    "product_state_guess",
    "resource_estimate",
    "sample_potential",
    "qft_forward",
    "qft_inverse",
    "GateMatrix",
    "RegisterLayout",
    "StateVector",
    "apply_controlled_gate",
    "apply_diagonal_phase",
    "apply_gate",
    "hadamard",
    "load_amplitudes",
    "new_basis_state",
    "register_distribution",
    "register_values",
    "swap_gate",
    "trial_stream",
    "__version__",
]
