"""Scattering data and transition-matrix factorization for Jacobi systems.

The library computes plane-wave normalized solutions of the weighted
three-term recursion on the integer lattice, reads transmission and
reflection coefficients off their tails, assembles transition matrices,
and verifies the product formula over limit-padded fragments along with
the identities behind it.  Two independent extraction routes (a transfer
matrix product and Wronskian ratios) ship alongside the tail fits so
results can be cross-checked rather than trusted.
"""

from .errors import CoefficientError, NumericalFault, SpectralDomainError
from .jost import (
    conjugate_solution,
    equation_residual,
    jost_left,
    jost_right,
    jost_values,
    solution_range,
    wronskian,
)
from .lattice import (
    CoefficientSequence,
    CouplingSignWarning,
    Fragmentation,
    IndexWindow,
    Limits,
    coefficient_arrays,
    coefficient_at,
    effective_support,
    fragment,
    validate_sequence,
)
from .oracle import (
    step_matrix,
    transfer_matrix_scattering,
    transfer_matrix_values,
    wronskian_scattering,
    wronskian_values,
)
from .scattering import (
    extract_scattering,
    identity_sweep,
    scattering_amplitudes,
    scattering_values,
)
from .spectral import (
    CircleGrid,
    SpectralPoint,
    band_edges,
    lambda_from_z,
    require_admissible,
    sample_circle,
    wave_pair_det,
    z_from_lambda,
)
from .transition import (
    determinant_residuals,
    factorization_check,
    factorization_residuals,
    junction_residual_sweep,
    transition_entries,
    transition_for,
)

__version__ = "0.1.0"

__all__ = [
    "CircleGrid",
    "CoefficientError",
    "CoefficientSequence",
    "CouplingSignWarning",
    "Fragmentation",
    "IndexWindow",
    "Limits",
    "NumericalFault",
    "SpectralDomainError",
    "SpectralPoint",
    "band_edges",
    "coefficient_arrays",
    "coefficient_at",
    "conjugate_solution",
    "determinant_residuals",
    "effective_support",
    "equation_residual",
    "extract_scattering",
    "factorization_check",
    "factorization_residuals",
    "fragment",
    "identity_sweep",
    "jost_left",
    "jost_right",
    "jost_values",
    "junction_residual_sweep",
    "lambda_from_z",
    "require_admissible",
    "sample_circle",
    "scattering_amplitudes",
    "scattering_values",
    "solution_range",
    "step_matrix",
    "transfer_matrix_scattering",
    "transfer_matrix_values",
    "transition_entries",
    "transition_for",
    "validate_sequence",
    "wave_pair_det",
    "wronskian",
    "wronskian_scattering",
    "wronskian_values",
    "z_from_lambda",
]
