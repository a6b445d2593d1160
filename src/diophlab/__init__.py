"""Desk-scale laboratory for counting statistics of Diophantine approximants.

The package computes the number of integer solutions of weighted systems
|p_i + <u_i, q>| < theta_i * ||q||^{-w_i} both directly and through lattice
observables, evaluates the closed-form mean/variance constants, and runs
seeded Monte Carlo experiments that probe the law of large numbers and the
central limit behaviour of the normalized counts.
"""

from diophlab.problem import (
    ApproximationProblem,
    Norm,
    WeightedBoxFunction,
    domain_volume,
    omega_n,
    validate,
)
from diophlab.counting import (
    Convention,
    CountResult,
    MatrixU,
    count_direct,
    normalize_clt,
)
from diophlab.lattice import (
    UnimodularLattice,
    alpha,
    apply_flow,
    lattice_from_u,
    siegel_transform_box,
    siegel_transform_points,
    truncated_siegel,
)
from diophlab.theory import (
    TheoryConstants,
    constants,
    divisor_sum_check,
    n_solutions,
    overlap_length,
    theta_infinity,
    zeta,
)
from diophlab.errors import CapExceededError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "ApproximationProblem",
    "CapExceededError",
    "Convention",
    "CountResult",
    "MatrixU",
    "Norm",
    "TheoryConstants",
    "UnimodularLattice",
    "ValidationError",
    "WeightedBoxFunction",
    "alpha",
    "apply_flow",
    "constants",
    "count_direct",
    "divisor_sum_check",
    "domain_volume",
    "lattice_from_u",
    "n_solutions",
    "normalize_clt",
    "omega_n",
    "overlap_length",
    "siegel_transform_box",
    "siegel_transform_points",
    "theta_infinity",
    "truncated_siegel",
    "validate",
    "zeta",
]
