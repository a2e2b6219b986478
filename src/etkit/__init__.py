"""Variational-style eigenvalue estimates for N-body Hamiltonians.

The package computes approximate spectra of systems of N identical
particles with one-body and pairwise interactions, upgrades them with a
quantum-number weight extracted from a harmonic expansion around the
stationary point, and cross-checks two-body cases against an
independent radial shooting solver.
"""

from .dos import compute_phi, improved_energy, improved_energy_at
from .errors import (
    AmbiguousSolution,
    ConvergenceError,
    DegenerateSlope,
    DomainError,
    EtkitError,
    NegativeStiffness,
    NoBoundState,
    NoSolution,
    PhiUndefined,
    UnboundRegime,
)
from .et_core import energy, solve_radius
from .model import (
    Bound,
    InteractionTriple,
    QuantumNumbers,
    SystemSpec,
    global_q,
    nu_lambda,
    q_phi,
)
from .oracle import radial_eigenvalue
from .specfun import beta, lambert_w0, quartic_root_g
from .systems import (
    BaryonParams,
    ConfinedParams,
    GaussianParams,
    PowerLaw1Params,
    PowerLaw2Params,
    baryon_energy,
    baryon_phi,
    baryon_system,
    bsq_ratio_coeffs,
    confined_energy,
    confined_phi,
    confined_system,
    confined_y,
    gaussian_energy,
    gaussian_harmonic_limit,
    gaussian_phi,
    gaussian_system,
    gaussian_y,
    powerlaw1_energy,
    powerlaw1_phi,
    powerlaw1_system,
    powerlaw2_energy,
    powerlaw2_phi,
    powerlaw2_system,
    table1,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSolution",
    "BaryonParams",
    "Bound",
    "ConfinedParams",
    "ConvergenceError",
    "DegenerateSlope",
    "DomainError",
    "EtkitError",
    "GaussianParams",
    "InteractionTriple",
    "NegativeStiffness",
    "NoBoundState",
    "NoSolution",
    "PhiUndefined",
    "PowerLaw1Params",
    "PowerLaw2Params",
    "QuantumNumbers",
    "SystemSpec",
    "UnboundRegime",
    "baryon_energy",
    "baryon_phi",
    "baryon_system",
    "beta",
    "bsq_ratio_coeffs",
    "compute_phi",
    "confined_energy",
    "confined_phi",
    "confined_system",
    "confined_y",
    "energy",
    "gaussian_energy",
    "gaussian_harmonic_limit",
    "gaussian_phi",
    "gaussian_system",
    "gaussian_y",
    "global_q",
    "improved_energy",
    "improved_energy_at",
    "lambert_w0",
    "nu_lambda",
    "powerlaw1_energy",
    "powerlaw1_phi",
    "powerlaw1_system",
    "powerlaw2_energy",
    "powerlaw2_phi",
    "powerlaw2_system",
    "q_phi",
    "quartic_root_g",
    "radial_eigenvalue",
    "solve_radius",
    "table1",
]
