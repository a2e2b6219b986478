"""Variational-style eigenvalue estimates for N-body Hamiltonians.

The package computes approximate spectra of systems of N identical
particles with one-body and pairwise interactions, upgrades them with a
quantum-number weight extracted from a harmonic expansion around the
stationary point, and cross-checks two-body cases against an
independent radial shooting solver.

Public names load on first access (PEP 562), each from the module that
defines it, so that a process imports only what it uses: ``import
etkit`` loads no numpy, and the closed forms and the table run without
the generic solver or the oracle.
"""

import importlib

__version__ = "0.1.0"

# defining module of every public name
_EXPORTS = {
    "dos": ("compute_phi", "improved_energy", "improved_energy_at"),
    "errors": (
        "AmbiguousSolution",
        "ConvergenceError",
        "DegenerateSlope",
        "DomainError",
        "EtkitError",
        "NegativeStiffness",
        "NoBoundState",
        "NoSolution",
        "PhiUndefined",
        "UnboundRegime",
    ),
    "et_core": ("energy", "solve_radius"),
    "model": (
        "Bound",
        "InteractionTriple",
        "QuantumNumbers",
        "SystemSpec",
        "global_q",
        "nu_lambda",
        "q_phi",
    ),
    "oracle": ("radial_eigenvalue",),
    "specfun": ("beta", "lambert_w0", "quartic_root_g"),
    "systems": (
        "BaryonParams",
        "ConfinedParams",
        "GaussianParams",
        "PowerLaw1Params",
        "PowerLaw2Params",
        "baryon_energy",
        "baryon_phi",
        "baryon_system",
        "bsq_ratio_coeffs",
        "confined_energy",
        "confined_phi",
        "confined_system",
        "confined_y",
        "gaussian_energy",
        "gaussian_harmonic_limit",
        "gaussian_phi",
        "gaussian_system",
        "gaussian_y",
        "powerlaw1_energy",
        "powerlaw1_phi",
        "powerlaw1_system",
        "powerlaw2_energy",
        "powerlaw2_phi",
        "powerlaw2_system",
        "table1",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
