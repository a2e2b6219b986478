"""Dominantly orbital treatment and the improved quantum number.

For states whose motion is mostly orbital (lambda large against nu),
the energy can be organised as a circular orbit at collective orbital
number lambda plus small radial vibrations:

    E ~ E0(lambda) + A nu        (radial mode, frequency A)
    E(Q) expanded in Q near lambda has slope B = dE/d(eps) at
    Q = lambda (1 + eps)

The ratio phi = lambda A / B measures how much a radial excitation
costs relative to an orbital one.  Feeding Q_phi = phi nu + lambda back
into the envelope solver keeps the orbital physics of the plain method
but re-weights radial excitations; phi = 2 reproduces it identically.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .errors import (
    DegenerateSlope,
    DomainError,
    NegativeStiffness,
    PhiUndefined,
    require_finite_positive,
)
from .et_core import energy, solve_radius
from .model import (
    Bound,
    EtSolution,
    PhiResult,
    QuantumNumbers,
    SystemSpec,
    nu_lambda,
    q_phi,
)

__all__ = ["compute_phi", "improved_energy", "improved_energy_at"]


def _orbit_terms(spec: SystemSpec, lam: float, r0: float) -> tuple[float, float, float]:
    """(a_sq, b_n, b_d) of the circular orbit at r0.

    Each triple derivative is evaluated once.  a_sq is the squared
    frequency of the radial vibration around the orbit, stiffness over
    mass.  b_n and b_d are the numerator and denominator of the orbital
    energy slope; b_d equals minus the radial derivative of the
    stationarity mismatch, so it vanishes exactly when the optimum
    radius is a degenerate (tangent) root.
    """
    p0 = lam / r0
    t1 = float(spec.kinetic.d1(p0))
    if t1 <= 0.0:
        raise DomainError(
            f"kinetic derivative must be positive at p0={p0:.6g}, got {t1:.6g}"
        )
    t2 = float(spec.kinetic.d2(p0))
    root_c = spec._root_pair_count
    u1 = float(spec.onebody.d1(r0 / spec.N))
    u2 = float(spec.onebody.d2(r0 / spec.N))
    v1 = float(spec.pairwise.d1(r0 / root_c))
    v2 = float(spec.pairwise.d2(r0 / root_c))
    mu = lam / (spec.N * r0 * t1)
    stiffness = (
        spec.N * lam / r0 ** 4 * (2.0 * r0 * t1 + lam * t2)
        + u2 / spec.N
        + v2
    )
    b_n = (
        spec.N * lam / r0 * (2.0 * t1 + lam / r0 * t2) * (u1 + root_c * v1)
        + lam * t1 * (u2 + spec.N * v2)
    )
    b_d = (
        spec.N * lam * t1 / r0 ** 2
        + spec.N * lam ** 2 * t2 / r0 ** 3
        + u1
        + r0 * u2 / spec.N
        + root_c * v1
        + r0 * v2
    )
    return stiffness / mu, b_n, b_d


def compute_phi(spec: SystemSpec, lam) -> PhiResult:
    """phi = lambda A / B from one orbit solve at Q = lambda.

    The result also carries the radial-mode frequency squared (a_sq) and
    the slope B split into numerator and denominator (b_n, b_d).
    """
    lam = float(lam)
    if lam == 0.0:
        raise PhiUndefined(
            "phi needs a state with orbital excitation: lambda = 0 "
            "(all internal modes in an s-wave in D = 2)"
        )
    require_finite_positive("lambda", lam)
    if spec.precheck is not None:
        spec.precheck(lam)
    r0 = solve_radius(spec, lam)
    a_sq, b_n, b_d = _orbit_terms(spec, lam, r0)
    if a_sq < 0.0:
        raise NegativeStiffness(
            f"radial mode unstable for {spec.label} at lambda={lam:.6g}: "
            f"A^2 = {a_sq:.6g}"
        )
    if b_d == 0.0:
        raise DegenerateSlope(
            f"slope denominator vanished for {spec.label} at lambda={lam:.6g}"
        )
    if b_n == 0.0:
        raise DegenerateSlope(
            f"slope numerator vanished for {spec.label} at lambda={lam:.6g}"
        )
    phi = lam * math.sqrt(a_sq) * (b_d / b_n)
    if not math.isfinite(phi) or phi <= 0.0:
        raise DomainError(
            f"phi = {phi!r} for {spec.label} at lambda={lam:.6g} is outside "
            f"the method's domain"
        )
    return PhiResult(phi=phi, a_sq=a_sq, b_n=b_n, b_d=b_d, lam=lam, r0_at_lam=r0)


def improved_energy_at(
    spec: SystemSpec, nu: float, lam: float, phi: float | None = None
) -> tuple[EtSolution, PhiResult | None]:
    """Improved solve at explicit collective numbers (nu, lambda).

    phi = None computes phi from the orbit at lambda; a number uses it
    as given and skips that solve.  Whenever the phi in effect is not
    exactly 2 the variational tag of the result is reset to NONE: the
    bound catalogue only covers the plain method.
    """
    nu = require_finite_positive("nu", nu)
    lam = require_finite_positive("lambda", lam, allow_zero=True)
    if phi is None:
        diag: PhiResult | None = compute_phi(spec, lam)
        phi_used = diag.phi
    else:
        diag = None
        phi_used = require_finite_positive("phi", phi)
    sol = energy(spec, q_phi(nu, lam, phi_used))
    if phi_used != 2.0 and sol.bound is not Bound.NONE:
        sol = replace(sol, bound=Bound.NONE)
    return sol, diag


def improved_energy(
    spec: SystemSpec, qn: QuantumNumbers, phi: float | None = None
) -> tuple[EtSolution, PhiResult | None]:
    """Five-step improved solve for a set of quantum numbers.

    Fix (nu, lambda); solve the orbit at Q = lambda; form phi; build
    Q_phi = phi nu + lambda; solve the envelope equations there.
    Returns the solution together with the phi diagnostics (None when
    phi was supplied).
    """
    nu, lam = nu_lambda(qn, spec)
    if lam == 0:
        raise PhiUndefined(
            "phi needs a state with orbital excitation: lambda = 0 "
            "(all internal modes in an s-wave in D = 2)"
        )
    return improved_energy_at(spec, float(nu), float(lam), phi)
