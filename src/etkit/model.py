"""Value types shared by the solver modules.

A Hamiltonian for N identical particles of the form

    H = sum_i T(|p_i|) + sum_i U(|r_i - R|) + sum_{i<j} V(|r_i - r_j|)

is described by three interaction triples (function plus first and
second derivative) together with N and the space dimension D.  Quantum
numbers are kept as exact rationals (every collective number is an
integer over 2) and only converted to float at solver entry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .errors import DomainError, require_finite_positive, require_particle_count

__all__ = [
    "Bound",
    "InteractionTriple",
    "SystemSpec",
    "QuantumNumbers",
    "EtSolution",
    "PhiResult",
    "global_q",
    "nu_lambda",
    "q_phi",
]


class Bound(enum.Enum):
    """Variational character of an envelope-theory energy."""

    UPPER = "upper"
    LOWER = "lower"
    NONE = "none"


@dataclass(frozen=True)
class InteractionTriple:
    """A radial function together with its first two derivatives.

    The solver differentiates nothing numerically: whoever builds the
    system supplies value, d1 and d2 as consistent callables.  The test
    suite checks the built-in triples against finite differences.

    The oracle mesh and the oracle's probes call a callable once with a
    numpy array of points, numpy warnings silenced, and so does the scan
    grid once numpy is loaded, by the caller, the Gaussian family or the
    oracle, or once the process's per-point scans have evaluated about
    3e5 points (about what importing numpy costs).  Until then the scan
    calls the callable once per grid point with a float, and the two ways
    agree to within a few ulps, not bit for bit.  So write it with
    ``np.*`` functions or plain arithmetic that works element-wise; a
    constant return value is fine.  Scalar-only callables (``math.exp``,
    ``if x > 0``) still work: when the array call raises or returns the
    wrong shape, the callable is called once per point, which is much
    slower.  A point whose call overflows reads as inf, and one that
    raises ValueError or ZeroDivisionError as NaN; the scan skips
    non-finite points, and the oracle raises DomainError for a potential
    that is not finite on its mesh or near the origin, or NaN far out.  A
    callable must not reduce its argument (``np.mean``, ``float(x)`` of a
    size-1 result), since that cannot be told apart from a correct array
    result.  The scan evaluates the one-body and pair derivatives on its
    grid once per ``SystemSpec`` object, array call or not, and reuses
    them for later solves on the same object and grid, so the callables
    must be pure functions of their argument.  The solver converts each scalar
    result to float, so an ``np.*`` triple pays one numpy call per scalar
    evaluation and no more.
    """

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    label: str = ""

    @staticmethod
    def zero() -> "InteractionTriple":
        return InteractionTriple(
            value=lambda x: 0.0, d1=lambda x: 0.0, d2=lambda x: 0.0, label="0"
        )


@dataclass(frozen=True)
class SystemSpec:
    """N identical particles in D dimensions with T, U and V interactions.

    ``bound`` is a catalogue tag: the built-in system constructors stamp
    the variational character their closed forms guarantee (for the
    plain solution, i.e. phi = 2).  Hand-built systems default to NONE.

    ``precheck``, when set, takes a collective number and raises the
    physical error (NoBoundState, UnboundRegime) where the family's
    closed form says no stationary point exists.  ``energy`` and
    ``compute_phi`` call it before solving.
    """

    N: int
    D: int
    kinetic: InteractionTriple
    onebody: InteractionTriple = field(default_factory=InteractionTriple.zero)
    pairwise: InteractionTriple = field(default_factory=InteractionTriple.zero)
    bound: Bound = Bound.NONE
    label: str = "custom"
    precheck: Callable[[float], object] | None = None

    def __post_init__(self) -> None:
        require_particle_count(self.N)
        if not isinstance(self.D, int) or self.D < 2:
            raise DomainError(f"need dimension D >= 2, got D={self.D!r}")

    @cached_property
    def pair_count(self) -> int:
        """Number of particle pairs, N(N-1)/2."""
        return self.N * (self.N - 1) // 2

    @cached_property
    def _root_pair_count(self) -> float:
        """sqrt(pair_count), the pair-distance scale the solver reads at every evaluation."""
        return math.sqrt(self.pair_count)


@dataclass(frozen=True)
class QuantumNumbers:
    """Sums of the radial and orbital excitation numbers of the N-1 modes.

    Only the sums enter the collective quantities.
    """

    n_sum: int
    l_sum: int

    def __post_init__(self) -> None:
        for name in ("n_sum", "l_sum"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"{name} must be a non-negative integer, got {v!r}")

    @classmethod
    def from_sums(cls, n_sum: int, l_sum: int) -> "QuantumNumbers":
        return cls(n_sum=n_sum, l_sum=l_sum)


def global_q(qn: QuantumNumbers, spec: SystemSpec) -> Fraction:
    """Collective oscillator number Q = sum(2n_i + l_i) + (N-1) D/2."""
    return Fraction(2 * qn.n_sum + qn.l_sum) + Fraction((spec.N - 1) * spec.D, 2)


def nu_lambda(qn: QuantumNumbers, spec: SystemSpec) -> tuple[Fraction, Fraction]:
    """Collective radial and orbital numbers (nu, lambda).

    nu = sum n_i + (N-1)/2 and lambda = sum l_i + (N-1)(D-2)/2, so that
    Q = 2 nu + lambda holds identically.
    """
    nu = Fraction(qn.n_sum) + Fraction(spec.N - 1, 2)
    lam = Fraction(qn.l_sum) + Fraction((spec.N - 1) * (spec.D - 2), 2)
    return nu, lam


def q_phi(nu, lam, phi):
    """Improved collective number phi*nu + lambda.

    phi = 2 recovers the plain Q; exact (Fraction) arithmetic survives
    when all inputs are rational.
    """
    require_finite_positive("phi", phi)
    require_finite_positive("nu", nu)
    require_finite_positive("lambda", lam, allow_zero=True)
    return phi * nu + lam


@dataclass(frozen=True)
class EtSolution:
    """One solved envelope-theory point.

    r0 and p0 are the optimum radius and momentum scale: p0^2 is the
    mean squared momentum of one particle in the auxiliary oscillator
    state, and r0^2 the total squared pair separation, so the pair
    carries structural information even though no eigenvector is built.
    The product r0*p0 equals the collective number actually used
    (q_used), and ``bound`` records the variational character, NONE
    unless a catalogued guarantee applies.
    """

    E: float
    r0: float
    p0: float
    q_used: float
    bound: Bound = Bound.NONE


@dataclass(frozen=True)
class PhiResult:
    """phi together with the ingredients it was assembled from.

    a_sq is the squared radial-mode frequency, b_n/b_d the numerator
    and denominator of the energy slope with respect to the orbital
    number, lam the orbital number the solve ran at, and r0_at_lam the
    optimum radius there.
    """

    phi: float
    a_sq: float
    b_n: float
    b_d: float
    lam: float
    r0_at_lam: float

