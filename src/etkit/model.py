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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError, ShapeError, require_finite_positive

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
    "validate_derivatives",
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
    system supplies value, d1 and d2 as consistent callables.
    ``validate_derivatives`` offers a finite-difference cross-check for
    tests.

    The bracket scan calls the callables once with a numpy array of
    radii or momenta, so write them with ``np.*`` functions and
    element-wise arithmetic; a constant return value is fine.  Callables
    that only take scalars (``math.exp``, ``if x > 0``) still work: when
    the array call raises or returns the wrong shape, the scan falls back
    to one call per point, which is much slower.  A callable must not
    reduce its argument (``np.mean``, ``float(x)`` of a size-1 result),
    since that cannot be told apart from a correct array result.
    """

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    label: str = ""

    @staticmethod
    def zero(label: str = "0") -> "InteractionTriple":
        return InteractionTriple(
            value=lambda x: 0.0, d1=lambda x: 0.0, d2=lambda x: 0.0, label=label
        )


@dataclass(frozen=True)
class SystemSpec:
    """N identical particles in D dimensions with T, U and V interactions.

    ``bound`` is a catalogue tag: the built-in system constructors stamp
    the variational character their closed forms guarantee (for the
    plain solution, i.e. phi = 2).  Hand-built systems default to NONE.
    """

    N: int
    D: int
    kinetic: InteractionTriple
    onebody: InteractionTriple = field(default_factory=InteractionTriple.zero)
    pairwise: InteractionTriple = field(default_factory=InteractionTriple.zero)
    bound: Bound = Bound.NONE
    label: str = "custom"

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 2:
            raise DomainError(f"need at least two particles, got N={self.N!r}")
        if not isinstance(self.D, int) or self.D < 2:
            raise DomainError(f"need dimension D >= 2, got D={self.D!r}")

    @property
    def pair_count(self) -> int:
        """Number of particle pairs, N(N-1)/2."""
        return self.N * (self.N - 1) // 2


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial and orbital excitation numbers of the N-1 internal modes.

    Either per-mode lists (length N-1, checked against the system) or
    bare sums may be given; only the sums enter the collective
    quantities.
    """

    n_sum: int
    l_sum: int
    radial: tuple[int, ...] | None = None
    orbital: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("n_sum", "l_sum"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise DomainError(f"{name} must be a non-negative integer, got {v!r}")
        for name in ("radial", "orbital"):
            modes = getattr(self, name)
            if modes is None:
                continue
            if any((not isinstance(m, int)) or m < 0 for m in modes):
                raise DomainError(f"{name} entries must be non-negative integers")
        if self.radial is not None and sum(self.radial) != self.n_sum:
            raise DomainError("radial list is inconsistent with n_sum")
        if self.orbital is not None and sum(self.orbital) != self.l_sum:
            raise DomainError("orbital list is inconsistent with l_sum")

    @classmethod
    def from_modes(
        cls, radial: Sequence[int], orbital: Sequence[int]
    ) -> "QuantumNumbers":
        radial = tuple(radial)
        orbital = tuple(orbital)
        return cls(
            n_sum=sum(radial), l_sum=sum(orbital), radial=radial, orbital=orbital
        )

    @classmethod
    def from_sums(cls, n_sum: int, l_sum: int) -> "QuantumNumbers":
        return cls(n_sum=n_sum, l_sum=l_sum)

    def _check_shape(self, spec: SystemSpec) -> None:
        for name in ("radial", "orbital"):
            modes = getattr(self, name)
            if modes is not None and len(modes) != spec.N - 1:
                raise ShapeError(
                    f"{name} has {len(modes)} entries, system with N={spec.N} "
                    f"has {spec.N - 1} internal modes"
                )


def global_q(qn: QuantumNumbers, spec: SystemSpec) -> Fraction:
    """Collective oscillator number Q = sum(2n_i + l_i) + (N-1) D/2."""
    qn._check_shape(spec)
    return Fraction(2 * qn.n_sum + qn.l_sum) + Fraction((spec.N - 1) * spec.D, 2)


def nu_lambda(qn: QuantumNumbers, spec: SystemSpec) -> tuple[Fraction, Fraction]:
    """Collective radial and orbital numbers (nu, lambda).

    nu = sum n_i + (N-1)/2 and lambda = sum l_i + (N-1)(D-2)/2, so that
    Q = 2 nu + lambda holds identically.
    """
    qn._check_shape(spec)
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


def validate_derivatives(
    triple: InteractionTriple,
    points: Sequence[float],
    h: float = 1e-5,
    rtol: float = 1e-6,
) -> None:
    """Cross-check d1/d2 against central differences of value/d1.

    Test helper; raises DomainError naming the offending point.  The
    step is scaled per point, so supply points away from domain edges.
    """
    for x in points:
        step = h * max(1.0, abs(x))
        d1_fd = (triple.value(x + step) - triple.value(x - step)) / (2.0 * step)
        d2_fd = (triple.d1(x + step) - triple.d1(x - step)) / (2.0 * step)
        scale1 = max(abs(triple.d1(x)), abs(d1_fd), 1e-12)
        scale2 = max(abs(triple.d2(x)), abs(d2_fd), 1e-12)
        if abs(triple.d1(x) - d1_fd) > rtol * scale1:
            raise DomainError(
                f"{triple.label or 'triple'}: d1 disagrees with finite "
                f"difference at x={x!r}"
            )
        if abs(triple.d2(x) - d2_fd) > rtol * scale2:
            raise DomainError(
                f"{triple.label or 'triple'}: d2 disagrees with finite "
                f"difference at x={x!r}"
            )
