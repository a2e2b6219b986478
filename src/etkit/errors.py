"""Exception taxonomy for etkit.

Every error raised by the library derives from :class:`EtkitError`, so
callers (and the CLI) can distinguish "your input is outside the method's
domain" from "the solver could not produce a result" with two except
clauses.
"""

from __future__ import annotations

import math


class EtkitError(Exception):
    """Base class for all etkit errors."""


class DomainError(EtkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ShapeError(EtkitError, ValueError):
    """Quantum-number lists do not have the N-1 entries the system requires."""


class NoSolution(EtkitError, RuntimeError):
    """The radius equation has no root inside the search range."""


class AmbiguousSolution(EtkitError, RuntimeError):
    """The radius equation has several roots and no selection rule applies.

    ``brackets`` holds the (lo, hi) intervals that were found to contain
    a root, in increasing order.
    """

    def __init__(self, message: str, brackets: list[tuple[float, float]]):
        super().__init__(message)
        self.brackets = brackets


class NegativeStiffness(EtkitError, RuntimeError):
    """The radial mode around the circular orbit is unstable (A^2 < 0)."""


class DegenerateSlope(EtkitError, RuntimeError):
    """The slope denominator vanishes; the optimum radius is degenerate."""


class PhiUndefined(EtkitError, RuntimeError):
    """phi cannot be formed because the orbital quantum number is zero."""


class NoBoundState(EtkitError, RuntimeError):
    """The requested state is not bound for these parameters."""


class UnboundRegime(EtkitError, RuntimeError):
    """Closed-form energy is undefined: the radicand is non-positive."""


class ConvergenceError(EtkitError, RuntimeError):
    """An iterative scheme failed to reach its tolerance."""


def require_finite_positive(name: str, value, allow_zero: bool = False) -> float:
    """value as a float; DomainError unless it is finite and positive.

    allow_zero admits 0 as well.  NaN fails every ordered comparison, so
    a bare ``x <= 0`` guard would let it through to a misleading error
    (or a NaN result) further down.
    """
    if 0 < value < math.inf or (allow_zero and value == 0):
        return float(value)
    kind = "non-negative" if allow_zero else "positive"
    raise DomainError(f"{name} must be {kind} and finite, got {value!r}")
