"""Scalar special functions used by the closed-form systems.

Three functions live here: the principal branch of the Lambert W
function, the positive root of the quartic 4x^4 - 8x = 3Y, and the
Euler beta function.  All of them are needed by analytic energy or phi
formulas, and all are plain float -> float maps with explicit domain
checks.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = ["lambert_w0", "quartic_root_g", "beta"]

# branch point of the principal Lambert branch
_BRANCH_POINT = -math.exp(-1.0)
# inputs this far below -1/e are treated as rounding noise and clamped
_BRANCH_SLACK = 1e-14


def lambert_w0(z: float) -> float:
    """Principal branch W0 of w*exp(w) = z, for z >= -1/e.

    Uses an analytic initial guess (branch-point series near -1/e,
    logarithmic asymptote for large z) refined by Halley iteration.
    Raises DomainError below the branch point; inputs within 1e-14 of
    -1/e are clamped onto it.
    """
    if not math.isfinite(z):
        raise DomainError(f"lambert_w0 needs a finite argument, got {z!r}")
    if z < _BRANCH_POINT:
        if z < _BRANCH_POINT - _BRANCH_SLACK:
            raise DomainError(
                f"lambert_w0 argument {z!r} lies below the branch point -1/e"
            )
        z = _BRANCH_POINT
    if z == 0.0:
        return 0.0

    # p is the natural expansion variable at the branch point
    p = math.sqrt(max(0.0, 2.0 * (1.0 + math.e * z)))
    if p < 1e-4:
        # series in p; the omitted term is O(p^6), far below double rounding here
        return (
            -1.0
            + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0
            + p * (-43.0 / 540.0 + p * (769.0 / 17280.0)))))
        )

    if z < -0.25:
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif z < 3.0:
        # crude but inside the Halley basin everywhere on [-0.25, 3)
        w = 0.6 * math.log1p(z) if z > 0.0 else z
    else:
        lz = math.log(z)
        w = lz - math.log(lz)

    tol = 1e-13 * max(1.0, abs(z))
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 4.0 * math.ulp(1.0 + abs(w)):
            break
    residual = w * math.exp(w) - z
    if abs(residual) > 1e-12 * max(1.0, abs(z)):
        raise ConvergenceError(
            f"lambert_w0 failed to converge at z={z!r} (residual {residual:.3e})"
        )
    return w


def _cubic_v(y: float) -> float:
    """Unique positive root of V^3 + 3*Y*V - 4 = 0 for Y >= 0.

    This is the resolvent of the quartic below.  The Cardano radicals
    cancel catastrophically for both small and large Y, so the
    difference of cube roots is rationalised and, for large Y, replaced
    by Newton iteration on the cubic itself.
    """
    if y > 10.0:
        # Newton from the asymptote V ~ 4/(3Y); converges monotonically
        v = 4.0 / (3.0 * y)
        for _ in range(8):
            f = v * v * v + 3.0 * y * v - 4.0
            fp = 3.0 * v * v + 3.0 * y
            step = f / fp
            v -= step
            if abs(step) <= 1e-16 * v:
                break
        return v
    s = math.sqrt(4.0 + y * y * y)
    a = (s + 2.0) ** (1.0 / 3.0)
    # s - 2 rationalised: avoids cancellation as Y -> 0
    b = (y * y * y / (s + 2.0)) ** (1.0 / 3.0)
    # a - b rationalised via a^3 - b^3 = 4
    return 4.0 / (a * a + a * b + b * b)


def _quartic_residual(x: float, y: float) -> float:
    return 4.0 * x ** 4 - 8.0 * x - 3.0 * y


def quartic_root_g(y: float) -> float:
    """The only positive root of 4x^4 - 8x = 3Y, for Y >= 0.

    The closed form goes through the resolvent cubic; a residual out of
    tolerance raises ConvergenceError.
    """
    if not math.isfinite(y) or y < 0.0:
        raise DomainError(f"quartic_root_g needs Y >= 0, got {y!r}")

    v = _cubic_v(y)
    rv = math.sqrt(v)
    x = 0.5 * (rv + math.sqrt(max(0.0, 4.0 / rv - v)))

    if abs(_quartic_residual(x, y)) > 1e-10 * max(1.0, y):
        raise ConvergenceError(f"quartic_root_g({y!r}) did not reach tolerance")
    return x


def beta(x: float, y: float) -> float:
    """Euler beta function B(x, y) for x, y > 0, via log-gamma."""
    if not (math.isfinite(x) and math.isfinite(y)) or x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta needs positive arguments, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
