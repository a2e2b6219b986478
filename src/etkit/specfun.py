"""Scalar special functions used by the closed-form systems.

Three functions live here: the principal branch of the Lambert W
function, the positive root of the quartic 4x^4 - 8x = 3Y (by Newton's
method), and the Euler beta function.  All of them are needed by
analytic energy or phi formulas, and all are plain float -> float maps
with explicit domain checks.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = ["lambert_w0", "quartic_root_g", "beta"]

# branch point of the principal Lambert branch
_BRANCH_POINT = -math.exp(-1.0)
# inputs this far below -1/e are treated as rounding noise and clamped
_BRANCH_SLACK = 1e-14
# Newton steps of the quartic root; at most 8 are taken on [0, 1e308]
_NEWTON_MAXITER = 50


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


def quartic_root_g(y: float) -> float:
    """The only positive root of 4x^4 - 8x = 3Y, for Y >= 0.

    Newton's method on x^3 - 2 - 3Y/(4x), the quartic divided by 4x,
    which cannot overflow for finite Y.  It starts from the upper bound
    (3Y/4)^(1/4) + 2^(1/3); above the root the function is increasing and
    convex, so every step falls toward the root, and the iteration stops
    once a step no longer lowers x.  A residual out of tolerance, or NaN,
    raises ConvergenceError.
    """
    if not math.isfinite(y) or y < 0.0:
        raise DomainError(f"quartic_root_g needs Y >= 0, got {y!r}")

    c = 0.75 * y
    x = c ** 0.25 + 2.0 ** (1.0 / 3.0)
    for _ in range(_NEWTON_MAXITER):
        step = (x * x * x - 2.0 - c / x) / (3.0 * x * x + c / (x * x))
        if not x - step < x:
            break
        x -= step

    # |4x^4 - 8x - 3Y| <= 1e-10 max(1, Y), divided by 4x
    if not abs(x * x * x - 2.0 - c / x) <= 1e-10 * max(1.0, y) / (4.0 * x):
        raise ConvergenceError(f"quartic_root_g({y!r}) did not reach tolerance")
    return x


def beta(x: float, y: float) -> float:
    """Euler beta function B(x, y) for x, y > 0, via log-gamma."""
    if not (math.isfinite(x) and math.isfinite(y)) or x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta needs positive arguments, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
