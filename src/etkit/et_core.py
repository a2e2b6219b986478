"""Generic envelope-theory solver.

The approximation reduces the N-body eigenvalue problem to three
coupled equations for the energy E, an optimum radius r0 and an optimum
momentum p0:

    E = N T(p0) + N U(r0/N) + C V(r0/sqrt(C)),      C = N(N-1)/2
    r0 p0 = Q
    N p0 T'(p0) = r0 U'(r0/N) + sqrt(C) r0 V'(r0/sqrt(C))

Eliminating p0 = Q/r0 turns the third equation into a single scalar
root-finding problem in r0, which is what this module solves.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AmbiguousSolution, ConvergenceError, NoSolution, require_finite_positive,
)
from .model import Bound, EtSolution, SystemSpec

__all__ = ["solve_radius", "energy", "BRACKET_LO", "BRACKET_HI"]

# search range for the optimum radius, in natural units
BRACKET_LO = 1e-6
BRACKET_HI = 1e6
_POINTS_PER_DECADE = 80
_GRID = np.geomspace(
    BRACKET_LO,
    BRACKET_HI,
    int(math.log10(BRACKET_HI / BRACKET_LO) * _POINTS_PER_DECADE) + 1,
)
_GRID_POINTS = _GRID.tolist()
_EPS = float(np.finfo(float).eps)

# |lhs - rhs| at the accepted root must not exceed this fraction of the
# larger side of the stationarity equation
_RESIDUAL_RTOL = 1e-10


def _sides(spec: SystemSpec, q: float, r: float) -> tuple[float, float]:
    """Left and right side of the stationarity equation at radius r.

    r may be a float or a numpy array of radii.
    """
    p = q / r
    root_c = math.sqrt(spec.pair_count)
    lhs = spec.N * p * spec.kinetic.d1(p)
    rhs = r * spec.onebody.d1(r / spec.N) + root_c * r * spec.pairwise.d1(r / root_c)
    return lhs, rhs


def _mismatch(spec: SystemSpec, q: float, r: float) -> float:
    lhs, rhs = _sides(spec, q, r)
    return lhs - rhs


def _energy_at(spec: SystemSpec, q: float, r0: float) -> float:
    p0 = q / r0
    root_c = math.sqrt(spec.pair_count)
    return (
        spec.N * spec.kinetic.value(p0)
        + spec.N * spec.onebody.value(r0 / spec.N)
        + spec.pair_count * spec.pairwise.value(r0 / root_c)
    )


def _mismatch_pointwise(spec: SystemSpec, q: float) -> np.ndarray:
    """Mismatch on the scan grid, one scalar call per point.

    Points where a triple raises an arithmetic error read as NaN.
    """
    out = np.empty(_GRID.size)
    for i, r in enumerate(_GRID_POINTS):
        try:
            out[i] = _mismatch(spec, q, r)
        except (OverflowError, ValueError, ZeroDivisionError):
            out[i] = math.nan
    return out


def _mismatch_on_grid(spec: SystemSpec, q: float) -> np.ndarray:
    """Mismatch on the scan grid, in one array call where the triples allow.

    Triples that reject arrays, or do not return one number per grid
    point, are evaluated point by point instead.
    """
    try:
        with np.errstate(all="ignore"):
            f = np.asarray(_mismatch(spec, q, _GRID), dtype=float)
    except (TypeError, ValueError, ArithmeticError):
        return _mismatch_pointwise(spec, q)
    if f.shape != _GRID.shape:
        return _mismatch_pointwise(spec, q)
    return f


def _brackets(f: np.ndarray) -> list[tuple[float, float]]:
    """Grid intervals on which the mismatch values f change sign.

    A grid point where f is exactly zero is its own bracket; a
    non-finite value breaks any bracket across it.
    """
    finite = np.isfinite(f)
    zero = finite & (f == 0.0)
    neg = f < 0.0
    change = np.zeros_like(finite)
    change[1:] = finite[1:] & finite[:-1] & ~zero[1:] & (neg[1:] != neg[:-1])
    return [
        (_GRID_POINTS[i], _GRID_POINTS[i]) if zero[i]
        else (_GRID_POINTS[i - 1], _GRID_POINTS[i])
        for i in np.flatnonzero(zero | change)
    ]


def _scan_brackets(spec: SystemSpec, q: float) -> list[tuple[float, float]]:
    """Sign-change intervals of the stationarity mismatch on a log grid."""
    return _brackets(_mismatch_on_grid(spec, q))


def _brent(
    f, a: float, b: float, maxiter: int = 200, rtol: float = 2.0 * _EPS,
    atol: float = 0.0, fa: float | None = None, fb: float | None = None,
) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    f(a) and f(b) must differ in sign; callers that already know them
    pass them as fa and fb.  The bracket shrinks until it is no wider
    than 2 (rtol |x| + atol).  The default, 4 eps |x|, is purely
    relative and places roots to full precision whatever their scale.
    """
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("f(a) and f(b) must have opposite signs")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = rtol * abs(b) + atol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            # secant step, or inverse quadratic interpolation once three
            # distinct points are known
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise RuntimeError(f"no convergence in {maxiter} iterations")


def _refine(spec: SystemSpec, q: float, lo: float, hi: float) -> float:
    if lo == hi:
        return lo
    try:
        return float(_brent(lambda r: _mismatch(spec, q, r), lo, hi))
    except (RuntimeError, ValueError) as exc:
        raise ConvergenceError(
            f"root refinement failed on [{lo:.6g}, {hi:.6g}]: {exc}"
        ) from exc


def _check_residual(spec: SystemSpec, q: float, r0: float) -> None:
    lhs, rhs = _sides(spec, q, r0)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if abs(lhs - rhs) > _RESIDUAL_RTOL * scale:
        raise ConvergenceError(
            f"stationarity residual {abs(lhs - rhs):.3e} exceeds "
            f"{_RESIDUAL_RTOL:.0e} * {scale:.3e} at r0={r0:.6g}"
        )


def _select(spec: SystemSpec, q: float, roots: list[float],
            brackets_for_error: list[tuple[float, float]] | None = None) -> float:
    if len(roots) == 1:
        return roots[0]
    # Several stationary points: a variational tag gives a principled
    # tie-break (best upper bound = smallest E, best lower bound =
    # largest E).  Without one we refuse to guess.
    if spec.bound is Bound.UPPER:
        return min(roots, key=lambda r: _energy_at(spec, q, r))
    if spec.bound is Bound.LOWER:
        return max(roots, key=lambda r: _energy_at(spec, q, r))
    pairs = brackets_for_error or [(r, r) for r in roots]
    raise AmbiguousSolution(
        f"{len(roots)} stationary radii found for {spec.label} at q={q:.6g} "
        f"and no variational tag selects one: "
        + ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in pairs),
        brackets=pairs,
    )


def solve_radius(spec: SystemSpec, q) -> float:
    """Optimum radius r0 for collective number q.

    Scans [1e-6, 1e6] on a log grid for sign changes of the
    stationarity mismatch, refines each with Brent's method, and
    applies the variational selection rule if several roots exist.
    """
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise NoSolution(f"collective number must be positive, got {q!r}")
    brackets = _scan_brackets(spec, q)
    if not brackets:
        raise NoSolution(
            f"no stationary radius in [{BRACKET_LO:g}, {BRACKET_HI:g}] for "
            f"{spec.label} at q={q:.6g}; the system may not bind at this q"
        )
    roots = [_refine(spec, q, lo, hi) for lo, hi in brackets]
    for r0 in roots:
        _check_residual(spec, q, r0)
    return _select(spec, q, roots, brackets)


def energy(spec: SystemSpec, q) -> EtSolution:
    """Solve the three envelope equations at collective number q.

    Returns the full solution point; the bound tag is copied from the
    system's catalogue entry (NONE for hand-built systems).
    """
    q = require_finite_positive("q", q)
    r0 = solve_radius(spec, q)
    p0 = q / r0
    return EtSolution(
        E=float(_energy_at(spec, q, r0)), r0=r0, p0=p0, q_used=q, bound=spec.bound
    )
