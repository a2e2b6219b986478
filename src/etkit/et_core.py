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
from bisect import bisect_left
from typing import Callable

import numpy as np

from .errors import (
    AmbiguousSolution, ConvergenceError, DomainError, NoSolution, require_finite_positive,
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
# _rhs on the grid for the last spec object scanned, as one (spec, values)
# pair so that a concurrent reader sees both halves of the same write
_grid_rhs: tuple[SystemSpec | None, np.ndarray | None] = (None, None)

# |lhs - rhs| at the accepted root must not exceed this fraction of the
# larger side of the stationarity equation
_RESIDUAL_RTOL = 1e-10
# Brent iterations before giving up
_BRENT_MAXITER = 200


def _lhs(spec: SystemSpec, q: float, r: float) -> float:
    """Left side of the stationarity equation; r may be a numpy array."""
    p = q / r
    return spec.N * p * spec.kinetic.d1(p)


def _rhs(spec: SystemSpec, r: float) -> float:
    """Right side of the stationarity equation, which does not depend on q."""
    root_c = spec._root_pair_count
    return r * spec.onebody.d1(r / spec.N) + root_c * r * spec.pairwise.d1(r / root_c)


def _mismatch(spec: SystemSpec, q: float, r: float) -> float:
    return _lhs(spec, q, r) - _rhs(spec, r)


def _energy_at(spec: SystemSpec, q: float, r0: float) -> float:
    p0 = q / r0
    return float(
        spec.N * spec.kinetic.value(p0)
        + spec.N * spec.onebody.value(r0 / spec.N)
        + spec.pair_count * spec.pairwise.value(r0 / spec._root_pair_count)
    )


def _on_points(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn at every point of the 1-D array x, in one array call where fn allows.

    When that call raises or does not return one number per point, fn
    is called once per point instead.  numpy warnings are silenced
    throughout; a point where a scalar call overflows reads as inf, and
    one where it raises ValueError or ZeroDivisionError as NaN.
    """
    with np.errstate(all="ignore"):
        try:
            v = np.asarray(fn(x), dtype=float)
            if v.shape == x.shape:
                return v
        except (TypeError, ValueError, ArithmeticError):
            pass
        v = np.empty(x.shape)
        for i, point in enumerate(x.tolist()):
            try:
                v[i] = fn(point)
            except OverflowError:
                v[i] = math.inf
            except (ValueError, ZeroDivisionError):
                v[i] = math.nan
        return v


def _mismatch_on_grid(spec: SystemSpec, q: float) -> np.ndarray:
    """Mismatch on the scan grid, through _on_points.

    The q-independent right side on the grid is reused while the same
    spec object is scanned again, by an array call and point by point
    alike; the subtraction stays inside _on_points' warning guard.
    """
    global _grid_rhs
    cached, rhs = _grid_rhs
    if cached is not spec:
        rhs = _on_points(lambda r: _rhs(spec, r), _GRID)
        _grid_rhs = (spec, rhs)
    return _on_points(
        lambda r: _lhs(spec, q, r) - (rhs if r is _GRID else rhs[bisect_left(_GRID_POINTS, r)]),
        _GRID,
    )


def _brackets(f: np.ndarray) -> list[tuple[float, float, float, float]]:
    """Grid intervals (lo, hi, f(lo), f(hi)) on which the values f change sign.

    A grid point where f is exactly zero is its own bracket; a sign
    change counts only between two nonzero finite values, so a
    non-finite value breaks any bracket across it.
    """
    neg = f < 0.0
    candidate = f == 0.0
    candidate[1:] |= neg[1:] != neg[:-1]
    found = []
    for i in candidate.nonzero()[0].tolist():
        hi, f_hi = _GRID_POINTS[i], f.item(i)
        if f_hi == 0.0:
            found.append((hi, hi, f_hi, f_hi))
        elif (f_lo := f.item(i - 1)) != 0.0 and math.isfinite(f_lo) and math.isfinite(f_hi):
            found.append((_GRID_POINTS[i - 1], hi, f_lo, f_hi))
    return found


def _brent(
    f, a: float, b: float, rtol: float = 2.0 * _EPS, atol: float = 0.0,
    fa: float | None = None, fb: float | None = None,
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
    for _ in range(_BRENT_MAXITER):
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
    raise RuntimeError(f"no convergence in {_BRENT_MAXITER} iterations")


def _refine(spec: SystemSpec, q: float, lo: float, hi: float,
            f_lo: float, f_hi: float) -> float:
    if lo == hi:
        return lo
    try:
        return _brent(lambda r: float(_mismatch(spec, q, r)), lo, hi, fa=f_lo, fb=f_hi)
    except (RuntimeError, ValueError) as exc:
        raise ConvergenceError(
            f"root refinement failed on [{lo:.6g}, {hi:.6g}]: {exc}"
        ) from exc


def _check_residual(spec: SystemSpec, q: float, r0: float) -> None:
    lhs, rhs = float(_lhs(spec, q, r0)), float(_rhs(spec, r0))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if abs(lhs - rhs) > _RESIDUAL_RTOL * scale:
        raise ConvergenceError(
            f"stationarity residual {abs(lhs - rhs):.3e} exceeds "
            f"{_RESIDUAL_RTOL:.0e} * {scale:.3e} at r0={r0:.6g}"
        )


def _select(spec: SystemSpec, q: float, roots: list[float],
            brackets: list[tuple[float, float]]) -> float:
    if len(roots) == 1:
        return roots[0]
    # Several stationary points: a variational tag gives a principled
    # tie-break (best upper bound = smallest E, best lower bound =
    # largest E).  Without one we refuse to guess.
    if spec.bound is Bound.UPPER:
        return min(roots, key=lambda r: _energy_at(spec, q, r))
    if spec.bound is Bound.LOWER:
        return max(roots, key=lambda r: _energy_at(spec, q, r))
    raise AmbiguousSolution(
        f"{len(roots)} stationary radii found for {spec.label} at q={q:.6g} "
        f"and no variational tag selects one: "
        + ", ".join(f"[{a:.6g}, {b:.6g}]" for a, b in brackets),
        brackets=brackets,
    )


def solve_radius(spec: SystemSpec, q) -> float:
    """Optimum radius r0 for collective number q.

    Scans [1e-6, 1e6] on a log grid for sign changes of the
    stationarity mismatch, refines each with Brent's method, and
    applies the variational selection rule if several roots exist.
    """
    q = float(q)
    if not math.isfinite(q):
        raise DomainError(f"collective number must be finite, got {q!r}")
    if q <= 0.0:
        raise NoSolution(f"collective number must be positive, got {q!r}")
    found = _brackets(_mismatch_on_grid(spec, q))
    if not found:
        raise NoSolution(
            f"no stationary radius in [{BRACKET_LO:g}, {BRACKET_HI:g}] for "
            f"{spec.label} at q={q:.6g}; the system may not bind at this q"
        )
    roots = [_refine(spec, q, *bracket) for bracket in found]
    for r0 in roots:
        _check_residual(spec, q, r0)
    return _select(spec, q, roots, [(lo, hi) for lo, hi, _, _ in found])


def energy(spec: SystemSpec, q) -> EtSolution:
    """Solve the three envelope equations at collective number q.

    Returns the full solution point; the bound tag is copied from the
    system's catalogue entry (NONE for hand-built systems).  The
    system's precheck, if any, runs first and names the physical cause
    where the scan would only report NoSolution.
    """
    q = require_finite_positive("q", q)
    if spec.precheck is not None:
        spec.precheck(q)
    r0 = solve_radius(spec, q)
    p0 = q / r0
    return EtSolution(
        E=_energy_at(spec, q, r0), r0=r0, p0=p0, q_used=q, bound=spec.bound
    )
