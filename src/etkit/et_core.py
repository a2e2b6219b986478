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
import sys
from bisect import bisect_left
from functools import cache
from typing import Callable

from .errors import (
    AmbiguousSolution, ConvergenceError, DomainError, NoSolution, require_finite_positive,
)
from .model import Bound, EtSolution, SystemSpec

__all__ = ["solve_radius", "energy", "BRACKET_LO", "BRACKET_HI"]

# search range for the optimum radius, in natural units
BRACKET_LO = 1e-6
BRACKET_HI = 1e6
_POINTS_PER_DECADE = 80
_GRID_SIZE = int(math.log10(BRACKET_HI / BRACKET_LO) * _POINTS_PER_DECADE) + 1
# the scan grid as floats for the per-point scan: 10 ** linspace of the
# logs with both ends pinned, as np.geomspace builds the array grid, whose
# vectorised power may round a few dozen points one ulp apart
_LOG_LO, _LOG_HI = math.log10(BRACKET_LO), math.log10(BRACKET_HI)
_LOG_STEP = (_LOG_HI - _LOG_LO) / (_GRID_SIZE - 1)
_POINTS = [
    BRACKET_LO,
    *(10.0 ** (i * _LOG_STEP + _LOG_LO) for i in range(1, _GRID_SIZE - 1)),
    BRACKET_HI,
]
_EPS = sys.float_info.epsilon
# the scan goes point by point until numpy is loaded or until this many
# grid points have been evaluated point by point, whichever comes first;
# then it imports numpy and scans with arrays.  Measured on a shared
# 2-vCPU VM (Python 3.11.7, numpy 2.4.6): importing numpy takes about
# 0.1 s (0.09-0.15 s), and a per-point solve about 0.3 us per grid point
# it evaluates (0.28-0.31 us, brackets and refinement included), where
# arrays take about 10 us for one side on all 961 points.  0.1 s / 0.3 us
# is about 3e5 points, some 300 passes: no process pays more than about
# twice the import for going without it
_POINT_BUDGET = 300_000
_points_evaluated = 0
# whether scans may still go point by point; cleared for good by the
# first scan on arrays
_per_point = True
# _rhs on a scan grid for the last spec object scanned, as one (spec,
# grid points, values) triple so that a concurrent reader sees all of
# the same write
_grid_rhs: tuple = (None, None, None)

# |lhs - rhs| at the accepted root must not exceed this fraction of the
# larger side of the stationarity equation
_RESIDUAL_RTOL = 1e-10
# Brent iterations before giving up
_BRENT_MAXITER = 200


def _lhs(spec: SystemSpec, q: float) -> Callable:
    """Left side of the stationarity equation at q, as a function of r.

    r may be a float or a numpy array.  Each side is built once per
    solve, so that a call per point looks nothing up on spec.
    """
    n, t1 = spec.N, spec.kinetic.d1

    def lhs(r):
        p = q / r
        return n * p * t1(p)

    return lhs


def _rhs(spec: SystemSpec) -> Callable:
    """Right side of the stationarity equation, which does not depend on q."""
    n, root_c = spec.N, spec._root_pair_count
    u1, v1 = spec.onebody.d1, spec.pairwise.d1
    return lambda r: r * u1(r / n) + root_c * r * v1(r / root_c)


def _energy_at(spec: SystemSpec, q: float, r0: float) -> float:
    p0 = q / r0
    return float(
        spec.N * spec.kinetic.value(p0)
        + spec.N * spec.onebody.value(r0 / spec.N)
        + spec.pair_count * spec.pairwise.value(r0 / spec._root_pair_count)
    )


def _each_point(fn: Callable, points) -> list:
    """fn at each of the points, one call per point.

    A point where the call overflows reads as inf, and one where it
    raises ValueError or ZeroDivisionError as NaN.
    """
    values = []
    for point in points:
        try:
            values.append(fn(point))
        except OverflowError:
            values.append(math.inf)
        except (ValueError, ZeroDivisionError):
            values.append(math.nan)
    return values


def _on_points(fn: Callable, x):
    """fn at every point of the 1-D numpy array x, in one array call where fn allows.

    When that call raises or does not return one number per point, fn
    is called once per point instead, through _each_point.  numpy
    warnings are silenced throughout.
    """
    np = sys.modules["numpy"]  # x is a numpy array, so numpy is loaded
    with np.errstate(all="ignore"):
        try:
            v = np.asarray(fn(x), dtype=float)
            if v.shape == x.shape:
                return v
        except (TypeError, ValueError, ArithmeticError):
            pass
        return np.array(_each_point(fn, x.tolist()), dtype=float)


@cache
def _array_grid() -> tuple:
    """The scan grid as (numpy array, its points as floats); imports numpy."""
    import numpy as np

    grid = np.geomspace(BRACKET_LO, BRACKET_HI, _GRID_SIZE)
    return grid, grid.tolist()


def _scans_point_by_point() -> bool:
    """Whether the scan still goes point by point.

    It does while numpy is not loaded and the per-point scans of this
    process have not yet spent _POINT_BUDGET.
    """
    return "numpy" not in sys.modules and _points_evaluated < _POINT_BUDGET


def _mismatch_on_grid(spec: SystemSpec, lhs: Callable, rhs_of: Callable) -> tuple:
    """(grid points, lhs - rhs on them) for the scan of spec.

    Point by point on _POINTS, as a list, until the first scan for which
    _scans_point_by_point fails; from then on on the array grid, as an
    array, through _on_points.  rhs on the grid is reused while the same
    spec object is scanned again on the same grid; on the array grid the
    subtraction stays inside _on_points' warning guard.
    """
    global _grid_rhs, _points_evaluated, _per_point
    cached, cached_points, rhs = _grid_rhs
    if _per_point and _scans_point_by_point():
        points = _POINTS
        if cached is not spec or cached_points is not points:
            rhs = _each_point(rhs_of, points)
            _grid_rhs = (spec, points, rhs)
            _points_evaluated += len(points)
        _points_evaluated += len(points)
        return points, [a - b for a, b in zip(_each_point(lhs, points), rhs)]
    _per_point = False
    grid, points = _array_grid()
    if cached is not spec or cached_points is not points:
        rhs = _on_points(rhs_of, grid)
        _grid_rhs = (spec, points, rhs)
    return points, _on_points(
        lambda r: lhs(r) - (rhs if r is grid else rhs[bisect_left(points, r)]),
        grid,
    )


def _brackets(points: list, f) -> list[tuple[float, float, float, float]]:
    """Grid intervals (lo, hi, f(lo), f(hi)) on which the values f change sign.

    f holds one value per grid point, as a list or a numpy array.  A
    grid point where f is exactly zero is its own bracket; a sign
    change counts only between two nonzero finite values, so a
    non-finite value breaks any bracket across it.
    """
    if isinstance(f, list):
        at = f.__getitem__
        neg = [v < 0.0 for v in f]
        candidates = [i for i, a, b in zip(range(1, len(f)), neg, neg[1:]) if a is not b]
        if 0.0 in f:
            candidates = sorted({*candidates, *(i for i, v in enumerate(f) if v == 0.0)})
    else:
        neg = f < 0.0
        candidate = f == 0.0
        candidate[1:] |= neg[1:] != neg[:-1]
        at, candidates = f.item, candidate.nonzero()[0].tolist()
    found = []
    for i in candidates:
        hi, f_hi = points[i], at(i)
        if f_hi == 0.0:
            found.append((hi, hi, f_hi, f_hi))
        elif (f_lo := at(i - 1)) != 0.0 and math.isfinite(f_lo) and math.isfinite(f_hi):
            found.append((points[i - 1], hi, f_lo, f_hi))
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


def _refine(lhs: Callable, rhs: Callable, lo: float, hi: float,
            f_lo: float, f_hi: float) -> float:
    if lo == hi:
        return lo
    try:
        return _brent(lambda r: float(lhs(r) - rhs(r)), lo, hi, fa=f_lo, fb=f_hi)
    except (RuntimeError, ValueError) as exc:
        raise ConvergenceError(
            f"root refinement failed on [{lo:.6g}, {hi:.6g}]: {exc}"
        ) from exc


def _check_residual(lhs_of: Callable, rhs_of: Callable, r0: float) -> None:
    lhs, rhs = float(lhs_of(r0)), float(rhs_of(r0))
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
    lhs, rhs = _lhs(spec, q), _rhs(spec)
    found = _brackets(*_mismatch_on_grid(spec, lhs, rhs))
    if not found:
        raise NoSolution(
            f"no stationary radius in [{BRACKET_LO:g}, {BRACKET_HI:g}] for "
            f"{spec.label} at q={q:.6g}; the system may not bind at this q"
        )
    roots = [_refine(lhs, rhs, *bracket) for bracket in found]
    for r0 in roots:
        _check_residual(lhs, rhs, r0)
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
