"""Independent two-body eigenvalue oracle (Numerov shooting).

Solves the reduced radial problem

    -u''/(2 mu) + [V(r) + l(l+1)/(2 mu r^2)] u = E u,   u(0) = u(rmax) = 0

by outward Numerov integration.  Each level is isolated by bisection on
the node count, only until the bracket ends hold n_r and n_r + 1 nodes;
across that bracket the edge value u(rmax) changes sign once, at the
level, and Brent's method converges on that zero.  Nothing here touches
the envelope machinery beyond that generic root finder: this is the
reference the approximate energies and their variational tags are
tested against.  The scheme is deliberately the simplest one with a
controllable error: global accuracy is O(h^4) in the mesh step, and the
box is grown until the classical turning point sits below 60% of it and
the WKB tail suppression beyond that point is strong enough not to bias
the eigenvalue.  Each larger box starts its bracket around the level
found in the previous one.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NoBoundState, require_finite_positive
from .et_core import _brent
from .model import InteractionTriple

__all__ = ["radial_eigenvalue"]

# turning point must stay below this fraction of the box
_TURNING_FRACTION = 0.6
# required WKB action integral over the forbidden region; e^(-2*15) ~ 1e-13
_MIN_TAIL_ACTION = 15.0
_MAX_BOX_GROWTHS = 14
_MAX_UNBOUND_ROUNDS = 5
# half-width of a warm-started bracket, relative to the previous level
_WARM_SPAN = 1e-3

# one Numerov shot: (energy, interior node count, u at the box edge)
_Shot = tuple[float, int, float]


def _asymptote(potential: InteractionTriple) -> float:
    """Potential value at the largest probe radius that evaluates finitely.

    Confining potentials report a huge (or infinite) value, so the
    bound-state check against this limit never fires for them.
    """
    limit = math.inf
    for radius in (1e5, 1e6, 1e7):
        try:
            value = potential.value(radius)
        except (OverflowError, ValueError):
            break
        if not math.isfinite(value):
            break
        limit = value
    return limit


def _laurent_coeffs(potential: InteractionTriple, eta: float = 1e-8) -> tuple[float, float]:
    """Estimate A and B in V(r) ~ A/r + B near the origin.

    Richardson extrapolation of r*V(r) and V(r) - A/r at two small
    radii; exact for potentials that actually have this form, and a
    harmless ~0 for regular ones.
    """
    t1 = eta * potential.value(eta)
    t2 = (eta / 2.0) * potential.value(eta / 2.0)
    a = 2.0 * t2 - t1
    if abs(a) < 1e-10 * max(1.0, abs(t1)):
        a = 0.0
    s1 = potential.value(eta) - (a / eta if a else 0.0)
    s2 = potential.value(eta / 2.0) - (a / (eta / 2.0) if a else 0.0)
    b = 2.0 * s2 - s1
    if not math.isfinite(b):
        b = 0.0
    return a, b


def _sample(potential: InteractionTriple, r: np.ndarray) -> np.ndarray:
    """V on the mesh radii, in one array call where the triple allows.

    Triples that reject arrays, or do not return one number per radius,
    are evaluated point by point instead.
    """
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(potential.value(r), dtype=float)
    except (TypeError, ValueError, ArithmeticError):
        v = None
    if v is None or v.shape != r.shape:
        v = np.array([potential.value(float(x)) for x in r])
    return v


def _sweep(f: np.ndarray, u1: float, first_term: float = 0.0) -> tuple[int, float]:
    """One Numerov pass; returns (interior node count, u at the box edge).

    f holds the Numerov factors 1 + h^2 k^2 / 12.  first_term stands in
    for f_0 u_0 in the first three-point relation: u(0) = 0, but the
    product (V u)(r) can have a finite limit at the origin that the
    grid cannot represent.  The recurrence is sequential, so this runs
    as a plain Python loop over lists.
    """
    fl = f.tolist()
    u_prev = 0.0
    u_cur = u1
    nodes = 0
    f_cur = fl[1]
    carry = first_term
    for i in range(2, len(fl)):
        f_next = fl[i]
        u_next = ((12.0 - 10.0 * f_cur) * u_cur - carry) / f_next
        if u_next * u_cur < 0.0:
            nodes += 1
        u_prev, u_cur = u_cur, u_next
        carry = f_cur * u_prev
        f_cur = f_next
        if abs(u_cur) > 1e250:
            # rescale; the eigenvalue condition only uses signs and zeros
            u_prev *= 1e-250
            u_cur *= 1e-250
            carry *= 1e-250
    return nodes, u_cur


class _Shooter:
    """Shooting machinery on a fixed box [0, rmax] with npoints steps."""

    def __init__(
        self,
        mu: float,
        potential: InteractionTriple,
        l: int,
        rmax: float,
        npoints: int,
        laurent: tuple[float, float],
    ):
        self.mu = mu
        self.l = l
        self.rmax = rmax
        self.h = rmax / npoints
        self.r = np.linspace(0.0, rmax, npoints + 1)
        v = np.empty_like(self.r)
        v[0] = 0.0  # never used: u(0) = 0 kills the first Numerov term
        v[1:] = _sample(potential, self.r[1:])
        cent = np.zeros_like(self.r)
        if l > 0:
            cent[1:] = l * (l + 1) / (2.0 * mu * self.r[1:] ** 2)
        self.veff = v + cent
        self.veff[0] = 0.0
        self.lau_a, self.lau_b = laurent
        # limit of 2 mu (V_eff - E) u at r = 0 for u ~ r^(l+1): the 1/r
        # part of V survives at l = 0, the centrifugal term at l = 1
        if l == 0:
            self.g0 = 2.0 * mu * self.lau_a
        elif l == 1:
            self.g0 = 2.0
        else:
            self.g0 = 0.0

    def _u1(self, e: float) -> float:
        # series start u ~ r^(l+1) (1 + c1 r + c2 r^2) restores O(h^4)
        # for Coulomb-like potentials
        h, l = self.h, self.l
        c1 = self.mu * self.lau_a / (l + 1.0)
        c2 = (
            self.mu * (self.lau_a * c1 + self.lau_b - e) / (2.0 * l + 3.0)
        )
        return h ** (l + 1) * (1.0 + h * (c1 + h * c2))

    def shoot(self, e: float) -> tuple[int, float]:
        f = 1.0 + (self.h * self.h * self.mu / 6.0) * (e - self.veff)
        f[0] = 1.0
        first = -(self.h * self.h / 12.0) * self.g0
        return _sweep(f, self._u1(e), first)

    def nodes(self, e: float) -> int:
        return self.shoot(e)[0]

    def _walk(
        self, e: float, step: float, target: Callable[[int], bool]
    ) -> tuple[_Shot | None, _Shot | None]:
        """Shoot at e, then move it by step, doubling step, until target(nodes).

        Returns the first shot that meets the target and the last one
        that did not, as (e, nodes, u at the edge) or None: the first is
        None after 80 tries, the second when e met the target at once.
        """
        missed = None
        for _ in range(80):
            shot = (e, *self.shoot(e))
            if target(shot[1]):
                return shot, missed
            missed = shot
            e += step
            step *= 2.0
        return None, missed

    def solve(self, n_r: int, etol: float, guess: float | None = None) -> float:
        """Level with n_r nodes: node-count bisection, then Brent on u(rmax).

        guess, the level found in a smaller box, starts the bracket at
        +-1e-3 relative around it; without one, the bracket starts from
        the extremes of the effective potential.  A shot that misses one
        end of the bracket is kept as the other end.
        """
        if guess is None:
            vmin = float(np.min(self.veff[1:]))
            lo = vmin if math.isfinite(vmin) else -1.0
            hi = max(float(self.veff[-1]), vmin + 1.0)
            step = max(abs(hi - lo), 1.0)
        else:
            step = _WARM_SPAN * (abs(guess) or 1.0)
            lo, hi = guess - step, guess + step
        below, above = self._walk(lo, -step, lambda k: k <= n_r)
        if below is None:
            raise ConvergenceError("could not bracket the level from below")
        if above is None:
            above, missed = self._walk(hi, step, lambda k: k > n_r)
            if above is None:
                raise ConvergenceError("could not bracket the level from above")
            below = missed or below
        (lo, n_lo, u_lo), (hi, n_hi, u_hi) = below, above
        while n_lo != n_r or n_hi != n_r + 1:
            mid = 0.5 * (lo + hi)
            if hi - lo <= etol * max(1.0, abs(lo), abs(hi)) or mid == lo or mid == hi:
                # the node count jumps by more than one: no clean sign
                # change to converge on; the final node check judges it
                return mid
            n_mid, u_mid = self.shoot(mid)
            if n_mid <= n_r:
                lo, n_lo, u_lo = mid, n_mid, u_mid
            else:
                hi, n_hi, u_hi = mid, n_mid, u_mid
        try:
            # etol is relative above |E| = 1 and absolute below, as in the
            # node-count bisection
            return _brent(lambda e: self.shoot(e)[1], lo, hi, rtol=etol, atol=etol,
                          fa=u_lo, fb=u_hi)
        except (RuntimeError, ValueError) as exc:
            raise ConvergenceError(
                f"edge-value refinement failed on [{lo:.17g}, {hi:.17g}]: {exc}"
            ) from exc

    def _turning_index(self, e: float) -> int:
        """Index of the outermost mesh point with V_eff <= e; 0 if none."""
        allowed = np.flatnonzero(self.veff[1:] <= e)
        return int(allowed[-1]) + 1 if allowed.size else 0

    def turning_point(self, e: float) -> float:
        return float(self.r[self._turning_index(e)])

    def tail_action(self, e: float) -> float:
        """WKB action integral from the outer turning point to the edge.

        Inner forbidden regions (the centrifugal barrier) do not count:
        they say nothing about how far the box cuts into the tail.
        """
        i = max(self._turning_index(e), 1)
        ksq = 2.0 * self.mu * (self.veff[i:] - e)
        kappa = np.sqrt(np.clip(ksq, 0.0, None))
        return float(np.trapezoid(kappa, self.r[i:]))


def radial_eigenvalue(
    mu: float,
    potential: InteractionTriple,
    l: int,
    n_r: int,
    rmax: float | None = None,
    npoints: int | None = None,
    etol: float = 1e-13,
) -> float:
    """Eigenvalue with n_r radial nodes and orbital momentum l.

    mu is the reduced mass; the potential must support the requested
    bound state (NoBoundState otherwise).  rmax/npoints override the
    adaptive box and mesh, which the convergence tests use to measure
    the O(h^4) error scaling directly.  rmax, npoints and etol must be
    positive and finite, npoints a whole number.
    """
    require_finite_positive("reduced mass", mu)
    if l < 0 or n_r < 0:
        raise DomainError(f"quantum numbers must be >= 0, got l={l!r}, n_r={n_r!r}")
    for name, value in (("rmax", rmax), ("npoints", npoints), ("etol", etol)):
        if value is not None:
            require_finite_positive(name, value)
    if npoints is not None:
        if npoints != int(npoints):
            raise DomainError(f"npoints must be a whole number, got {npoints!r}")
        npoints = int(npoints)

    laurent = _laurent_coeffs(potential)
    asym = _asymptote(potential)
    fixed_box = rmax is not None
    box = rmax if fixed_box else 10.0 / math.sqrt(mu)
    unbound_rounds = 0
    e = None

    for _ in range(_MAX_BOX_GROWTHS):
        n = npoints if npoints is not None else int(min(25000.0, max(4000.0, 160.0 * box)))
        shooter = _Shooter(mu, potential, l, box, n, laurent)
        e = shooter.solve(n_r, etol, guess=e)
        # a level at or above the potential's large-distance limit is a
        # box artefact; it sinks below on growth only if a real state
        # was being squeezed
        if e >= asym - 1e-12 * max(1.0, abs(asym)):
            unbound_rounds += 1
            if fixed_box or unbound_rounds >= _MAX_UNBOUND_ROUNDS:
                raise NoBoundState(
                    f"no level with n_r={n_r}, l={l} below the asymptotic "
                    f"potential ({e:.6g} >= {asym:.6g})"
                )
            box *= 1.8
            continue
        if fixed_box:
            break
        rt = shooter.turning_point(e)
        if rt <= _TURNING_FRACTION * box and shooter.tail_action(e) >= _MIN_TAIL_ACTION:
            break
        box *= 1.8
    else:
        raise ConvergenceError(
            f"box did not stabilise below rmax={box:.6g}; is the state bound?"
        )

    nodes_below = shooter.nodes(e - 10.0 * etol * max(1.0, abs(e)))
    if nodes_below != n_r:
        raise ConvergenceError(
            f"converged level has {nodes_below} nodes, expected {n_r}"
        )
    return e
