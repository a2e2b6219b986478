"""Independent two-body eigenvalue oracle (Numerov shooting).

Solves the reduced radial problem

    -u''/(2 mu) + [V(r) + l(l+1)/(2 mu r^2)] u = E u,   u(0) = u(rmax) = 0

by outward Numerov integration.  Each level is isolated by bisection on
the node count, only until the bracket ends hold n_r and n_r + 1 nodes;
across that bracket the edge value u(rmax) changes sign once, at the
level, and Brent's method converges on that zero.  A bracket whose
lower end already lies at or above the potential's large-distance limit
holds no bound level, and is returned without that refinement.

Nothing here touches the envelope machinery beyond that generic root
finder: this is the reference the approximate energies and their
variational tags are tested against.  The scheme is deliberately the
simplest one with a controllable error: global accuracy is O(h^4) in
the mesh step, and the box is grown until the classical turning point
sits below 60% of it and the WKB tail suppression beyond that point is
strong enough not to bias the eigenvalue.

One Numerov driver (_numerov) runs every pass, on y = f u, and checks
for overflow once per chunk of steps instead of at every step.  The
node-counting pass serves the bracket walk, the bisection and the final
node check.  The edge-only pass serves Brent; it differs only in
skipping the node test, and gives the same edge value bit for bit.  For
l >= 3 the Numerov factor of the first ~l / 3.5 mesh points is
negative, whatever the step, and a recurrence through them flips sign at
spurious nodes: every pass starts at mesh point i0 = floor(sqrt(l(l+1) /
12)) + 2, past that region, from the small-r series of u.

Until a level has been shot, each box first takes a Langer-WKB estimate
of it from the potential samples it already holds, which costs no
Numerov sweep.  A box in which the estimate, lowered by a safety
margin, already fails the box test is skipped unshot.  The first box
that is shot starts its bracket at +-1 % around the estimate, and each
larger box after it at +-1e-3 around the level found in the previous
one.  The estimate is solved only to 1e-5 relative (_WKB_TOL), a
thousandth of that bracket's half-width and less still of the skip
margin: far inside the ~1 % by which WKB itself misses the level, and
enough to leave every bracket and skip where the exact root would.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NoBoundState, require_finite_positive
from .et_core import _brent, _pointwise
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
# half-width of the bracket around a WKB estimate, relative to it; the
# Langer estimate is within ~1 % on the power-law levels tried, and a
# miss only widens the bracket
_SEED_SPAN = 0.01
# how far below its WKB estimate a level may lie, as a fraction of its
# depth below the asymptote or its height above the Langer minimum,
# whichever is smaller (the worst miss seen is 1.5 %)
_SKIP_MARGIN = 0.05
# tolerance of the WKB estimate, relative to it and to the depth of the
# Langer well: the estimate only centres a bracket of half-width
# _SEED_SPAN and feeds a skip test with margin _SKIP_MARGIN, so an error
# a thousandth of the smaller of the two leaves both as they were
_WKB_TOL = 1e-3 * min(_SEED_SPAN, _SKIP_MARGIN)

# Numerov steps between two overflow checks
_CHUNK = 2048
# tolerance of a level: relative above |E| = 1, absolute below
_ETOL = 1e-13

# one Numerov shot: (energy, interior node count, u at the box edge)
_Shot = tuple[float, int, float]


def _asymptote(potential: InteractionTriple) -> float:
    """Potential value at the largest probe radius that evaluates finitely.

    Confining potentials report a huge (or infinite) value, or overflow,
    so the bound-state check against this limit never fires for them.  A
    probe that is undefined (NaN, or any other arithmetic error) raises
    DomainError.
    """
    limit = math.inf
    for radius in (1e5, 1e6, 1e7):
        try:
            value = potential.value(radius)
        except OverflowError:
            break
        except (ValueError, ZeroDivisionError):
            value = math.nan
        if math.isnan(value):
            raise DomainError(f"the potential is not finite at r={radius:g}")
        if math.isinf(value):
            break
        limit = float(value)
    return limit


def _unbound(e: float, asym: float) -> bool:
    """Whether e sits at or above the potential's large-distance limit."""
    return e >= asym - 1e-12 * max(1.0, abs(asym))


def _laurent_coeffs(potential: InteractionTriple, eta: float = 1e-8) -> tuple[float, float]:
    """Estimate A and B in V(r) ~ A/r + B near the origin.

    Richardson extrapolation of r*V(r) and V(r) - A/r at two small
    radii; exact for potentials that actually have this form, and a
    harmless ~0 for regular ones.  Both samples must be finite
    (DomainError otherwise).
    """
    v1, v2 = _pointwise(potential.value, [eta, eta / 2.0]).tolist()
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise DomainError(f"the potential is not finite at r={eta:g} or r={eta / 2.0:g}")
    t1 = eta * v1
    t2 = (eta / 2.0) * v2
    a = 2.0 * t2 - t1
    if abs(a) < 1e-10 * max(1.0, abs(t1)):
        a = 0.0
    s1 = v1 - (a / eta if a else 0.0)
    s2 = v2 - (a / (eta / 2.0) if a else 0.0)
    b = 2.0 * s2 - s1
    if not math.isfinite(b):
        b = 0.0
    return a, b


def _sample(potential: InteractionTriple, r: np.ndarray) -> np.ndarray:
    """V on the mesh radii, in one array call where the triple allows.

    Triples that reject arrays, or do not return one number per radius,
    are evaluated point by point instead, where a radius at which the
    callable raises an arithmetic error reads as NaN.
    """
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(potential.value(r), dtype=float)
    except (TypeError, ValueError, ArithmeticError):
        v = None
    if v is None or v.shape != r.shape:
        v = _pointwise(potential.value, r.tolist())
    return v


def _numerov(
    f: np.ndarray, u1: float, first_term: float = 0.0, start: int = 1, count_nodes: bool = True
) -> tuple[int, float]:
    """One Numerov pass; returns (interior node count, u at the box edge).

    f holds the Numerov factors 1 + h^2 k^2 / 12 on the whole mesh.  The
    pass steps outward from mesh point start, where u is u1; first_term
    stands in for f u at the point before it.  From the origin (start =
    1, f[0] = 1) that is f_0 u_0: u(0) = 0, but the product (V u)(r) can
    have a finite limit at the origin that the grid cannot represent.

    The pass runs on y_i = f_i u_i, for which Numerov reads y_i =
    A_i y_(i-1) - y_(i-2) with A_i = (12 - 10 f_(i-1)) / f_(i-1), whatever
    the sign of f.  numpy computes the A_i; the sequential loop runs in
    plain Python.  Brent's method only needs the edge value, so its pass
    (count_nodes false) skips the node test in that loop; the count it
    returns is then meaningless.

    A node is a sign change of y, which has the sign of u wherever f > 0;
    where f <= 0 no count can be trusted, which radial_eigenvalue checks
    on a fixed mesh.  An exact zero counts as no node.  Overflow is
    checked once per chunk of _CHUNK steps: a chunk that ends non-finite
    or above 1e250 is run again from its start, with its node count,
    rescaling whenever |y| passes 1e250.  Where u grows steadily, as past
    a turning point, a chunk ends on its largest value, so the rescales
    fall on the same steps as a per-step check would put them; a value
    that peaks above 1e250 and falls back within one chunk is left
    unscaled, which is still finite and keeps every sign and zero.
    """
    f = f[start - 1:]
    coeffs = memoryview((12.0 - 10.0 * f[1:-1]) / f[1:-1])
    # plain floats: a numpy scalar here would slow every step of the loop
    y_prev, y_cur, nodes = float(first_term), float(f[1]) * float(u1), 0
    for lo in range(0, len(coeffs), _CHUNK):
        chunk = coeffs[lo:lo + _CHUNK]
        p, c, k = y_prev, y_cur, nodes
        if count_nodes:
            for a_i in chunk:
                p, c = c, a_i * c - p
                if c * p < 0.0:
                    k += 1
        else:
            for a_i in chunk:
                p, c = c, a_i * c - p
        if not -1e250 <= c <= 1e250:
            p, c, k = y_prev, y_cur, nodes
            for a_i in chunk:
                p, c = c, a_i * c - p
                if c * p < 0.0:
                    k += 1
                if c > 1e250 or c < -1e250:
                    # the eigenvalue condition only uses signs and zeros
                    p *= 1e-250
                    c *= 1e-250
        y_prev, y_cur, nodes = p, c, k
    return nodes, y_cur / float(f[-1])


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
        bad = np.flatnonzero(~np.isfinite(v[1:])) + 1
        if bad.size:
            raise DomainError(f"the potential is not finite at {bad.size} mesh "
                              f"points, the first at r={self.r[bad[0]]:.6g}")
        cent = np.zeros_like(self.r)
        if l > 0:
            cent[1:] = l * (l + 1) / (2.0 * mu * self.r[1:] ** 2)
        self.veff = v + cent
        self.veff[0] = 0.0
        # V_eff with l(l+1) -> (l + 1/2)^2, for the WKB estimate
        self.langer = self.veff[1:] + 1.0 / (8.0 * mu * self.r[1:] ** 2)
        self.phase_step = self.h * math.sqrt(2.0 * mu)
        self.lau_a, self.lau_b = laurent
        # limit of 2 mu (V_eff - E) u at r = 0 for u ~ r^(l+1): the 1/r
        # part of V survives at l = 0, the centrifugal term at l = 1
        if l == 0:
            self.g0 = 2.0 * mu * self.lau_a
        elif l == 1:
            self.g0 = 2.0
        else:
            self.g0 = 0.0
        # for l >= 3 the Numerov factor 1 - l(l+1) / (12 i^2) + O(h^2) of
        # the first mesh points is negative, and the recurrence would flip
        # sign there, counting spurious nodes: the passes start at i0,
        # past that region, from the small-r series (_series)
        self.start = 1 if l < 3 else math.isqrt(l * (l + 1) // 12) + 2

    def _series(self, e: float, r: float) -> float:
        # u ~ r^(l+1) (1 + c1 r + c2 r^2) near the origin restores O(h^4)
        # for Coulomb-like potentials; returns the factor in brackets
        c1 = self.mu * self.lau_a / (self.l + 1.0)
        c2 = (
            self.mu * (self.lau_a * c1 + self.lau_b - e) / (2.0 * self.l + 3.0)
        )
        return 1.0 + r * (c1 + r * c2)

    def _numerov_input(self, e: float) -> tuple[np.ndarray, float, float, int]:
        """Arguments of a Numerov pass at e: f, u(i0), f u at i0 - 1, and i0."""
        f = 1.0 + (self.h * self.h * self.mu / 6.0) * (e - self.veff)
        f[0] = 1.0
        i0 = self.start
        if i0 == 1:
            u1 = self.h ** (self.l + 1) * self._series(e, self.h)
            return f, u1, -(self.h * self.h / 12.0) * self.g0, 1
        # u(i0) = 1; u(i0 - 1) from the same series
        r0, r1 = float(self.r[i0 - 1]), float(self.r[i0])
        u0 = ((i0 - 1.0) / i0) ** (self.l + 1) * self._series(e, r0) / self._series(e, r1)
        return f, 1.0, float(f[i0 - 1]) * u0, i0

    def shoot(self, e: float) -> tuple[int, float]:
        return _numerov(*self._numerov_input(e))

    def edge(self, e: float) -> float:
        return _numerov(*self._numerov_input(e), count_nodes=False)[1]

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

    def solve(
        self,
        n_r: int,
        guess: float | None = None,
        span: float = _WARM_SPAN,
        asym: float = math.inf,
    ) -> float:
        """Level with n_r nodes: node-count bisection, then Brent on u(rmax).

        guess, the level found in a smaller box or a WKB estimate, starts
        the bracket at +-span relative around it; without one, the
        bracket starts from the extremes of the effective potential.  A
        shot that misses one end of the bracket is kept as the other end.
        Once the level is isolated, a lower end unbound against asym (the
        potential's large-distance limit) is returned unrefined.
        """
        if guess is None:
            lo = float(np.min(self.veff[1:]))
            hi = max(float(self.veff[-1]), lo + 1.0)
            step = max(abs(hi - lo), 1.0)
        else:
            step = span * (abs(guess) or 1.0)
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
            if hi - lo <= _ETOL * max(1.0, abs(lo), abs(hi)) or mid == lo or mid == hi:
                # the node count jumps by more than one: no clean sign
                # change to converge on; the final node check judges it
                return mid
            n_mid, u_mid = self.shoot(mid)
            if n_mid <= n_r:
                lo, n_lo, u_lo = mid, n_mid, u_mid
            else:
                hi, n_hi, u_hi = mid, n_mid, u_mid
        if _unbound(lo, asym):
            # the level lies above lo, so it is unbound too: converging
            # on it would only be thrown away
            return lo
        try:
            return _brent(self.edge, lo, hi, rtol=_ETOL, atol=_ETOL, fa=u_lo, fb=u_hi)
        except (RuntimeError, ValueError) as exc:
            raise ConvergenceError(
                f"edge-value refinement failed on [{lo:.17g}, {hi:.17g}]: {exc}"
            ) from exc

    def wkb_phase(self, e: float) -> float:
        """Langer-WKB phase: integral of sqrt(2 mu (e - V_eff) - 1/(4 r^2)).

        The 1/(4 r^2) term is the Langer shift of l(l+1) to (l + 1/2)^2;
        the integral runs over the allowed part of the box.
        """
        return self._root_integral(e - self.langer)

    def _root_integral(self, w: np.ndarray) -> float:
        """Integral of sqrt(2 mu max(w, 0)) over the mesh points w samples.

        w holds one value per point of a run of consecutive mesh points;
        the trapezoidal rule on the uniform mesh, and w is overwritten.
        """
        np.maximum(w, 0.0, out=w)
        np.sqrt(w, out=w)
        return self.phase_step * (float(w.sum()) - 0.5 * float(w[0] + w[-1]))

    def wkb_level(self, n_r: int) -> float | None:
        """Langer-WKB level with n_r nodes from the box's potential samples.

        Solves wkb_phase(E) = pi (n_r + 1/2) with no Numerov sweep, to
        _WKB_TOL.  None when the box cannot hold the level below its edge
        value of the Langer potential.
        """
        lo, hi = float(np.min(self.langer)), float(self.langer[-1])
        target = math.pi * (n_r + 0.5)
        f_hi = self.wkb_phase(hi) - target
        if f_hi < 0.0:
            return None
        return _brent(lambda e: self.wkb_phase(e) - target, lo, hi,
                      rtol=_WKB_TOL, atol=_WKB_TOL * (hi - lo), fb=f_hi)

    def holds(self, e: float) -> bool:
        """The box test: turning point within 60% of the box, tail action >= 15.

        The turning point is the outermost mesh point with V_eff <= e (the
        origin if none), and the tail action is the WKB action integral
        from there to the edge.  Inner forbidden regions (the centrifugal
        barrier) do not count: they say nothing about how far the box cuts
        into the tail.
        """
        allowed = np.flatnonzero(self.veff[1:] <= e)
        i = int(allowed[-1]) + 1 if allowed.size else 0
        return (float(self.r[i]) <= _TURNING_FRACTION * self.rmax
                and self._root_integral(self.veff[max(i, 1):] - e) >= _MIN_TAIL_ACTION)

    def too_small(self, estimate: float | None, asym: float) -> bool:
        """Whether the box test must fail for the level WKB puts at estimate.

        Without an estimate the level lies above the edge value of the
        Langer potential, which stands in for it.  That value, lowered by
        _SKIP_MARGIN, must still fail the test; the test is monotonic in
        the energy and a box only raises a level, so the level fails too.
        A value not below the asymptote asym proves nothing, so that the
        box is shot and the unbound-round rule sees it.
        """
        top = float(self.langer[-1]) if estimate is None else estimate
        if _unbound(top, asym):
            return False
        low = top - _SKIP_MARGIN * min(asym - top, top - float(np.min(self.langer)))
        return not self.holds(low)


def radial_eigenvalue(
    mu: float,
    potential: InteractionTriple,
    l: int,
    n_r: int,
    rmax: float | None = None,
    npoints: int | None = None,
) -> float:
    """Eigenvalue with n_r radial nodes and orbital momentum l.

    mu is the reduced mass; the potential must support the requested
    bound state (NoBoundState otherwise).  rmax/npoints override the
    adaptive box and mesh, which the convergence tests use to measure
    the O(h^4) error scaling directly; both must be positive and finite,
    npoints a whole number.  The level is found to _ETOL = 1e-13,
    relative above |E| = 1 and absolute below.  A potential that is not
    finite, or raises an arithmetic error, at a mesh point raises
    DomainError, and so does, on a fixed box, a mesh whose Numerov factor
    is not positive at some point at the level found.
    """
    require_finite_positive("reduced mass", mu)
    if l < 0 or n_r < 0:
        raise DomainError(f"quantum numbers must be >= 0, got l={l!r}, n_r={n_r!r}")
    for name, value in (("rmax", rmax), ("npoints", npoints)):
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
        guess, span = e, _WARM_SPAN
        if e is None:
            # no level shot yet: skip the boxes WKB already rules out,
            # and seed the first solved box with the estimate
            guess, span = shooter.wkb_level(n_r), _SEED_SPAN
            if not fixed_box and shooter.too_small(guess, asym):
                box *= 1.8
                continue
        e = shooter.solve(n_r, guess=guess, span=span, asym=asym)
        # a level at or above the potential's large-distance limit is a
        # box artefact; it sinks below on growth only if a real state
        # was being squeezed
        if _unbound(e, asym):
            unbound_rounds += 1
            if fixed_box or unbound_rounds >= _MAX_UNBOUND_ROUNDS:
                raise NoBoundState(
                    f"no level with n_r={n_r}, l={l} below the asymptotic "
                    f"potential ({e:.6g} >= {asym:.6g})"
                )
            box *= 1.8
            continue
        if fixed_box:
            # where the Numerov factor is not positive, u flips sign at
            # every step and each flip reads as a node, so the count that
            # identified this level cannot be trusted
            steep = np.flatnonzero(shooter._numerov_input(e)[0][shooter.start:] <= 0.0)
            if steep.size:
                raise DomainError(
                    f"the Numerov factor at E={e:.6g} is not positive at "
                    f"{steep.size} mesh points, the first at "
                    f"r={shooter.r[shooter.start + steep[0]]:.6g}: "
                    f"npoints={n} is too few for rmax={box:.6g}"
                )
            break
        if shooter.holds(e):
            break
        box *= 1.8
    else:
        raise ConvergenceError(
            f"box did not stabilise below rmax={box:.6g}; is the state bound?"
        )

    nodes_below = shooter.shoot(e - 10.0 * _ETOL * max(1.0, abs(e)))[0]
    if nodes_below != n_r:
        raise ConvergenceError(
            f"converged level has {nodes_below} nodes, expected {n_r}"
        )
    return e
