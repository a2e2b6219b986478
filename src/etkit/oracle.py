"""Independent two-body eigenvalue oracle (Numerov shooting).

Solves the reduced radial problem

    -u''/(2 mu) + [V(r) + l(l+1)/(2 mu r^2)] u = E u,   u(0) = u(rmax) = 0

by outward Numerov integration.  Each level is isolated by bisection on
the node count until the bracket ends hold n_r and n_r + 1 nodes; across
that bracket u(rmax) changes sign once, at the level, and Brent's method
converges on that zero.  The bracket starts from one shot at a guess and
walks out on the side its node count points to, never below the lowest
V_eff on the mesh.  Nothing here touches the envelope machinery
beyond that root finder: this is the reference the approximate energies
are tested against.

One call samples V near the origin, for the Coulomb part of the small-r
start, and on a log grid out to 1e7: where V_eff never dips below V's
limit at large r there is no level (NoBoundState at once).  On that grid
the Langer-WKB condition gives the level's own scale (_wkb_scale): it is
the guess of every solve, on either kind of mesh, whose bracket walks in
steps of 1 % of it, and sets the first box and the mesh step.  Without it
(Langer-WKB misses near-threshold s-waves) the bracket walks up from the
lowest V_eff on the mesh, and the first box reaches twice as far as the
lowest V_eff, with 40 points per unit length within [1000, 25000].
Either mesh keeps the Numerov factor >= 1/2 above its lowest V_eff, up
to 2^20 points.  Past the radius where the tail action from the outer
turning point reaches 3, the level-scale mesh steps by 2^k h to the box
edge, for the largest k with 2^k h kappa <= 0.1 over the rest of the box
and the factor >= 1/2 (_segments, from the probe's samples at r >= h,
checked again on the built mesh): a Coulomb tail, where kappa levels
off, takes steps of 4h or 8h; a confining one, where kappa grows, keeps
one step.  A box grows by 1.8 until the turning point
is within 60% of it and the tail action beyond is >= 15.  The final box
is solved again with both steps halved, on twice its n points: the error
runs as h^4, h^6, ..., so (16 E(2n) - E(n)) / 15 is O(h^6).  While
|E(2n) - E(n)| is above 5e-8 of |E| (or of 1e-3 of the level's WKB
kinetic energy) the mesh doubles again (ConvergenceError past 2^20
points).  A caller's mesh (rmax and npoints, both or neither) is checked
once, before any pass, for a Numerov factor f <= 0 at the lowest V_eff
on it, then solved once; its level has an error O(h^4).

One Numerov routine (_numerov) runs every pass, on y = f u, one
recurrence per step size, and checks for overflow once per chunk of steps.
The node-counting pass serves the bracket walk, the bisection and the
final node check; the edge-only pass serves Brent and gives the same edge
value bit for bit.  For l >= 3 the Numerov factor of the first ~l / 3.5
mesh points is negative, whatever the step, and a recurrence through them
flips sign at spurious nodes: every pass starts at mesh point i0 =
floor(sqrt(l(l+1) / 12)) + 2, past that region, from the small-r series
of u.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, NoBoundState, require_finite_positive
from .et_core import _brent, _on_points
from .model import InteractionTriple

__all__ = ["radial_eigenvalue"]

# turning point must stay below this fraction of the box
_TURNING_FRACTION = 0.6
# required WKB action integral over the forbidden region; e^(-2*15) ~ 1e-13
_MIN_TAIL_ACTION = 15.0
_MAX_BOX_GROWTHS = 14
_MAX_UNBOUND_ROUNDS = 5
# first step of the bracket walk from a WKB estimate, relative to it; Langer
# misses the power-law levels tried by ~1 %, and a miss takes more steps
_SEED_SPAN = 0.01
# WKB phase per step of an adaptive mesh, h k_max: the largest local wave
# number, at the WKB level above the bottom of the Langer well
_STEP_PHASE = 0.045
# tail action from the outer turning point past which an adaptive mesh may
# take a coarser step, where u^2 < e^(-6): the Coulomb levels n_r <= 2,
# l <= 3 move by <= 3.2e-13 |E| from one step over the box (2: 1.4e-12; 5:
# 1.4e-13 for 11 % more steps)
_DOUBLING_ACTION = 3.0
# largest h kappa of the coarse step over the rest of the box, kappa =
# sqrt(2 mu (V_eff - E)) at the WKB level: the same levels move by <= 3.2e-13
# |E| (0.2: 2.9e-12; 0.4: 2.1e-12; 0.05: 1.1e-13 for 11 % more steps)
_DOUBLED_DECAY = 0.1

# Numerov steps between two overflow checks
_CHUNK = 2048
# tolerance of a level: relative above |E| = 1, absolute below
_ETOL = 1e-13
# largest change of an adaptive level from n to 2n mesh points, relative to
# |E| (or a thousandth of its WKB kinetic energy, if larger) before the mesh
# doubles again: smooth potentials move < 2.3e-8 on the level-scale mesh
_RICHARDSON_TOL = 5e-8
_MAX_POINTS = 1 << 20


def _probe(potential: InteractionTriple,
           mu: float) -> tuple[np.ndarray, np.ndarray, float, tuple[float, float]]:
    """Radii, V at them, V's large-distance limit and the origin pair, from one call.

    The call holds 1e-8 and 5e-9, then 400 radii from 1e-3 / sqrt(mu) to
    1e5, then 1e6 and 1e7; the radii and values returned are the last 402.
    The origin pair (A, B) in V(r) ~ A/r + B comes from Richardson
    extrapolation of r*V(r) and V(r) - A/r at the first two: exact for
    potentials that actually have this form, and a harmless ~0 for
    regular ones.  Both must be finite (DomainError otherwise).  The limit
    is V at the largest of the last three radii before an inf (an
    overflow), so none is found for a confining potential; a NaN there is
    a DomainError.
    """
    # np.geomspace(r0, 1e5, 400) bit for bit, at a third of its cost
    r0 = 1e-3 / math.sqrt(mu)
    grid = 10.0 ** np.linspace(math.log10(r0), 5.0, 400)
    grid[0], grid[-1] = r0, 1e5
    radii = np.concatenate(((1e-8, 5e-9), grid, (1e6, 1e7)))
    values = _on_points(potential.value, radii)
    (r1, r2), (v1, v2) = radii[:2].tolist(), values[:2].tolist()
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise DomainError(f"the potential is not finite at r={r1:g} or r={r2:g}")
    t1, t2 = r1 * v1, r2 * v2
    a = 2.0 * t2 - t1
    if abs(a) < 1e-10 * max(1.0, abs(t1)):
        a = 0.0
    s1 = v1 - (a / r1 if a else 0.0)
    s2 = v2 - (a / r2 if a else 0.0)
    b = 2.0 * s2 - s1
    if not math.isfinite(b):
        b = 0.0
    limit = math.inf
    for radius, value in zip(radii[-3:].tolist(), values[-3:].tolist()):
        if math.isnan(value):
            raise DomainError(f"the potential is not finite at r={radius:g}")
        if math.isinf(value):
            break
        limit = value
    return radii[2:], values[2:], limit, (a, b)


def _wkb_scale(mu: float, radii: np.ndarray, veff: np.ndarray, l: int, n_r: int, asym: float,
               coulomb: float) -> tuple[float, float, float, int] | None:
    """Langer-WKB level, first box, mesh step and doubling sample from the probe samples.

    The phase of sqrt(2 mu (E - V_Langer)), V_eff with l(l+1) -> (l + 1/2)^2,
    sums over the probe's first 400 (log-spaced) radii.  Bisection over the
    sorted samples of V_Langer finds the cell of the level, within which no
    point enters the allowed region, and Brent solves it to 1e-3 of the cell.
    The box reaches 1.05 times past the turning point over _TURNING_FRACTION
    and past where the tail action reaches 1.1 _MIN_TAIL_ACTION.  The step is
    _STEP_PHASE / k_max, k_max^2 = 2 mu (E - min V_Langer) + (2 mu coulomb /
    (l + 1))^2: with a Coulomb part the small-r start is only O(h^5).  The
    doubling sample is the first where the tail action reaches
    _DOUBLING_ACTION, past which the step may grow (_segments).  None
    when the samples hold no level below the asymptote.
    """
    r, veff = radii[:400], veff[:400]
    weight = math.sqrt(2.0 * mu) * math.log(r[1] / r[0]) * r
    langer = veff + 1.0 / (8.0 * mu * r * r)
    target = math.pi * (n_r + 0.5)

    def phase(e: float) -> float:
        return _langer_phase(e, weight, langer) - target

    cells = np.sort(langer[np.isfinite(langer) & (langer < asym)]).tolist()
    # the phase is -target at the lowest sample and rises with e
    lo, hi, f_lo, f_hi = 0, len(cells), -target, math.nan
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f_mid = phase(cells[mid])
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    if hi == len(cells):
        return None
    e = _brent(phase, cells[lo], cells[hi], atol=1e-3 * (cells[hi] - cells[lo]), fa=f_lo, fb=f_hi)
    turn = int(np.flatnonzero(veff <= e)[-1])
    tail = np.cumsum(weight[turn:] * np.sqrt(np.fmax(veff[turn:] - e, 0.0)))
    reach = min(turn + int(np.searchsorted(tail, 1.1 * _MIN_TAIL_ACTION)), len(r) - 1)
    past = min(turn + int(np.searchsorted(tail, _DOUBLING_ACTION)), reach)
    box = 1.05 * max(float(r[min(turn + 1, reach)]) / _TURNING_FRACTION, float(r[reach]))
    k_sq = 2.0 * mu * (e - cells[0]) + (2.0 * mu * coulomb / (l + 1.0)) ** 2
    return e, box, _STEP_PHASE / math.sqrt(k_sq), past


def _coarse_fits(mu: float, step: float, top: float, e: float, bottom: float) -> bool:
    """Whether step suits a tail whose highest V_eff is top, for a level e above bottom.

    step kappa <= _DOUBLED_DECAY, kappa = sqrt(2 mu (top - e)), and mu step^2
    (top - bottom) / 6 <= 1/2 keeps the Numerov factor f >= 1/2 at every
    energy above bottom, the lowest V_eff on the mesh.
    """
    step_sq = step * step
    return (2.0 * mu * step_sq * (top - e) <= _DOUBLED_DECAY**2
            and mu * step_sq * (top - bottom) <= 3.0)


def _segments(mu: float, e: float, radii: np.ndarray, veff: np.ndarray, past: int,
              box: float, n: int) -> tuple[int, int] | None:
    """Where an adaptive mesh of box, n steps of h = box / n, may step by 2^k h, and k.

    radii and veff are the probe's log-spaced samples; past is the first
    where the tail action reaches _DOUBLING_ACTION.  Returns (cut, k) for
    the largest k >= 1 that _coarse_fits the highest V_eff of the samples
    from past up to the first at or past the box, at the level e, above the
    lowest V_eff of the samples at r >= h (the mesh's first point), with at
    least 4 steps of 2^k h from mesh point cut to the edge.  cut is the
    first point from which such steps end on the edge and whose point 2^k
    before it, where the coarse recurrence also starts, lies at or past
    radii[past].  None where no k holds.
    """
    h = box / n
    bottom = float(veff[int(np.searchsorted(radii, h)):].min())
    radii, veff = radii[past:], veff[past:]
    end = min(int(np.searchsorted(radii, box)) + 1, len(radii))
    top = float(veff[:end].max())
    first = math.ceil(float(radii[0]) / h)
    plan, k = None, 1
    while _coarse_fits(mu, h * 2**k, top, e, bottom):
        m = 1 << k
        cut = first + m + (n - first) % m
        if n - cut < 4 * m:
            break
        plan, k = (cut, k), k + 1
    return plan


def _langer_phase(e: float, weight: np.ndarray, langer: np.ndarray) -> float:
    """WKB phase at e: the sum of weight sqrt(max(e - V_Langer, 0)) over the samples."""
    return float(np.dot(weight, np.sqrt(np.fmax(e - langer, 0.0))))


def _unbound(e: float, asym: float) -> bool:
    """Whether e sits at or above the potential's large-distance limit."""
    return e >= asym - 1e-12 * max(1.0, abs(asym))


def _numerov(f: np.ndarray, u1: float, first_term: float = 0.0, start: int = 1,
             count_nodes: bool = True, cut: int = 0, back: int = 0) -> tuple[int, float]:
    """One Numerov pass; returns (interior node count, u at the box edge).

    f holds the Numerov factors 1 + h^2 k^2 / 12 on the whole mesh.  The
    pass steps outward from mesh point start, where u is u1; first_term
    stands in for f u at the point before it.  From the origin (start =
    1, f[0] = 1) that is f_0 u_0: u(0) = 0, but the product (V u)(r) can
    have a finite limit at the origin that the grid cannot represent.

    The pass runs on y_i = f_i u_i, for which Numerov reads y_i =
    A_i y_(i-1) - y_(i-2) with A_i = (12 - 10 f_(i-1)) / f_(i-1), whatever
    the sign of f.  numpy computes the A_i; the sequential loop runs in
    plain Python (_recur).  Brent's method only needs the edge value, so its
    pass (count_nodes false) skips the node test in that loop; the count it
    returns is then meaningless.

    cut, if not 0, is the entry of f where a segment of a coarser step
    begins, with a recurrence of its own.  Its first two entries are the
    point back entries before entry cut - 1 and the point at cut - 1, both
    of the segment before; it starts from their y / f, times its own
    factors there.

    A node is a sign change of y, which has the sign of u wherever f > 0;
    where f <= 0 no count can be trusted, which radial_eigenvalue checks
    on a fixed mesh.  An exact zero counts as no node.
    """
    f = f[start - 1:]
    coeffs = memoryview((12.0 - 10.0 * f[1:-1]) / f[1:-1])
    # plain floats: a numpy scalar here would slow every step of the loop
    y_prev, y_cur, nodes = float(first_term), float(f[1]) * float(u1), 0
    lo = 0
    if cut:
        # the segment before the cut ends at entry end; the last back steps
        # to it run here, unscaled, so that y there and back entries before
        # share one scale
        end = cut - start
        y_prev, y_cur, nodes = _recur(coeffs[:end - back - 1], y_prev, y_cur, nodes, count_nodes)
        y_back = y_cur
        for a_i in coeffs[end - back - 1:end - 1]:
            y_prev, y_cur = y_cur, a_i * y_cur - y_prev
            if y_cur * y_prev < 0.0:
                nodes += 1
        lo = end + 1
        y_prev = float(f[lo]) * (y_back / float(f[end - back]))
        y_cur = float(f[lo + 1]) * (y_cur / float(f[end]))
    _, y_cur, nodes = _recur(coeffs[lo:], y_prev, y_cur, nodes, count_nodes)
    return nodes, y_cur / float(f[-1])


def _recur(coeffs: memoryview, y_prev: float, y_cur: float, nodes: int,
           count_nodes: bool) -> tuple[float, float, int]:
    """The recurrence through coeffs: the last two y and the node count.

    Overflow is checked once per chunk of _CHUNK steps: a chunk that ends
    non-finite or above 1e250 is run again from its start, with its node
    count, rescaling whenever |y| passes 1e250.  Where u grows steadily, as
    past a turning point, a chunk ends on its largest value, so the rescales
    fall on the same steps as a per-step check would put them; a value that
    peaks above 1e250 and falls back within one chunk is left unscaled,
    which is still finite and keeps every sign and zero.
    """
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
    return y_prev, y_cur, nodes


class _Shooter:
    """Shooting machinery on a fixed box [0, rmax] of npoints steps h = rmax / npoints.

    doubled, if given as (cut, k), keeps every 2^k-th point of that mesh
    from point cut on, so that the steps there are 2^k h: (npoints - cut)
    must be a multiple of 2^k, and cut at least 2^k past the first point
    a pass starts from.  A Numerov pass runs one recurrence up to cut and
    another past it, started exactly from u at cut and 2^k points before
    it (_numerov).
    """

    def __init__(self, mu: float, potential: InteractionTriple, l: int, rmax: float,
                 npoints: int, laurent: tuple[float, float],
                 doubled: tuple[int, int] | None = None):
        self.mu = mu
        self.l = l
        self.rmax = rmax
        self.h = rmax / npoints
        self.doubled = doubled
        self.cut, k = doubled or (npoints, 0)
        self.jump = 1 << k
        # each segment's first and last point and step
        last = self.cut + ((npoints - self.cut) >> k)
        self.segments = ((0, self.cut, self.h), (self.cut, last, self.h * self.jump))
        # the points of np.linspace(0, rmax, npoints + 1), bit for bit, that
        # the mesh keeps
        points = np.arange(last + 1)
        if doubled:
            points[self.cut:] = self.cut + self.jump * (points[self.cut:] - self.cut)
        self.r = points * self.h
        self.r[-1] = rmax
        self.steps = last
        v = np.empty_like(self.r)
        v[0] = 0.0  # never used: u(0) = 0 kills the first Numerov term
        v[1:] = _on_points(potential.value, self.r[1:])
        if not np.isfinite(v).all():
            bad = np.flatnonzero(~np.isfinite(v))
            raise DomainError(f"the potential is not finite at {bad.size} mesh "
                              f"points, the first at r={self.r[bad[0]]:.6g}")
        self.v_max = float(v[1:].max())
        if l > 0:
            v[1:] += l * (l + 1) / (2.0 * mu * self.r[1:] ** 2)
        self.veff = v
        # no level lies below the lowest V_eff, and no bracket walk (_walk)
        self.bottom = float(v[1:].min())
        self.lau_a, self.lau_b = laurent
        # limit of 2 mu (V_eff - E) u at r = 0 for u ~ r^(l+1): the 1/r
        # part of V survives at l = 0, the centrifugal term at l = 1
        self.g0 = {0: 2.0 * mu * self.lau_a, 1: 2.0}.get(l, 0.0)
        # for l >= 3 the Numerov factor 1 - l(l+1) / (12 i^2) + O(h^2) of
        # the first mesh points is negative, and the recurrence would flip
        # sign there, counting spurious nodes: the passes start at i0,
        # past that region, from the small-r series (_series)
        self.start = 1 if l < 3 else math.isqrt(l * (l + 1) // 12) + 2
        # a pass's V_eff and h^2 mu / 6: one entry per point, and where the
        # step grows, two more before the coarse points, the ones 2^k before
        # cut and at it, where the coarse recurrence starts (entry restart).
        # A mesh of one step keeps V_eff itself and one scalar: the arrays
        # cost ~5 us a shooter, ~1.5 % of a confining level
        self.veff_x, self.scale, self.restart = self.veff, self.h * self.h * mu / 6.0, 0
        if doubled:
            self.restart = self.cut + 1
            entries = np.arange(last + 3)
            entries[self.restart:self.restart + 2] = self.cut - self.jump, self.cut
            entries[self.restart + 2:] -= 2
            self.veff_x = self.veff[entries]
            coarse = self.segments[1][2]
            self.scale = np.full(last + 3, self.scale)
            self.scale[self.restart:] = coarse * coarse * mu / 6.0

    def _series(self, e: float, r: float) -> float:
        # u ~ r^(l+1) (1 + c1 r + c2 r^2) near the origin restores O(h^4)
        # for Coulomb-like potentials; returns the factor in brackets
        c1 = self.mu * self.lau_a / (self.l + 1.0)
        c2 = self.mu * (self.lau_a * c1 + self.lau_b - e) / (2.0 * self.l + 3.0)
        return 1.0 + r * (c1 + r * c2)

    def _numerov_input(self, e: float) -> tuple[np.ndarray, float, float, int]:
        """Arguments of a Numerov pass at e: f, u(i0), f u at i0 - 1, and i0."""
        f = 1.0 + self.scale * (e - self.veff_x)
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
        return _numerov(*self._numerov_input(e), cut=self.restart, back=self.jump)

    def edge(self, e: float) -> float:
        return _numerov(*self._numerov_input(e), count_nodes=False, cut=self.restart,
                        back=self.jump)[1]

    def _walk(self, shot: tuple, step: float, n_r: int) -> tuple[tuple, tuple]:
        """The shots (below, above) on either side of the level, walking out from shot.

        shot is (e0, nodes, u at the edge).  The next shots lie step, 2 step,
        4 step, ... from e0, up if shot counts n_r nodes or fewer and down
        otherwise, until the count crosses n_r; downward no lower than the
        bottom of V_eff.  ConvergenceError after 80 more shots, or at that
        bottom.
        """
        up, e0 = shot[1] <= n_r, shot[0]
        for _ in range(80):
            if not up and shot[0] <= self.bottom:
                break
            e = e0 + step if up else max(e0 - step, self.bottom)
            new = (e, *self.shoot(e))
            if (new[1] <= n_r) != up:
                return (shot, new) if up else (new, shot)
            shot, step = new, 2.0 * step
        raise ConvergenceError(f"could not bracket the level from {'above' if up else 'below'}")

    def solve(self, n_r: int, guess: float | None = None, span: float = _SEED_SPAN) -> float:
        """Level with n_r nodes: node-count bisection, then Brent on u(rmax).

        guess, the probe's Langer-WKB estimate or the level on a coarser
        mesh, is shot first, and the bracket walks out from it in steps of
        span relative to it, on the side its node count points to; without
        one, or from a guess below the bottom of V_eff on the mesh, from that
        bottom in steps of V_eff's rise to the edge.
        """
        if guess is None or guess < self.bottom:
            e, step = self.bottom, max(float(self.veff[-1]) - self.bottom, 1.0)
        else:
            e, step = guess, span * (abs(guess) or 1.0)
        below, above = self._walk((e, *self.shoot(e)), step, n_r)
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
        try:
            return _brent(self.edge, lo, hi, rtol=_ETOL, atol=_ETOL, fa=u_lo, fb=u_hi)
        except (RuntimeError, ValueError) as exc:
            raise ConvergenceError(f"edge-value refinement failed on [{lo:.17g}, {hi:.17g}]: "
                                   f"{exc}") from exc

    def _root_integral(self, w: np.ndarray) -> float:
        """Integral of sqrt(2 mu max(w, 0)) over the mesh points w samples.

        w holds one value per mesh point from some point to the edge; the
        trapezoidal rule, summed per segment, and w is overwritten.
        """
        np.maximum(w, 0.0, out=w)
        np.sqrt(w, out=w)
        first, total = len(self.r) - len(w), 0.0
        for lo, hi, h in self.segments:
            if hi > max(lo, first):
                part = w[max(lo - first, 0):hi + 1 - first]
                total += h * math.sqrt(2.0 * self.mu) * (float(part.sum())
                                                          - 0.5 * float(part[0] + part[-1]))
        return total

    def coarse_fits(self, e: float) -> bool:
        """Whether the coarse step _coarse_fits V_eff on the points from 2^k before cut on."""
        return _coarse_fits(self.mu, self.segments[1][2],
                            float(self.veff[self.cut - self.jump:].max()), e, self.bottom)

    def check_nodes(self, e: float, n_r: int) -> None:
        """ConvergenceError unless a shot just below e counts n_r nodes."""
        nodes_below = self.shoot(e - 10.0 * _ETOL * max(1.0, abs(e)))[0]
        if nodes_below != n_r:
            raise ConvergenceError(f"converged level has {nodes_below} nodes, expected {n_r}")

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


def _adaptive_shooter(mu: float, potential: InteractionTriple, l: int, box: float, n: int,
                      laurent: tuple[float, float],
                      tail: tuple[float, np.ndarray, np.ndarray, int] | None) -> _Shooter:
    """The shooter on box with n steps of box / n, coarser past the tail samples where it may.

    tail holds the WKB level, the probe's radii and V_eff and the first
    sample from where the step may grow (_segments); None keeps one step.
    Where the coarse step does not fit the mesh's own V_eff, which the
    probe samples may miss, it halves and the mesh is built again.
    """
    doubled = _segments(mu, *tail, box, n) if tail else None
    while True:
        cut, k = doubled or (n, 0)
        steps = cut + ((n - cut) >> k)
        if steps > _MAX_POINTS:
            raise ConvergenceError(f"{steps} mesh points needed for rmax={box:.6g}")
        shooter = _Shooter(mu, potential, l, box, n, laurent, doubled)
        if not doubled or shooter.coarse_fits(tail[0]):
            return shooter
        doubled = (cut, k - 1) if k > 1 else None


def radial_eigenvalue(mu: float, potential: InteractionTriple, l: int, n_r: int,
                      rmax: float | None = None, npoints: int | None = None) -> float:
    """Eigenvalue with n_r radial nodes and orbital momentum l.

    mu is the reduced mass; l and n_r are whole numbers >= 0, ints or
    integer-valued floats (DomainError before the potential is called
    otherwise).  The potential must support the requested bound state
    (NoBoundState otherwise).  rmax and npoints, both or neither, replace
    the adaptive box and mesh (one alone is a DomainError before the
    potential is called); that mesh's Numerov level is returned
    unextrapolated, which the convergence tests use to measure the O(h^4)
    error scaling directly.  Both must be positive and finite, npoints a
    whole number, and the Numerov factor at the lowest V_eff on the mesh
    positive from i0 on (DomainError before any pass otherwise).  Each
    Numerov level is found to _ETOL = 1e-13, relative above |E| = 1 and
    absolute below.  A potential that is not finite, or raises an
    arithmetic error, at a mesh point raises DomainError.
    """
    require_finite_positive("reduced mass", mu)
    if not all(0 <= x < math.inf and x == int(x) for x in (l, n_r)):
        raise DomainError(f"quantum numbers must be whole numbers >= 0, got l={l!r}, n_r={n_r!r}")
    fixed = rmax is not None
    if fixed != (npoints is not None):
        raise DomainError(f"give rmax and npoints together or neither, got {rmax!r}, {npoints!r}")
    if fixed:
        require_finite_positive("rmax", rmax)
        require_finite_positive("npoints", npoints)
        if npoints != int(npoints):
            raise DomainError(f"npoints must be a whole number, got {npoints!r}")
        npoints = int(npoints)

    # no level lies below min V_eff
    radii, values, asym, laurent = _probe(potential, mu)
    # the Coulomb part the small-r start keeps, where A / r + B holds at r0
    a, b = laurent
    coulomb = a if abs(a / radii[0] + b - values[0]) <= 1e-3 * abs(values[0]) else 0.0
    veff = values + l * (l + 1) / (2.0 * mu * radii**2)
    dip = int(np.nanargmin(veff))
    bottom = float(veff[dip])
    if _unbound(bottom, asym):
        raise NoBoundState(f"V_eff for l={l} does not dip below the asymptotic "
                           f"potential ({bottom:.6g} >= {asym:.6g})")
    # the probe's Langer-WKB level seeds every solve; without it the first
    # box reaches twice as far as the lowest V_eff, and a box of length L
    # gets 40 L points within [1000, 25000]
    guess, box, step, past = (_wkb_scale(mu, radii, veff, l, n_r, asym, coulomb)
                              or (None, max(10.0 / math.sqrt(mu), 2.0 * float(radii[dip])),
                                  None, None))
    # an adaptive step may grow from probe sample past on (_segments)
    tail = None if step is None else (guess, radii[:400], veff[:400], past)
    if fixed:
        shooter = _Shooter(mu, potential, l, rmax, npoints, laurent)
        # where the Numerov factor f is not positive, u flips sign at every
        # step and each flip reads as a node; f rises with E, so a check at
        # the lowest V_eff on the mesh covers every level above it
        lowest = float(np.min(shooter.veff[shooter.start:]))
        steep = np.flatnonzero(shooter._numerov_input(lowest)[0][shooter.start:] <= 0.0)
        if steep.size:
            raise DomainError(f"npoints={npoints} is too few for rmax={rmax:.6g}: the Numerov "
                              f"factor at E={lowest:.6g} is not positive at {steep.size} mesh "
                              f"points, the first at r={shooter.r[shooter.start + steep[0]]:.6g}")
        e = shooter.solve(n_r, guess=guess)
        if _unbound(e, asym):
            raise NoBoundState(f"no level with n_r={n_r}, l={l} below the asymptotic "
                               f"potential ({e:.6g} >= {asym:.6g})")
        if e < lowest:
            raise DomainError(f"the level {e:.6g} lies below V_eff on the mesh, {lowest:.6g}")
        shooter.check_nodes(e, n_r)
        return e

    unbound_rounds = 0
    for _ in range(_MAX_BOX_GROWTHS):
        n = math.ceil(box / step) if step else int(min(25000.0, max(1000.0, 40.0 * box)))
        shooter = _adaptive_shooter(mu, potential, l, box, n, laurent, tail)
        # an adaptive mesh keeps f >= 1/2 at every energy above the bottom
        # of V_eff on it: mu h^2 (V - E) / 6 <= 1/2
        floor = box * math.sqrt(mu * max(0.0, shooter.v_max - shooter.bottom) / 3.0)
        if floor > n:
            if floor > _MAX_POINTS:
                raise ConvergenceError(f"{floor:.3g} mesh points needed for rmax={box:.6g}")
            n = math.ceil(floor)
            shooter = _adaptive_shooter(mu, potential, l, box, n, laurent, tail)
        e = shooter.solve(n_r, guess=guess)
        # a level at or above the potential's large-distance limit is a
        # box artefact; it sinks below on growth only if a real state
        # was being squeezed
        if _unbound(e, asym):
            unbound_rounds += 1
            if unbound_rounds >= _MAX_UNBOUND_ROUNDS:
                raise NoBoundState(f"no level with n_r={n_r}, l={l} below the asymptotic "
                                   f"potential ({e:.6g} >= {asym:.6g})")
        elif shooter.holds(e):
            break
        box *= 1.8
    else:
        raise ConvergenceError(f"box did not stabilise below rmax={box:.6g}; is the state bound?")

    shooter.check_nodes(e, n_r)
    # E(2n) is bracketed by the largest change accepted, which bounds the
    # error, relative to |E| or to 1e-3 of the level's WKB kinetic energy
    scale = max(abs(e), 1e-3 * (_STEP_PHASE / step) ** 2 / (2.0 * mu) if step else 1.0)
    doubled = shooter.doubled
    while True:
        n, doubled = 2 * n, doubled and (2 * doubled[0], doubled[1])
        shooter = _Shooter(mu, potential, l, box, n, laurent, doubled)
        fine = shooter.solve(n_r, guess=e, span=_RICHARDSON_TOL)
        if abs(fine - e) <= _RICHARDSON_TOL * scale:
            return (16.0 * fine - e) / 15.0
        if 2 * shooter.steps > _MAX_POINTS:
            raise ConvergenceError(f"the level moved from {e:.17g} to {fine:.17g} on twice "
                                   f"the {shooter.steps // 2} mesh points of rmax={box:.6g}")
        e = fine
