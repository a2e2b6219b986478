"""Built-in systems with closed-form energies and phi.

Five Hamiltonian families admit analytic solutions of the envelope
equations; each gets a parameter record, a SystemSpec constructor for
the generic solver, and closed-form energy / phi functions.  The
closed forms are the ground truth the generic path is tested against,
and they also carry the variational tags:

    power-law pair potential        upper bound for b <= 2, lower for b > 2
    ultrarelativistic one-body      upper bound for b <= 2, none beyond
    Gaussian pair potential         upper bound
    harmonic + repulsive Coulomb    lower bound
    linear one-body + attractive    upper bound
    pair Coulomb ("baryon")

A small reference table of three-body linear+Coulomb levels (with
numerically exact energies) is embedded for regression and demo use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NoBoundState, UnboundRegime, require_finite_positive
from .specfun import QuarticSign, beta, lambert_w0, quartic_root_g
from .model import Bound, InteractionTriple, SystemSpec

__all__ = [
    "PowerLaw2Params",
    "PowerLaw1Params",
    "GaussianParams",
    "ConfinedParams",
    "BaryonParams",
    "powerlaw2_system",
    "powerlaw2_energy",
    "powerlaw2_phi",
    "powerlaw1_system",
    "powerlaw1_energy",
    "powerlaw1_phi",
    "gaussian_system",
    "gaussian_y",
    "gaussian_energy",
    "gaussian_phi",
    "gaussian_harmonic_limit",
    "confined_system",
    "confined_y",
    "confined_energy",
    "confined_phi",
    "baryon_system",
    "baryon_energy",
    "baryon_phi",
    "bsq_ratio_coeffs",
    "table1",
    "Table1Row",
    "Table1Result",
    "TABLE1_EXACT",
    "TABLE1_PARAMS",
    "TABLE1_N",
    "TABLE1_D",
]


def _nonrel_kinetic(m: float) -> InteractionTriple:
    """T(p) = p^2 / (2m)."""
    return InteractionTriple(
        value=lambda p: p * p / (2.0 * m),
        d1=lambda p: p / m,
        d2=lambda p: 1.0 / m,
        label=f"p^2/(2*{m:g})",
    )


_ULTRAREL_KINETIC = InteractionTriple(
    value=lambda p: p,
    d1=lambda p: 1.0,
    d2=lambda p: 0.0,
    label="|p|",
)


# ---------------------------------------------------------------- power-law 2


@dataclass(frozen=True)
class PowerLaw2Params:
    """Nonrelativistic particles with pair potential sgn(b) a r^b.

    The sign convention keeps the force attractive for every exponent:
    a > 0 and -2 < b, b != 0.  b = -1 is the Coulomb case.
    """

    m: float
    a: float
    b: float

    def __post_init__(self) -> None:
        require_finite_positive("m", self.m)
        require_finite_positive("a", self.a)
        if not math.isfinite(self.b) or self.b <= -2.0 or self.b == 0.0:
            raise DomainError(f"exponent must satisfy b > -2, b != 0, got {self.b!r}")


def powerlaw2_system(p: PowerLaw2Params, N: int, D: int = 3) -> SystemSpec:
    sgn = math.copysign(1.0, p.b)
    a, b = p.a, p.b
    pair = InteractionTriple(
        value=lambda r: sgn * a * r ** b,
        d1=lambda r: sgn * a * b * r ** (b - 1.0),
        d2=lambda r: sgn * a * b * (b - 1.0) * r ** (b - 2.0),
        label=f"sgn(b)*{a:g}*r^{b:g}",
    )
    tag = Bound.UPPER if b <= 2.0 else Bound.LOWER
    return SystemSpec(
        N=N, D=D, kinetic=_nonrel_kinetic(p.m), pairwise=pair,
        bound=tag, label="powerlaw2",
    )


def powerlaw2_energy(p: PowerLaw2Params, N: int, q: float) -> float:
    """Closed-form envelope energy for the power-law pair system."""
    require_finite_positive("q", q)
    b = p.b
    core = (
        N * N * (N - 1.0) ** (2.0 - b) * p.a ** 2 * b * b * q ** (2.0 * b)
        / (16.0 * p.m ** b)
    )
    return (b + 2.0) / b * core ** (1.0 / (b + 2.0))


def powerlaw2_phi(b: float) -> float:
    """phi = sqrt(b + 2), independent of every other parameter."""
    if not math.isfinite(b) or b <= -2.0 or b == 0.0:
        raise DomainError(f"exponent must satisfy b > -2, b != 0, got {b!r}")
    return math.sqrt(b + 2.0)


# ---------------------------------------------------------------- power-law 1


@dataclass(frozen=True)
class PowerLaw1Params:
    """Ultrarelativistic particles, T = |p|, one-body potential a s^b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        require_finite_positive("a", self.a)
        require_finite_positive("b", self.b)


def powerlaw1_system(p: PowerLaw1Params, N: int, D: int = 3) -> SystemSpec:
    a, b = p.a, p.b
    one = InteractionTriple(
        value=lambda s: a * s ** b,
        d1=lambda s: a * b * s ** (b - 1.0),
        d2=lambda s: a * b * (b - 1.0) * s ** (b - 2.0),
        label=f"{a:g}*s^{b:g}",
    )
    # beyond b = 2 the method guarantees nothing for this family
    tag = Bound.UPPER if b <= 2.0 else Bound.NONE
    return SystemSpec(
        N=N, D=D, kinetic=_ULTRAREL_KINETIC, onebody=one, bound=tag,
        label="powerlaw1",
    )


def powerlaw1_energy(p: PowerLaw1Params, N: int, q: float) -> float:
    require_finite_positive("q", q)
    b = p.b
    return (b + 1.0) / b * (N * p.a * b * q ** b) ** (1.0 / (b + 1.0))


def powerlaw1_phi(b: float) -> float:
    """phi = sqrt(b + 1) for the ultrarelativistic one-body family."""
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"exponent must be positive, got {b!r}")
    return math.sqrt(b + 1.0)


# ------------------------------------------------------------------- Gaussian


@dataclass(frozen=True)
class GaussianParams:
    """Nonrelativistic particles with pair potential -V0 exp(-r^2/R^2)."""

    m: float
    V0: float
    R: float

    def __post_init__(self) -> None:
        require_finite_positive("m", self.m)
        require_finite_positive("V0", self.V0)
        require_finite_positive("R", self.R)


def gaussian_system(p: GaussianParams, N: int, D: int = 3) -> SystemSpec:
    m, v0, rr = p.m, p.V0, p.R
    pair = InteractionTriple(
        value=lambda r: -v0 * np.exp(-r * r / (rr * rr)),
        d1=lambda r: 2.0 * v0 * r / (rr * rr) * np.exp(-r * r / (rr * rr)),
        d2=lambda r: 2.0 * v0 / (rr * rr)
        * (1.0 - 2.0 * r * r / (rr * rr)) * np.exp(-r * r / (rr * rr)),
        label=f"-{v0:g}*exp(-(r/{rr:g})^2)",
    )
    return SystemSpec(
        N=N, D=D, kinetic=_nonrel_kinetic(m), pairwise=pair,
        bound=Bound.UPPER, label="gaussian",
    )


def gaussian_y(p: GaussianParams, N: int, z: float) -> float:
    """Scaled collective number fed to the Lambert function; negative."""
    return -z / (math.sqrt(N) * (N - 1.0) * p.R * math.sqrt(2.0 * p.m * p.V0))


def gaussian_energy(p: GaussianParams, N: int, q: float) -> float:
    """Closed-form upper bound; raises NoBoundState below the Lambert branch."""
    require_finite_positive("q", q)
    y = gaussian_y(p, N, q)
    if y < -math.exp(-1.0):
        raise NoBoundState(
            f"gaussian system does not bind at q={q:.6g}: scaled number "
            f"{y:.6g} lies below -1/e"
        )
    w = lambert_w0(y)
    cn = N * (N - 1.0) / 2.0
    return -cn * p.V0 * y * y * (1.0 + 2.0 * w) / (w * w)


def gaussian_phi(p: GaussianParams, N: int, lam: float) -> float:
    """phi = 2 sqrt(1 + W0(Y(lambda)))."""
    require_finite_positive("lambda", lam)
    y = gaussian_y(p, N, lam)
    if y < -math.exp(-1.0):
        raise NoBoundState(
            f"gaussian system does not bind at lambda={lam:.6g}: scaled "
            f"number {y:.6g} lies below -1/e"
        )
    return 2.0 * math.sqrt(1.0 + lambert_w0(y))


def gaussian_harmonic_limit(p: GaussianParams, N: int, q: float) -> float:
    """Wide-well limit of the Gaussian energy, valid for R -> infinity."""
    require_finite_positive("q", q)
    cn = N * (N - 1.0) / 2.0
    return -cn * p.V0 + math.sqrt(2.0 * N * p.V0 / (p.m * p.R * p.R)) * q


# ------------------------------------------------------------------- confined


@dataclass(frozen=True)
class ConfinedParams:
    """Harmonic one-body confinement plus repulsive pair Coulomb.

    U(s) = m omega^2 s^2 / 2 and V(r) = +g/r; g = 0 degenerates to the
    pure oscillator.
    """

    m: float
    omega: float
    g: float

    def __post_init__(self) -> None:
        require_finite_positive("m", self.m)
        require_finite_positive("omega", self.omega)
        require_finite_positive("coupling", self.g, allow_zero=True)


def confined_system(p: ConfinedParams, N: int, D: int = 3) -> SystemSpec:
    m, om, g = p.m, p.omega, p.g
    one = InteractionTriple(
        value=lambda s: 0.5 * m * om * om * s * s,
        d1=lambda s: m * om * om * s,
        d2=lambda s: m * om * om,
        label=f"{m:g}*{om:g}^2*s^2/2",
    )
    if g > 0.0:
        pair = InteractionTriple(
            value=lambda r: g / r,
            d1=lambda r: -g / (r * r),
            d2=lambda r: 2.0 * g / (r * r * r),
            label=f"{g:g}/r",
        )
    else:
        pair = InteractionTriple.zero()
    return SystemSpec(
        N=N, D=D, kinetic=_nonrel_kinetic(m), onebody=one, pairwise=pair,
        bound=Bound.LOWER, label="confined",
    )


def confined_y(p: ConfinedParams, N: int, z: float) -> float:
    """Scaled collective number fed to the quartic root; needs g > 0."""
    if p.g == 0.0:
        raise DomainError("scaled number undefined at g = 0 (pure oscillator)")
    return (
        2.0 ** (16.0 / 3.0) / 3.0
        / (N ** (4.0 / 3.0) * (N - 1.0) ** 2)
        * (p.omega / (p.m * p.g * p.g)) ** (2.0 / 3.0)
        * z * z
    )


def confined_energy(
    p: ConfinedParams, N: int, q: float, ground_shift: bool = False, D: int = 3
) -> float:
    """Closed-form lower bound for the confined system.

    ``ground_shift`` adds the D omega/2 zero-point energy of the centre
    of mass, which applies when the confinement acts on absolute
    coordinates rather than on distances to the centre of mass.
    """
    require_finite_positive("q", q)
    shift = 0.5 * D * p.omega if ground_shift else 0.0
    if p.g == 0.0:
        return p.omega * q + shift
    gm = quartic_root_g(QuarticSign.MINUS, confined_y(p, N, q))
    e = (
        N ** (2.0 / 3.0) * (N - 1.0) / 2.0 ** (5.0 / 3.0)
        * (p.m * p.omega ** 2 * p.g ** 2) ** (1.0 / 3.0)
        * (gm * gm + 1.0 / gm)
    )
    return e + shift


def confined_phi(p: ConfinedParams, N: int, lam: float) -> float:
    """phi = 2 sqrt(1 + 2 G(Y(lambda))/Y(lambda)); exactly 2 at g = 0."""
    require_finite_positive("lambda", lam)
    if p.g == 0.0:
        return 2.0
    y = confined_y(p, N, lam)
    gm = quartic_root_g(QuarticSign.MINUS, y)
    return 2.0 * math.sqrt(2.0 * gm / y + 1.0)


# --------------------------------------------------------------------- baryon


@dataclass(frozen=True)
class BaryonParams:
    """Light-baryon-like system: T = |p|, linear one-body confinement
    k s, attractive pair Coulomb -g/r.

    ``from_alpha_s`` builds g from a strong coupling constant via
    g = 2 alpha_s / 3.
    """

    tension_k: float
    g: float

    def __post_init__(self) -> None:
        require_finite_positive("tension_k", self.tension_k)
        require_finite_positive("coupling", self.g, allow_zero=True)

    @classmethod
    def from_alpha_s(cls, tension_k: float, alpha_s: float) -> "BaryonParams":
        return cls(tension_k=tension_k, g=2.0 * alpha_s / 3.0)


def baryon_system(p: BaryonParams, N: int, D: int = 3) -> SystemSpec:
    k, g = p.tension_k, p.g
    one = InteractionTriple(
        value=lambda s: k * s,
        d1=lambda s: k,
        d2=lambda s: 0.0,
        label=f"{k:g}*s",
    )
    if g > 0.0:
        pair = InteractionTriple(
            value=lambda r: -g / r,
            d1=lambda r: g / (r * r),
            d2=lambda r: -2.0 * g / (r * r * r),
            label=f"-{g:g}/r",
        )
    else:
        pair = InteractionTriple.zero()
    return SystemSpec(
        N=N, D=D, kinetic=_ULTRAREL_KINETIC, onebody=one, pairwise=pair,
        bound=Bound.UPPER, label="baryon",
    )


def baryon_energy(p: BaryonParams, N: int, q: float) -> float:
    """Closed-form upper bound E = 2 sqrt(k (N q - C^(3/2) g))."""
    require_finite_positive("q", q)
    cn = N * (N - 1.0) / 2.0
    radicand = N * q - cn ** 1.5 * p.g
    if radicand <= 0.0:
        raise UnboundRegime(
            f"baryon energy undefined: N q = {N * q:.6g} does not exceed "
            f"C^(3/2) g = {cn ** 1.5 * p.g:.6g}"
        )
    return math.sqrt(4.0 * p.tension_k) * math.sqrt(radicand)


def baryon_phi(p: BaryonParams, N: int, lam: float) -> float:
    """phi = sqrt(2 - sqrt(N (N-1)^3) g / (sqrt(2) lambda))."""
    require_finite_positive("lambda", lam)
    radicand = 2.0 - math.sqrt(N * (N - 1.0) ** 3) * p.g / (math.sqrt(2.0) * lam)
    if radicand <= 0.0:
        raise DomainError(
            f"phi radicand is non-positive at lambda={lam:.6g}; the Coulomb "
            f"term overwhelms the orbital motion"
        )
    return math.sqrt(radicand)


# ------------------------------------------------------ band-spectrum ratio


def bsq_ratio_coeffs(b: float) -> tuple[float, float, float]:
    """Coefficients comparing two regimes of the power-law pair system.

    For E ~ C (x)^{2b/(b+2)} the envelope route gives C1 = (b+2)^{b/(b+2)}
    in the orbital-dominated regime while semiclassical quantisation of
    purely radial motion gives

        C2 = 2^{2/(b+2)} pi^{2b/(b+2)} b^{3b/(b+2)}
             / ((b+2) B(1/b, 3/2)^{2b/(b+2)}),

    with B the Euler beta function.  Returns (C1, C2, delta) where
    delta = |C1-C2|/(C1+C2) is the normalised split, small on (0, 2.5].
    """
    if not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"exponent must be positive, got {b!r}")
    e = b / (b + 2.0)
    c1 = (b + 2.0) ** e
    c2 = (
        2.0 ** (2.0 / (b + 2.0))
        * math.pi ** (2.0 * e)
        * b ** (3.0 * e)
        / ((b + 2.0) * beta(1.0 / b, 1.5) ** (2.0 * e))
    )
    delta = abs(c1 - c2) / (c1 + c2)
    return c1, c2, delta


# ------------------------------------------------------------ reference table


@dataclass(frozen=True)
class Table1Row:
    n_sum: int
    l_sum: int
    exact: float
    E: float
    phi: float


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]
    delta: float
    delta_l0: float
    delta_rest: float


# three ultrarelativistic quarks with tension 0.2 and alpha_s = 0.4, in
# units where energies land in GeV; "exact" column from an accurate
# numerical solution of the full three-body problem
TABLE1_PARAMS = BaryonParams.from_alpha_s(tension_k=0.2, alpha_s=0.4)
TABLE1_N = 3
TABLE1_D = 3
TABLE1_EXACT: tuple[tuple[int, int, float], ...] = (
    (0, 0, 2.128),
    (0, 1, 2.606),
    (1, 0, 2.739),
    (0, 2, 2.959),
    (1, 1, 3.125),
    (0, 3, 3.299),
    (2, 0, 3.260),
    (1, 2, 3.422),
    (0, 4, 3.581),
    (2, 1, 3.584),
    (1, 3, 3.716),
    (0, 5, 3.861),
    (3, 0, 3.721),
    (2, 2, 3.838),
    (1, 4, 3.966),
    (0, 6, 4.103),
)


def table1(phi_mode: float | str = "dos", rows=None) -> Table1Result:
    """Baryon-table energies for a fixed phi or the orbital formula.

    phi_mode is either a positive number or the string "dos", in which
    case phi is recomputed from the closed-form slope at each state's
    lambda.  ``rows`` restricts the (n_sum, l_sum) pairs; they must be
    states of the embedded table since the comparison column comes from
    it.
    """
    if isinstance(phi_mode, str):
        if phi_mode != "dos":
            raise DomainError(f"phi_mode must be a number or 'dos', got {phi_mode!r}")
    else:
        phi_mode = require_finite_positive("phi", phi_mode)

    exact_by_state = {(n, l): e for n, l, e in TABLE1_EXACT}
    if rows is None:
        selected = [(n, l) for n, l, _ in TABLE1_EXACT]
    else:
        selected = [(int(n), int(l)) for n, l in rows]
        unknown = [s for s in selected if s not in exact_by_state]
        if unknown:
            raise DomainError(f"states not in the reference table: {unknown}")

    # collective numbers for N=3, D=3: nu = n_sum + 1, lambda = l_sum + 1
    out = []
    for n_sum, l_sum in selected:
        nu = Fraction(n_sum) + Fraction(TABLE1_N - 1, 2)
        lam = Fraction(l_sum) + Fraction((TABLE1_N - 1) * (TABLE1_D - 2), 2)
        phi = (
            baryon_phi(TABLE1_PARAMS, TABLE1_N, float(lam))
            if phi_mode == "dos"
            else phi_mode
        )
        q = phi * float(nu) + float(lam)
        e = baryon_energy(TABLE1_PARAMS, TABLE1_N, q)
        out.append(Table1Row(n_sum, l_sum, exact_by_state[(n_sum, l_sum)], e, phi))

    def _mean_err(rs) -> float:
        rs = list(rs)
        if not rs:
            return math.nan
        return sum(abs(r.E - r.exact) / r.exact for r in rs) / len(rs)

    return Table1Result(
        rows=tuple(out),
        delta=_mean_err(out),
        delta_l0=_mean_err(r for r in out if r.l_sum == 0),
        delta_rest=_mean_err(r for r in out if r.l_sum != 0),
    )
