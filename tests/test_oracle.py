"""Independent radial eigensolver used to audit the two-body estimates."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import ai_zeros

from etkit import (
    ConvergenceError,
    DomainError,
    InteractionTriple,
    NoBoundState,
    PowerLaw2Params,
    energy,
    powerlaw2_system,
    radial_eigenvalue,
)
from etkit import oracle

OSC = InteractionTriple(lambda r: r * r, lambda r: 2.0 * r, lambda r: 2.0, "r^2")
COULOMB = InteractionTriple(
    lambda r: -1.0 / r, lambda r: 1.0 / r**2, lambda r: -2.0 / r**3, "-1/r"
)
LINEAR = InteractionTriple(lambda r: r, lambda r: 1.0, lambda r: 0.0, "r")
SEXTIC = InteractionTriple(
    lambda r: r**6, lambda r: 6.0 * r**5, lambda r: 30.0 * r**4, "r^6"
)

# first zero of the Airy function fixes the linear-potential ground state
AIRY_GROUND = 2.3381074104597674


class TestExactSpectra:
    def test_oscillator_ground(self):
        # mu = 1/2 and V = r^2 give omega = 2, levels 2 (2 n + l) + 3
        assert radial_eigenvalue(0.5, OSC, l=0, n_r=0) == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "l,n_r,expected",
        [(1, 0, 5.0), (0, 1, 7.0), (2, 0, 7.0), (0, 2, 11.0), (2, 1, 11.0)],
    )
    def test_oscillator_tower(self, l, n_r, expected):
        assert radial_eigenvalue(0.5, OSC, l=l, n_r=n_r) == pytest.approx(
            expected, abs=2e-9
        )

    def test_coulomb_ground(self):
        assert radial_eigenvalue(0.5, COULOMB, l=0, n_r=0) == pytest.approx(
            -0.25, abs=1e-9
        )

    @pytest.mark.parametrize("l,n_r", [(0, 1), (1, 0)])
    def test_coulomb_first_shell(self, l, n_r):
        assert radial_eigenvalue(0.5, COULOMB, l=l, n_r=n_r) == pytest.approx(
            -0.0625, abs=1e-9
        )

    def test_coulomb_rydberg_series(self):
        for n_r in range(3):
            n = n_r + 1
            assert radial_eigenvalue(0.5, COULOMB, l=0, n_r=n_r) == pytest.approx(
                -0.25 / n**2, rel=1e-8
            )

    def test_linear_ground_is_airy_zero(self):
        assert radial_eigenvalue(0.5, LINEAR, l=0, n_r=0) == pytest.approx(
            AIRY_GROUND, abs=1e-6
        )

    def test_mass_scaling(self):
        # doubling mu scales Coulomb binding linearly
        assert radial_eigenvalue(1.0, COULOMB, l=0, n_r=0) == pytest.approx(
            -0.5, abs=1e-9
        )


class TestSpectralStructure:
    def test_levels_increase_with_radial_number(self):
        levels = [radial_eigenvalue(0.5, LINEAR, l=0, n_r=k) for k in range(3)]
        assert levels[0] < levels[1] < levels[2]

    def test_levels_increase_with_orbital_number(self):
        levels = [radial_eigenvalue(0.5, LINEAR, l=l, n_r=0) for l in range(3)]
        assert levels[0] < levels[1] < levels[2]


class TestNumericalBehaviour:
    def test_fourth_order_convergence(self):
        # halving the step divides the discretisation error by ~16
        coarse = radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=12.0, npoints=500)
        fine = radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=12.0, npoints=1000)
        ratio = abs(coarse - 3.0) / abs(fine - 3.0)
        assert 12.0 <= ratio <= 20.0

    def test_explicit_box_is_respected(self):
        e = radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=9.0, npoints=3000)
        assert e == pytest.approx(3.0, abs=1e-8)

    def test_deterministic(self):
        a = radial_eigenvalue(0.5, LINEAR, l=1, n_r=1)
        b = radial_eigenvalue(0.5, LINEAR, l=1, n_r=1)
        assert a == b


class TestNoBoundState:
    def test_shallow_well_does_not_bind(self):
        v0, rr = 0.01, 1.0
        shallow = InteractionTriple(
            value=lambda r: -v0 * math.exp(-(r * r) / (rr * rr)),
            d1=lambda r: 2.0 * v0 * r / (rr * rr) * math.exp(-(r * r) / (rr * rr)),
            d2=lambda r: v0
            * (2.0 / (rr * rr) - 4.0 * r * r / rr**4)
            * math.exp(-(r * r) / (rr * rr)),
            label="shallow well",
        )
        with pytest.raises(NoBoundState):
            radial_eigenvalue(0.5, shallow, l=0, n_r=0)

    def test_deep_well_binds_ground_but_not_high_orbital(self):
        # 2 mu V0 R^2 = 10 clears the critical depth of a 3D well
        v0 = 10.0
        well = InteractionTriple(
            value=lambda r: -v0 * math.exp(-r * r),
            d1=lambda r: 2.0 * v0 * r * math.exp(-r * r),
            d2=lambda r: v0 * (2.0 - 4.0 * r * r) * math.exp(-r * r),
            label="moderate well",
        )
        assert radial_eigenvalue(0.5, well, l=0, n_r=0) == pytest.approx(
            -2.5434016322, abs=1e-8
        )
        with pytest.raises(NoBoundState):
            radial_eigenvalue(0.5, well, l=3, n_r=0)


class TestValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["rmax", "npoints"])
    def test_rejects_bad_box_mesh_and_tolerance(self, name, bad):
        # rmax = nan used to surface as "could not bracket the level"
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0, **{name: bad})

    def test_npoints_must_be_whole(self):
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=12.0, npoints=500.5)
        assert radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=12.0, npoints=500.0) == (
            radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=12.0, npoints=500)
        )

    def test_rejects_bad_mass(self):
        with pytest.raises(DomainError):
            radial_eigenvalue(0.0, OSC, l=0, n_r=0)
        with pytest.raises(DomainError):
            radial_eigenvalue(-1.0, OSC, l=0, n_r=0)

    @pytest.mark.parametrize(
        "l,n_r",
        [(-1, 0), (0, -1), (math.nan, 0), (0, math.nan), (3.5, 0), (1.5, 0), (0, 1.5),
         (0, math.inf)],
        ids=["l=-1", "n_r=-1", "l=nan", "n_r=nan", "l=3.5", "l=1.5", "n_r=1.5", "n_r=inf"],
    )
    def test_rejects_bad_quantum_numbers(self, l, n_r):
        # before the check asked for whole numbers, NaN and fractions reached
        # the solver: l = 1.5 returned 5.99999999997, the others raised numpy's
        # ValueError, a TypeError or a ConvergenceError
        calls = [0]

        def value(r):
            calls[0] += 1
            return r * r

        pot = InteractionTriple(value, OSC.d1, OSC.d2, "r^2")
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, pot, l=l, n_r=n_r)
        assert calls[0] == 0

    @pytest.mark.parametrize("n_r", [1, 2])
    def test_rejects_a_fixed_mesh_too_coarse_for_the_level(self, n_r):
        # V = r^6 at mu = 0.5 on rmax = 6 with 374 points: at the level the
        # Numerov factor is negative only at the last point, r = 6, where u
        # flips sign and the flip reads as a node; n_r = 1 and 2 returned
        # the n_r = 0 and n_r = 1 levels, 4.33860 and 14.9352, without error
        shooter = oracle._Shooter(0.5, SEXTIC, 0, 6.0, 374, oracle._probe(SEXTIC, 0.5)[3])
        f = shooter._numerov_input(4.3385986777832315)[0]
        assert np.flatnonzero(f <= 0.0).tolist() == [374]
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, SEXTIC, l=0, n_r=n_r, rmax=6.0, npoints=374)
        # a finer mesh of the same box finds the level: the spectrum at
        # mu = 0.5 is that at mu = 2 times 4^(3/4)
        level = radial_eigenvalue(0.5, SEXTIC, l=0, n_r=1, rmax=6.0, npoints=1000)
        assert level == pytest.approx(4.0 ** 0.75 * 5.280379863433776, rel=1e-6)


class TestCallerMesh:
    @pytest.mark.parametrize("mesh", [{"npoints": 1000}, {"rmax": 6.0}],
                             ids=["npoints_alone", "rmax_alone"])
    def test_box_and_mesh_come_together(self, mesh):
        # npoints alone skipped the mesh floor and the check on the Numerov
        # factor: for V = 0.00765 r^6 it returned the n_r = 0 level
        # 1.2831128122 as n_r = 3 (13.7802356933); rmax alone took the
        # adaptive mesh on a fixed box
        calls = [0]

        def value(r):
            calls[0] += 1
            return 0.00765 * r**6

        pot = InteractionTriple(value, SEXTIC.d1, SEXTIC.d2, "0.00765 r^6")
        with pytest.raises(DomainError, match="rmax and npoints"):
            radial_eigenvalue(0.5, pot, l=0, n_r=3, **mesh)
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["rmax", "npoints"])
    def test_rejects_a_bad_box_or_mesh_given_with_the_other(self, name, bad):
        # one of the two alone is refused whatever its value, so each value
        # check is reached only with a good partner
        mesh = {"rmax": 12.0, "npoints": 500, name: bad}
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0, **mesh)

    @pytest.mark.parametrize("npoints", [100, 350, 374])
    def test_too_coarse_a_mesh_is_refused_before_any_pass(self, monkeypatch, npoints):
        # V = r^6 at mu = 0.5 on rmax = 6: 100 and 350 points raised
        # ConvergenceError("could not bracket the level from below") after
        # 80 passes, and 374 points DomainError only after 7
        count = _count_sweeps(monkeypatch)
        with pytest.raises(DomainError, match="too few"):
            radial_eigenvalue(0.5, SEXTIC, l=0, n_r=1, rmax=6.0, npoints=npoints)
        assert count[0] == 0

    def test_a_level_below_the_mesh_is_refused(self, monkeypatch):
        # the check on the Numerov factor covers levels above the lowest
        # V_eff on the mesh only; a solve that ended below it is refused
        monkeypatch.setattr(oracle._Shooter, "solve", lambda self, *args, **kwargs: -1.0)
        with pytest.raises(DomainError, match="below V_eff on the mesh"):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0, rmax=12.0, npoints=500)


class TestGuards:
    """Each refusal the solver keeps reached once, on a small mesh."""

    def _shooter(self, npoints=300):
        return oracle._Shooter(0.5, OSC, 0, 6.0, npoints, oracle._probe(OSC, 0.5)[3])

    def test_guess_too_far_below_cannot_be_bracketed(self):
        # at E = -1e6 the Numerov factor is negative over the whole mesh, so
        # the shot at the guess counts spurious nodes, and the downward walk
        # goes no lower than the bottom of V_eff, far above it
        with pytest.raises(ConvergenceError, match="from below"):
            self._shooter().solve(0, guess=-1e6)

    def test_guess_too_small_cannot_be_bracketed(self):
        # a walk up from 1e-300 in steps of 1 % doubles 80 times and stays far
        # below the level 3
        with pytest.raises(ConvergenceError, match="from above"):
            self._shooter().solve(0, guess=1e-300)

    def test_node_count_jump_returns_the_jump(self, monkeypatch):
        # no energy with exactly one node: the bisection closes on the jump
        # from 0 to 2 nodes, and the final node check judges what it returns
        shooter = self._shooter()
        monkeypatch.setattr(shooter, "shoot", lambda e: (0 if e < 4.0 else 2, 1.0))
        assert shooter.solve(1, guess=4.0) == pytest.approx(4.0, rel=1e-12)

    def test_failed_edge_refinement(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise RuntimeError("no convergence in 100 iterations")

        monkeypatch.setattr(oracle, "_brent", no_convergence)
        with pytest.raises(ConvergenceError, match="edge-value refinement failed"):
            self._shooter(3000).solve(0, guess=3.0)

    def test_box_that_never_holds(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_BOX_GROWTHS", 2)
        monkeypatch.setattr(oracle._Shooter, "holds", lambda self, e: False)
        with pytest.raises(ConvergenceError, match="box did not stabilise"):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0)

    def test_level_with_the_wrong_node_count(self, monkeypatch):
        solve = oracle._Shooter.solve
        monkeypatch.setattr(oracle._Shooter, "solve",
                            lambda self, n_r, guess=None, span=oracle._SEED_SPAN:
                            solve(self, n_r + 1, None, span))
        with pytest.raises(ConvergenceError, match="has 1 nodes, expected 0"):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0)

    def test_level_that_moves_on_the_finer_mesh(self, monkeypatch):
        # the Richardson bound: a level that keeps moving by more than 5e-8
        # as the mesh doubles is refused once the next mesh would pass the
        # point limit, not extrapolated
        solve = oracle._Shooter.solve

        def moving(self, n_r, guess=None, span=oracle._SEED_SPAN):
            level = solve(self, n_r, guess, span)
            return level + 1e-2 * math.sqrt(self.h) if span == oracle._RICHARDSON_TOL else level

        monkeypatch.setattr(oracle._Shooter, "solve", moving)
        monkeypatch.setattr(oracle, "_MAX_POINTS", 4 * _scale_box(OSC, 0, 0)[1])
        with pytest.raises(ConvergenceError, match="moved"):
            radial_eigenvalue(0.5, OSC, l=0, n_r=0)

    @pytest.mark.parametrize("shift,n_r", [(3.0, 0), (7.0, 1)])
    def test_level_at_zero_energy(self, shift, n_r):
        # r^2 - shift puts the level at E = 0: a change between n and 2n
        # points relative to |E| alone never settled, and the mesh doubled
        # to 2^20 points before ConvergenceError; below a thousandth of the
        # level's WKB kinetic energy, that thousandth is the scale
        pot = InteractionTriple(lambda r: r * r - shift, OSC.d1, OSC.d2, "shifted r^2")
        assert radial_eigenvalue(0.5, pot, l=0, n_r=n_r) == pytest.approx(0.0, abs=1e-9)

    def test_origin_value_too_large_to_extrapolate(self):
        # 1.7e308 at both near-origin probes: the constant term of the
        # origin pair overflows, and is dropped rather than carried as inf
        pot = InteractionTriple(lambda r: np.where(r < 1e-6, 1.7e308, r * r),
                                OSC.d1, OSC.d2, "r^2 with a spike")
        assert oracle._probe(pot, 0.5)[3] == (0.0, 0.0)
        assert radial_eigenvalue(0.5, pot, l=0, n_r=0) == pytest.approx(3.0, abs=1e-9)


class TestAgainstEnvelope:
    def test_quadratic_pair_is_reproduced_exactly(self):
        # for b = 2 the two-body estimate is exact: both routes give 3
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), 2)
        e_env = energy(spec, 1.5).E
        e_ref = radial_eigenvalue(0.5, OSC, l=0, n_r=0)
        assert e_env == pytest.approx(e_ref, abs=1e-9)


def _power_pair(b: float, a: float) -> InteractionTriple:
    """V = sgn(b) a r^b, the pair potential of the two-body power-law system."""
    return powerlaw2_system(PowerLaw2Params(m=1.0, a=a, b=b), 2).pairwise


def _walled(height: float) -> InteractionTriple:
    """V = r^2 with a wall height (r - 3)^2 past r = 3."""
    return InteractionTriple(lambda r: r * r + height * np.maximum(r - 3.0, 0.0) ** 2,
                             OSC.d1, OSC.d2, "walled r^2")


def _level_scale(potential: InteractionTriple, l: int, n_r: int, mu: float = 0.5):
    """The WKB estimate, first box and mesh step that radial_eigenvalue starts from."""
    radii, values, asym, laurent = oracle._probe(potential, mu)
    veff = values + l * (l + 1) / (2.0 * mu * radii**2)
    scale = oracle._wkb_scale(mu, radii, veff, l, n_r, asym, laurent[0])
    return scale and scale[:3]


def _first_mesh(potential: InteractionTriple, l: int, n_r: int, mu: float = 0.5):
    """The WKB estimate, first box, its steps of the level's scale and the coarse plan.

    The plan holds the Numerov factor f >= 1/2 above the lowest V_eff of the
    probe samples at r >= box / n, the mesh's first point.
    """
    radii, values, asym, laurent = oracle._probe(potential, mu)
    veff = values + l * (l + 1) / (2.0 * mu * radii**2)
    guess, box, step, past = oracle._wkb_scale(mu, radii, veff, l, n_r, asym, laurent[0])
    n = math.ceil(box / step)
    doubled = oracle._segments(mu, guess, radii[:400], veff[:400], past, box, n)
    return guess, box, n, doubled


def _mesh_steps(n: int, doubled) -> int:
    """Steps of a mesh of n steps h that takes steps of 2^k h from point cut on."""
    cut, k = doubled or (n, 0)
    return cut + (n - cut) // 2**k


def _scale_box(potential: InteractionTriple, l: int, n_r: int) -> tuple[float, int]:
    """The first adaptive box from the level's WKB scale, and its mesh."""
    _, box, step = _level_scale(potential, l, n_r)
    return box, math.ceil(box / step)


def _wrap_passes(monkeypatch, record) -> None:
    """Call record(steps) before every Numerov pass: node-counting and edge-only.

    f holds two more entries than points where a coarser segment begins.
    """
    numerov_pass = oracle._numerov

    def wrapped(f, *args, **kwargs):
        record(len(f) - 1 - 2 * bool(kwargs.get("cut")))
        return numerov_pass(f, *args, **kwargs)

    monkeypatch.setattr(oracle, "_numerov", wrapped)


def _count_sweeps(monkeypatch) -> list[int]:
    count = [0]

    def counted(steps):
        count[0] += 1

    _wrap_passes(monkeypatch, counted)
    return count


class TestSweepBudget:
    # bisection alone took 53 and 269 sweeps for the first two levels;
    # node isolation plus Brent from a cold first box took 20, 70 and 84
    def test_oscillator_ground(self, monkeypatch):
        count = _count_sweeps(monkeypatch)
        assert radial_eigenvalue(0.5, OSC, l=0, n_r=0) == pytest.approx(3.0, abs=1e-9)
        assert count[0] <= 15

    def test_coulomb_excited_over_growing_boxes(self, monkeypatch):
        count = _count_sweeps(monkeypatch)
        assert radial_eigenvalue(0.5, COULOMB, l=0, n_r=1) == pytest.approx(
            -0.0625, abs=1e-9
        )
        assert count[0] <= 20

    def test_coulomb_p_wave_over_six_boxes(self, monkeypatch):
        count = _count_sweeps(monkeypatch)
        assert radial_eigenvalue(0.5, COULOMB, l=1, n_r=1) == pytest.approx(
            -0.25 / 9.0, rel=1e-9
        )
        assert count[0] <= 20

    # the oracle reads only the value of a potential; the derivatives
    # are placeholders
    @pytest.mark.parametrize(
        "value,l,n_r,ceiling",
        [
            (lambda r: -10.0 * math.exp(-r * r), 3, 0, 0),
            (lambda r: -2.0 * math.exp(-0.3 * r) / r, 5, 1, 0),
        ],
        ids=["gaussian_l3", "yukawa_l5"],
    )
    def test_unbound_rounds_skip_the_edge_refinement(self, monkeypatch, value, l, n_r, ceiling):
        # converging every unbound round took 107 and 104 sweeps, and
        # ending a round at an unbound lower bracket end still 80 and 50;
        # V_eff never dips below the asymptote here, which the probe of
        # V_eff sees before any sweep
        count = _count_sweeps(monkeypatch)
        well = InteractionTriple(value, OSC.d1, OSC.d2, "well")
        with pytest.raises(NoBoundState):
            radial_eigenvalue(0.5, well, l=l, n_r=n_r)
        assert count[0] <= ceiling

    # the box and mesh from the level's own WKB scale: on the first box of
    # 10 / sqrt(mu) and 40 points per unit of it, V = r^6 took 40 passes
    # and 898 k steps, Coulomb (0, 10) 16 passes and 525 k steps, and
    # e^(r^2) was refused for the 1.5e44 points its mesh floor asked for;
    # with one step over the whole box Coulomb (0, 10) took 14 passes and
    # 38 070 steps, with steps of 4h in its tail 23 382
    @pytest.mark.parametrize(
        "value,l,n_r,passes,steps",
        [
            (SEXTIC.value, 0, 0, 18, 3500),
            (COULOMB.value, 10, 0, 16, 25720),
            (lambda r: np.exp(r * r), 0, 0, 18, 3000),
        ],
        ids=["sextic", "coulomb_l10", "exp_r2"],
    )
    def test_mesh_from_the_level_scale(self, monkeypatch, value, l, n_r, passes, steps):
        count = [0, 0]

        def counted(steps):
            count[0] += 1
            count[1] += steps

        _wrap_passes(monkeypatch, counted)
        radial_eigenvalue(0.5, InteractionTriple(value, OSC.d1, OSC.d2, "V"), l=l, n_r=n_r)
        assert count[0] <= passes and count[1] <= steps

    def test_coulomb_potential_calls(self):
        # one probe call that holds both Laurent points near the origin
        # (a call of its own before, two when each point was a scalar
        # call), the probe of V_eff and the three far-field points (three
        # scalar calls before), one array call for the box the level's
        # WKB scale gives (one for each of five boxes before) and one for
        # that box on twice the points
        calls = [0]

        def value(r):
            calls[0] += 1
            return COULOMB.value(r)

        counted = InteractionTriple(value, COULOMB.d1, COULOMB.d2, "-1/r")
        level = radial_eigenvalue(0.5, counted, l=0, n_r=1)
        assert level == pytest.approx(-0.0625, abs=1e-9)
        assert calls[0] <= 3


# two-body levels (b, n_r, l) whose exact value is known: oscillator,
# Coulomb and linear s-waves
EXACT_LEVELS = (
    [(2.0, n_r, l) for n_r, l in ((0, 0), (0, 4), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 4))]
    + [(1.0, n_r, 0) for n_r in (0, 1, 2)]
    + [(-1.0, n_r, l) for n_r, l in ((0, 0), (0, 1), (1, 0), (1, 1))]
)


def _exact_level(b: float, a: float, mu: float, n_r: int, l: int) -> float:
    if b == 2.0:
        return math.sqrt(2.0 * a / mu) * (2 * n_r + l + 1.5)
    if b == -1.0:
        return -mu * a * a / (2.0 * (n_r + l + 1) ** 2)
    return -(a * a / (2.0 * mu)) ** (1.0 / 3.0) * ai_zeros(n_r + 1)[0][n_r]


class TestExactLevels:
    @pytest.mark.parametrize("b,n_r,l", EXACT_LEVELS)
    def test_power_law_levels(self, b, n_r, l):
        level = radial_eigenvalue(0.5, _power_pair(b, 1.0), l=l, n_r=n_r)
        assert level == pytest.approx(_exact_level(b, 1.0, 0.5, n_r, l), rel=1e-9)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_slow_power_matches_a_large_box(self, l):
        # V = r^(1/2) has a wide tail: counting the centrifugal barrier
        # as tail kept the first box and missed these levels by up to 6e-6
        pot = _power_pair(0.5, 1.0)
        adaptive = radial_eigenvalue(0.5, pot, l=l, n_r=0)
        large = radial_eigenvalue(0.5, pot, l=l, n_r=0, rmax=40.0, npoints=16000)
        assert adaptive == pytest.approx(large, rel=1e-10)

    @pytest.mark.parametrize(
        "l,n_r,level",
        [(0, 0, 1.533926284879376863), (0, 2, 10.358989164350878285),
         (1, 1, 7.5200535035592592452), (2, 2, 16.107581798805932337)],
    )
    def test_sextic_levels(self, l, n_r, level):
        # V = r^6 at mu = 2; the references sum the power series of u
        # (tests/data/series_levels.py) and are certain to 1e-21, while
        # fixed-box Numerov solves of 10 000 to 80 000 points wander by up
        # to 1e-9 relative
        assert radial_eigenvalue(2.0, SEXTIC, l=l, n_r=n_r) == pytest.approx(level, rel=1e-10)

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("n_r", [0, 1])
    def test_coulomb_d_waves(self, a, n_r):
        # the box test once counted the centrifugal barrier as tail and
        # stopped growing too early: -0.0334806 for a = 1.1, n_r = 0
        level = radial_eigenvalue(0.5, _power_pair(-1.0, a), l=2, n_r=n_r)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, 2), rel=1e-8)


class TestSteepPotential:
    @pytest.mark.parametrize("l,n_r", [(0, 0), (0, 3), (5, 3)])
    def test_sextic_levels_at_small_mass(self, l, n_r):
        # V = r^6 at mu = 0.5: the first box had Numerov factor f < 0 over
        # its last ~30 %, and each level raised ConvergenceError("could not
        # bracket the level from below"); the spectrum at mu = 0.5 is that
        # at mu = 2 times 4^(3/4)
        level = radial_eigenvalue(0.5, SEXTIC, l=l, n_r=n_r)
        reference = radial_eigenvalue(2.0, SEXTIC, l=l, n_r=n_r)
        assert level == pytest.approx(4.0 ** 0.75 * reference, rel=1e-9)

    def test_steep_exponential_level_is_found(self):
        # e^(r^2) reached 7e86 at the edge of the first box of 10 / sqrt(mu),
        # and keeping the Numerov factor positive there would have taken
        # ~1.5e44 points (ConvergenceError); the box from the level's own
        # tail ends near r = 2.5.  The reference is the Richardson step on
        # caller meshes of rmax = 4 with 4000 and 8000 points
        steep = InteractionTriple(lambda r: np.exp(r * r), OSC.d1, OSC.d2, "e^(r^2)")
        assert radial_eigenvalue(0.5, steep, l=0, n_r=0) == pytest.approx(5.633078504749,
                                                                          abs=1e-10)

    @pytest.mark.parametrize(
        "b,l,n_r,level,rel",
        [(0.5, 0, 0, 1.8333936099, 1e-9), (-1.5, 1, 0, -0.00265370876, 2e-8),
         (-0.5, 0, 3, -0.161704966206, 1e-8)],
    )
    def test_levels_that_converge_slowly_refine_the_mesh(self, b, l, n_r, level, rel):
        # V r^(l+1) is not analytic at the origin for these, and Numerov
        # converges more slowly than h^4 there: the mesh doubles until the
        # level moves by < 5e-8 from n to 2n points.  The references are
        # caller meshes of 1e5 and 2e5 points, which agree to 1.3e-10,
        # 1.4e-8 and 4e-11; on the level-scale mesh alone the errors were
        # 2.2e-9, 7.4e-7 and 3.6e-8
        pot = _power_pair(b, 1.0)
        assert radial_eigenvalue(0.5, pot, l=l, n_r=n_r) == pytest.approx(level, rel=rel)

    def test_mesh_too_large_to_build_is_refused(self, monkeypatch):
        # a wall 1e16 (r - 3)^2 past r = 3: the box from the oscillator
        # ground state's tail ends past it, where keeping the Numerov factor
        # >= 1/2 would take ~3.8e7 points; refused before any sweep
        count = _count_sweeps(monkeypatch)
        walled = _walled(1e16)
        with pytest.raises(ConvergenceError, match="mesh points needed"):
            radial_eigenvalue(0.5, walled, l=0, n_r=0)
        assert count[0] == 0

    def test_mesh_floor_raises_the_level_scale_mesh(self):
        # a softer wall, 1e8 (r - 3)^2: the mesh floor raises the 104
        # points of the level's scale to 3774, and the level is the
        # Richardson step on that box and mesh
        walled = _walled(1e8)
        sizes = []

        def value(r):
            sizes.append(np.size(r))
            return walled.value(r)

        level = radial_eigenvalue(0.5, InteractionTriple(value, OSC.d1, OSC.d2, "wall"), 0, 0)
        box, n = _scale_box(walled, 0, 0)
        floor = sizes[2]
        assert sizes == [404, n, floor, 2 * floor] and floor > 30 * n
        fixed = [radial_eigenvalue(0.5, walled, 0, 0, rmax=box, npoints=k) for k in (floor, 2 * floor)]
        assert level == pytest.approx(_richardson(*fixed), rel=1e-12)

    def test_level_scale_mesh_too_large_is_refused(self, monkeypatch):
        # Coulomb (n_r, l) = (100, 0) turns at r ~ 4e4: a step that keeps
        # 0.045 of WKB phase asks for ~2.3e6 points, refused before any mesh
        # is built
        count = _count_sweeps(monkeypatch)
        with pytest.raises(ConvergenceError, match="mesh points needed"):
            radial_eigenvalue(0.5, COULOMB, l=0, n_r=100)
        assert count[0] == 0


class TestHighOrbital:
    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("l,n_r", [(10, 0), (12, 2), (20, 5)])
    def test_fixed_box_coulomb_levels(self, l, n_r, a):
        # the Numerov factor is negative at the first ~l / 3.5 mesh points;
        # passes started at the origin counted each sign flip there as a
        # node: (10, 0) found no bracket, the others returned a level
        # with fewer nodes, 33-40 % off, without an error
        level = radial_eigenvalue(0.5, _power_pair(-1.0, a), l=l, n_r=n_r,
                                  rmax=4000.0, npoints=25000)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, l), rel=1e-9)

    @pytest.mark.parametrize("l", [0, 2, 3, 10, 40])
    def test_passes_start_past_the_negative_factors(self, l):
        shooter = oracle._Shooter(0.5, COULOMB, l, 200.0, 25000, oracle._probe(COULOMB, 0.5)[3])
        f, u_start, first_term, i0 = shooter._numerov_input(-0.25 / (l + 1) ** 2)
        assert i0 == (1 if l < 3 else math.isqrt(l * (l + 1) // 12) + 2)
        assert np.all(f[i0 - 1:i0 + 50] > 0.0)
        if l >= 3:
            assert u_start == 1.0 and 0.0 < first_term < f[i0 - 1]
        if l >= 10:
            assert np.any(f[1:i0 - 1] < 0.0)


class TestBracketGuess:
    @pytest.mark.parametrize("shift", [0.0, 1e-4, -0.05, 0.3])
    @pytest.mark.parametrize("potential,l,n_r", [(OSC, 1, 2), (COULOMB, 0, 1)])
    def test_guess_does_not_move_the_level(self, potential, l, n_r, shift):
        shooter = oracle._Shooter(
            0.5, potential, l, 40.0, 8000, oracle._probe(potential, 0.5)[3]
        )
        cold = shooter.solve(n_r)
        guessed = shooter.solve(n_r, guess=cold * (1.0 + shift))
        assert guessed == pytest.approx(cold, rel=1e-12)

    def test_box_grows_after_a_shot(self, monkeypatch):
        # the box from the level's WKB scale holds every level tried, so the
        # first verdict of the box test is turned down here: the next box is
        # 1.8 times as long, on the same mesh step before any doubling, and
        # bracketed from the same estimate
        pot = _power_pair(-1.0, 1.1)
        guess, box, step = _level_scale(pot, 0, 1)
        shots, verdicts = [], []
        solve, holds = oracle._Shooter.solve, oracle._Shooter.holds

        def solved(self, n_r, guess=None, span=oracle._SEED_SPAN):
            shots.append((self.rmax, self.h, guess))
            return solve(self, n_r, guess, span)

        def judged(self, e):
            verdicts.append(holds(self, e) and bool(verdicts))
            return verdicts[-1]

        monkeypatch.setattr(oracle._Shooter, "solve", solved)
        monkeypatch.setattr(oracle._Shooter, "holds", judged)
        level = radial_eigenvalue(0.5, pot, l=0, n_r=1)
        assert level == pytest.approx(-0.075625, rel=1e-10)
        assert verdicts == [False, True]
        grown = 1.8 * box
        assert shots[:2] == [(box, box / math.ceil(box / step), guess),
                             (grown, grown / math.ceil(grown / step), guess)]


class TestPotentialSampling:
    def test_one_array_call_per_box(self):
        shapes = []

        def value(r):
            shapes.append(np.shape(r))
            return r * r

        pot = InteractionTriple(value, OSC.d1, OSC.d2, "r^2")
        assert radial_eigenvalue(0.5, pot, l=0, n_r=0) == pytest.approx(3.0, abs=1e-9)
        # the probe: the two origin points, then V_eff's radii with the
        # three far-field points at their end; the mesh of the one box the
        # level's WKB scale gives, then that box on twice the points
        n = _scale_box(OSC, 0, 0)[1]
        assert shapes == [(404,), (n,), (2 * n,)]

    @pytest.mark.parametrize("mu", [1e-6, 0.25, 0.5, 3.7, 123.4])
    def test_probe_radii_are_the_geometric_grid(self, mu):
        # 10 ** linspace of the logs, with both ends pinned, is how numpy
        # builds geomspace: the same radii bit for bit, without its overhead
        radii = oracle._probe(OSC, mu)[0]
        grid = np.geomspace(1e-3 / math.sqrt(mu), 1e5, 400)
        assert radii[:400].tobytes() == grid.tobytes()
        assert radii[400:].tolist() == [1e6, 1e7]

    @pytest.mark.parametrize(
        "value",
        [
            lambda r: r * r if r > 0.0 else 0.0,  # raises on arrays
            lambda r: float(np.sum(np.square(r))),  # one number for an array
        ],
    )
    def test_scalar_only_potentials_fall_back(self, value):
        pot = InteractionTriple(value, OSC.d1, OSC.d2, "scalar r^2")
        assert radial_eigenvalue(0.5, pot, l=0, n_r=0) == radial_eigenvalue(
            0.5, OSC, l=0, n_r=0
        )


def _raises_in_the_band(r):
    # a scalar-only r^2 that divides by zero for 1 < r < 2
    return r * r / (0.0 if 1.0 < r < 2.0 else 1.0)


class TestNonFinitePotential:
    @pytest.mark.parametrize(
        "value",
        [
            # NaN inside the well gave ConvergenceError("box did not stabilise")
            lambda r: np.where((r > 1.0) & (r < 2.0), np.nan, r * r),
            # inf past r = 8 gave ConvergenceError("edge-value refinement
            # failed on [-inf, ...]"); the box of this level now ends near
            # 6.8, so the inf starts at r = 4, inside it
            lambda r: np.where(r > 4.0, np.inf, r * r),
            # a scalar ZeroDivisionError escaped raw
            _raises_in_the_band,
        ],
        ids=["nan_band", "inf_tail", "scalar_zero_division"],
    )
    def test_raises_domain_error(self, value):
        pot = InteractionTriple(value, OSC.d1, OSC.d2, "broken r^2")
        with pytest.raises(DomainError, match="not finite at"):
            radial_eigenvalue(0.5, pot, l=0, n_r=0)

    @pytest.mark.parametrize(
        "value",
        [
            # inf at the near-origin probes r = 1e-8 and 5e-9, finite on the
            # mesh: the Laurent coefficient read NaN, and every shot with it,
            # so the solve ended in ConvergenceError("could not bracket the
            # level from above")
            lambda r: np.exp(1.0 / r) + r * r,
            # the same potential on scalars: a raw OverflowError
            lambda r: math.exp(1.0 / r) + r * r,
            # a scalar r^2 that divides by zero past r = 1e4, where the
            # large-distance probes read it: a raw ZeroDivisionError
            lambda r: r * r / (0.0 if r > 1e4 else 1.0),
        ],
        ids=["array_overflow_near_origin", "scalar_overflow_near_origin",
             "scalar_zero_division_far_out"],
    )
    def test_probes_off_the_mesh_raise_domain_error(self, value):
        pot = InteractionTriple(value, OSC.d1, OSC.d2, "broken r^2")
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="not finite at"):
            radial_eigenvalue(0.5, pot, l=0, n_r=0)

    def test_overflow_far_out_still_reads_as_confining(self):
        # a scalar potential too large to represent at the large-distance
        # probes confines; only an undefined value there is an error
        pot = InteractionTriple(lambda r: math.exp(r / 3.0), OSC.d1, OSC.d2, "e^(r/3)")
        assert oracle._probe(pot, 0.5)[2] == math.inf
        assert math.isfinite(radial_eigenvalue(0.5, pot, l=0, n_r=0))

    def test_numpy_overflow_far_out_is_silent(self):
        # np.cosh overflows at the large-distance probes; the warning it
        # raised escaped radial_eigenvalue
        pot = InteractionTriple(
            lambda r: np.cosh(r) - 1.0, lambda r: np.sinh(r), lambda r: np.cosh(r), "cosh r - 1"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            level = radial_eigenvalue(0.5, pot, l=0, n_r=0)
        # reference from the power series of u (tests/data/series_levels.py)
        assert level == pytest.approx(2.3980813954521659821, rel=1e-10)

    def test_numpy_asymptote_is_a_float(self):
        # a potential written with np.exp returns np.float64 at the probes;
        # the limit that the bound-state checks compare with is a float
        pot = InteractionTriple(
            lambda r: 1.0 - np.exp(-r), lambda r: np.exp(-r), lambda r: -np.exp(-r), "1-e^-r"
        )
        asym = oracle._probe(pot, 0.5)[2]
        assert type(asym) is float and asym == 1.0


def _box(growths: int, mu: float = 0.5) -> tuple[float, int]:
    """A box of the rule for levels without a WKB estimate, and its mesh.

    The first box of 10 / sqrt(mu) after some growths, as for a potential
    whose V_eff bottoms out within 5 / sqrt(mu), and which is too gentle
    for the floor of steep potentials to raise the mesh.
    """
    box = 10.0 / math.sqrt(mu) * 1.8**growths
    return box, int(min(25000.0, max(1000.0, 40.0 * box)))


def _richardson(coarse: float, fine: float) -> float:
    """The level from a solve on n and on 2n mesh points of one box."""
    return (16.0 * fine - coarse) / 15.0


class TestWkbStart:
    @pytest.mark.parametrize(
        "potential,l,n_r,exact",
        [(OSC, 0, 0, 3.0), (OSC, 2, 1, 11.0), (COULOMB, 0, 0, -0.25), (COULOMB, 1, 1, -0.25 / 9.0)],
    )
    def test_probe_estimate_falls_inside_the_seeded_bracket(self, potential, l, n_r, exact):
        # where Langer-WKB is exact, only the probe's log spacing separates
        # the estimate from the level: within half the 1 % first step
        estimate = _level_scale(potential, l, n_r)[0]
        assert estimate == pytest.approx(exact, rel=0.5 * oracle._SEED_SPAN)

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    def test_first_box_is_kept(self, monkeypatch, a):
        # the Coulomb (1, 1) level was shot or skipped on 5 or 6 boxes of
        # 40 points per unit length before one held it; the box from its
        # WKB scale holds it at once, and the level is the Richardson step
        # on that box's own mesh, whose step doubles in the tail
        pot = _power_pair(-1.0, a)
        array_calls = []

        def value(r):
            if np.ndim(r):
                array_calls.append(np.size(r))
            return pot.value(r)

        counted = InteractionTriple(value, pot.d1, pot.d2, pot.label)
        swept_meshes = set()
        _wrap_passes(monkeypatch, swept_meshes.add)
        adaptive = radial_eigenvalue(0.5, counted, l=1, n_r=1)
        guess, box, n, (cut, k) = _first_mesh(pot, 1, 1)
        steps = _mesh_steps(n, (cut, k))
        # the probe call, then one array call for the box and one for it
        # on twice the points, and sweeps only on those two meshes
        assert steps < n
        assert array_calls == [404, steps, 2 * steps]
        assert swept_meshes == {steps, 2 * steps}
        laurent = oracle._probe(pot, 0.5)[3]
        coarse = oracle._Shooter(0.5, pot, 1, box, n, laurent, (cut, k)).solve(1, guess=guess)
        fine = oracle._Shooter(0.5, pot, 1, box, 2 * n, laurent, (2 * cut, k))
        level = _richardson(coarse, fine.solve(1, guess=coarse, span=oracle._RICHARDSON_TOL))
        assert adaptive == pytest.approx(level, rel=1e-12)

    def test_estimate_missing_the_seeded_bracket(self):
        # the b = 3 ground state lies 1.2 % above its Langer-WKB estimate,
        # past the walk's first step of 1 %: a second step brackets it and
        # finds the cold level, and the same extrapolation with the box on
        # twice the points follows
        pot = _power_pair(3.0, 1.0)
        estimate = _level_scale(pot, 0, 0)[0]
        box, n = _scale_box(pot, 0, 0)
        shooter = oracle._Shooter(0.5, pot, 0, box, n, oracle._probe(pot, 0.5)[3])
        coarse = shooter.solve(0, guess=estimate)
        assert abs(coarse - estimate) > oracle._SEED_SPAN * abs(estimate)
        assert coarse == pytest.approx(shooter.solve(0), rel=1e-12)
        fine = oracle._Shooter(0.5, pot, 0, box, 2 * n, oracle._probe(pot, 0.5)[3]).solve(0)
        assert radial_eigenvalue(0.5, pot, l=0, n_r=0) == pytest.approx(
            _richardson(coarse, fine), rel=1e-12
        )

    @pytest.mark.parametrize("l,n_r", [(0, 7), (1, 6), (3, 4), (0, 10)])
    def test_high_coulomb_levels(self, l, n_r):
        # shooting every box raised NoBoundState here: the levels squeezed
        # into the first boxes sat above zero and used up the unbound
        # rounds; the first box now comes from the level's own tail
        level = radial_eigenvalue(0.5, COULOMB, l=l, n_r=n_r)
        assert level == pytest.approx(-0.25 / (n_r + l + 1) ** 2, rel=1e-9)

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("l,n_r", [(10, 0), (40, 0), (8, 2), (5, 5), (4, 3)])
    def test_levels_past_the_centrifugal_minimum(self, l, n_r, a):
        # the first box lay inside the centrifugal minimum, V_eff at its
        # edge above the asymptote, and the levels squeezed into the boxes
        # used up the unbound rounds: NoBoundState for levels that exist
        # (all but (4, 3) at a = 1.0 and 1.1)
        level = radial_eigenvalue(0.5, _power_pair(-1.0, a), l=l, n_r=n_r)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, l), rel=1e-9)

    def test_phase_evaluation_budget(self, monkeypatch):
        # one estimate per call, adaptive or on a caller's mesh: one sum
        # per bisection step over the probe's samples and a few more
        # within the level's cell
        scales, sums = [0], [0]
        scale, phase = oracle._wkb_scale, oracle._langer_phase

        def counted_scale(*args):
            scales[0] += 1
            return scale(*args)

        def counted_sum(*args):
            sums[0] += 1
            return phase(*args)

        monkeypatch.setattr(oracle, "_wkb_scale", counted_scale)
        monkeypatch.setattr(oracle, "_langer_phase", counted_sum)
        for mesh in ({}, {"rmax": 80.0, "npoints": 30000}):
            scales[0] = sums[0] = 0
            level = radial_eigenvalue(0.5, COULOMB, l=0, n_r=1, **mesh)
            assert level == pytest.approx(-0.0625, abs=1e-9)
            assert scales[0] == 1 and sums[0] <= 12

    @pytest.mark.parametrize("potential,l", [(COULOMB, 0), (COULOMB, 3), (OSC, 2)])
    @pytest.mark.parametrize("fraction", [0.02, 0.3, 0.9])
    def test_tail_action_is_the_trapezoidal_rule(self, potential, l, fraction):
        # the box test's tail action sums the mesh directly; it must equal
        # numpy's trapezoid over the clipped integrand from the outer
        # turning point to the edge
        box, n = _box(1)
        shooter = oracle._Shooter(0.5, potential, l, box, n, oracle._probe(potential, 0.5)[3])
        lo, hi = float(np.min(shooter.veff[1:])), float(shooter.veff[-1])
        e = lo + fraction * (hi - lo)
        i = int(np.flatnonzero(shooter.veff[1:] <= e)[-1]) + 1
        ksq = 2.0 * shooter.mu * (shooter.veff[i:] - e)
        expected = float(np.trapezoid(np.sqrt(np.clip(ksq, 0.0, None)), shooter.r[i:]))
        action = shooter._root_integral(shooter.veff[i:] - e)
        assert action == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_level_without_an_estimate(self):
        # Langer-WKB misses this near-threshold s-wave, so the bracket
        # starts from the extremes of V_eff on boxes of 10 / sqrt(mu) and
        # more.  The reference comes from finite differences with two
        # Richardson steps in h (0.02, 0.01, 0.005) on boxes of 150 and
        # 250.  Caller meshes are no reference here: on rmax = 200 with
        # 1e5 and 2e5 points they miss the level by 1.0e-10 and 3.5e-10,
        # since at h <= 2e-3 Numerov's eps / h^2 rounding dominates
        well = InteractionTriple(lambda r: -3.0 * np.exp(-r * r), OSC.d1, OSC.d2, "-3 e^(-r^2)")
        assert _level_scale(well, 0, 0) is None
        level = radial_eigenvalue(0.5, well, l=0, n_r=0)
        assert level == pytest.approx(-0.010347918587, abs=1e-10)

    def test_weak_tail_without_a_level_stays_unbound(self):
        # no level and no estimate, so today's first box of 10 / sqrt(mu)
        # and its mesh are kept, and the unbound rounds end in NoBoundState
        # as before
        weak = InteractionTriple(
            lambda r: -0.1 / (1.0 + r * r) ** 1.5, OSC.d1, OSC.d2, "weak r^-3 tail"
        )
        with pytest.raises(NoBoundState):
            radial_eigenvalue(0.5, weak, l=0, n_r=0)


# the confining levels (b, n_r, l) of the oracle benchmark, at mu = 1/2
CONFINING_LEVELS = (
    [(2.0, n_r, l) for n_r, l in ((0, 0), (0, 4), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 4))]
    + [(1.0, n_r, 0) for n_r in (0, 1, 2)]
    + [(0.5, 0, l) for l in (1, 2, 3)]
    + [(1.5, n_r, l) for n_r, l in ((0, 0), (1, 2), (2, 4), (3, 0))]
    + [(3.0, n_r, l) for n_r, l in ((0, 0), (1, 2), (2, 4), (3, 0))]
)


# the Coulomb levels (b, n_r, l) of the oracle benchmark, at mu = 1/2
COULOMB_BENCH_LEVELS = [(-1.0, 0, 0), (-1.0, 0, 1), (-1.0, 1, 0), (-1.0, 1, 1)]


def _reference_segmented(shooter, e):
    """Nodes and edge value of a pass on a mesh with a coarse tail, stepping u itself.

    Each segment runs Numerov on u with its own factors; the coarse one
    starts from u at its first point and at the point one coarse step
    before it, both kept from the fine one.  A node is a sign change of u.
    """
    f, u1, first_term, i0 = shooter._numerov_input(e)
    u = np.zeros(len(shooter.r))
    u[i0 - 1], u[i0] = first_term / f[i0 - 1], u1
    nodes = 0
    (_, cut, fine), (_, last, coarse) = shooter.segments
    for seg, (points, h) in enumerate(((list(range(i0 - 1, cut + 1)), fine),
                                       ([cut - shooter.jump] + list(range(cut, last + 1)), coarse))):
        g = 1.0 + (h * h * shooter.mu / 6.0) * (e - shooter.veff[points])
        if seg == 0:
            g[0] = f[i0 - 1]
        for j in range(1, len(points) - 1):
            u_next = ((12.0 - 10.0 * g[j]) * u[points[j]] - g[j - 1] * u[points[j - 1]]) / g[j + 1]
            nodes += u_next * u[points[j]] < 0.0
            u[points[j + 1]] = u_next
    return nodes, u[-1]


def _bump(height: float, width: float) -> InteractionTriple:
    """-1/r with a Gaussian bump near r = 150, midway between two probe radii."""
    radii = oracle._probe(COULOMB, 0.5)[0]
    i = int(np.searchsorted(radii, 150.0))
    top = math.sqrt(radii[i - 1] * radii[i])

    def value(r):
        return -1.0 / r + height * np.exp(-(((r - top) / width) ** 2))

    return InteractionTriple(value, OSC.d1, OSC.d2, "bump")


class TestSegmentedMesh:
    """The step grows to 2^k h in the tail, past the tail action 3."""

    @pytest.mark.parametrize("b,n_r,l", CONFINING_LEVELS)
    def test_confining_levels_keep_one_step(self, monkeypatch, b, n_r, l):
        # kappa grows without bound past a confining level's turning point:
        # no coarser step fits, so the mesh and its arithmetic are unchanged
        pot = _power_pair(b, 1.0)
        assert _first_mesh(pot, l, n_r)[3] is None
        cuts = []
        numerov_pass = oracle._numerov

        def recorded(*args, **kwargs):
            cuts.append(kwargs.get("cut"))
            return numerov_pass(*args, **kwargs)

        monkeypatch.setattr(oracle, "_numerov", recorded)
        radial_eigenvalue(0.5, pot, l=l, n_r=n_r)
        assert cuts and not any(cuts)

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("n_r", [0, 1, 2])
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_coulomb_levels_double_the_step(self, a, n_r, l):
        # s-waves doubled only once while f >= 1/2 was held above the
        # probe's lowest V_eff, -a / r at r = 1e-3 / sqrt(mu), far below
        # the mesh's -a / h; above the mesh's own bottom they take 4h or 8h
        # like the other waves, and the built mesh keeps the plan
        pot = _power_pair(-1.0, a)
        guess, box, n, (cut, k) = _first_mesh(pot, l, n_r)
        assert k >= 2
        assert (n - cut) % 2**k == 0 and n - cut >= 4 * 2**k
        laurent = oracle._probe(pot, 0.5)[3]
        assert oracle._Shooter(0.5, pot, l, box, n, laurent, (cut, k)).coarse_fits(guess)
        level = radial_eigenvalue(0.5, pot, l=l, n_r=n_r)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, l), rel=1e-10)

    @pytest.mark.parametrize("l,n_r", [(0, 0), (1, 1), (3, 2)])
    def test_level_matches_the_uniform_mesh(self, l, n_r):
        # the coarse tail moves the level by far less than the mesh's own
        # error: the Richardson step on n and 2n uniform steps of the box
        _, box, n, doubled = _first_mesh(COULOMB, l, n_r)
        fixed = [radial_eigenvalue(0.5, COULOMB, l=l, n_r=n_r, rmax=box, npoints=k)
                 for k in (n, 2 * n)]
        level = radial_eigenvalue(0.5, COULOMB, l=l, n_r=n_r)
        assert level == pytest.approx(_richardson(*fixed), rel=1e-10)
        # and a shot counts the nodes of the uniform mesh
        laurent = oracle._probe(COULOMB, 0.5)[3]
        segmented = oracle._Shooter(0.5, COULOMB, l, box, n, laurent, doubled)
        uniform = oracle._Shooter(0.5, COULOMB, l, box, n, laurent)
        for e in level * np.array([1.3, 1.01, 0.99, 0.5, 0.2]):
            assert segmented.shoot(e)[0] == uniform.shoot(e)[0]

    @pytest.mark.parametrize("e", [-0.04, -0.03, -0.02])
    @pytest.mark.parametrize("count_nodes", [True, False])
    def test_pass_matches_the_recurrence_on_u(self, e, count_nodes):
        # the pass runs on y = f u and starts the coarse segment from y / f
        # of the fine one; the reference steps u segment by segment.  Away
        # from the level -1/36, where the edge value is not a cancellation
        _, box, n, doubled = _first_mesh(COULOMB, 1, 1)
        assert doubled[1] == 3
        shooter = oracle._Shooter(0.5, COULOMB, 1, box, n, oracle._probe(COULOMB, 0.5)[3], doubled)
        nodes, edge = oracle._numerov(*shooter._numerov_input(e), count_nodes=count_nodes,
                                      cut=shooter.restart, back=shooter.jump)
        ref_nodes, ref_edge = _reference_segmented(shooter, e)
        assert edge == pytest.approx(ref_edge, rel=1e-9)
        if count_nodes:
            assert nodes == ref_nodes

    @pytest.mark.parametrize("offset", [-500, -1, 0, 1, 100])
    def test_tail_action_is_the_trapezoidal_rule(self, offset):
        # summed per segment, from a point of the fine segment, the cut or
        # a point of the coarse one
        _, box, n, doubled = _first_mesh(COULOMB, 1, 1)
        shooter = oracle._Shooter(0.5, COULOMB, 1, box, n, oracle._probe(COULOMB, 0.5)[3], doubled)
        i = shooter.cut + offset
        e = float(shooter.veff[i]) - 1e-3
        ksq = 2.0 * shooter.mu * (shooter.veff[i:] - e)
        expected = float(np.trapezoid(np.sqrt(np.clip(ksq, 0.0, None)), shooter.r[i:]))
        assert shooter._root_integral(shooter.veff[i:] - e) == pytest.approx(expected, rel=1e-12)

    def test_point_limit_counts_the_segmented_mesh(self, monkeypatch):
        # Coulomb (1, 1): 2268 steps of the level's scale, 1057 with the
        # coarse tail; a limit between the two refuses only the longer
        _, _, n, doubled = _first_mesh(COULOMB, 1, 1)
        steps = _mesh_steps(n, doubled)
        assert steps < 1500 < n
        monkeypatch.setattr(oracle, "_MAX_POINTS", 1500)
        assert radial_eigenvalue(0.5, COULOMB, l=1, n_r=1) == pytest.approx(-1.0 / 36.0, rel=1e-10)
        monkeypatch.setattr(oracle, "_MAX_POINTS", steps - 1)
        with pytest.raises(ConvergenceError, match=f"{steps} mesh points needed"):
            radial_eigenvalue(0.5, COULOMB, l=1, n_r=1)

    @pytest.mark.parametrize(
        "height,width,kept",
        [(0.06, 1.0, 2), (0.3, 1.0, 1), (100.0, 0.3, 0)],
        ids=["kappa-8h", "kappa-8h-4h", "floor-8h-4h-kappa-2h"],
    )
    def test_coarse_step_that_misfits_the_mesh_halves(self, height, width, kept):
        # a bump near r = 150, between two probe radii, far in the tail of
        # the Coulomb (1, 1) level, which plans steps of 8h from the probe.
        # On the built mesh a low bump breaks 2^k h kappa <= 0.1 alone, on
        # 8h (0.06) or on 8h and 4h (0.3); one of 100 also lets f fall
        # below 1/2 on 8h and 4h, and breaks kappa on 2h.  Each misfit
        # halves the step and builds the mesh again
        pot = _bump(height, width)
        sizes, solved = [], []

        def value(r):
            sizes.append(np.size(r))
            return pot.value(r)

        solve = oracle._Shooter.solve

        def recorded(self, *args, **kwargs):
            solved.append(self.doubled)
            return solve(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle._Shooter, "solve", recorded)
            level = radial_eigenvalue(0.5, InteractionTriple(value, OSC.d1, OSC.d2, "bump"), 1, 1)
        n, (cut, k) = _first_mesh(COULOMB, 1, 1)[2:]
        assert k == 3
        doubled = (cut, kept) if kept else None
        assert solved == [doubled, doubled and (2 * cut, kept)]
        built = [_mesh_steps(n, (cut, j) if j else None) for j in range(k, kept - 1, -1)]
        assert sizes == [404, *built, 2 * built[-1]]
        # the bump lies where u^2 ~ e^-38: the level is Coulomb's
        assert level == pytest.approx(-1.0 / 36.0, rel=1e-10)

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("n_r", [0, 1, 2])
    def test_s_wave_shots_keep_the_factor_floor(self, monkeypatch, a, n_r):
        # the coarse step of an s-wave is held to f >= 1/2 above -a / h, the
        # mesh's lowest V_eff, and not above the probe's -a / r0 far below
        # it: no shot may go below -a / h, where f would fall under 1/2
        pot = _power_pair(-1.0, a)
        shots = []
        numerov_input = oracle._Shooter._numerov_input

        def recorded(self, e):
            args = numerov_input(self, e)
            shots.append((e, self.bottom, float(self.veff[1:].min()), float(args[0].min())))
            return args

        monkeypatch.setattr(oracle._Shooter, "_numerov_input", recorded)
        level = radial_eigenvalue(0.5, pot, l=0, n_r=n_r)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, 0), rel=1e-10)
        assert shots
        for e, bottom, lowest, factor in shots:
            assert bottom == lowest <= e
            assert factor >= 0.5

    def test_coarse_step_keeps_the_floor_on_the_mesh(self):
        # the same test holds the Numerov factor f >= 1/2 above the bottom
        # of V_eff on the built mesh: Coulomb (1, 1)'s steps of 8h fit
        # above its bottom, -1/8, but not above -1e3
        guess, box, n, doubled = _first_mesh(COULOMB, 1, 1)
        shooter = oracle._Shooter(0.5, COULOMB, 1, box, n, oracle._probe(COULOMB, 0.5)[3], doubled)
        assert shooter.bottom == pytest.approx(-0.125, rel=1e-4)
        assert shooter.coarse_fits(guess)
        shooter.bottom = -1e3
        assert not shooter.coarse_fits(guess)


class TestAnchoredBracket:
    """A solve shoots at its guess first, then walks out on one side of it."""

    def _shots(self, monkeypatch, shooter):
        shots = []
        shoot = shooter.shoot

        def recorded(e):
            shots.append(e)
            return shoot(e)

        monkeypatch.setattr(shooter, "shoot", recorded)
        return shots

    @pytest.mark.parametrize("offset,side", [(-0.004, 1.0), (0.004, -1.0)])
    def test_guess_is_shot_first(self, monkeypatch, offset, side):
        # a guess below the level walks up only, one above it down only:
        # the guess itself ends the bracket on its side
        shooter = oracle._Shooter(0.5, COULOMB, 1, 80.0, 20000, oracle._probe(COULOMB, 0.5)[3])
        cold = shooter.solve(1)
        guess = cold + offset * abs(cold)
        shots = self._shots(monkeypatch, shooter)
        assert shooter.solve(1, guess=guess) == pytest.approx(cold, rel=1e-12)
        assert shots[0] == guess
        assert shots[1] == guess + side * oracle._SEED_SPAN * abs(guess)
        assert all(side * (e - guess) >= 0.0 for e in shots)

    def test_downward_walk_stops_at_the_bottom(self, monkeypatch):
        # the second step down from 8 would reach 8 - 16, below the lowest
        # V_eff on the mesh: the shot lands on that bottom instead, and the
        # bracket [bottom, 8] holds the ground state 3
        shooter = oracle._Shooter(0.5, OSC, 0, 6.0, 300, oracle._probe(OSC, 0.5)[3])
        shots = self._shots(monkeypatch, shooter)
        assert shooter.solve(0, guess=8.0, span=2.0) == pytest.approx(3.0, rel=1e-3)
        assert shots[:2] == [8.0, shooter.bottom]
        assert min(shots) == shooter.bottom == pytest.approx((6.0 / 300) ** 2)

    def test_bench_levels_pass_budget(self, monkeypatch):
        # the 26 levels of the oracle benchmark at a = 1: 346 passes when
        # each solve walked a +-1 % bracket in from both ends
        count = _count_sweeps(monkeypatch)
        for b, n_r, l in CONFINING_LEVELS + COULOMB_BENCH_LEVELS:
            radial_eigenvalue(0.5, _power_pair(b, 1.0), l=l, n_r=n_r)
        assert count[0] <= 313


def _reference_sweep(f, u1, first_term):
    """The Numerov recurrence on u itself, one step at a time.

    Returns (nodes, u at the edge, rescales).  A node is a sign change of
    y = f u, the rule the passes follow.  Past 1e250, u is scaled by
    1e-250, so the edge value holds only up to that many such factors.
    """
    u_cur, nodes, carry, rescales = u1, 0, first_term, 0
    for i in range(2, len(f)):
        u_next = ((12.0 - 10.0 * f[i - 1]) * u_cur - carry) / f[i]
        nodes += (f[i] * u_next) * (f[i - 1] * u_cur) < 0.0
        carry = f[i - 1] * u_cur
        u_cur = u_next
        if abs(u_cur) > 1e250:
            u_cur *= 1e-250
            carry *= 1e-250
            rescales += 1
    return nodes, u_cur, rescales


def _reference_restart(f, u1, first_term, cut, back):
    """The Numerov recurrence on u itself, restarted at entry cut as _numerov reads it.

    Up to entry cut - 1 it runs on f; from entry cut on it starts again
    from u at entries cut - 1 - back and cut - 1, with the factors f[cut]
    and f[cut + 1] there.  Returns (nodes, u at the edge, nodes in the
    last back steps before the restart and in the first step after it).
    """
    u, nodes, near = [first_term / f[0], u1], 0, 0
    for j in range(1, cut - 1):
        u.append(((12.0 - 10.0 * f[j]) * u[j] - f[j - 1] * u[j - 1]) / f[j + 1])
        node = u[-1] * u[j] < 0.0
        nodes += node
        near += node and j >= cut - 1 - back
    g, seg = f[cut:], [u[cut - 1 - back], u[cut - 1]]
    for j in range(1, len(g) - 1):
        seg.append(((12.0 - 10.0 * g[j]) * seg[j] - g[j - 1] * seg[j - 1]) / g[j + 1])
        node = seg[-1] * seg[j] < 0.0
        nodes += node
        near += node and j == 1
    return nodes, seg[-1], near


def _agree_up_to_rescale(x, ref, rel=1e-9):
    """x equals ref to rel, up to a whole power of the 1e250 rescale."""
    if x == 0.0 or ref == 0.0:
        return x == ref
    decades = math.log10(abs(x)) - math.log10(abs(ref))
    off = decades - 250.0 * round(decades / 250.0)
    return (x > 0.0) == (ref > 0.0) and abs(off) <= rel / math.log(10.0)


CHUNK = oracle._CHUNK
# meshes for the two Numerov passes: mesh lengths around the overflow
# chunk, f < 0 where l >= 3 or a steep potential make it so, and
# forbidden regions that grow past the 1e250 rescale
MESHES = {
    "short": 600,
    "chunk_multiple": 2 * CHUNK + 2,
    "plain": 2 * CHUNK + 777,
    "negative_start": 2 * CHUNK + 777,
    "negative_band": 2 * CHUNK + 777,
    "negative_end": 2 * CHUNK + 777,
    "rescale_in_chunk": CHUNK + 700,
    "overflow_in_chunk": 2 * CHUNK + 777,
}


def _mesh(case, seed):
    n = MESHES[case]
    rng = np.random.default_rng(seed)
    # f > 1, an allowed region, unless the case says otherwise
    f = 1.01 + 0.005 * np.sin(np.linspace(0.0, n / 15.0, n)) + 1e-3 * rng.standard_normal(n)
    f[0] = 1.0
    if case == "negative_start":
        f[1:3] = [-0.7, -0.2]
    elif case == "negative_band":
        # f turns negative before a chunk boundary and back after it
        f[CHUNK - 20:CHUNK + 15] = -0.5
    elif case == "negative_end":
        f[-4:] = [-0.3, -1.5, -4.0, -9.0]
    elif case == "rescale_in_chunk":
        # u grows ~3x a step: past 1e250 once, inside the second chunk
        f[CHUNK + 100:] = 0.9
    elif case == "overflow_in_chunk":
        # u grows ~14x a step: an unscaled chunk would end at inf
        f[CHUNK + 100:] = 0.5
    return f


class TestSweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("negative_start", [False, True])
    def test_matches_the_plain_recurrence(self, seed, negative_start):
        # f < 0 at the first points, as for l >= 3 near the origin, and
        # a nonzero first term as for Coulomb s-waves
        rng = np.random.default_rng(seed)
        f = 1.0 + 0.05 * np.sin(np.linspace(0.0, 40.0, 600)) + 1e-3 * rng.standard_normal(600)
        f[0] = 1.0
        if negative_start:
            f[1:3] = [-0.7, -0.2]
        nodes, edge = oracle._numerov(f, 1e-3, 0.4)
        ref_nodes, ref_edge, _ = _reference_sweep(f.tolist(), 1e-3, 0.4)
        assert nodes == ref_nodes
        assert edge == pytest.approx(ref_edge, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", sorted(MESHES))
    def test_both_passes_match_the_plain_recurrence(self, case, seed):
        f = _mesh(case, seed)
        nodes, edge = oracle._numerov(f, 1e-3, 0.4)
        ref_nodes, ref_edge, rescales = _reference_sweep(f.tolist(), 1e-3, 0.4)
        # the edge-only pass runs the same recurrence
        assert oracle._numerov(f, 1e-3, 0.4, count_nodes=False)[1] == edge
        assert nodes == ref_nodes
        assert _agree_up_to_rescale(edge, ref_edge)
        expected = {"rescale_in_chunk": 1}.get(case, 0)
        if case == "overflow_in_chunk":
            assert rescales > 1
        else:
            assert rescales == expected

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("start", [3, 4, CHUNK + 5])
    def test_passes_from_a_later_start(self, seed, start):
        # as for l >= 3: first_term stands in for f u at start - 1, only
        # the sign of that factor is read (negative at start 3), and the
        # factors before it (negative at start 4) are not read at all
        f = _mesh("negative_start", seed)
        nodes, edge = oracle._numerov(f, 1e-3, 0.4, start)
        ref_nodes, ref_edge, _ = _reference_sweep(f[start - 1:].tolist(), 1e-3, 0.4)
        assert oracle._numerov(f, 1e-3, 0.4, start, count_nodes=False)[1] == edge
        assert nodes == ref_nodes
        assert edge == pytest.approx(ref_edge, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_segmented_passes_match_the_plain_recurrence(self, seed):
        # f > 1, an allowed region: u changes sign every ~4 steps, so with
        # a restart at each of 12 entries in a row, 2 to 8 entries back,
        # some sign changes fall on the steps just before and after it
        rng = np.random.default_rng(seed)
        near = 0
        for cut in range(20, 32):
            f = 1.05 + 0.01 * rng.standard_normal(80)
            f[0] = 1.0
            for back in (2, 5, 8):
                nodes, edge = oracle._numerov(f, 1e-3, 0.4, cut=cut, back=back)
                ref_nodes, ref_edge, ref_near = _reference_restart(f, 1e-3, 0.4, cut, back)
                assert oracle._numerov(f, 1e-3, 0.4, count_nodes=False, cut=cut,
                                       back=back)[1] == edge
                assert nodes == ref_nodes
                assert edge == pytest.approx(ref_edge, rel=1e-9)
                near += ref_near
        assert near > 0

    @pytest.mark.parametrize("l", [0, 3])
    @pytest.mark.parametrize("e", [1.0, 20.0, 300.0])
    def test_node_pass_where_f_turns_negative_at_the_edge(self, l, e):
        # V = r^6 at mu = 0.5 in the first adaptive box, on the mesh it
        # would get without the floor for steep potentials: f < 0 over the
        # last ~55 % of the mesh, where the pass still counts sign changes
        # of y = f u, and the recurrence outgrows the rescale
        shooter = oracle._Shooter(0.5, SEXTIC, l, *_box(0), oracle._probe(SEXTIC, 0.5)[3])
        f, u_start, first_term, i0 = shooter._numerov_input(e)
        assert f[i0] > 0.0 and f[-1] < 0.0
        nodes, edge = oracle._numerov(f, u_start, first_term, i0)
        ref_nodes, ref_edge, rescales = _reference_sweep(f[i0 - 1:].tolist(), u_start, first_term)
        assert oracle._numerov(f, u_start, first_term, i0, count_nodes=False)[1] == edge
        assert nodes == ref_nodes
        assert _agree_up_to_rescale(edge, ref_edge) and rescales > 0
