"""Independent radial eigensolver used to audit the two-body estimates."""

import math

import numpy as np
import pytest
from scipy.special import ai_zeros

from etkit import (
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

    def test_rejects_bad_quantum_numbers(self):
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, OSC, l=-1, n_r=0)
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, OSC, l=0, n_r=-1)

    @pytest.mark.parametrize("n_r", [1, 2])
    def test_rejects_a_fixed_mesh_too_coarse_for_the_level(self, n_r):
        # V = r^6 at mu = 0.5 on rmax = 6 with 374 points: at the level the
        # Numerov factor is negative only at the last point, r = 6, where u
        # flips sign and the flip reads as a node; n_r = 1 and 2 returned
        # the n_r = 0 and n_r = 1 levels, 4.33860 and 14.9352, without error
        shooter = oracle._Shooter(0.5, SEXTIC, 0, 6.0, 374, oracle._laurent_coeffs(SEXTIC))
        f = shooter._numerov_input(4.3385986777832315)[0]
        assert np.flatnonzero(f <= 0.0).tolist() == [374]
        with pytest.raises(DomainError):
            radial_eigenvalue(0.5, SEXTIC, l=0, n_r=n_r, rmax=6.0, npoints=374)
        # a finer mesh of the same box finds the level: the spectrum at
        # mu = 0.5 is that at mu = 2 times 4^(3/4)
        level = radial_eigenvalue(0.5, SEXTIC, l=0, n_r=1, rmax=6.0, npoints=1000)
        assert level == pytest.approx(4.0 ** 0.75 * 5.280379863433776, rel=1e-6)


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


def _wrap_passes(monkeypatch, record) -> None:
    """Call record(f) before every Numerov pass: node-counting and edge-only."""
    numerov_pass = oracle._numerov

    def wrapped(f, *args, **kwargs):
        record(f)
        return numerov_pass(f, *args, **kwargs)

    monkeypatch.setattr(oracle, "_numerov", wrapped)


def _count_sweeps(monkeypatch) -> list[int]:
    count = [0]

    def counted(f):
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
            (lambda r: -10.0 * math.exp(-r * r), 3, 0, 85),
            (lambda r: -2.0 * math.exp(-0.3 * r) / r, 5, 1, 60),
        ],
        ids=["gaussian_l3", "yukawa_l5"],
    )
    def test_unbound_rounds_skip_the_edge_refinement(self, monkeypatch, value, l, n_r, ceiling):
        # converging every unbound round took 107 and 104 sweeps; a
        # bracket whose lower end is already unbound now ends the round
        count = _count_sweeps(monkeypatch)
        well = InteractionTriple(value, OSC.d1, OSC.d2, "well")
        with pytest.raises(NoBoundState):
            radial_eigenvalue(0.5, well, l=l, n_r=n_r)
        assert count[0] <= ceiling

    def test_coulomb_potential_calls(self):
        # two calls for the Laurent coefficients near the origin (four
        # when each point was sampled twice), three asymptote probes and
        # one array call for each of the five boxes
        calls = [0]

        def value(r):
            calls[0] += 1
            return COULOMB.value(r)

        counted = InteractionTriple(value, COULOMB.d1, COULOMB.d2, "-1/r")
        level = radial_eigenvalue(0.5, counted, l=0, n_r=1)
        assert level == pytest.approx(-0.0625, abs=1e-9)
        assert calls[0] <= 10


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
        [(0, 0, 1.5339262848777035), (0, 2, 10.35898916385178),
         (1, 1, 7.520053503417539), (2, 2, 16.107581797833838)],
    )
    def test_sextic_levels(self, l, n_r, level):
        # V = r^6 at mu = 2, whose boxes keep f > 0 on the whole mesh (at
        # mu = 0.5 the first box does not: see TestSweep); pinned at the
        # levels found when the node pass still ran on |f| u
        assert radial_eigenvalue(2.0, SEXTIC, l=l, n_r=n_r) == pytest.approx(level, rel=1e-12)

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("n_r", [0, 1])
    def test_coulomb_d_waves(self, a, n_r):
        # the box test once counted the centrifugal barrier as tail and
        # stopped growing too early: -0.0334806 for a = 1.1, n_r = 0
        level = radial_eigenvalue(0.5, _power_pair(-1.0, a), l=2, n_r=n_r)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, 2), rel=1e-8)


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
        shooter = oracle._Shooter(0.5, COULOMB, l, 200.0, 25000, oracle._laurent_coeffs(COULOMB))
        f, u_start, first_term, i0 = shooter._numerov_input(-0.25 / (l + 1) ** 2)
        assert i0 == (1 if l < 3 else math.isqrt(l * (l + 1) // 12) + 2)
        assert np.all(f[i0 - 1:i0 + 50] > 0.0)
        if l >= 3:
            assert u_start == 1.0 and 0.0 < first_term < f[i0 - 1]
        if l >= 10:
            assert np.any(f[1:i0 - 1] < 0.0)


class TestWarmStart:
    @pytest.mark.parametrize("shift", [0.0, 1e-4, -0.05, 0.3])
    @pytest.mark.parametrize("potential,l,n_r", [(OSC, 1, 2), (COULOMB, 0, 1)])
    def test_guess_does_not_move_the_level(self, potential, l, n_r, shift):
        shooter = oracle._Shooter(
            0.5, potential, l, 40.0, 8000, oracle._laurent_coeffs(potential)
        )
        cold = shooter.solve(n_r)
        warm = shooter.solve(n_r, guess=cold * (1.0 + shift))
        assert warm == pytest.approx(cold, rel=1e-12)


class TestPotentialSampling:
    def test_one_array_call_per_box(self):
        shapes = []

        def value(r):
            shapes.append(np.shape(r))
            return r * r

        pot = InteractionTriple(value, OSC.d1, OSC.d2, "r^2")
        assert radial_eigenvalue(0.5, pot, l=0, n_r=0) == pytest.approx(3.0, abs=1e-9)
        assert sum(1 for shape in shapes if shape != ()) == 1

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
            # failed on [-inf, ...]")
            lambda r: np.where(r > 8.0, np.inf, r * r),
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
        assert oracle._asymptote(pot) == math.inf
        assert math.isfinite(radial_eigenvalue(0.5, pot, l=0, n_r=0))

    def test_numpy_asymptote_is_a_float(self):
        # a potential written with np.exp returns np.float64 at the probes;
        # the limit that the bound-state checks compare with is a float
        pot = InteractionTriple(
            lambda r: 1.0 - np.exp(-r), lambda r: np.exp(-r), lambda r: -np.exp(-r), "1-e^-r"
        )
        asym = oracle._asymptote(pot)
        assert type(asym) is float and asym == 1.0


def _box(growths: int, mu: float = 0.5) -> tuple[float, int]:
    """The adaptive box after some growths, and the mesh it gets."""
    box = 10.0 / math.sqrt(mu) * 1.8**growths
    return box, int(min(25000.0, max(4000.0, 160.0 * box)))


class TestWkbStart:
    @pytest.mark.parametrize(
        "potential,l,n_r,exact",
        [(OSC, 0, 0, 3.0), (OSC, 2, 1, 11.0), (COULOMB, 0, 0, -0.25), (COULOMB, 1, 1, -0.25 / 9.0)],
    )
    def test_langer_estimate_is_close_where_it_is_exact(self, potential, l, n_r, exact):
        # Langer-WKB is exact for both spectra; only the mesh and the
        # turning points cut across cells separate it from the level
        shooter = oracle._Shooter(
            0.5, potential, l, 60.0, 12000, oracle._laurent_coeffs(potential)
        )
        assert shooter.wkb_level(n_r) == pytest.approx(exact, rel=1e-3)

    def test_no_estimate_where_the_box_cannot_hold_the_level(self):
        # the Coulomb (1,1) level lies above V_eff at the edge of the first box
        shooter = oracle._Shooter(0.5, COULOMB, 1, *_box(0), oracle._laurent_coeffs(COULOMB))
        assert shooter.wkb_level(1) is None

    @pytest.mark.parametrize("a,growths", [(0.9, 5), (1.0, 5), (1.1, 4)])
    def test_skipped_boxes_keep_the_final_box(self, monkeypatch, a, growths):
        # the Coulomb (1,1) level used to be shot in every box; the final
        # box (one growth fewer from a ~ 1.05 on) must not move
        pot = _power_pair(-1.0, a)
        array_calls = []

        def value(r):
            if np.ndim(r):
                array_calls.append(np.size(r))
            return pot.value(r)

        counted = InteractionTriple(value, pot.d1, pot.d2, pot.label)
        swept_meshes = set()
        _wrap_passes(monkeypatch, lambda f: swept_meshes.add(len(f) - 1))
        adaptive = radial_eigenvalue(0.5, counted, l=1, n_r=1)
        box, n = _box(growths)
        # one array call per box, and sweeps only on the mesh of the box
        # that is kept (every box of this level has its own mesh size)
        assert len(array_calls) == growths + 1
        assert swept_meshes == {n}
        fixed = radial_eigenvalue(0.5, pot, l=1, n_r=1, rmax=box, npoints=n)
        assert adaptive == pytest.approx(fixed, rel=1e-12)

    def test_estimate_missing_the_seeded_bracket(self):
        # the b = 3 ground state lies 1.2 % above its estimate, outside the
        # seeded bracket: the bracket widens and finds the cold level
        pot = _power_pair(3.0, 1.0)
        box, n = _box(0)
        shooter = oracle._Shooter(0.5, pot, 0, box, n, oracle._laurent_coeffs(pot))
        estimate = shooter.wkb_level(0)
        cold = shooter.solve(0)
        assert abs(cold - estimate) > oracle._SEED_SPAN * abs(estimate)
        assert radial_eigenvalue(0.5, pot, l=0, n_r=0) == pytest.approx(cold, rel=1e-12)

    @pytest.mark.parametrize("l,n_r", [(0, 7), (1, 6), (3, 4), (0, 10)])
    def test_high_coulomb_levels(self, l, n_r):
        # shooting every box raised NoBoundState here: the levels squeezed
        # into the first boxes sat above zero and used up the unbound
        # rounds; the boxes WKB rules out are now skipped unshot
        level = radial_eigenvalue(0.5, COULOMB, l=l, n_r=n_r)
        assert level == pytest.approx(-0.25 / (n_r + l + 1) ** 2, rel=1e-9)

    def test_phase_evaluation_budget(self, monkeypatch):
        # solving the estimate to 1e-10 took 53 phase integrals over the
        # boxes of this level; it only seeds a bracket and gates a skip
        calls = [0]
        phase = oracle._Shooter.wkb_phase

        def counted(self, e):
            calls[0] += 1
            return phase(self, e)

        monkeypatch.setattr(oracle._Shooter, "wkb_phase", counted)
        assert radial_eigenvalue(0.5, COULOMB, l=0, n_r=1) == pytest.approx(
            -0.0625, abs=1e-9
        )
        assert calls[0] <= 46

    @pytest.mark.parametrize("potential,l", [(COULOMB, 0), (COULOMB, 3), (OSC, 2)])
    @pytest.mark.parametrize("fraction", [0.02, 0.3, 1.0])
    def test_phase_is_the_trapezoidal_rule(self, potential, l, fraction):
        # the phase sums the mesh directly; it must equal numpy's
        # trapezoid over the clipped integrand, from a narrow allowed
        # region to the whole Langer well of the box
        box, n = _box(1)
        shooter = oracle._Shooter(0.5, potential, l, box, n, oracle._laurent_coeffs(potential))
        lo, hi = float(np.min(shooter.langer)), float(shooter.langer[-1])
        e = lo + fraction * (hi - lo)
        ksq = 2.0 * shooter.mu * (e - shooter.langer)
        expected = float(np.trapezoid(np.sqrt(np.clip(ksq, 0.0, None)), shooter.r[1:]))
        assert shooter.wkb_phase(e) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("potential,l", [(COULOMB, 0), (COULOMB, 3), (OSC, 2)])
    @pytest.mark.parametrize("fraction", [0.02, 0.3, 0.9])
    def test_tail_action_is_the_trapezoidal_rule(self, potential, l, fraction):
        # the box test's tail action shares the phase's mesh sum; it must
        # equal numpy's trapezoid over the clipped integrand from the
        # outer turning point to the edge
        box, n = _box(1)
        shooter = oracle._Shooter(0.5, potential, l, box, n, oracle._laurent_coeffs(potential))
        lo, hi = float(np.min(shooter.veff[1:])), float(shooter.veff[-1])
        e = lo + fraction * (hi - lo)
        i = int(np.flatnonzero(shooter.veff[1:] <= e)[-1]) + 1
        ksq = 2.0 * shooter.mu * (shooter.veff[i:] - e)
        expected = float(np.trapezoid(np.sqrt(np.clip(ksq, 0.0, None)), shooter.r[i:]))
        action = shooter._root_integral(shooter.veff[i:] - e)
        assert action == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_weak_tail_without_a_level_stays_unbound(self):
        # no level and no estimate; the Langer term outweighs an r^-3
        # tail at the edge, so no box is skipped and the unbound rounds
        # end in NoBoundState as before
        weak = InteractionTriple(
            lambda r: -0.1 / (1.0 + r * r) ** 1.5, OSC.d1, OSC.d2, "weak r^-3 tail"
        )
        with pytest.raises(NoBoundState):
            radial_eigenvalue(0.5, weak, l=0, n_r=0)


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

    @pytest.mark.parametrize("l", [0, 3])
    @pytest.mark.parametrize("e", [1.0, 20.0, 300.0])
    def test_node_pass_where_f_turns_negative_at_the_edge(self, l, e):
        # V = r^6 in the first adaptive box at mu = 0.5: f < 0 over the
        # last ~30 % of the mesh, where the pass still counts sign changes
        # of y = f u, and the recurrence outgrows the rescale
        shooter = oracle._Shooter(0.5, SEXTIC, l, *_box(0), oracle._laurent_coeffs(SEXTIC))
        f, u_start, first_term, i0 = shooter._numerov_input(e)
        assert f[i0] > 0.0 and f[-1] < 0.0
        nodes, edge = oracle._numerov(f, u_start, first_term, i0)
        ref_nodes, ref_edge, rescales = _reference_sweep(f[i0 - 1:].tolist(), u_start, first_term)
        assert oracle._numerov(f, u_start, first_term, i0, count_nodes=False)[1] == edge
        assert nodes == ref_nodes
        assert _agree_up_to_rescale(edge, ref_edge) and rescales > 0
