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
    @pytest.mark.parametrize("name", ["rmax", "npoints", "etol"])
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


def _count_sweeps(monkeypatch) -> list[int]:
    count = [0]
    sweep = oracle._sweep

    def counted(*args):
        count[0] += 1
        return sweep(*args)

    monkeypatch.setattr(oracle, "_sweep", counted)
    return count


class TestSweepBudget:
    # bisection alone took 53 and 269 sweeps for these two levels
    def test_oscillator_ground(self, monkeypatch):
        count = _count_sweeps(monkeypatch)
        assert radial_eigenvalue(0.5, OSC, l=0, n_r=0) == pytest.approx(3.0, abs=1e-9)
        assert count[0] <= 30

    def test_coulomb_excited_over_growing_boxes(self, monkeypatch):
        count = _count_sweeps(monkeypatch)
        assert radial_eigenvalue(0.5, COULOMB, l=0, n_r=1) == pytest.approx(
            -0.0625, abs=1e-9
        )
        assert count[0] <= 120


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

    @pytest.mark.parametrize("a", [0.9, 1.0, 1.1])
    @pytest.mark.parametrize("n_r", [0, 1])
    def test_coulomb_d_waves(self, a, n_r):
        # the box test once counted the centrifugal barrier as tail and
        # stopped growing too early: -0.0334806 for a = 1.1, n_r = 0
        level = radial_eigenvalue(0.5, _power_pair(-1.0, a), l=2, n_r=n_r)
        assert level == pytest.approx(_exact_level(-1.0, a, 0.5, n_r, 2), rel=1e-8)


class TestWarmStart:
    @pytest.mark.parametrize("shift", [0.0, 1e-4, -0.05, 0.3])
    @pytest.mark.parametrize("potential,l,n_r", [(OSC, 1, 2), (COULOMB, 0, 1)])
    def test_guess_does_not_move_the_level(self, potential, l, n_r, shift):
        shooter = oracle._Shooter(
            0.5, potential, l, 40.0, 8000, oracle._laurent_coeffs(potential)
        )
        cold = shooter.solve(n_r, 1e-13)
        warm = shooter.solve(n_r, 1e-13, guess=cold * (1.0 + shift))
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
