"""Lambert W, the confinement quartic root, and the Euler beta wrapper."""

import math

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit import ConvergenceError, DomainError, beta, lambert_w0, quartic_root_g
from etkit import specfun

BRANCH = -math.exp(-1.0)


def _bisect_quartic(y: float) -> float:
    # independent root of 4x^4 - 8x - 3y = 0 on x >= 0
    def f(x: float) -> float:
        return 4.0 * x**4 - 8.0 * x - 3.0 * y

    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW0:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(BRANCH) == pytest.approx(-1.0, abs=1e-7)

    def test_round_trip_grid(self):
        # w e^w = z must hold to near machine accuracy away from the branch
        for w_target in [-0.999, -0.9, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
            z = w_target * math.exp(w_target)
            w = lambert_w0(z)
            assert w == pytest.approx(w_target, rel=1e-11, abs=1e-11)

    def test_against_scipy(self):
        for z in [-0.367, -0.36, -0.3, -0.1, -1e-6, 1e-6, 0.5, 3.0, 50.0, 1e8]:
            ref = float(scipy.special.lambertw(z).real)
            assert lambert_w0(z) == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_near_branch_series(self):
        # within the series window the result still inverts w e^w
        z = BRANCH + 1e-9
        w = lambert_w0(z)
        assert w == pytest.approx(-1.0, abs=1e-4)
        assert w * math.exp(w) == pytest.approx(z, abs=1e-12)

    def test_below_branch_rejected(self):
        with pytest.raises(DomainError):
            lambert_w0(BRANCH - 1e-9)

    def test_branch_slack_clamps(self):
        # values a hair below the branch point are treated as the branch point
        assert lambert_w0(BRANCH - 1e-15) == pytest.approx(-1.0, abs=1e-6)

    @given(st.floats(min_value=-1.0, max_value=20.0))
    @settings(max_examples=200)
    def test_round_trip_property(self, w_target):
        z = w_target * math.exp(w_target)
        w = lambert_w0(z)
        assert w * math.exp(w) == pytest.approx(z, rel=1e-10, abs=1e-10)


class TestQuarticRoot:
    # frozen from the bisection helper above; (1 + sqrt 3)/2 is the
    # exact root at y = 1
    FROZEN = [
        (1.0, 1.3660254037844386),
        (0.25, 1.2897374279105107),
        (4.0, 1.5747430738870216),
        (100.0, 3.0),
    ]

    @pytest.mark.parametrize("y,expected", FROZEN)
    def test_frozen_values(self, y, expected):
        assert quartic_root_g(y) == pytest.approx(expected, rel=1e-12)

    def test_matches_bisection_on_grid(self):
        for y in [1e-8, 1e-4, 0.01, 0.3, 1.0, 7.0, 1e3, 1e8]:
            assert quartic_root_g(y) == pytest.approx(_bisect_quartic(y), rel=1e-10)

    def test_minus_at_zero(self):
        assert quartic_root_g(0.0) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)

    def test_residual_is_tiny(self):
        for y in [0.5, 2.0, 40.0]:
            x = quartic_root_g(y)
            assert 4.0 * x**4 - 8.0 * x - 3.0 * y == pytest.approx(0.0, abs=1e-9 * max(1.0, y))

    def test_monotone_in_y(self):
        grid = [0.1 * i for i in range(1, 60)]
        roots = [quartic_root_g(y) for y in grid]
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            quartic_root_g(-1.0)

    def test_residual_out_of_tolerance_raises(self, monkeypatch):
        # with no Newton step the root stays at its upper bound, far out
        # of tolerance
        monkeypatch.setattr(specfun, "_NEWTON_MAXITER", 0)
        with pytest.raises(ConvergenceError, match="did not reach tolerance"):
            quartic_root_g(1.0)

    @pytest.mark.parametrize("y", [1e308, 1.7e308])
    def test_largest_inputs_stay_finite(self, y):
        # the residual 4x^4 - 8x - 3Y overflowed to NaN here, and the NaN
        # passed the tolerance check
        x = quartic_root_g(y)
        assert math.isfinite(x)
        assert x**3 - 2.0 - 0.75 * y / x == pytest.approx(0.0, abs=1e-12 * x**3)

    @given(st.floats(min_value=0.0, max_value=1e300))
    @settings(max_examples=150)
    def test_root_property(self, y):
        x = quartic_root_g(y)
        assert x > 0.0
        assert 4.0 * x**4 - 8.0 * x == pytest.approx(3.0 * y, rel=1e-9, abs=1e-12)


class TestBeta:
    def test_known_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_symmetry(self):
        for x, y in [(0.3, 1.7), (1.0, 4.5), (0.01, 0.02)]:
            assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-13)

    def test_against_scipy(self):
        for x, y in [(1.0 / 3.0, 1.5), (0.7, 2.2), (5.0, 5.0), (0.05, 1.5)]:
            assert beta(x, y) == pytest.approx(float(scipy.special.beta(x, y)), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)
