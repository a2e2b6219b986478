"""Mode expansion around the stationary point and the derived weight."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit import (
    BaryonParams,
    Bound,
    ConfinedParams,
    DomainError,
    GaussianParams,
    InteractionTriple,
    NegativeStiffness,
    PhiUndefined,
    PowerLaw2Params,
    QuantumNumbers,
    SystemSpec,
    baryon_phi,
    baryon_system,
    compute_phi,
    confined_phi,
    confined_system,
    energy,
    gaussian_phi,
    gaussian_system,
    improved_energy,
    improved_energy_at,
    powerlaw2_phi,
    powerlaw2_system,
    solve_radius,
)
from etkit.dos import _orbit_terms
from etkit.errors import DegenerateSlope
from etkit.et_core import _lhs, _rhs


def _harmonic(n_body: int = 2) -> SystemSpec:
    return powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), n_body)


def _dos_energy(spec: SystemSpec, lam: float, nu: float) -> float:
    # orbit-plus-vibration energy E0(lambda) + A nu of the expansion
    return energy(spec, lam).E + math.sqrt(compute_phi(spec, lam).a_sq) * nu


def _local_lambert(z: float) -> float:
    # independent principal-branch inversion of w e^w = z by bisection
    lo, hi = -1.0, max(1.0, z)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRadialMode:
    def test_harmonic_spacing(self):
        # two particles, m = 1, pair a r^2: relative frequency 2, and the
        # expansion spacing is twice that
        a = math.sqrt(compute_phi(_harmonic(), 0.5).a_sq)
        assert a == pytest.approx(4.0, rel=1e-12)

    def test_spacing_scales_with_strength(self):
        weak = powerlaw2_system(PowerLaw2Params(m=1.0, a=0.25, b=2.0), 2)
        a = math.sqrt(compute_phi(weak, 0.5).a_sq)
        assert a == pytest.approx(2.0, rel=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            compute_phi(_harmonic(), -0.5)
        # lambda = 0 has no orbit to vibrate around
        with pytest.raises(PhiUndefined):
            compute_phi(_harmonic(), 0.0)

    def test_attractive_inverse_cube_has_no_stable_point(self):
        # a pair force falling faster than 1/r^2 cannot support a
        # circular orbit: curvature at the stationary radius is negative
        kin = InteractionTriple(
            value=lambda p: p * p / 2.0,
            d1=lambda p: p,
            d2=lambda p: 1.0,
            label="p^2/2",
        )
        pair = InteractionTriple(
            value=lambda r: -1.0 / (3.0 * r**3),
            d1=lambda r: 1.0 / r**4,
            d2=lambda r: -4.0 / r**5,
            label="-1/(3 r^3)",
        )
        spec = SystemSpec(N=2, D=3, kinetic=kin,
                          onebody=InteractionTriple.zero(), pairwise=pair)
        with pytest.raises(NegativeStiffness):
            compute_phi(spec, 1.0)


class TestDosEnergy:
    def test_harmonic_reference_point(self):
        assert _dos_energy(_harmonic(), 0.5, 0.5) == pytest.approx(3.0, rel=1e-12)

    def test_harmonic_expansion_is_exact(self):
        # for a quadratic pair interaction the expansion reproduces the
        # full estimate at every (nu, lambda)
        spec = _harmonic(3)
        for nu, lam in [(1.0, 1.5), (2.0, 0.5), (3.5, 4.0)]:
            direct = energy(spec, 2.0 * nu + lam).E
            assert _dos_energy(spec, lam, nu) == pytest.approx(direct, rel=1e-10)

    def test_rejects_nonpositive_nu(self):
        with pytest.raises(DomainError):
            improved_energy_at(_harmonic(), 0.0, 1.0)


class TestSlopeB:
    def test_denominator_is_negative_mismatch_slope(self):
        # pointwise identity: b_d = -dF/dr where F is the stationarity
        # mismatch at fixed collective number lambda
        spec = powerlaw2_system(PowerLaw2Params(m=0.8, a=1.7, b=1.0), 3)
        lam = 1.3
        for r in (0.4, 1.0, 2.7):
            _, _, b_d = _orbit_terms(spec, lam, r)
            h = 1e-6 * r
            lhs, rhs = _lhs(spec, lam), _rhs(spec)
            dfdr = ((lhs(r + h) - rhs(r + h)) - (lhs(r - h) - rhs(r - h))) / (2 * h)
            assert b_d == pytest.approx(-dfdr, rel=1e-6)

    def test_ratio_is_lambda_times_energy_slope(self):
        # b_n / b_d = lambda dE/dlambda along the lambda-only estimate
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=1.0), 2)
        lam = 2.0
        pres = compute_phi(spec, lam)
        b_n, b_d = pres.b_n, pres.b_d
        h = 1e-6
        slope = (energy(spec, lam + h).E - energy(spec, lam - h).E) / (2 * h)
        assert b_n / b_d == pytest.approx(lam * slope, rel=1e-6)

    def test_exact_degenerate_point_exists(self):
        # crafted so every term of b_d is an exact small integer and the
        # sum vanishes identically
        kin = InteractionTriple(lambda p: p * p / 2.0, lambda p: p,
                                lambda p: 1.0, "p^2/2")
        one = InteractionTriple(lambda s: s * s, lambda s: 2.0 * s,
                                lambda s: 2.0, "s^2")
        pair = InteractionTriple(lambda r: -2.0 / (3.0 * r**3), lambda r: 2.0 / r**4,
                                 lambda r: -8.0 / r**5, "-2/(3 r^3)")
        spec = SystemSpec(N=2, D=3, kinetic=kin, onebody=one, pairwise=pair)
        _, _, b_d = _orbit_terms(spec, 1.0, 1.0)
        assert b_d == 0.0

    def test_degenerate_slope_is_reported(self, monkeypatch):
        import etkit.dos as dos_module

        monkeypatch.setattr(dos_module, "_orbit_terms", lambda *a: (1.0, 1.0, 0.0))
        with pytest.raises(DegenerateSlope):
            compute_phi(_harmonic(), 1.0)


class TestComputePhi:
    def test_harmonic_weight_is_two(self):
        for n_body in (2, 3, 5):
            pres = compute_phi(_harmonic(n_body), 1.5)
            assert pres.phi == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("b", [-1.0, -0.5, 0.5, 1.0, 2.0, 3.0])
    def test_power_law_closed_form(self, b):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=b), 3)
        pres = compute_phi(spec, 2.5)
        assert pres.phi == pytest.approx(powerlaw2_phi(b), rel=1e-10)
        assert pres.phi == pytest.approx(math.sqrt(b + 2.0), rel=1e-10)

    def test_coulomb_weight_is_one(self):
        kin = InteractionTriple(lambda p: p * p / 2.0, lambda p: p, lambda p: 1.0, "")
        pair = InteractionTriple(lambda r: -1.0 / r, lambda r: 1.0 / r**2,
                                 lambda r: -2.0 / r**3, "")
        spec = SystemSpec(N=2, D=3, kinetic=kin,
                          onebody=InteractionTriple.zero(), pairwise=pair,
                          bound=Bound.UPPER)
        assert compute_phi(spec, 1.0).phi == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_against_independent_lambert(self):
        params = GaussianParams(m=1.0, V0=5.0, R=2.0)
        lam = 1.5
        y = -lam / (math.sqrt(2.0) * params.R * math.sqrt(2.0 * params.V0))
        expected = 2.0 * math.sqrt(1.0 + _local_lambert(y))
        spec = gaussian_system(params, 2)
        assert compute_phi(spec, lam).phi == pytest.approx(expected, rel=1e-9)
        assert gaussian_phi(params, 2, lam) == pytest.approx(expected, rel=1e-9)

    def test_baryon_frozen_value(self):
        params = BaryonParams.from_alpha_s(tension_k=0.2, alpha_s=0.4)
        spec = baryon_system(params, 3)
        pres = compute_phi(spec, 1.0)
        assert pres.phi == pytest.approx(1.0374196688402428, rel=1e-10)
        assert pres.phi == pytest.approx(baryon_phi(params, 3, 1.0), rel=1e-10)

    def test_small_radius_root_is_placed_to_full_precision(self):
        # the orbit sits at r0 ~ 0.0027; a root placed to an absolute
        # 2e-12 misses the stationarity residual by ~1e-10 relative
        params = PowerLaw2Params(
            m=1.9595713881996253, a=9.897560162738767, b=-0.9488240274701907
        )
        pres = compute_phi(powerlaw2_system(params, 10, 2), 1.0)
        assert pres.r0_at_lam < 0.003
        assert pres.phi == pytest.approx(powerlaw2_phi(params.b), rel=1e-9)
        assert pres.phi == pytest.approx(1.02527, rel=1e-5)

    def test_strong_confinement_root_is_placed_to_full_precision(self):
        params = ConfinedParams(
            m=2.5209344269034593, omega=6.555750923870466, g=9.82252483953178
        )
        pres = compute_phi(confined_system(params, 6, 2), 1.0)
        assert pres.phi == pytest.approx(confined_phi(params, 6, 1.0), rel=1e-9)
        assert pres.phi == pytest.approx(47.739, rel=1e-5)

    def test_kinetic_derivative_must_be_positive(self):
        # T = -p^2/2 and V = -r^2/2 at N = 2: the stationarity equation is
        # that of T = p^2/2, V = r^2/2 with both sides negated, so the
        # orbit exists at r0 = (2 q^2)^(1/4), but T'(p0) < 0 there
        kin = InteractionTriple(lambda p: -0.5 * p * p, lambda p: -p, lambda p: -1.0)
        pair = InteractionTriple(lambda r: -0.5 * r * r, lambda r: -r, lambda r: -1.0)
        spec = SystemSpec(N=2, D=3, kinetic=kin, pairwise=pair)
        assert solve_radius(spec, 1.5) == pytest.approx(1.45648, rel=1e-5)
        with pytest.raises(DomainError, match="kinetic derivative must be positive"):
            compute_phi(spec, 1.5)

    def test_lambda_zero_undefined(self):
        with pytest.raises(PhiUndefined):
            compute_phi(_harmonic(), 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            compute_phi(_harmonic(), -1.0)

    def test_result_carries_solved_radius(self):
        spec = _harmonic()
        pres = compute_phi(spec, 2.0)
        assert pres.r0_at_lam == pytest.approx(solve_radius(spec, 2.0), rel=1e-12)
        assert pres.lam == 2.0

    @given(b=st.floats(min_value=-1.5, max_value=4.0).filter(lambda x: abs(x) > 0.05),
           lam=st.floats(min_value=0.2, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_power_law_closed_form_property(self, b, lam):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=b), 2)
        assert compute_phi(spec, lam).phi == pytest.approx(
            math.sqrt(b + 2.0), rel=1e-8
        )


class TestImprovedEnergy:
    def test_baryon_ground_state_cross_route(self):
        # generic pipeline against the closed forms, through the weight
        params = BaryonParams.from_alpha_s(tension_k=0.2, alpha_s=0.4)
        spec = baryon_system(params, 3)
        sol, pres = improved_energy(spec, QuantumNumbers.from_sums(0, 0))
        from etkit import baryon_energy, q_phi

        phi = baryon_phi(params, 3, 1.0)
        expected = baryon_energy(params, 3, float(q_phi(1.0, 1.0, phi)))
        assert sol.E == pytest.approx(expected, rel=1e-9)
        assert sol.E == pytest.approx(1.94455513894, rel=1e-9)
        assert pres.phi == pytest.approx(phi, rel=1e-9)

    def test_baryon_orbital_state(self):
        params = BaryonParams.from_alpha_s(tension_k=0.2, alpha_s=0.4)
        spec = baryon_system(params, 3)
        sol, _ = improved_energy(spec, QuantumNumbers.from_sums(0, 1))
        assert sol.E == pytest.approx(2.582, abs=5e-4)

    def test_weight_two_recovers_plain_estimate(self):
        spec = _harmonic(4)
        qn = QuantumNumbers.from_sums(1, 2)
        sol, pres = improved_energy(spec, qn, phi=2.0)
        nu = 1 + (4 - 1) / 2.0
        lam = 2 + (4 - 1) / 2.0
        plain = energy(spec, 2.0 * nu + lam)
        assert sol.E == plain.E
        assert sol.bound is plain.bound is Bound.UPPER
        assert pres is None

    def test_weight_not_two_drops_bound_tag(self):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=1.0), 2)
        sol, _ = improved_energy(spec, QuantumNumbers.from_sums(0, 1))
        assert sol.bound is Bound.NONE

    def test_dos_weight_beats_plain_on_baryon_table(self):
        params = BaryonParams.from_alpha_s(tension_k=0.2, alpha_s=0.4)
        spec = baryon_system(params, 3)
        exact = {(0, 0): 2.128, (1, 0): 2.739, (0, 3): 3.299}
        for (n_sum, l_sum), ref in exact.items():
            qn = QuantumNumbers.from_sums(n_sum, l_sum)
            plain, _ = improved_energy(spec, qn, phi=2.0)
            improved, _ = improved_energy(spec, qn)
            assert abs(improved.E - ref) < abs(plain.E - ref)

    def test_planar_ground_state_has_no_weight(self):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), 2, 2)
        qn = QuantumNumbers.from_sums(1, 0)
        with pytest.raises(PhiUndefined):
            improved_energy(spec, qn)
        # the collective orbital number vanishes, so even a fixed weight
        # has nothing to act on
        with pytest.raises(PhiUndefined):
            improved_energy(spec, qn, phi=1.5)

    def test_direct_form_accepts_fractional_numbers(self):
        spec = _harmonic(2)
        sol, pres = improved_energy_at(spec, 0.5, 0.5)
        assert pres.phi == pytest.approx(2.0, abs=1e-12)
        assert sol.E == pytest.approx(3.0, rel=1e-10)


class TestNonFiniteInputs:
    # NaN fails every ordered comparison, so a bare `x <= 0` guard lets it
    # through to the solver, which then reports a misleading NoSolution
    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_compute_phi(self, bad):
        with pytest.raises(DomainError):
            compute_phi(_harmonic(), bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_improved_energy_at(self, bad):
        with pytest.raises(DomainError):
            improved_energy_at(_harmonic(), bad, 1.0)
        with pytest.raises(DomainError):
            improved_energy_at(_harmonic(), 0.5, bad)
