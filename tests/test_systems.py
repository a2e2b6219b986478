"""Closed-form systems, their weights, tags, and the embedded table."""

import math

import pytest

from etkit import (
    BaryonParams,
    Bound,
    ConfinedParams,
    DomainError,
    GaussianParams,
    NoBoundState,
    PowerLaw1Params,
    PowerLaw2Params,
    QuarticSign,
    UnboundRegime,
    baryon_energy,
    baryon_phi,
    baryon_system,
    bsq_ratio_coeffs,
    compute_phi,
    confined_energy,
    confined_phi,
    confined_system,
    confined_y,
    energy,
    gaussian_energy,
    gaussian_harmonic_limit,
    gaussian_phi,
    gaussian_system,
    powerlaw1_energy,
    powerlaw1_phi,
    powerlaw1_system,
    powerlaw2_energy,
    powerlaw2_phi,
    powerlaw2_system,
    quartic_root_g,
    table1,
)

# reference energies for the three-quark benchmark: columns are the
# accurate numerical solution, then the estimate at phi = 2, at the
# derived phi, and at the two fitted constants 1.35 and 1.23
BENCHMARK = {
    (0, 0): (2.128, 2.468, 1.945, 2.128, 2.060),
    (0, 1): (2.606, 2.914, 2.582, 2.633, 2.578),
    (1, 0): (2.739, 3.300, 2.504, 2.788, 2.682),
    (0, 2): (2.959, 3.300, 3.035, 3.055, 3.007),
    (1, 1): (3.125, 3.646, 3.106, 3.189, 3.098),
    (0, 3): (3.299, 3.646, 3.418, 3.425, 3.383),
    (2, 0): (3.260, 3.961, 2.960, 3.318, 3.186),
    (1, 2): (3.422, 3.961, 3.512, 3.546, 3.463),
    (0, 4): (3.581, 3.961, 3.758, 3.759, 3.721),
    (2, 1): (3.584, 4.253, 3.553, 3.662, 3.542),
    (1, 3): (3.716, 4.253, 3.857, 3.869, 3.794),
    (0, 5): (3.861, 4.253, 4.068, 4.066, 4.030),
    (3, 0): (3.721, 4.527, 3.354, 3.775, 3.619),
    (2, 2): (3.838, 4.527, 3.932, 3.976, 3.866),
    (1, 4): (3.966, 4.527, 4.166, 4.168, 4.098),
    (0, 6): (4.103, 4.527, 4.356, 4.351, 4.318),
}

FOOTERS = {2.0: 0.151, "dos": 0.047, 1.35: 0.031, 1.23: 0.024}


class TestPowerLaw2:
    @pytest.mark.parametrize("b", [-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0])
    def test_closed_form_matches_solver(self, b):
        params = PowerLaw2Params(m=0.9, a=1.4, b=b)
        for n_body in (2, 4):
            spec = powerlaw2_system(params, n_body)
            q = 2.0 + n_body / 2.0
            assert energy(spec, q).E == pytest.approx(
                powerlaw2_energy(params, n_body, q), rel=1e-9
            )

    @pytest.mark.parametrize("b", [-1.0, 0.5, 1.5, 3.0])
    def test_weight_closed_form(self, b):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=b), 2)
        assert compute_phi(spec, 1.7).phi == pytest.approx(
            powerlaw2_phi(b), rel=1e-9
        )

    def test_bound_tags(self):
        mk = lambda b: powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=b), 2).bound
        assert mk(1.0) is Bound.UPPER
        assert mk(2.0) is Bound.UPPER
        assert mk(-1.0) is Bound.UPPER
        assert mk(2.5) is Bound.LOWER

    def test_rejects_bad_exponent(self):
        with pytest.raises(DomainError):
            PowerLaw2Params(m=1.0, a=1.0, b=0.0)
        with pytest.raises(DomainError):
            PowerLaw2Params(m=1.0, a=1.0, b=-2.0)


class TestPowerLaw1:
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
    def test_closed_form_matches_solver(self, b):
        params = PowerLaw1Params(a=1.2, b=b)
        for n_body in (2, 3):
            spec = powerlaw1_system(params, n_body)
            q = 1.0 + n_body
            assert energy(spec, q).E == pytest.approx(
                powerlaw1_energy(params, n_body, q), rel=1e-9
            )

    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_weight_closed_form(self, b):
        spec = powerlaw1_system(PowerLaw1Params(a=1.0, b=b), 3)
        assert compute_phi(spec, 2.0).phi == pytest.approx(
            powerlaw1_phi(b), rel=1e-9
        )
        assert powerlaw1_phi(b) == math.sqrt(b + 1.0)

    def test_bound_tags(self):
        assert powerlaw1_system(PowerLaw1Params(a=1.0, b=1.0), 2).bound is Bound.UPPER
        assert powerlaw1_system(PowerLaw1Params(a=1.0, b=3.0), 2).bound is Bound.NONE


class TestGaussian:
    PARAMS = GaussianParams(m=1.0, V0=5.0, R=2.0)

    def test_closed_form_matches_solver(self):
        spec = gaussian_system(self.PARAMS, 3)
        for q in (1.0, 2.0, 3.5):
            assert energy(spec, q).E == pytest.approx(
                gaussian_energy(self.PARAMS, 3, q), rel=1e-9
            )

    def test_weight_closed_form(self):
        spec = gaussian_system(self.PARAMS, 2)
        assert compute_phi(spec, 1.2).phi == pytest.approx(
            gaussian_phi(self.PARAMS, 2, 1.2), rel=1e-9
        )

    def test_no_bound_state_below_branch(self):
        with pytest.raises(NoBoundState):
            gaussian_energy(GaussianParams(m=1.0, V0=0.01, R=1.0), 2, 1.5)

    def test_wide_well_approaches_oscillator(self):
        params = GaussianParams(m=1.0, V0=1.0, R=1e4)
        e_full = gaussian_energy(params, 2, 1.5)
        e_limit = gaussian_harmonic_limit(params, 2, 1.5)
        assert e_full == pytest.approx(e_limit, rel=1e-4)
        assert gaussian_phi(params, 2, 1.5) == pytest.approx(2.0, abs=1e-4)

    def test_bound_tag(self):
        assert gaussian_system(self.PARAMS, 2).bound is Bound.UPPER

    def test_binding_energy_negative(self):
        assert gaussian_energy(self.PARAMS, 2, 1.5) < 0.0


class TestConfined:
    def test_pure_oscillator_limit(self):
        params = ConfinedParams(m=1.0, omega=1.5, g=0.0)
        assert confined_energy(params, 3, 4.0) == pytest.approx(6.0, rel=1e-12)
        assert confined_energy(params, 3, 4.0, ground_shift=True) == pytest.approx(
            6.0 + 2.25, rel=1e-12
        )
        assert confined_phi(params, 3, 2.0) == 2.0

    def test_ground_shift_is_d_omega_over_two(self):
        params = ConfinedParams(m=1.0, omega=0.5, g=0.0)
        for dim in (2, 3, 4):
            assert confined_energy(
                params, 2, 1.0, ground_shift=True, D=dim
            ) == pytest.approx(0.5 + 0.25 * dim, rel=1e-12)

    def test_pure_oscillator_matches_solver(self):
        params = ConfinedParams(m=1.0, omega=1.5, g=0.0)
        spec = confined_system(params, 3)
        assert energy(spec, 4.0).E == pytest.approx(6.0, rel=1e-10)

    def test_scaled_number_needs_coupling(self):
        with pytest.raises(DomainError):
            confined_y(ConfinedParams(m=1.0, omega=1.0, g=0.0), 2, 1.0)

    def test_closed_form_matches_solver(self):
        params = ConfinedParams(m=1.0, omega=1.0, g=0.5)
        for n_body in (2, 5):
            spec = confined_system(params, n_body)
            for q in (2.0, 6.0):
                assert energy(spec, q).E == pytest.approx(
                    confined_energy(params, n_body, q), rel=1e-9
                )

    def test_weight_closed_form(self):
        params = ConfinedParams(m=1.0, omega=1.0, g=0.5)
        spec = confined_system(params, 2)
        assert compute_phi(spec, 1.5).phi == pytest.approx(
            confined_phi(params, 2, 1.5), rel=1e-9
        )

    def test_weight_formula_uses_minus_root(self):
        params = ConfinedParams(m=1.0, omega=1.0, g=0.5)
        lam = 1.5
        y = confined_y(params, 2, lam)
        g_minus = quartic_root_g(QuarticSign.MINUS, y)
        assert confined_phi(params, 2, lam) == pytest.approx(
            2.0 * math.sqrt(2.0 * g_minus / y + 1.0), rel=1e-12
        )

    def test_bound_tag(self):
        assert confined_system(ConfinedParams(m=1.0, omega=1.0, g=0.5), 2).bound is Bound.LOWER

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            ConfinedParams(m=1.0, omega=1.0, g=-0.1)


class TestBaryon:
    PARAMS = BaryonParams.from_alpha_s(tension_k=0.2, alpha_s=0.4)

    def test_from_alpha_s(self):
        assert self.PARAMS.g == pytest.approx(2.0 * 0.4 / 3.0, rel=1e-15)

    def test_closed_form_matches_solver(self):
        spec = baryon_system(self.PARAMS, 3)
        for q in (2.0, 3.0, 5.5):
            assert energy(spec, q).E == pytest.approx(
                baryon_energy(self.PARAMS, 3, q), rel=1e-9
            )

    def test_weight_closed_form(self):
        spec = baryon_system(self.PARAMS, 3)
        for lam in (1.0, 2.0, 5.0):
            assert compute_phi(spec, lam).phi == pytest.approx(
                baryon_phi(self.PARAMS, 3, lam), rel=1e-9
            )

    def test_no_pair_coupling_reduces_to_linear_confinement(self):
        bare = BaryonParams(tension_k=0.3, g=0.0)
        linear = PowerLaw1Params(a=0.3, b=1.0)
        for q in (1.5, 4.0):
            assert baryon_energy(bare, 3, q) == pytest.approx(
                powerlaw1_energy(linear, 3, q), rel=1e-10
            )
        assert baryon_phi(bare, 3, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_unbound_regime(self):
        heavy = BaryonParams(tension_k=0.2, g=10.0)
        with pytest.raises(UnboundRegime):
            baryon_energy(heavy, 3, 1.0)

    def test_weight_undefined_when_attraction_dominates(self):
        heavy = BaryonParams(tension_k=0.2, g=10.0)
        with pytest.raises(DomainError):
            baryon_phi(heavy, 3, 1.0)

    def test_bound_tag(self):
        assert baryon_system(self.PARAMS, 3).bound is Bound.UPPER


class TestNonFiniteInputs:
    # each closed form used to pass NaN through a bare `q <= 0` guard
    # and return nan (or inf for an infinite q)
    CLOSED_FORMS = [
        lambda x: powerlaw2_energy(PowerLaw2Params(m=1.0, a=1.0, b=1.0), 2, x),
        lambda x: powerlaw1_energy(PowerLaw1Params(a=1.0, b=1.0), 3, x),
        lambda x: gaussian_energy(GaussianParams(m=1.0, V0=5.0, R=2.0), 2, x),
        lambda x: gaussian_phi(GaussianParams(m=1.0, V0=5.0, R=2.0), 2, x),
        lambda x: gaussian_harmonic_limit(GaussianParams(m=1.0, V0=5.0, R=2.0), 2, x),
        lambda x: confined_energy(ConfinedParams(m=1.0, omega=1.0, g=0.5), 2, x),
        lambda x: confined_phi(ConfinedParams(m=1.0, omega=1.0, g=0.5), 2, x),
        lambda x: baryon_energy(BaryonParams(tension_k=0.2, g=0.1), 3, x),
        lambda x: baryon_phi(BaryonParams(tension_k=0.2, g=0.1), 3, x),
    ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("closed_form", range(len(CLOSED_FORMS)))
    def test_closed_forms_reject(self, closed_form, bad):
        with pytest.raises(DomainError):
            self.CLOSED_FORMS[closed_form](bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_couplings_reject(self, bad):
        with pytest.raises(DomainError):
            ConfinedParams(m=1.0, omega=1.0, g=bad)
        with pytest.raises(DomainError):
            BaryonParams(tension_k=0.2, g=bad)


class TestBandRatio:
    def test_equal_at_two(self):
        c1, c2, delta = bsq_ratio_coeffs(2.0)
        assert c1 == pytest.approx(2.0, rel=1e-12)
        assert c2 == pytest.approx(2.0, rel=1e-12)
        assert delta <= 1e-9

    def test_small_split_on_window(self):
        worst = max(bsq_ratio_coeffs(0.01 * i)[2] for i in range(1, 251))
        assert worst <= 0.016

    def test_large_exponent_limits(self):
        c1, c2, _ = bsq_ratio_coeffs(1000.0)
        assert c1 > 100.0
        assert c2 < math.pi**2 + 0.1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            bsq_ratio_coeffs(0.0)


class TestBenchmarkTable:
    def test_all_columns_reproduce_reference(self):
        for idx, (mode, column) in enumerate(
            [(2.0, 1), ("dos", 2), (1.35, 3), (1.23, 4)]
        ):
            result = table1(phi_mode=mode)
            assert len(result.rows) == 16
            for row in result.rows:
                ref = BENCHMARK[(row.n_sum, row.l_sum)]
                assert row.exact == ref[0]
                assert row.E == pytest.approx(ref[column], abs=1.01e-3), (
                    mode,
                    row.n_sum,
                    row.l_sum,
                )

    def test_mean_errors(self):
        for mode, ref in FOOTERS.items():
            assert table1(phi_mode=mode).delta == pytest.approx(ref, abs=1e-3)

    def test_derived_weight_split_by_orbital_content(self):
        result = table1(phi_mode="dos")
        assert result.delta_l0 == pytest.approx(0.091, abs=1e-3)
        assert result.delta_rest == pytest.approx(0.032, abs=1e-3)
        assert result.delta_l0 > result.delta_rest

    def test_plain_weight_is_an_upper_bound_everywhere(self):
        result = table1(phi_mode=2.0)
        assert all(row.E > row.exact for row in result.rows)

    def test_other_weights_lose_the_variational_character(self):
        # the derived and the 1.23 columns land on both sides of the
        # reference; nothing forces one-sidedness once phi differs from 2
        for mode in ("dos", 1.23):
            rows = table1(phi_mode=mode).rows
            signs = {row.E > row.exact for row in rows}
            assert signs == {True, False}

    def test_fitted_weight_touches_the_ground_state(self):
        rows = table1(phi_mode=1.35).rows
        ground = next(r for r in rows if (r.n_sum, r.l_sum) == (0, 0))
        assert ground.E == pytest.approx(ground.exact, abs=1e-3)

    def test_row_subset(self):
        result = table1(phi_mode="dos", rows=[(0, 0), (0, 6)])
        assert [(r.n_sum, r.l_sum) for r in result.rows] == [(0, 0), (0, 6)]

    def test_unknown_row_rejected(self):
        with pytest.raises(DomainError):
            table1(rows=[(9, 9)])

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            table1(phi_mode="median")
        with pytest.raises(DomainError):
            table1(phi_mode=-1.0)
