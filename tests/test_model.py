"""Quantum-number bookkeeping and the shared value types."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit import (
    BaryonParams,
    Bound,
    ConfinedParams,
    DomainError,
    GaussianParams,
    PowerLaw1Params,
    PowerLaw2Params,
    QuantumNumbers,
    SystemSpec,
    gaussian_system,
    global_q,
    nu_lambda,
    powerlaw2_system,
    q_phi,
)
from etkit.systems import FAMILIES


def validate_derivatives(triple, points, h=1e-5, rtol=1e-6):
    """Cross-check d1/d2 against central differences of value/d1.

    Raises DomainError naming the offending point.  The step is scaled
    per point, so supply points away from domain edges.
    """
    for x in points:
        step = h * max(1.0, abs(x))
        d1_fd = (triple.value(x + step) - triple.value(x - step)) / (2.0 * step)
        d2_fd = (triple.d1(x + step) - triple.d1(x - step)) / (2.0 * step)
        scale1 = max(abs(triple.d1(x)), abs(d1_fd), 1e-12)
        scale2 = max(abs(triple.d2(x)), abs(d2_fd), 1e-12)
        if abs(triple.d1(x) - d1_fd) > rtol * scale1:
            raise DomainError(
                f"{triple.label or 'triple'}: d1 disagrees with finite "
                f"difference at x={x!r}"
            )
        if abs(triple.d2(x) - d2_fd) > rtol * scale2:
            raise DomainError(
                f"{triple.label or 'triple'}: d2 disagrees with finite "
                f"difference at x={x!r}"
            )


def _harmonic(n_body: int, dim: int = 3) -> SystemSpec:
    return powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), n_body, dim)


class TestGlobalQ:
    def test_two_body_ground(self):
        qn = QuantumNumbers.from_sums(0, 0)
        assert global_q(qn, _harmonic(2)) == Fraction(3, 2)

    def test_three_body_ground(self):
        qn = QuantumNumbers.from_sums(0, 0)
        assert global_q(qn, _harmonic(3)) == Fraction(3)

    def test_three_body_excited(self):
        qn = QuantumNumbers.from_sums(1, 0)
        assert global_q(qn, _harmonic(3)) == Fraction(5)

    def test_result_is_exact(self):
        q = global_q(QuantumNumbers.from_sums(2, 1), _harmonic(4, dim=5))
        assert isinstance(q, Fraction)
        assert q == Fraction(2 * 2 + 1) + Fraction(3 * 5, 2)

    def test_sums_skip_shape_check(self):
        qn = QuantumNumbers.from_sums(3, 4)
        assert global_q(qn, _harmonic(2)) == Fraction(10) + Fraction(3, 2)


class TestNuLambda:
    def test_two_body_ground(self):
        nu, lam = nu_lambda(QuantumNumbers.from_sums(0, 0), _harmonic(2))
        assert nu == Fraction(1, 2)
        assert lam == Fraction(1, 2)

    def test_planar_system_has_zero_lambda(self):
        _, lam = nu_lambda(QuantumNumbers.from_sums(1, 0), _harmonic(2, dim=2))
        assert lam == 0

    @given(
        n_body=st.integers(min_value=2, max_value=9),
        dim=st.integers(min_value=2, max_value=6),
        n_sum=st.integers(min_value=0, max_value=12),
        l_sum=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=200)
    def test_q_decomposition_identity(self, n_body, dim, n_sum, l_sum):
        spec = _harmonic(n_body, dim)
        qn = QuantumNumbers.from_sums(n_sum, l_sum)
        nu, lam = nu_lambda(qn, spec)
        assert 2 * nu + lam == global_q(qn, spec)

    @given(
        n_sum=st.integers(min_value=1, max_value=10),
        l_sum=st.integers(min_value=0, max_value=10),
        phi_millis=st.integers(min_value=1, max_value=5000).filter(lambda p: p != 2000),
    )
    @settings(max_examples=200)
    def test_weight_splits_plain_degeneracies(self, n_sum, l_sum, phi_millis):
        # (n, l) and (n - 1, l + 2) share Q; any weight except 2 splits them
        spec = _harmonic(3)
        phi = Fraction(phi_millis, 1000)
        a = nu_lambda(QuantumNumbers.from_sums(n_sum, l_sum), spec)
        b = nu_lambda(QuantumNumbers.from_sums(n_sum - 1, l_sum + 2), spec)
        assert 2 * a[0] + a[1] == 2 * b[0] + b[1]
        assert q_phi(a[0], a[1], phi) != q_phi(b[0], b[1], phi)

    def test_weight_two_recovers_plain(self):
        spec = _harmonic(5, dim=4)
        qn = QuantumNumbers.from_sums(2, 3)
        nu, lam = nu_lambda(qn, spec)
        assert q_phi(nu, lam, 2) == global_q(qn, spec)


class TestQPhi:
    def test_exact_arithmetic(self):
        out = q_phi(Fraction(3, 2), Fraction(1, 2), Fraction(5, 4))
        assert out == Fraction(19, 8)
        assert isinstance(out, Fraction)

    @pytest.mark.parametrize("phi", [0.0, -1.0, math.inf, math.nan])
    def test_bad_phi(self, phi):
        with pytest.raises(DomainError):
            q_phi(1.0, 1.0, phi)

    def test_bad_nu_lambda(self):
        with pytest.raises(DomainError):
            q_phi(0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            q_phi(1.0, -0.5, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_lambda(self, bad):
        # NaN fails every ordered comparison; a bare `lam < 0` guard
        # returned nan here
        with pytest.raises(DomainError):
            q_phi(bad, 1.0, 2.0)
        with pytest.raises(DomainError):
            q_phi(1.0, bad, 2.0)

    def test_zero_lambda_is_allowed(self):
        assert q_phi(Fraction(1, 2), 0, 2) == 1


class TestQuantumNumbers:
    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            QuantumNumbers.from_sums(-1, 0)
        with pytest.raises(DomainError):
            QuantumNumbers.from_sums(0, -2)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            QuantumNumbers.from_sums(0.5, 0)


class TestSystemSpec:
    def test_pair_count(self):
        assert _harmonic(2).pair_count == 1
        assert _harmonic(6).pair_count == 15

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            _harmonic(1)

    def test_rejects_small_d(self):
        with pytest.raises(DomainError):
            _harmonic(3, dim=1)

    def test_bound_tags(self):
        assert _harmonic(2).bound is Bound.UPPER


# one parameter record per built-in case: every family, negative and
# fractional exponents, and the g = 0 branches whose pair is the zero triple
BUILT_IN = {
    **{f"powerlaw2-b{b:g}": PowerLaw2Params(m=1.3, a=0.7, b=b)
       for b in (-1.5, -1.0, 0.5, 1.0, 2.0, 3.0)},
    **{f"powerlaw1-b{b:g}": PowerLaw1Params(a=0.8, b=b) for b in (0.5, 1.0, 2.0, 3.0)},
    "gaussian": GaussianParams(m=1.2, V0=2.0, R=1.5),
    **{f"confined-g{g:g}": ConfinedParams(m=1.2, omega=0.7, g=g) for g in (0.0, 0.4)},
    **{f"baryon-g{g:g}": BaryonParams(tension_k=0.2, g=g) for g in (0.0, 0.267)},
}
_BUILDER = {params_cls: builder for params_cls, builder in FAMILIES.values()}


class TestValidateDerivatives:
    @pytest.mark.parametrize("role", ["kinetic", "onebody", "pairwise"])
    @pytest.mark.parametrize("case", sorted(BUILT_IN))
    def test_built_in_triples(self, case, role):
        params = BUILT_IN[case]
        spec = _BUILDER[type(params)](params, 3, 3)
        validate_derivatives(getattr(spec, role), [0.3, 1.0, 2.5, 7.0])

    def test_consistent_triple_passes(self):
        spec = gaussian_system(GaussianParams(m=1.0, V0=2.0, R=1.5), 2)
        validate_derivatives(spec.pairwise, [0.3, 1.0, 2.5])
        validate_derivatives(spec.kinetic, [0.5, 1.5])

    def test_wrong_derivative_is_caught(self):
        from etkit import InteractionTriple

        bad = InteractionTriple(
            value=lambda r: r * r,
            d1=lambda r: 3.0 * r,  # should be 2 r
            d2=lambda r: 2.0,
            label="broken",
        )
        with pytest.raises(DomainError):
            validate_derivatives(bad, [1.0])
