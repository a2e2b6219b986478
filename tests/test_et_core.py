"""The scalar stationary-point solver behind every energy estimate."""

import dataclasses
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etkit import (
    AmbiguousSolution,
    BaryonParams,
    Bound,
    ConfinedParams,
    DomainError,
    GaussianParams,
    InteractionTriple,
    NoSolution,
    PowerLaw1Params,
    PowerLaw2Params,
    SystemSpec,
    baryon_system,
    confined_system,
    energy,
    gaussian_energy,
    gaussian_system,
    powerlaw1_system,
    powerlaw2_energy,
    powerlaw2_system,
    solve_radius,
)
from etkit import dos, et_core


def _coulomb_pair(n_body: int, g: float = 1.0, m: float = 1.0) -> SystemSpec:
    kin = InteractionTriple(
        value=lambda p: p * p / (2.0 * m),
        d1=lambda p: p / m,
        d2=lambda p: 1.0 / m,
        label="p^2/2m",
    )
    pair = InteractionTriple(
        value=lambda r: -g / r,
        d1=lambda r: g / (r * r),
        d2=lambda r: -2.0 * g / r**3,
        label="-g/r",
    )
    return SystemSpec(
        N=n_body,
        D=3,
        kinetic=kin,
        onebody=InteractionTriple.zero(),
        pairwise=pair,
        bound=Bound.UPPER,
        label="coulomb pair",
    )


class TestKnownSolutions:
    def test_two_body_oscillator(self):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), 2)
        sol = energy(spec, 1.5)
        assert sol.E == pytest.approx(3.0, rel=1e-12)
        assert sol.bound is Bound.UPPER

    def test_two_body_coulomb(self):
        # the envelope result for a Coulomb pair is -m g^2 / (4 Q^2)
        sol = energy(_coulomb_pair(2), 1.0)
        assert sol.E == pytest.approx(-0.25, rel=1e-12)

    @pytest.mark.parametrize("b", [-1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n_body", [2, 3, 5])
    def test_power_law_matches_closed_form(self, b, n_body):
        params = PowerLaw2Params(m=1.0, a=1.0, b=b)
        spec = powerlaw2_system(params, n_body)
        q = 0.5 * n_body * 3.0 / 2.0 + 1.0
        sol = energy(spec, q)
        assert sol.E == pytest.approx(powerlaw2_energy(params, n_body, q), rel=1e-9)

    def test_gaussian_matches_closed_form(self):
        params = GaussianParams(m=1.0, V0=5.0, R=2.0)
        spec = gaussian_system(params, 2)
        sol = energy(spec, 1.5)
        assert sol.E == pytest.approx(gaussian_energy(params, 2, 1.5), rel=1e-9)


class TestSolutionContract:
    @pytest.mark.parametrize("q", [0.5, 1.5, 4.0, 12.0])
    def test_radius_momentum_product(self, q):
        spec = powerlaw2_system(PowerLaw2Params(m=0.7, a=1.3, b=1.0), 3)
        sol = energy(spec, q)
        assert sol.r0 * sol.p0 == pytest.approx(q, rel=1e-12)
        assert sol.q_used == q

    def test_stationarity_residual(self):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=2.0, b=0.5), 4)
        for q in (1.0, 3.0, 9.0):
            r0 = solve_radius(spec, q)
            p0 = q / r0
            lhs = spec.N * p0 * spec.kinetic.d1(p0)
            root_c = math.sqrt(spec.pair_count)
            rhs = root_c * r0 * spec.pairwise.d1(r0 / root_c)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_energy_monotone_in_q(self):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=1.0), 2)
        qs = [0.5 + 0.25 * i for i in range(20)]
        energies = [energy(spec, q).E for q in qs]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    @given(q=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_coulomb_closed_form_property(self, q):
        sol = energy(_coulomb_pair(2), q)
        assert sol.E == pytest.approx(-0.25 / (q * q), rel=1e-9)


class TestRootSelection:
    def test_gaussian_two_roots_upper_tag_picks_lower_energy(self):
        # inside the binding window the stationarity has two solutions;
        # the upper-bound tag selects the smaller energy
        params = GaussianParams(m=1.0, V0=5.0, R=2.0)
        spec = gaussian_system(params, 2)
        assert spec.bound is Bound.UPPER
        sol = energy(spec, 1.5)
        assert sol.E == pytest.approx(gaussian_energy(params, 2, 1.5), rel=1e-10)
        assert sol.E < 0.0

    def test_untagged_two_roots_refuse_to_guess(self):
        params = GaussianParams(m=1.0, V0=5.0, R=2.0)
        spec = dataclasses.replace(gaussian_system(params, 2), bound=Bound.NONE)
        with pytest.raises(AmbiguousSolution) as excinfo:
            solve_radius(spec, 1.5)
        assert len(excinfo.value.brackets) == 2

    def test_lower_tag_picks_higher_energy(self):
        params = GaussianParams(m=1.0, V0=5.0, R=2.0)
        upper = gaussian_system(params, 2)
        lower = dataclasses.replace(upper, bound=Bound.LOWER)
        e_upper = energy(upper, 1.5).E
        e_lower = energy(lower, 1.5).E
        assert e_lower > e_upper


class TestNoSolution:
    def test_nonpositive_q(self):
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), 2)
        with pytest.raises(NoSolution):
            solve_radius(spec, 0.0)
        with pytest.raises(NoSolution):
            solve_radius(spec, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_is_a_domain_error(self, bad):
        # NaN used to reach solve_radius and come back as NoSolution, and
        # solve_radius itself reported "must be positive, got nan"
        spec = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=2.0), 2)
        with pytest.raises(DomainError):
            solve_radius(spec, bad)
        with pytest.raises(DomainError):
            energy(spec, bad)

    def test_gaussian_beyond_binding_window(self):
        # scaled number below -1/e: no stationary point anywhere
        params = GaussianParams(m=1.0, V0=0.01, R=1.0)
        spec = gaussian_system(params, 2)
        with pytest.raises(NoSolution):
            solve_radius(spec, 1.5)


def _loop_brackets(spec: SystemSpec, q: float) -> list[tuple[float, float]]:
    # reference: the scan as one scalar mismatch call per grid point
    grid = np.geomspace(et_core.BRACKET_LO, et_core.BRACKET_HI, 961)
    brackets = []
    prev_r = prev_f = None
    for r in grid:
        try:
            f = et_core._mismatch(spec, q, float(r))
        except (OverflowError, ValueError, ZeroDivisionError):
            f = math.nan
        if not math.isfinite(f):
            prev_r = prev_f = None
            continue
        if f == 0.0:
            brackets.append((float(r), float(r)))
        elif prev_f is not None and prev_f != 0.0 and (f < 0.0) != (prev_f < 0.0):
            brackets.append((prev_r, float(r)))
        prev_r, prev_f = float(r), f
    return brackets


def _cells(f: np.ndarray) -> list[tuple[float, float]]:
    return [(lo, hi) for lo, hi, _, _ in et_core._brackets(f)]


def _scan(spec: SystemSpec, q: float) -> list[tuple[float, float]]:
    return _cells(et_core._mismatch_on_grid(spec, q))


def _scalar_only(fn):
    """fn, refusing array arguments as a math.* callable would."""
    def wrapped(x):
        if np.ndim(x):
            raise TypeError("scalar argument expected")
        return fn(x)
    return wrapped


def _assert_pointwise_rhs_cached(spec: SystemSpec) -> None:
    # the right side that the last scan cached belongs to spec and equals
    # one scalar evaluation per grid point
    cached, rhs = et_core._grid_rhs
    assert cached is spec
    np.testing.assert_array_equal(rhs, [et_core._rhs(spec, r) for r in et_core._GRID_POINTS])


_FAMILIES = {
    "powerlaw2": [
        powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=b), n)
        for b in (-1.5, -1.0, 0.5, 2.0, 3.5) for n in (2, 5)
    ],
    "powerlaw1": [
        powerlaw1_system(PowerLaw1Params(a=0.7, b=b), n)
        for b in (0.5, 1.0, 3.0) for n in (2, 4)
    ],
    "gaussian": [
        gaussian_system(GaussianParams(m=1.0, V0=v0, R=2.0), n)
        for v0 in (0.01, 5.0, 40.0) for n in (2, 3)
    ],
    "confined": [
        confined_system(ConfinedParams(m=1.0, omega=1.5, g=g), n)
        for g in (0.0, 0.3, 9.0) for n in (2, 6)
    ],
    "baryon": [
        baryon_system(BaryonParams(tension_k=0.2, g=g), n)
        for g in (0.0, 0.27, 0.01) for n in (3, 1000)
    ],
}
_Q_GRID = [0.05, 0.5, 1.0, 1.5, 3.2904, 7.0, 40.0, 1498.5, 1e4]


class TestBracketScan:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_array_scan_matches_point_by_point(self, family):
        for spec in _FAMILIES[family]:
            for q in _Q_GRID:
                assert _scan(spec, q) == _loop_brackets(spec, q)
                pointwise = _cells(et_core._on_points(
                    _scalar_only(lambda r: et_core._mismatch(spec, q, r)), et_core._GRID
                ))
                assert pointwise == _loop_brackets(spec, q)

    def test_non_finite_points_break_brackets(self):
        # with T' = 0 and N = 2 the mismatch is -r V'(r); V' is NaN for
        # 1/e < r < e, and changes sign across that gap and on either side
        def d1(r):
            with np.errstate(invalid="ignore"):
                return np.sin(2.0 * np.log(r)) / np.sqrt(np.abs(np.log(r)) - 1.0)

        flat = InteractionTriple(value=lambda p: 0.0, d1=lambda p: 0.0, d2=lambda p: 0.0)
        pair = InteractionTriple(value=lambda r: 0.0, d1=d1, d2=lambda r: 0.0)
        spec = SystemSpec(N=2, D=3, kinetic=flat, pairwise=pair)
        brackets = _scan(spec, 1.0)
        assert brackets == _loop_brackets(spec, 1.0)
        assert not any(lo < 1.0 < hi for lo, hi in brackets)
        # sin(2 ln r) vanishes at ln r = k pi / 2 for 1 <= |k| <= 8
        assert len(brackets) == 16

    def test_scalar_only_triple_solves_through_fallback(self):
        # math.exp rejects arrays, so the scan evaluates point by point
        v0, rr = 5.0, 2.0
        pair = InteractionTriple(
            value=lambda r: -v0 * math.exp(-r * r / (rr * rr)),
            d1=lambda r: 2.0 * v0 * r / (rr * rr) * math.exp(-r * r / (rr * rr)),
            d2=lambda r: 2.0 * v0 / (rr * rr)
            * (1.0 - 2.0 * r * r / (rr * rr)) * math.exp(-r * r / (rr * rr)),
        )
        params = GaussianParams(m=1.0, V0=v0, R=rr)
        builtin = gaussian_system(params, 2)
        spec = dataclasses.replace(builtin, pairwise=pair)
        with pytest.raises(TypeError):
            et_core._mismatch(spec, 1.5, np.array([1.0, 2.0]))
        assert _scan(spec, 1.5) == _loop_brackets(spec, 1.5)
        _assert_pointwise_rhs_cached(spec)
        assert _scan(spec, 1.5) == _scan(builtin, 1.5)
        assert energy(spec, 1.5).E == pytest.approx(
            gaussian_energy(params, 2, 1.5), rel=1e-10
        )

    def test_branching_triple_solves_through_fallback(self):
        # an `if` on the argument raises ValueError for arrays
        def d1(r):
            return 1.0 if r > 0.0 else 0.0

        linear = InteractionTriple(value=lambda r: r, d1=d1, d2=lambda r: 0.0)
        spec = SystemSpec(N=2, D=3, kinetic=_coulomb_pair(2).kinetic, pairwise=linear)
        assert _scan(spec, 1.5) == _loop_brackets(spec, 1.5)
        # T = p^2/2, V = r: r0 = (2 q^2)^(1/3) for N = 2
        assert solve_radius(spec, 1.5) == pytest.approx((2.0 * 1.5**2) ** (1 / 3), rel=1e-12)

    def test_point_that_raises_reads_as_nan(self):
        # d1 of V = r^2/2 divides by zero at r = 1, grid point 480; the `if`
        # raises ValueError for arrays, so the scan goes point by point
        pair = InteractionTriple(
            value=lambda r: 0.5 * r * r,
            d1=lambda r: 1.0 / 0.0 if r == 1.0 else r,
            d2=lambda r: 1.0,
        )
        spec = SystemSpec(N=2, D=3, kinetic=_coulomb_pair(2).kinetic, pairwise=pair)
        with pytest.raises(ValueError):
            et_core._mismatch(spec, 1.5, et_core._GRID)
        f = et_core._mismatch_on_grid(spec, 1.5)
        assert et_core._GRID_POINTS[480] == 1.0
        assert np.flatnonzero(np.isnan(f)).tolist() == [480]
        assert _cells(f) == _loop_brackets(spec, 1.5)
        # T = p^2/2, V = r^2/2: r0 = (2 q^2)^(1/4) for N = 2
        assert solve_radius(spec, 1.5) == pytest.approx((2.0 * 1.5**2) ** 0.25, rel=1e-12)

    def test_constant_triples_broadcast(self):
        # T = |p| and U = k s have constant derivatives; the zero triple is
        # constant everywhere
        spec = baryon_system(BaryonParams(tension_k=0.2, g=0.0), 3)
        f = et_core._mismatch(spec, 2.0, et_core._GRID)
        assert f.shape == et_core._GRID.shape
        expected = [et_core._mismatch(spec, 2.0, r) for r in et_core._GRID_POINTS]
        assert f.tolist() == expected
        # E = 2 sqrt(k N q) at g = 0
        assert energy(spec, 2.0).E == pytest.approx(2.0 * math.sqrt(0.2 * 3 * 2.0), rel=1e-12)

    def test_grid_point_root_is_found_once(self):
        # T = p^2/2, U = 2 s^2, N = 2: at q = 1 the mismatch 2/r^2 - 2 r^2
        # is exactly zero on the grid point r = 1 and negative after it
        kin = InteractionTriple(value=lambda p: 0.5 * p * p, d1=lambda p: p,
                                d2=lambda p: 1.0)
        one = InteractionTriple(value=lambda s: 2.0 * s * s, d1=lambda s: 4.0 * s,
                                d2=lambda s: 4.0)
        spec = SystemSpec(N=2, D=3, kinetic=kin, onebody=one)
        assert _scan(spec, 1.0) == _loop_brackets(spec, 1.0) == [(1.0, 1.0)]
        assert solve_radius(spec, 1.0) == 1.0

    def test_wrong_shape_falls_back(self):
        # V = r^2/2 whose d1 turns an array argument into a column, so the
        # array mismatch comes back as a matrix
        pair = InteractionTriple(
            value=lambda r: 0.5 * r * r,
            d1=lambda r: np.reshape(r, (-1, 1)) if np.ndim(r) else r,
            d2=lambda r: 1.0,
        )
        spec = SystemSpec(N=2, D=3, kinetic=_coulomb_pair(2).kinetic, pairwise=pair)
        assert np.shape(et_core._mismatch(spec, 1.5, et_core._GRID)) == (961, 961)
        assert _scan(spec, 1.5) == _loop_brackets(spec, 1.5)
        _assert_pointwise_rhs_cached(spec)
        assert energy(spec, 1.5).E == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-12)


class TestOnPoints:
    """The one evaluator behind the scan grid, the oracle mesh and its probes."""

    X = np.array([0.5, 1.0, 2.0, 800.0])

    def test_overflow_reads_as_inf(self):
        v = et_core._on_points(math.exp, self.X)
        assert v[:3].tolist() == [math.exp(x) for x in self.X[:3]]
        assert v[3] == math.inf

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_value_and_zero_division_errors_read_as_nan(self, error):
        def fn(x):
            if np.ndim(x) or x == 1.0:
                raise error("undefined")
            return x

        v = et_core._on_points(fn, self.X)
        assert np.isnan(v[1]) and v[[0, 2, 3]].tolist() == [0.5, 2.0, 800.0]

    def test_numpy_scalar_overflow_is_silent(self):
        # scalar calls of np.exp overflow to inf with a RuntimeWarning,
        # which the per-point loop must not let out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = et_core._on_points(_scalar_only(np.exp), self.X)
        assert v[3] == math.inf


class TestGridRhsReuse:
    """The q-independent right side is evaluated once per spec object."""

    @staticmethod
    def _fresh(spec: SystemSpec, q: float) -> np.ndarray:
        # the mismatch in one uncached array call; scalar calls of the
        # power laws may differ from it in the last bit
        with np.errstate(all="ignore"):
            return np.asarray(et_core._mismatch(spec, q, et_core._GRID), dtype=float)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_miss_and_hit_match_a_fresh_array_call(self, family, monkeypatch):
        monkeypatch.setattr(et_core, "_grid_rhs", (None, None))
        for spec in _FAMILIES[family]:
            assert et_core._grid_rhs[0] is not spec
            np.testing.assert_array_equal(
                et_core._mismatch_on_grid(spec, 1.5), self._fresh(spec, 1.5)
            )
            cached = et_core._grid_rhs
            assert cached[0] is spec
            np.testing.assert_array_equal(
                et_core._mismatch_on_grid(spec, 40.0), self._fresh(spec, 40.0)
            )
            assert et_core._grid_rhs is cached

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_alternating_specs_give_fresh_values(self, family):
        a, b = _FAMILIES[family][0], _FAMILIES[family][-1]
        for spec, q in ((a, 1.5), (b, 1.5), (a, 7.0)):
            np.testing.assert_array_equal(
                et_core._mismatch_on_grid(spec, q), self._fresh(spec, q)
            )

    def test_scalar_only_kinetic_reuses_the_cached_rhs(self, monkeypatch):
        # the per-point mismatch recomputed the right side at every grid
        # point: 967 pair-derivative calls on the first solve, 966 on a
        # repeat, where Brent and the residual check need only a few
        monkeypatch.setattr(et_core, "_grid_rhs", (None, None))
        base = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=1.0), 2)
        calls = [0]

        def d1(r):
            calls[0] += 1
            return base.pairwise.d1(r)

        spec = dataclasses.replace(
            base,
            kinetic=dataclasses.replace(base.kinetic, d1=_scalar_only(base.kinetic.d1)),
            pairwise=dataclasses.replace(base.pairwise, d1=d1),
        )
        first = solve_radius(spec, 1.5)
        calls[0] = 0
        assert solve_radius(spec, 1.5) == first
        assert calls[0] <= 10

    def test_brent_starts_from_the_scan_values(self):
        # for N = 2 the pair derivative is called at the radius itself, so
        # its scalar calls show every point Brent evaluates
        base = powerlaw2_system(PowerLaw2Params(m=1.0, a=1.0, b=1.0), 2)
        radii = []

        def d1(r):
            if np.ndim(r) == 0:
                radii.append(r)
            return base.pairwise.d1(r)

        spec = dataclasses.replace(base, pairwise=dataclasses.replace(base.pairwise, d1=d1))
        f = et_core._mismatch_on_grid(spec, 1.5)
        [(lo, hi, f_lo, f_hi)] = et_core._brackets(f)
        index = et_core._GRID_POINTS.index
        assert (f_lo, f_hi) == (f[index(lo)], f[index(hi)])
        solve_radius(spec, 1.5)
        assert radii and lo not in radii and hi not in radii


def _semirelativistic_pair() -> SystemSpec:
    """A hand-built system whose kinetic triple is written with np.sqrt."""
    kin = InteractionTriple(
        value=lambda p: np.sqrt(p * p + 1.0),
        d1=lambda p: p / np.sqrt(p * p + 1.0),
        d2=lambda p: 1.0 / np.sqrt(p * p + 1.0) ** 3,
        label="sqrt(p^2+1)",
    )
    pair = InteractionTriple(
        value=lambda r: r, d1=lambda r: 1.0, d2=lambda r: 0.0, label="r"
    )
    return SystemSpec(
        N=2, D=3, kinetic=kin, onebody=InteractionTriple.zero(), pairwise=pair,
        label="semirelativistic pair",
    )


_NUMPY_TRIPLE_SPECS = {
    "gaussian": lambda: gaussian_system(GaussianParams(m=1.0, V0=5.0, R=2.0), 2),
    "np_sqrt": _semirelativistic_pair,
}


def _locals_at_return(fn, call) -> list[dict]:
    """The locals of every run of fn during call(), read as it returns."""
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is fn.__code__:
            seen.append(dict(frame.f_locals))

    prev = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(prev)
    return seen


@pytest.mark.parametrize("name", sorted(_NUMPY_TRIPLE_SPECS))
class TestFloatArithmetic:
    """Triples written with np.* return numpy scalars on scalar input.

    The solver converts each such result to float where it enters its
    own arithmetic, so Brent, the residual check, the root selection and
    the orbit terms of phi all compute in Python floats.
    """

    def test_brent_sees_floats(self, name, monkeypatch):
        spec, values = _NUMPY_TRIPLE_SPECS[name](), []
        brent = et_core._brent

        def recording(f, a, b, **kwargs):
            def g(r):
                values.append(f(r))
                return values[-1]
            return brent(g, a, b, **kwargs)

        monkeypatch.setattr(et_core, "_brent", recording)
        energy(spec, 1.5)
        assert values and all(type(v) is float for v in values)

    def test_residual_and_energy_are_floats(self, name):
        spec = _NUMPY_TRIPLE_SPECS[name]()
        r0 = solve_radius(spec, 1.5)
        assert type(et_core._energy_at(spec, 1.5, r0)) is float
        seen = _locals_at_return(et_core._check_residual, lambda: solve_radius(spec, 1.5))
        assert seen
        for frame in seen:
            assert [type(frame[k]) for k in ("lhs", "rhs", "scale")] == [float] * 3

    def test_orbit_terms_compute_in_floats(self, name):
        spec = _NUMPY_TRIPLE_SPECS[name]()
        seen = _locals_at_return(dos._orbit_terms, lambda: dos.compute_phi(spec, 1.5))
        assert len(seen) == 1
        terms = {k: type(v) for k, v in seen[0].items() if k != "spec"}
        assert set(terms) >= {"t1", "t2", "u1", "u2", "v1", "v2", "stiffness", "b_n", "b_d"}
        assert terms == dict.fromkeys(terms, float)


class TestBrent:
    @pytest.mark.parametrize("root", [3e-6, 2.7e-3, 1.0, 7.3e2, 4e5])
    def test_relative_precision_at_every_scale(self, root):
        x = et_core._brent(lambda r: r**3 - root**3, 0.1 * root, 10.0 * root)
        assert abs(x - root) <= 8.0 * np.finfo(float).eps * root

    def test_endpoint_root_is_returned(self):
        assert et_core._brent(lambda r: r - 2.0, 2.0, 5.0) == 2.0
        assert et_core._brent(lambda r: r - 5.0, 2.0, 5.0) == 5.0

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError):
            et_core._brent(lambda r: r, 1.0, 2.0)

    def test_known_end_values_are_not_recomputed(self):
        calls = []

        def f(r):
            calls.append(r)
            return r - 1.5

        x = et_core._brent(f, 1.0, 2.0, fa=-0.5, fb=0.5)
        assert x == pytest.approx(1.5, rel=1e-15)
        assert 1.0 not in calls and 2.0 not in calls

    def test_absolute_tolerance_stops_at_a_zero_root(self):
        # a purely relative tolerance cannot be met at x = 0; atol can
        x = et_core._brent(lambda r: r + r**3, -1.0, 0.5, rtol=1e-13, atol=1e-13)
        assert abs(x) <= 2e-13


def test_import_leaves_scipy_unloaded():
    # the root resolves its names lazily: load every one before looking
    code = "import sys; from etkit import *; print([m for m in sys.modules if m.startswith('scipy')])"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
