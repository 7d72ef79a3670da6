"""Truncated isola model: discriminant signs, band scaling, ellipse identities."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_isolas import (
    IsolaParams,
    band_endpoints,
    beta1,
    discriminant,
    eigenvalue_pair,
    ellipse_points,
    isola,
    isola_geometry,
    omega_star,
    solve_wavenumber,
)

FINITE_FIELDS = ("h", "eps", "beta1", "T1", "y0", "mu0")
NON_FINITE = ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf"), (-(10**400), "-inf"))


def make_params(**over):
    base = dict(p=2, h=3.0, eps=0.1, beta1=0.014111, T1=1.3, E=0.55, y0=0.784, mu0=0.3095)
    base.update(over)
    return IsolaParams(**base)


def longhand_ellipse(params, n):
    # theta, cos and sin computed per call, operation for operation: the held
    # unit circle must give these bytes
    g = params.max_growth
    theta = 2.0 * math.pi * np.arange(n) / n
    pts = np.empty((n, 2))
    pts[:, 0] = g * np.cos(theta)
    pts[:, 1] = params.y0 + (g / params.E) * np.sin(theta)
    return pts


def endpoint_real_tol(params):
    # an endpoint mu = mu0 -+ w round-trips through the O(1)-sized mu0, so
    # nu carries an ulp(mu0)-level error that the square root magnifies
    w = params.half_width
    d_nu = math.ulp(abs(params.mu0) + w)
    d_D = 2.0 * params.T1**2 * w * d_nu + 8 * math.ulp(4.0 * params.max_growth**2)
    return math.sqrt(d_D)


def ellipse_residual_tol(params):
    # y-samples store y0 + s at ulp(y0) granularity, which dominates ulp(g^2)
    g = params.max_growth
    return 8 * math.ulp(g * g) + 4.0 * params.E * g * math.ulp(abs(params.y0) + g / params.E)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_params(eps=0.0)
        with pytest.raises(ValueError):
            make_params(T1=-1.0)
        with pytest.raises(ValueError):
            make_params(E=1.0)
        with pytest.raises(ValueError):
            make_params(E=0.0)
        with pytest.raises(ValueError):
            make_params(p=1)
        for h in (0.0, -3.0):
            with pytest.raises(ValueError, match="h must be positive"):
                make_params(h=h)

    @pytest.mark.parametrize("p", [1, 0, -2, 2.5, 3.0000001, math.nan, math.inf, -math.inf])
    def test_isola_index_refused(self, p):
        with pytest.raises(ValueError, match=f"isola index p must be an integer >= 2, got {p!r}"):
            make_params(p=p)

    def test_integral_float_index(self):
        params = make_params(p=2.0)
        assert type(params.p) is int and params == make_params(p=2)

    @pytest.mark.parametrize("name", ["h", "eps", "beta1", "T1", "y0", "mu0"])
    @pytest.mark.parametrize("value, shown", [
        pytest.param(math.inf, "inf", id="inf"),
        pytest.param(-math.inf, "-inf", id="-inf"),
        pytest.param(math.nan, "nan", id="nan"),
        pytest.param(10**400, "inf", id="10**400"),
        pytest.param(-(10**400), "-inf", id="-10**400"),
    ])
    def test_non_finite_rejected(self, name, value, shown):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {shown}$"):
            make_params(**{name: value})
        if name in ("h", "beta1"):
            # from_depth computes beta1 and refuses a bad h as the beta tables do
            return
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {shown}$"):
            IsolaParams.from_depth(2, 3.0, **{"eps": 0.05, "T1": 1.0, "E": 0.5, name: value})

    @pytest.mark.parametrize("over, named", [
        ({"eps": math.nan, "T1": 10**400, "mu0": math.inf}, "eps must be finite, got nan"),
        ({"eps": 1, "T1": 10**400}, "T1 must be finite, got inf"),
        # one field and every later one non-finite, in turn nan, inf, -inf and reals beyond the double range
        *(({name: NON_FINITE[(i + j) % 5][0] for j, name in enumerate(FINITE_FIELDS[i:])},
           f"{FINITE_FIELDS[i]} must be finite, got {NON_FINITE[i % 5][1]}") for i in range(6)),
    ])
    def test_first_bad_field_named(self, over, named):
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            make_params(**over)

    @pytest.mark.parametrize("over, message", [
        ({"h": 0.0}, "h must be positive, got 0.0"),
        ({"eps": -0.0}, "eps must be positive, got -0.0"),
        ({"T1": -1.0}, "T1 must be positive, got -1.0"),
        ({"E": 1.0}, "E must lie in (0, 1), got 1.0"),
        ({"E": math.nan}, "E must lie in (0, 1), got nan"),
        ({"E": 10**400}, "E must lie in (0, 1), got 1" + "0" * 400),
    ])
    def test_range_refusal_message_pinned(self, over, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_params(**over)

    @pytest.mark.parametrize("value", ["0.1", b"0.1", True], ids=["str", "bytes", "bool"])
    def test_non_number_field_is_refused_by_name(self, value):
        # float() would read it; it is refused where the field is read, ahead of a later non-finite field
        with pytest.raises(TypeError, match=f"^{re.escape(f'eps must be a real number, got {value!r}')}$"):
            make_params(eps=value, T1=10**400)

    def test_from_depth_defaults(self):
        params = IsolaParams.from_depth(2, 3.0, 0.05, T1=1.0, E=0.5)
        assert params.beta1 == beta1(2, 3.0)
        assert params.mu0 == solve_wavenumber(2, 3.0)
        assert params.y0 == omega_star(2, 3.0)
        override = IsolaParams.from_depth(2, 3.0, 0.05, T1=1.0, E=0.5, y0=9.9, mu0=0.1)
        assert override.y0 == 9.9 and override.mu0 == 0.1

    def test_from_depth_depth_range(self):
        for h in (0.05, 20.0):
            assert IsolaParams.from_depth(4, h, 0.1, T1=1.0, E=0.5).beta1 == beta1(4, h)
        for h in (30.0, 0.001, 0.0499):
            with pytest.raises(ValueError, match=rf"^depth must lie within \[0.05, 20.0\], got h={h!r}$"):
                IsolaParams.from_depth(4, h, 0.1, T1=1.0, E=0.5)

    def test_from_depth_solves_once(self, monkeypatch):
        from stokes_isolas import resonance

        calls = []
        original = resonance.brentq

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(resonance, "brentq", counting)
        IsolaParams.from_depth(4, 2.5, 0.05, T1=1.0, E=0.5)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "over",
        [{"p": 4, "eps": 1e100}, {"beta1": 1e300, "eps": 1e5}, {"T1": 1e-320}, {"E": 1e-320},
         {"T1": 3e-312, "mu0": 1.7e308}, {"T1": 3e-312, "mu0": -1.7e308},
         {"E": 1.4e-312, "y0": 1.7e308}, {"E": 1.4e-312, "y0": -1.7e308}],
        ids=["eps-power", "growth", "half-width", "ordinate", "band-high", "band-low", "top", "bottom"],
    )
    def test_overflowing_model_refused(self, over):
        with pytest.raises(ValueError, match=r"^band ends mu0 -\+ half_width and ellipse extremes y0 \+- "
                                             r"max_growth / E must be finite, got .*\binf\b"):
            make_params(**over)

    def test_max_growth_and_width(self):
        p = make_params()
        assert p.max_growth == abs(p.beta1) * p.eps**2
        assert p.half_width == 2.0 * p.max_growth / p.T1

    def test_half_width_pinned_value(self):
        # reference evaluator: beta(2, 3) = 0.0141111286507391...
        params = IsolaParams.from_depth(2, 3.0, 0.1, T1=1.0, E=0.5)
        assert params.half_width == pytest.approx(2.0 * 0.014111128650739107 * 1e-2, rel=1e-12)


class TestDiscriminant:
    def test_center_value(self):
        p = make_params()
        assert discriminant(0.0, p) == pytest.approx(4.0 * p.max_growth**2, rel=1e-15)
        assert discriminant(0.0, p) > 0.0

    def test_endpoint_zero(self):
        p = make_params()
        scale = 4.0 * p.max_growth**2
        for nu in (+p.half_width, -p.half_width):
            assert abs(discriminant(nu, p)) <= 4 * math.ulp(scale)

    def test_double_endpoint(self):
        p = make_params()
        D = discriminant(2.0 * p.half_width, p)
        assert D == pytest.approx(-12.0 * p.beta1**2 * p.eps**4, rel=1e-13)

    @given(nu=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=100)
    def test_sign_classification(self, nu):
        p = make_params()
        D = discriminant(nu, p)
        margin = 4 * math.ulp(4.0 * p.max_growth**2)
        if abs(nu) < p.half_width * (1 - 1e-9):
            assert D > -margin
        elif abs(nu) > p.half_width * (1 + 1e-9):
            assert D < margin


class TestNonFiniteArgument:
    # was nan, (infj, -infj) or OverflowError: the argument is checked as IsolaParams' fields are
    @pytest.mark.parametrize("f, name", [(discriminant, "nu"), (eigenvalue_pair, "mu")])
    @pytest.mark.parametrize("value, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
        pytest.param(10**400, "inf", id="10**400"), pytest.param(-(10**400), "-inf", id="-10**400"),
    ])
    def test_refused(self, f, name, value, shown):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {shown}$"):
            f(value, make_params())

    # (T1 * nu) ** 2 raises OverflowError past |T1 * nu| ~ 1.3e154, and near the double
    # maximum T1 * nu itself rounds to inf, whose square does not raise
    @pytest.mark.parametrize("f, name", [(discriminant, "nu"), (eigenvalue_pair, "mu")])
    @pytest.mark.parametrize("value", [1e200, -1e200, 1.4e154, 1e308, -1.7e308])
    def test_overflowing_square_refused(self, f, name, value):
        with pytest.raises(ValueError, match=rf"^{name} is too far from the band center: "
                                             rf"T1\^2\*nu\^2 overflows, got {re.escape(repr(value))}$"):
            f(value, make_params())

    def test_largest_square_kept(self):
        params = make_params()
        nu = 1e154  # T1 * nu = 1.3e154, whose square 1.69e308 is finite
        assert discriminant(nu, params) == 4.0 * params.max_growth**2 - (params.T1 * nu) ** 2
        root = math.sqrt((params.T1 * (nu - params.mu0)) ** 2 - 4.0 * params.max_growth**2)
        assert eigenvalue_pair(nu, params) == (complex(0.0, params.y0 + root), complex(0.0, params.y0 - root))


class TestBand:
    def test_endpoints_straddle_center(self):
        p = make_params()
        lo, hi = band_endpoints(p)
        assert lo < p.mu0 < hi
        assert hi - lo == pytest.approx(2.0 * p.half_width, rel=1e-15)

    def test_degenerate_when_beta_vanishes(self):
        p = make_params(beta1=0.0)
        lo, hi = band_endpoints(p)
        assert lo == hi == p.mu0
        geo = isola_geometry(p, 16)
        assert not geo.band_open
        assert geo.max_growth == 0.0

    def test_epsilon_power_scaling_exact(self):
        # doubling eps scales the band width by exactly 2^p in the truncated model
        for p_idx in (2, 3, 4):
            small = make_params(p=p_idx, eps=0.01)
            big = make_params(p=p_idx, eps=0.02)
            assert big.half_width / small.half_width == 2.0**p_idx

    def test_geometry_assembly(self):
        p = make_params()
        geo = isola_geometry(p, 32)
        assert geo.band_open
        assert geo.mu_low < p.mu0 < geo.mu_high
        assert geo.max_growth == p.max_growth
        assert geo.band_width == pytest.approx(2 * p.half_width, rel=1e-15)
        assert geo.ellipse.shape == (32, 2)

    def test_geometry_takes_the_band_ends_and_growth_bit_for_bit(self):
        # seeded sets with T1 and E off the powers of two, then eps whose growth
        # is subnormal or underflows to 0.0 (a closed band at a nonzero beta1)
        rng = random.Random(20261020)
        sets = [dict(p=rng.choice((2, 3, 4)), eps=rng.uniform(1e-3, 0.3), beta1=rng.uniform(-2.0, 2.0),
                     T1=rng.uniform(0.1, 10.0), E=rng.uniform(0.01, 0.99), mu0=rng.uniform(-1.0, 2.0))
                for _ in range(200)]
        sets += [dict(p=4, eps=1e-80, T1=1.3, E=0.55), dict(p=4, eps=1e-90, T1=1.3, E=0.55)]
        for over in sets:
            params = make_params(**over)
            assert math.frexp(params.T1)[0] != 0.5 and math.frexp(params.E)[0] != 0.5
            geo = isola_geometry(params, 16)
            w = 2.0 * (abs(params.beta1) * params.eps**params.p) / params.T1  # the model's half-width, longhand
            expected = (params.mu0 - w, params.mu0 + w)
            assert [x.hex() for x in band_endpoints(params)] == [x.hex() for x in expected]
            assert [x.hex() for x in (geo.mu_low, geo.mu_high)] == [x.hex() for x in expected]
            assert geo.max_growth.hex() == params.max_growth.hex()
        subnormal, zero = make_params(**sets[-2]), make_params(**sets[-1])
        assert 0.0 < subnormal.max_growth < 2.0**-1022  # below the smallest normal double
        assert zero.max_growth == 0.0 and isola_geometry(zero).band_open


class TestEigenvaluePair:
    def test_max_growth_at_center(self):
        p = make_params()
        lam_p, lam_m = eigenvalue_pair(p.mu0, p)
        assert lam_p.real == pytest.approx(p.max_growth, rel=1e-14)
        assert lam_m.real == pytest.approx(-p.max_growth, rel=1e-14)
        assert lam_p.imag == lam_m.imag == p.y0

    def test_recollision_at_endpoints(self):
        p = make_params()
        lo, hi = band_endpoints(p)
        tol = endpoint_real_tol(p)
        for mu in (lo, hi):
            lam_p, lam_m = eigenvalue_pair(mu, p)
            assert abs(lam_p.real) <= tol
            assert abs(lam_m.real) <= tol
            assert abs(lam_p.imag - p.y0) <= tol
            assert abs(lam_m.imag - p.y0) <= tol

    def test_purely_imaginary_outside(self):
        p = make_params()
        lo, hi = band_endpoints(p)
        for mu in (lo - 0.01, hi + 0.01):
            lam_p, lam_m = eigenvalue_pair(mu, p)
            assert lam_p.real == lam_m.real == 0.0
            assert lam_p.imag != lam_m.imag

    def test_conjugate_sum(self):
        p = make_params()
        for mu in (p.mu0, p.mu0 + 0.5 * p.half_width, p.mu0 + 3 * p.half_width):
            lam_p, lam_m = eigenvalue_pair(mu, p)
            assert lam_p + lam_m == pytest.approx(complex(0.0, 2.0 * p.y0), rel=1e-14)

    def test_continuity_across_endpoint(self):
        p = make_params()
        _, hi = band_endpoints(p)
        for delta in (1e-6, 1e-9):
            inside, _ = eigenvalue_pair(hi - delta * p.half_width, p)
            outside, _ = eigenvalue_pair(hi + delta * p.half_width, p)
            assert abs(inside - complex(0, p.y0)) <= 4.0 * p.max_growth * math.sqrt(delta)
            assert abs(outside - complex(0, p.y0)) <= 4.0 * p.max_growth * math.sqrt(delta)

    def test_orthogonal_crossing_surrogate(self):
        # near the endpoint x(mu) behaves like a square root: its finite
        # difference ratio doubles as the distance quarters, while x(mu)^2
        # (= D/4) has a stable nonzero slope
        p = make_params()
        _, hi = band_endpoints(p)
        w = p.half_width

        def x(mu):
            return eigenvalue_pair(mu, p)[0].real

        d1, d2 = 1e-4 * w, 2.5e-5 * w
        slope1 = x(hi - d1) / d1
        slope2 = x(hi - d2) / d2
        assert slope2 / slope1 == pytest.approx(2.0, rel=0.01)

        dsq1 = x(hi - d1) ** 2 / d1
        dsq2 = x(hi - d2) ** 2 / d2
        assert dsq2 / dsq1 == pytest.approx(1.0, rel=0.01)
        assert dsq1 > 0.0


class TestEllipse:
    def test_min_samples(self):
        with pytest.raises(ValueError):
            ellipse_points(make_params(), 4)

    @pytest.mark.parametrize("n", [8.5, math.nan, math.inf, -math.inf, 7.0])
    def test_n_must_be_an_integer_of_at_least_8(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 8, got {n!r}$"):
            ellipse_points(make_params(), n)

    def test_integral_float_n(self):
        assert ellipse_points(make_params(), 8.0).tobytes() == ellipse_points(make_params(), 8).tobytes()

    def test_on_curve_to_rounding(self):
        p = make_params()
        pts = ellipse_points(p, 257)
        g2 = p.max_growth**2
        lhs = pts[:, 0] ** 2 + p.E**2 * (pts[:, 1] - p.y0) ** 2
        assert np.max(np.abs(lhs - g2)) <= ellipse_residual_tol(p)

    def test_symmetry_even_n(self):
        p = make_params()
        n = 64
        pts = ellipse_points(p, n)
        for k in range(n):
            mirror = (n // 2 - k) % n
            assert pts[mirror, 0] == pytest.approx(-pts[k, 0], abs=4 * math.ulp(p.max_growth))
            assert pts[mirror, 1] == pytest.approx(pts[k, 1], abs=4 * math.ulp(abs(p.y0) + p.max_growth / p.E))

    def test_extreme_points(self):
        p = make_params()
        pts = ellipse_points(p, 64)
        assert pts[0, 0] == p.max_growth and pts[0, 1] == p.y0
        assert pts[16, 0] == pytest.approx(0.0, abs=1e-18)
        assert pts[16, 1] == pytest.approx(p.y0 + p.max_growth / p.E, rel=1e-15)
        assert np.max(pts[:, 0]) == p.max_growth
        assert np.max(np.abs(pts[:, 0])) == p.max_growth

    def test_near_circle_limit(self):
        p = make_params(E=1.0 - 1e-9)
        pts = ellipse_points(p, 128)
        radii = np.hypot(pts[:, 0], pts[:, 1] - p.y0)
        assert np.allclose(radii, p.max_growth, rtol=2e-9)

    def test_polygon_area(self):
        p = make_params()
        n = 512
        pts = ellipse_points(p, n)
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        exact = math.pi * p.max_growth**2 / p.E
        assert area == pytest.approx(exact, rel=0.01)

    def test_alternating_n_equals_longhand(self):
        params = make_params()
        for n in (64, 2000, 64, 9, 9, 8.0):
            assert ellipse_points(params, n).tobytes() == longhand_ellipse(params, int(n)).tobytes()
            assert isola_geometry(params, n).ellipse.tobytes() == longhand_ellipse(params, int(n)).tobytes()

    def test_each_call_returns_a_new_writable_array(self):
        params = make_params()
        first = ellipse_points(params, 64)
        assert first.flags.writeable and first.flags.owndata
        first[:] = math.nan
        second = ellipse_points(params, 64)
        assert second is not first and not np.shares_memory(first, second)
        assert second.tobytes() == longhand_ellipse(params, 64).tobytes()
        geo = isola_geometry(params, 64)
        geo.ellipse[:, 1] += 1.0
        assert isola_geometry(params, 64).ellipse.tobytes() == second.tobytes()

    def test_held_circle_is_read_only_and_one_n_only(self):
        ellipse_points(make_params(), 64)
        circle = isola._unit_circle(64)
        assert circle.shape == (64, 2) and not circle.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            circle[0, 0] = 2.0
        ellipse_points(make_params(), 9)
        info = isola._unit_circle.cache_info()
        assert info.maxsize == 1 and info.currsize == 1
        assert isola._unit_circle(9) is isola._unit_circle(9)
        misses = isola._unit_circle.cache_info().misses
        assert isola._unit_circle(64) is not circle
        assert isola._unit_circle.cache_info().misses == misses + 1

    @pytest.mark.parametrize("beta", [0.0, -0.0])
    @pytest.mark.parametrize("y0", [0.784, 0.0, -0.0])
    def test_signed_zeros_of_a_closed_band(self, beta, y0):
        params = make_params(beta1=beta, y0=y0)
        pts = ellipse_points(params, 64)
        expected = longhand_ellipse(params, 64)
        assert pts.tobytes() == expected.tobytes()
        assert np.all(pts[:, 0] == 0.0)
        assert np.array_equal(np.signbit(pts[:, 0]), np.cos(2.0 * math.pi * np.arange(64) / 64) < 0)

    def test_x_halfwidth_equals_max_real_part(self):
        p = make_params()
        pts = ellipse_points(p, 64)
        lam_p, _ = eigenvalue_pair(p.mu0, p)
        assert np.max(pts[:, 0]) == pytest.approx(lam_p.real, rel=1e-14)


@given(
    beta=st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-8, max_value=5.0),
        st.floats(min_value=-5.0, max_value=-1e-8),
    ),
    eps=st.floats(min_value=1e-4, max_value=0.3),
    T1=st.floats(min_value=0.1, max_value=10.0),
    E=st.floats(min_value=1e-3, max_value=0.999),
    p_idx=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=120)
def test_band_properties_random(beta, eps, T1, E, p_idx):
    params = IsolaParams(p=p_idx, h=1.0, eps=eps, beta1=beta, T1=T1, E=E, y0=1.0, mu0=0.5)
    lo, hi = band_endpoints(params)
    # endpoint subtraction resolves the width only to ulp(mu0) granularity
    assert hi - lo == pytest.approx(
        4.0 * abs(beta) * eps**p_idx / T1, rel=1e-12, abs=4 * math.ulp(abs(params.mu0))
    )
    assert discriminant(0.0, params) >= 0.0
    lam_p, lam_m = eigenvalue_pair(params.mu0, params)
    assert lam_p.real == pytest.approx(abs(beta) * eps**p_idx, rel=1e-12, abs=1e-300)
    assert lam_p + lam_m == pytest.approx(complex(0, 2.0), rel=1e-12)
