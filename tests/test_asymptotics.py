"""Deep-water models and the remainder rate-fit harness."""

import math

import mpmath
import numpy as np
import pytest

from stokes_isolas import (
    LEADING_MODELS,
    WAVENUMBER_MODELS,
    AsymptoticModel,
    DegenerateFitError,
    beta1,
    beta1_breakdown,
    fit_remainder_rate,
    leading_term,
    solve_wavenumber,
    wavenumber_asymptote,
)


class TestModels:
    def test_leading_coefficients(self):
        assert LEADING_MODELS[2].coeff == pytest.approx(0.0811898816047911, rel=1e-13)
        assert LEADING_MODELS[2].rate == 0.5
        assert LEADING_MODELS[2].remainder_rate == 0.75
        assert LEADING_MODELS[3].coeff == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-15)
        assert LEADING_MODELS[4].coeff == pytest.approx(-0.8068715304598785, rel=1e-13)
        assert LEADING_MODELS[4].rate == 2.0
        assert LEADING_MODELS[4].remainder_rate == 4.0
        # equivalent closed forms of the p=4 coefficient
        assert LEADING_MODELS[4].coeff == pytest.approx(-5 * math.sqrt(5) / (8 * math.sqrt(3)), rel=1e-15)
        assert LEADING_MODELS[4].coeff == pytest.approx(-5 * math.sqrt(15) / 24, rel=1e-15)

    def test_leading_term_values(self):
        assert leading_term(2, 6.0) == pytest.approx((3 * math.sqrt(3) / 64) * math.exp(-3.0), rel=1e-15)
        assert all(leading_term(3, h) > 0 for h in (0.1, 1.0, 10.0))
        assert all(leading_term(4, h) < 0 for h in (0.1, 1.0, 10.0))

    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            leading_term(5, 1.0)
        with pytest.raises(ValueError):
            wavenumber_asymptote(1, 1.0)

    def test_model_invariant(self):
        with pytest.raises(ValueError):
            AsymptoticModel(1.0, 2.0, 2.0, "remainder not smaller")


BAD_DEPTHS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e4, 10**400]

# The public functions of a depth, as f(p, h): the two module functions, and
# each model's leading and value (which calls leading) taken from its table.
DEPTH_FUNCTIONS = [leading_term, wavenumber_asymptote] + [
    pytest.param(lambda p, h, table=table, method=method: getattr(table[p], method)(h), id=f"{name}.{method}")
    for name, table in (("LEADING_MODELS", LEADING_MODELS), ("WAVENUMBER_MODELS", WAVENUMBER_MODELS))
    for method in ("leading", "value")
]


class TestDepthChecks:
    @pytest.mark.parametrize("f", DEPTH_FUNCTIONS)
    @pytest.mark.parametrize("bad", BAD_DEPTHS)
    def test_float_depth_refused(self, f, bad):
        # was nan, a number or OverflowError: a depth is checked as everywhere else
        shown = "inf" if bad == 10**400 else repr(bad)  # a real beyond the double range reads as inf
        with pytest.raises(ValueError, match=f"^depth must be a positive finite real, got {shown}$"):
            f(2, bad)

    @pytest.mark.parametrize("f", DEPTH_FUNCTIONS)
    @pytest.mark.parametrize("bad", [b for b in BAD_DEPTHS if b != 10**400])
    def test_array_names_its_first_bad_depth(self, f, bad):
        with pytest.raises(ValueError, match=f"^depth must be a positive finite real, got {bad!r}$"):
            f(3, np.array([1.0, 5.0, bad, -2.0, math.nan]))

    @pytest.mark.parametrize("f", [leading_term, wavenumber_asymptote])
    def test_unsupported_p_comes_first(self, f):
        with pytest.raises(ValueError, match="^no closed-form"):
            f(5, math.nan)

    @pytest.mark.parametrize("f", DEPTH_FUNCTIONS)
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_valid_depths_unchanged(self, f, p):
        # an array of depths gives each float's value, bit for bit; tiny and huge depths stay valid
        hs = np.concatenate([np.geomspace(1e-300, 1e300, 61), np.linspace(0.05, 20.0, 1001)])
        assert f(p, hs).tobytes() == np.array([f(p, h) for h in hs.tolist()]).tobytes()
        assert f(p, 1) == f(p, 1.0)


class TestWavenumberAsymptote:
    def test_deep_limits(self):
        assert wavenumber_asymptote(2, 200.0) == 0.25
        assert wavenumber_asymptote(3, 200.0) == 1.0
        assert wavenumber_asymptote(4, 200.0) == 2.25

    def test_p4_value(self):
        assert wavenumber_asymptote(4, 5.0) == 2.25 - 7.5 * math.exp(-10.0)

    def test_p3_h4_distance(self):
        diff = abs(solve_wavenumber(3, 4.0) - wavenumber_asymptote(3, 4.0))
        assert diff <= 10.0 * math.exp(-12.0)


class TestRateFitHarness:
    def test_synthetic_recovers_hidden_rate(self):
        # f = c e^{-r h} + d e^{-s h}: the fit must recover s within 2%
        c, r, d, s = 0.7, 1.0, 0.4, 3.0
        f = lambda h: c * math.exp(-r * h) + d * math.exp(-s * h)
        model = AsymptoticModel(c, r, s, "synthetic")
        est, flagged = fit_remainder_rate(f, model, 2.0, 4.0)
        assert not flagged
        assert est == pytest.approx(s, rel=0.02)

    def test_degenerate_zero_remainder(self):
        model = AsymptoticModel(1.0, 1.0, 2.0, "exact")
        f = lambda h: math.exp(-h)
        with pytest.raises(DegenerateFitError):
            fit_remainder_rate(f, model, 1.0, 2.0)

    def test_floor_flag_near_floor(self):
        # a remainder within 10x of the 8-ulp floor must raise the flag
        model = AsymptoticModel(1.0, 0.5, 1.0, "near floor")
        f = lambda h: math.exp(-0.5 * h) + 5e-15 * math.exp(-0.8 * h)
        est, flagged = fit_remainder_rate(f, model, 1.0, 2.0)
        assert flagged

    @pytest.mark.parametrize("kind", [float, mpmath.mpf], ids=["float", "mpf"])
    @pytest.mark.parametrize("offset", [1e-15, 1e-13], ids=["flagged", "unflagged"])
    def test_default_floor_is_eight_ulps_of_f_and_model(self, kind, offset):
        # None takes the package's cancellation floor of f, read as a float, and of the model
        model = AsymptoticModel(1.0, 0.5, 1.0, "m")
        f = lambda h: kind(model.value(h) + offset * h)
        floor = lambda h: 8.0 * math.ulp(max(abs(float(f(h))), abs(model.value(h))))
        assert fit_remainder_rate(f, model, 1.0, 2.0) == fit_remainder_rate(f, model, 1.0, 2.0, floor=floor)
        assert fit_remainder_rate(f, model, 1.0, 2.0)[1] == (offset == 1e-15)

    def test_int_f_takes_the_default_floor(self):
        model = AsymptoticModel(1.0, 0.5, 1.0, "m")
        assert fit_remainder_rate(lambda h: 1, model, 1.0, 2.0) == fit_remainder_rate(lambda h: 1.0, model, 1.0, 2.0)

    def test_bad_depth_order(self):
        model = AsymptoticModel(1.0, 1.0, 2.0, "m")
        with pytest.raises(ValueError):
            fit_remainder_rate(lambda h: 0.5 * math.exp(-h), model, 3.0, 3.0)


class TestCoefficientRates:
    def test_p2_remainder_rate(self):
        floor = lambda h: beta1_breakdown(2, h).cancellation_floor
        rate, flagged = fit_remainder_rate(lambda h: beta1(2, h), LEADING_MODELS[2], 5.0, 7.0, floor=floor)
        assert not flagged
        assert rate >= 0.65

    def test_p3_remainder_rate(self):
        # fitted at (5,7): the remainder changes sign near h ~ 4.1, which
        # poisons two-point fits bracketing that depth
        floor = lambda h: beta1_breakdown(3, h).cancellation_floor
        rate, flagged = fit_remainder_rate(lambda h: beta1(3, h), LEADING_MODELS[3], 5.0, 7.0, floor=floor)
        assert not flagged
        assert rate >= 2.9

    def test_p4_remainder_rate(self):
        floor = lambda h: beta1_breakdown(4, h).cancellation_floor
        rate, flagged = fit_remainder_rate(lambda h: beta1(4, h), LEADING_MODELS[4], 4.0, 6.0, floor=floor)
        assert not flagged
        assert rate >= 3.9

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_ratio_windows(self, p):
        assert beta1(p, 8.0) / leading_term(p, 8.0) == pytest.approx(1.0, abs=0.1)
        assert beta1(p, 12.0) / leading_term(p, 12.0) == pytest.approx(1.0, abs=0.03)

    def test_floor_honesty_deep_p4(self):
        # beyond h ~ 16 double precision cannot resolve the p=4 coefficient:
        # the fit must say so instead of reporting garbage silently
        floor = lambda h: beta1_breakdown(4, h).cancellation_floor
        rate, flagged = fit_remainder_rate(lambda h: beta1(4, h), LEADING_MODELS[4], 16.5, 18.0, floor=floor)
        assert flagged


class TestWavenumberRates:
    def test_p2(self):
        rate, flagged = fit_remainder_rate(lambda h: solve_wavenumber(2, h), WAVENUMBER_MODELS[2], 5.0, 7.0)
        assert not flagged
        assert rate >= 0.6

    def test_p4(self):
        rate, flagged = fit_remainder_rate(lambda h: solve_wavenumber(4, h), WAVENUMBER_MODELS[4], 5.0, 7.0)
        assert not flagged
        assert rate >= 3.5
