"""Dispersion kernels: pinned values, algebraic identities, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_isolas import (
    IsolaParams,
    beta1,
    beta_scan,
    eigenvalue_branch,
    find_beta_zeros,
    omega_disp,
    phase_speed,
    t_ratio,
)
from stokes_isolas.dispersion import _ARRAYS, _FLOATS, _SERIES_THRESHOLD, _libm, _tabulate, _tanh, _ulp
from stokes_isolas.resonance import build_resonance_data

# High-precision reference evaluations (>= 50 digits), rounded to double.
PHASE_SPEED_1 = 0.87269362089782969154
OMEGA_QUARTER_10 = 0.49664230039119460029
T_1_3 = 1.0024818319120248132

depths = st.floats(min_value=0.05, max_value=20.0)
wavenumbers = st.floats(min_value=1e-8, max_value=50.0)


class TestPhaseSpeed:
    def test_pinned_value(self):
        assert phase_speed(1.0) == pytest.approx(PHASE_SPEED_1, abs=1e-15)

    def test_deep_water_saturation(self):
        assert phase_speed(50.0) == pytest.approx(1.0, abs=1e-15)

    def test_bounds_and_monotonicity(self):
        # strictly increasing while grid increments stay above one ulp;
        # tanh saturates to 1.0 in doubles beyond h ~ 18.4
        hs = np.linspace(0.05, 15.0, 200)
        cs = [phase_speed(h) for h in hs]
        assert all(0.0 < c < 1.0 for c in cs)
        assert all(a < b for a, b in zip(cs, cs[1:]))
        assert phase_speed(20.0) <= 1.0

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, h):
        with pytest.raises(ValueError):
            phase_speed(h)

    def test_deep_water_expansion_remainder(self):
        # c(h) = 1 - exp(-2h) + O(exp(-4h)): two-point rates ~ 4
        r = {h: phase_speed(h) - (1.0 - math.exp(-2.0 * h)) for h in (4.0, 6.0, 8.0)}
        assert math.log(abs(r[4.0] / r[6.0])) / 2.0 > 3.5
        assert math.log(abs(r[6.0] / r[8.0])) / 2.0 > 3.5


class TestOmega:
    def test_zero_wavenumber(self):
        assert omega_disp(0.0, 2.7) == 0.0

    def test_deep_water_quarter(self):
        # h*phi = 25 is inside the saturation regime
        assert omega_disp(0.25, 100.0) == pytest.approx(0.5, abs=1e-15)

    def test_pinned_value_h10(self):
        val = omega_disp(0.25, 10.0)
        assert val == pytest.approx(OMEGA_QUARTER_10, abs=1e-15)
        assert abs(val - 0.5 * math.sqrt(math.tanh(2.5))) <= 1e-15

    @given(phi=wavenumbers, h=depths)
    def test_square_identity(self, phi, h):
        om = omega_disp(phi, h)
        target = phi * math.tanh(h * phi)
        assert abs(om * om - target) <= 2 * math.ulp(max(target, 1e-300))

    @given(phi=st.floats(min_value=-50, max_value=50), h=depths)
    def test_evenness_exact(self, phi, h):
        assert omega_disp(-phi, h) == omega_disp(phi, h)

    @given(phi=st.floats(min_value=1.0, max_value=50.0), h=depths)
    def test_saturation(self, phi, h):
        if h * phi >= 20.0:
            assert abs(omega_disp(phi, h) - math.sqrt(phi)) <= 2e-16 * math.sqrt(phi)

    def test_monotone_in_phi_and_h(self):
        phis = np.linspace(0.0, 10.0, 300)
        vals = [omega_disp(p, 1.3) for p in phis]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        hs = np.linspace(0.05, 20.0, 300)
        vals = [omega_disp(0.7, h) for h in hs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            omega_disp(math.nan, 1.0)
        with pytest.raises(ValueError):
            omega_disp(1.0, -2.0)


class TestTRatio:
    def test_small_argument_limit(self):
        assert t_ratio(0.0, 4.0) == 0.5

    def test_deep_water(self):
        assert t_ratio(2.25, 60.0) == pytest.approx(1.5, abs=1e-15)

    def test_pinned_value(self):
        assert t_ratio(1.0, 3.0) == pytest.approx(T_1_3, abs=1e-15)

    @given(phi=st.floats(min_value=1e-6, max_value=50.0), h=depths)
    def test_product_identity(self, phi, h):
        # t * Omega = phi exactly in real arithmetic
        assert t_ratio(phi, h) * omega_disp(phi, h) == pytest.approx(phi, rel=1e-13)

    def test_series_branch_crossover(self):
        # both branches agree where the series hands over to the direct formula
        h = 2.0
        for phi in (0.9999e-4 / h, 1.0001e-4 / h):
            direct = math.sqrt(phi / math.tanh(h * phi))
            assert t_ratio(phi, h) == pytest.approx(direct, rel=1e-14)

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError):
            t_ratio(-0.5, 1.0)


class TestEigenvalueBranch:
    def test_origin(self):
        assert eigenvalue_branch(0, -1, 0.0, 3.7) == 0.0

    def test_deep_water_value(self):
        # c -> 1, Omega(1/4) -> 1/2: branch (0, -) at mu = 1/4 tends to 3/4
        assert eigenvalue_branch(0, -1, 0.25, 50.0) == pytest.approx(0.75, abs=1e-10)

    def test_reflection(self):
        # omega^+(-phi) = -omega^-(phi)
        lhs = eigenvalue_branch(0, +1, -0.7, 2.0)
        rhs = -eigenvalue_branch(0, -1, 0.7, 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-15)

    @given(
        j=st.integers(min_value=-3, max_value=3),
        mu=st.floats(min_value=-2, max_value=2),
        h=depths,
    )
    @settings(max_examples=50)
    def test_reflection_property(self, j, mu, h):
        lhs = eigenvalue_branch(j, +1, -mu, h)
        rhs = -eigenvalue_branch(-j, -1, mu, h)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            eigenvalue_branch(0, 2, 0.1, 1.0)

    @pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf, 1.5, -0.5])
    def test_mode_index_must_be_an_integer(self, j):
        with pytest.raises(ValueError, match="need an integer mode index j"):
            eigenvalue_branch(j, 1, 0.1, 1.0)

    def test_integral_float_mode_index(self):
        assert eigenvalue_branch(2.0, 1, 0.1, 1.0) == eigenvalue_branch(2, 1, 0.1, 1.0)


# Arguments where 1 - rint(k) 2^-53, k = (1 - tanh x) / 2^-53 from numpy, is not libm's tanh: k lies within a
# hair of a tie, where only _tanh's margin sends x to libm.  All but the first two come from the 19 that
# default_rng(0).uniform(4.0, 19.1, 10**6) holds.
NEAR_TIES = [6.6607419124648555, 4.000209762934944, 4.421292989801063, 5.4291950339896635, 5.996696724563351,
             4.0162189651435405, 5.691161986024246, 6.865402264604485]


def _undecided(x):
    """Where _tanh's rule leaves x to libm: k is not within 0.5 - k 2^-44 of its nearest integer n."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(-2.0 * x)
        k = 2.0**54 * e / (1.0 + e)
    n = np.rint(k)
    return ~(0.5 - np.abs(k - n) > k * 2.0**-44)


class TestTanhKernel:
    """_tanh: libm's tanh, called on arrays only where the rounding of 1 - tanh x leaves it undecided."""

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(-3.0, 21.9, 257),
            np.linspace(0.0, 60.0, 257),
            np.geomspace(22.0, 1e300, 257),
            np.array([22.0, np.nextafter(22.0, 0.0), np.inf, np.nan, -np.inf, -22.0, -30.0, -0.0, 0.0, 1e-300,
                      -400.0, -1e308, 1e308, 5e-324, -5e-324]),
            np.array([]),
            np.random.default_rng(21).uniform(3.5, 19.1, 1_000_000),
            np.random.default_rng(22).uniform(-50.0, 50.0, 100_000),
            np.array(NEAR_TIES + [19.0615474653985, *np.nextafter(19.0615474653985, [0.0, np.inf])]),
        ],
        ids=["none-saturated", "some-saturated", "all-saturated", "edges", "empty", "near-one", "symmetric",
             "near-ties"],
    )
    def test_arrays_equal_libm_bit_for_bit(self, x):
        th = _tanh(x)
        assert th.dtype == np.float64 and th.shape == x.shape
        assert th.tobytes() == _libm(math.tanh, x).tobytes()

    @pytest.mark.parametrize(
        "x, undecided",
        [
            (np.array([]), 0),
            (np.linspace(4.51, 400.0, 513), 0),  # every rounding decided: libm is not called
            (np.linspace(-3.0, 3.7, 513), 513),  # every element below ~3.8: all to libm
            (np.linspace(-3.0, 30.0, 513), 115),
            (np.array([10.0, -400.0, 12.0]), 1),  # the rule would write NaN at -400
            (np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, np.inf, -np.inf, np.nan,
                       *NEAR_TIES[:5], *np.nextafter(19.0615474653985, [0.0, 19.0615474653985, np.inf])]), 16),
        ],
        ids=["empty", "all-decided", "all-undecided", "mixed", "one-undecided", "digest-edges"],
    )
    def test_each_element_is_math_tanh(self, x, undecided):
        # element by element against math.tanh itself, whichever way each element goes
        assert _undecided(x).sum() == undecided
        th = _tanh(x)
        assert th.shape == x.shape
        assert [v.hex() for v in th.tolist()] == [math.tanh(v).hex() for v in x.tolist()]

    def test_a_2d_array_is_math_tanh_element_by_element(self):
        x = np.random.default_rng(25).uniform(-5.0, 25.0, (7, 301))
        x[3, :8] = NEAR_TIES
        th = _tanh(x)
        assert th.shape == x.shape and 0 < _undecided(x).sum() < x.size
        assert [v.hex() for v in th.ravel().tolist()] == [math.tanh(v).hex() for v in x.ravel().tolist()]

    def test_premise_against_mpmath(self):
        # numpy's k is within 2^-48 relative of the true (1 - tanh x) / 2^-53, and where the rule decides,
        # libm's 1 - tanh x is within half a step (2^-54) plus 2^-50 y of the true y = 1 - tanh x
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.uniform(3.0, 20.0, 3000), rng.uniform(3.0, 350.0, 1000)])
        e = np.exp(-2.0 * x)
        k = 2.0**54 * e / (1.0 + e)
        decided = ~_undecided(x)
        assert decided.sum() > 3000
        with mpmath.workdps(60):
            for xi, ki, rule in zip(x.tolist(), k.tolist(), decided.tolist()):
                y = 2 / (mpmath.exp(2 * mpmath.mpf(xi)) + 1)
                assert abs(ki - y * 2**53) <= 2.0**-48 * y * 2**53, xi
                if rule:
                    assert abs(1 - mpmath.mpf(math.tanh(xi)) - y) <= 2.0**-54 + 2.0**-50 * y, xi

    def test_libm_is_called_exactly_where_undecided(self, monkeypatch):
        calls = []
        libm_tanh = math.tanh
        monkeypatch.setattr(math, "tanh", lambda v: calls.append(v) or libm_tanh(v))
        x = np.array([0.5, 3.0, 3.9, 5.0, 6.6607419124648555, 10.0, 19.0615474653985, 19.1, 22.0, 400.0, 1e308,
                      np.inf, np.nan, -40.0, -1e308, -np.inf, 0.0, -0.0, 5e-324, 4.000209762934944])
        _tanh(x)
        expected = [0.5, 3.0, 3.9, 6.6607419124648555, 19.0615474653985, np.nan, -40.0, -1e308, -np.inf, 0.0, -0.0,
                    5e-324, 4.000209762934944]
        assert np.array(calls).tobytes() == np.array(expected).tobytes()
        # and on a seeded set: one call per undecided element, in order
        calls.clear()
        x = np.random.default_rng(24).uniform(-5.0, 25.0, 100_000)
        _tanh(x)
        assert calls == x[_undecided(x)].tolist()

    def test_floats_stay_libm(self):
        # floats get math.tanh's own values: from the float kernels, and in the single-depth solve's record
        tanh = _FLOATS[0]
        for x in (0.3, 21.5, 22.0, 1e10, -25.0):
            assert type(tanh(x)) is float and tanh(x) == math.tanh(x)
        for p, h in ((2, 0.3), (3, 21.5), (4, 30.0)):
            rd = build_resonance_data(p, h)
            assert rd.c == math.sqrt(math.tanh(h))
            q = [j + rd.phi_star for j in range(p + 1)]
            assert rd.Omega.tolist() == [math.sqrt(x * math.tanh(h * x)) for x in q]

    def test_libm_saturates_from_tanh_one(self):
        # libm's tanh is exactly 1.0 on [19.1, inf], as _tanh's rule gives there
        xs = np.geomspace(19.1, 1e308, 100_001).tolist()
        assert (xs[0], xs[-1]) == (19.1, 1e308)
        # densely where 1 - tanh(x) is closest to half an ulp under 1.0, and each end's neighbours
        dense = np.linspace(19.1, 22.0, 1_000_001).tolist()
        ends = [np.nextafter(x, d).item() for x in (19.1, 22.0) for d in (0.0, math.inf)]
        assert all(math.tanh(x) == 1.0 for x in xs + dense + ends)
        assert math.tanh(math.inf) == 1.0


class TestOnePassTabulation:
    """_tabulate over rows of wavenumbers: every harmonic of every depth in one pass, the floats' doubles."""

    @pytest.mark.parametrize("series", [True, False], ids=["series", "no-series"])
    @pytest.mark.parametrize("n", range(9))
    def test_rows_equal_floats_at_each_depth(self, n, series):
        rng = np.random.default_rng(n)
        h, phi = rng.uniform(0.05, 20.0, 40), rng.uniform(0.0, 10.0, 40)
        if series:
            h = np.concatenate([h, [1e-300, 1e-9, 3e-5, 19.1, 1e300]])
            phi = np.concatenate([phi, [0.0, 2e-6, 1.0, 2.25, 3.5]])
        # h * phi < _SERIES_THRESHOLD at the small depths and wavenumbers: the series branch, row 0 and up
        in_series = ((h * phi < _SERIES_THRESHOLD) & (h > 0.0)).sum()
        assert in_series >= 3 if series else in_series == 0
        rows = np.arange(n + 1)[:, None] + phi
        with np.errstate(over="ignore"):
            (Omega,), (t,) = _tabulate(0, h, rows, _ARRAYS)
        assert Omega.shape == t.shape == (n + 1, h.size)
        for i, (hi, phii) in enumerate(zip(h.tolist(), phi.tolist())):
            Omega_i, t_i = _tabulate(n, hi, phii, _FLOATS)
            assert Omega[:, i].tobytes() == np.array(Omega_i).tobytes(), (n, hi, phii)
            assert t[:, i].tobytes() == np.array(t_i).tobytes(), (n, hi, phii)

    def test_one_tanh_call(self, monkeypatch):
        import stokes_isolas.dispersion as dispersion

        calls = []
        kernels = (lambda x: calls.append(x.shape) or dispersion._tanh(x), *_ARRAYS[1:])
        h, phi = np.linspace(0.5, 5.0, 50), np.linspace(0.1, 3.0, 50)
        _tabulate(0, h, np.arange(5)[:, None] + phi, kernels)
        assert calls == [(5, 50)]


class TestUlpKernel:
    """_ulp: math.ulp's values over arrays, from np.spacing where that is the same double."""

    def test_arrays_equal_libm_bit_for_bit(self):
        # every bit pattern with the sign bit clear: subnormals, the largest double, inf and NaNs included
        bits = np.random.default_rng(3).integers(0, 2**63, 100_000, dtype=np.uint64)
        edges = np.array([0.0, 5e-324, 1.0, np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0), np.inf, np.nan])
        x = np.concatenate([bits.view(np.float64), edges])
        assert _ulp(x).tobytes() == _libm(math.ulp, x).tobytes()
        assert _ulp(np.array([])).shape == (0,)

    def test_floats_stay_libm(self):
        for x in (0.0, 1.0, 1e308, math.inf):
            assert type(_ulp(x)) is float and _ulp(x) == math.ulp(x)


BEYOND = 10**400  # an int no double can hold: float() raises OverflowError


class TestBeyondDoubleRange:
    """A real beyond the double range reads as +-inf and is refused with the usual ValueError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: beta1(2, BEYOND), "depth must be a positive finite real, got inf"),
            (lambda: beta_scan(2, [BEYOND]), r"scan grid must lie within .*, got h=inf"),
            (lambda: beta_scan(2, np.array([1.0, -BEYOND], dtype=object)), r"scan grid must lie within .*, got h=-inf"),
            (lambda: beta_scan(2, (h for h in [1.0, 25.0, BEYOND])), r"scan grid must lie within .*, got h=25.0"),
            (lambda: find_beta_zeros(2, 1.0, BEYOND), "depth must be a positive finite real, got inf"),
            (lambda: IsolaParams.from_depth(2, BEYOND, 0.05, 1.0, 0.5), r"scan grid must lie within .*, got h=inf"),
            (lambda: IsolaParams(p=2, h=1.0, eps=BEYOND, beta1=1.0, T1=1.0, E=0.5, y0=1.0, mu0=0.5),
             "eps must be finite, got inf"),
            (lambda: phase_speed(BEYOND), "depth must be a positive finite real, got inf"),
            (lambda: phase_speed(-BEYOND), "depth must be a positive finite real, got -inf"),
            (lambda: omega_disp(BEYOND, 1.0), "phi must be finite, got inf"),
            (lambda: eigenvalue_branch(2**1100, 1, 0.1, 1.0), "need an integer mode index j"),
        ],
        ids=["beta1", "beta_scan", "beta_scan-object-array", "beta_scan-first-refused", "find_beta_zeros",
             "from_depth", "IsolaParams-eps", "phase_speed", "phase_speed-negative", "omega_disp",
             "eigenvalue_branch"],
    )
    def test_refused_with_value_error(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
