"""Dispersion kernels: pinned values, algebraic identities, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_isolas import eigenvalue_branch, omega_disp, phase_speed, t_ratio
from stokes_isolas.dispersion import _FLOATS, _TANH_ONE, _libm, _tanh
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


class TestTanhKernel:
    """_tanh: libm's tanh, called on arrays only where it is not already 1.0."""

    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(-3.0, 21.9, 257),
            np.linspace(0.0, 60.0, 257),
            np.geomspace(22.0, 1e300, 257),
            np.array([22.0, np.nextafter(22.0, 0.0), np.inf, np.nan, -np.inf, -22.0, -30.0, -0.0, 0.0, 1e-300]),
            np.array([]),
        ],
        ids=["none-saturated", "some-saturated", "all-saturated", "edges", "empty"],
    )
    def test_arrays_equal_libm_bit_for_bit(self, x):
        th = _tanh(x)
        assert th.dtype == np.float64 and th.shape == x.shape
        assert th.tobytes() == _libm(math.tanh, x).tobytes()

    def test_libm_is_called_only_below_22(self, monkeypatch):
        calls = []
        libm_tanh = math.tanh
        monkeypatch.setattr(math, "tanh", lambda v: calls.append(v) or libm_tanh(v))
        x = np.array([0.5, 22.0, np.nextafter(22.0, 0.0), np.inf, np.nan, 40.0, -40.0])
        _tanh(x)
        assert len(calls) == 4 and calls[:2] == [0.5, np.nextafter(22.0, 0.0)]
        assert math.isnan(calls[2]) and calls[3] == -40.0

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

    def test_libm_saturates_from_22(self):
        # the premise of _tanh: libm's tanh is exactly 1.0 on [22, inf]
        xs = np.geomspace(_TANH_ONE, 1e308, 100_001).tolist()
        assert (xs[0], xs[-1]) == (22.0, 1e308)
        assert all(math.tanh(x) == 1.0 for x in xs)
        assert math.tanh(math.inf) == 1.0
