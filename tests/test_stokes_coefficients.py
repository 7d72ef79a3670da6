"""Potential coefficients: deep-water limits, pinned values, expansion rates."""

import math

import numpy as np
import pytest

from stokes_isolas import SingularityError, stokes_coefficients

# Reference evaluation at h = 1 (50 digits, rounded to double).
PINNED_H1 = {
    "c": 0.87269362089782969154,
    "p1": -2.2917550353380540166,
    "p2": -4.6432656760099037452,
    "a1": -2.0746294414550961918,
    "a2": -6.0135072714925215733,
    "p3": -11.4682487553654427,
    "a3": -15.339940101141695101,
    "p4": -32.679520227832390365,
    "a4": -42.374014142845916031,
}

# Two-term deep-water expansions coeff0 + coeff1 * exp(-2h) (a1's first
# correction is already O(exp(-4h)), so its second coefficient is 0).
DEEP_WATER = {
    "p1": (-2.0, -2.0),
    "p2": (-2.0, -12.0),
    "a1": (-2.0, 0.0),
    "a2": (-2.0, -20.0),
    "p3": (-3.0, -28.0),
    "a3": (-3.0, -35.0),
    "p4": (-16.0 / 3.0, -605.0 / 9.0),
    "a4": (-16.0 / 3.0, -698.0 / 9.0),
}


def test_pinned_values_h1():
    sc = stokes_coefficients(1.0)
    for name, expected in PINNED_H1.items():
        assert getattr(sc, name) == pytest.approx(expected, rel=1e-14), name


def test_deep_water_limits():
    sc = stokes_coefficients(30.0)  # tanh(30) rounds to 1.0
    assert sc.a1 == pytest.approx(-2.0, abs=1e-14)
    assert sc.p1 == pytest.approx(-2.0, abs=1e-14)
    assert sc.a2 == pytest.approx(-2.0, abs=1e-14)
    assert sc.p2 == pytest.approx(-2.0, abs=1e-14)
    assert sc.a3 == pytest.approx(-3.0, abs=1e-14)
    assert sc.p3 == pytest.approx(-3.0, abs=1e-14)
    assert sc.a4 == pytest.approx(-16.0 / 3.0, abs=1e-14)
    assert sc.p4 == pytest.approx(-16.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("name", sorted(DEEP_WATER))
def test_expansion_remainder_rate(name):
    # remainder after the two-term expansion is O(exp(-4h))
    c0, c1 = DEEP_WATER[name]
    r = {}
    for h in (4.0, 6.0, 8.0):
        sc = stokes_coefficients(h)
        r[h] = getattr(sc, name) - (c0 + c1 * math.exp(-2.0 * h))
    assert math.log(abs(r[4.0] / r[6.0])) / 2.0 >= 3.5, name
    assert math.log(abs(r[6.0] / r[8.0])) / 2.0 >= 3.5, name


def test_a1_bound():
    # a1 = -(c^2 + c^-2) <= -2 with equality only in the deep-water limit
    for h in np.linspace(0.05, 20.0, 100):
        sc = stokes_coefficients(float(h))
        assert sc.a1 <= -2.0
        assert sc.a1 == pytest.approx(-(sc.c**2 + sc.c**-2), rel=1e-15)
    assert stokes_coefficients(30.0).a1 == pytest.approx(-2.0, abs=1e-14)


def test_monotone_in_h_regression_guard():
    # observed behavior: every coefficient increases toward its deep-water
    # limit (grid capped at h = 8; a1's increments sink below one ulp beyond)
    hs = np.linspace(2.0, 8.0, 50)
    scs = [stokes_coefficients(float(h)) for h in hs]
    for name in ("a1", "a2", "a3", "a4", "p1", "p2", "p3", "p4"):
        vals = [getattr(sc, name) for sc in scs]
        assert all(a < b for a, b in zip(vals, vals[1:])), name


def test_accessors():
    sc = stokes_coefficients(2.0)
    assert sc.a(1) == sc.a1 and sc.a(4) == sc.a4
    assert sc.p(2) == sc.p2 and sc.p(3) == sc.p3


def test_domain_error():
    with pytest.raises(ValueError):
        stokes_coefficients(0.0)
    with pytest.raises(ValueError):
        stokes_coefficients(-3.0)


def test_zero_denominator_is_singular():
    # c**4 underflows below h ~ 2.7e-33; a denominator of 0.0 is refused, not divided by
    with pytest.raises(SingularityError, match="underflows to 0.0"):
        stokes_coefficients(1e-40)


def test_shallow_values_finite():
    # coefficients blow up but remain representable well below h = 0.05
    sc = stokes_coefficients(0.01)
    for name in ("a1", "a2", "a3", "a4", "p1", "p2", "p3", "p4"):
        assert math.isfinite(getattr(sc, name))
