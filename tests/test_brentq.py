"""The scalar Brent port: bit parity with scipy's brentq, and its typed errors.

``resonance.brentq`` replaces ``scipy.optimize.brentq`` in the phi* solve
and the zero refinement.  It must return the very double scipy returns, so
the parity tests compare the two on the package's own residuals; scipy is
needed only here (it is in the ``test`` extra, not a run-time dependency).
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokes_isolas import beta1, resonance, solve_wavenumber
from stokes_isolas.errors import SolverError
from stokes_isolas.resonance import brentq

from test_beta import ORACLE_ZEROS

# The brackets below, up to 0.3 either side, each hold one critical depth.
ZEROS = [(p, h) for p, depths in ORACLE_ZEROS.items() for h in depths]


def _scipy_brentq(optimize):
    """scipy's brentq behind the port's signature, with f at its root; checks the passed end values."""

    def solve(f, xa, xb, fa, fb, xtol):
        assert (fa, fb) == (f(xa), f(xb))
        root = optimize.brentq(f, xa, xb, xtol=xtol)
        return root, f(root)

    return solve


class TestScipyParity:
    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(2, 8), log_h=st.floats(-6.0, 3.0))
    def test_phi_star(self, p, log_h):
        optimize = pytest.importorskip("scipy.optimize")
        h = 10.0**log_h
        port = solve_wavenumber(p, h)
        with mock.patch.object(resonance, "brentq", _scipy_brentq(optimize)):
            reference = solve_wavenumber(p, h)
        assert port.hex() == reference.hex()

    @settings(max_examples=40, deadline=None)
    @given(
        zero=st.sampled_from(ZEROS),
        below=st.floats(1e-3, 0.3),
        above=st.floats(1e-3, 0.3),
        log_xtol=st.floats(-12.0, -6.0),
    )
    def test_beta1_refinement(self, zero, below, above, log_xtol):
        optimize = pytest.importorskip("scipy.optimize")
        (p, h0), xtol = zero, 10.0**log_xtol
        lo, hi = h0 - below, h0 + above
        f = lambda h: beta1(p, h)
        port, _ = brentq(f, lo, hi, f(lo), f(hi), xtol)
        assert port.hex() == optimize.brentq(f, lo, hi, xtol=xtol).hex()

    @settings(max_examples=200, deadline=None)
    @given(
        root=st.floats(-2.0, 2.0),
        curvature=st.floats(0.0, 5.0),
        flat=st.floats(0.0, 3.0),
        log_xtol=st.floats(-300.0, -1.0),
        log_scale=st.floats(-300.0, 300.0),
    )
    def test_generic_functions(self, root, curvature, flat, log_xtol, log_scale):
        # Increasing smooth, flat and jumping shapes drive the interpolation,
        # extrapolation and bisection branches in turn; tiny and huge scales
        # make the extrapolation's divisor underflow to 0 or overflow.  A pure
        # jump with a tiny xtol needs more than maxiter bisections; then both
        # must fail.
        optimize = pytest.importorskip("scipy.optimize")
        scale = 10.0**log_scale
        f = lambda x: scale * ((x - root) * (flat + curvature * (x - root) ** 2) + math.copysign(1e-3, x - root))
        xa, xb, xtol = -3.0, 3.0, 10.0**log_xtol
        try:
            port = brentq(f, xa, xb, f(xa), f(xb), xtol)[0].hex()
        except SolverError:
            port = "no convergence"
        try:
            reference = optimize.brentq(f, xa, xb, xtol=xtol).hex()
        except RuntimeError:
            reference = "no convergence"
        assert port == reference


class TestEndValues:
    def test_ends_are_not_evaluated(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3

        brentq(f, 0.0, 1.0, -0.3, 0.7, 1e-12)
        assert calls and 0.0 not in calls and 1.0 not in calls

    def test_zero_at_an_end_is_the_root(self):
        never = lambda x: pytest.fail("f evaluated")
        assert brentq(never, 0.5, 1.0, 0.0, 1.0, 1e-12) == (0.5, 0.0)
        assert brentq(never, 0.5, 1.0, -1.0, -0.0, 1e-12) == (1.0, -0.0)


class TestSolverErrors:
    @pytest.mark.parametrize("fa, fb", [(math.nan, 1.0), (-1.0, math.nan), (math.nan, math.nan)])
    def test_nan_at_an_end(self, fa, fb):
        with pytest.raises(SolverError, match="NaN"):
            brentq(lambda x: x, 0.0, 1.0, fa, fb, 1e-12)

    def test_nan_inside(self):
        with pytest.raises(SolverError, match="NaN"):
            brentq(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0, 1e-12)

    @pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -2.0), (-1.0, -math.inf)])
    def test_same_sign_ends(self, fa, fb):
        with pytest.raises(SolverError, match="same sign") as info:
            brentq(lambda x: x, 0.0, 1.0, fa, fb, 1e-12)
        assert info.value.bracket == (0.0, 1.0)

    def test_maxiter_reached(self, monkeypatch):
        f = lambda x: math.cos(x) - x
        root, residual = brentq(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
        assert root == pytest.approx(0.7390851332151607, abs=1e-11)
        assert residual == f(root)
        monkeypatch.setattr(resonance, "_MAXITER", 3)
        with pytest.raises(SolverError, match="did not converge in 3 steps"):
            brentq(f, 0.0, 1.0, f(0.0), f(1.0), 1e-12)
