"""Critical wavenumber solver and resonance data: pinned values + invariants."""

import contextlib
import io
import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from stokes_isolas import (
    build_resonance_data,
    eigenvalue_branch,
    omega_disp,
    omega_star,
    phase_speed,
    resonance_residual,
    solve_wavenumber,
    t_ratio,
    wavenumber_asymptote,
)
from stokes_isolas import resonance
from stokes_isolas.cli import main
from stokes_isolas.dispersion import _SERIES_THRESHOLD
from stokes_isolas.errors import SolverError
from stokes_isolas.resonance import _resonance_grid

# Reference evaluator values (50-digit bisection), rounded to double.
PHI_2_10 = 0.25241594837813845756
RESIDUAL_QUARTER_2_10 = -0.0033576954864981591281
PHI_3_2 = 0.95594198506394818842
OMEGA_STAR_3_2 = 1.8951831951177937213
OMEGA_3_2 = (0.95659245398731007083, 1.397990494353440854, 1.7192727129118278523, 1.9889547312878387604)
T_3_2 = (0.99932001457815126003, 1.3991096455691963242, 1.7192979117650559593, 1.9889552652123432217)
PHI_4_8 = 2.2499991559862979033
OMEGA_STAR_4_8 = 3.7499986214443365829


class TestResidual:
    def test_deep_water_root_location(self):
        # sqrt(phi) + sqrt(phi+p) = p at phi = (p-1)^2/4
        for p in (2, 3, 4):
            assert abs(resonance_residual((p - 1) ** 2 / 4.0, p, 50.0)) < 1e-10

    def test_pinned_sign_at_quarter(self):
        # negative residual at 1/4 <=> phi*(2, 10) > 1/4
        val = resonance_residual(0.25, 2, 10.0)
        assert val == pytest.approx(RESIDUAL_QUARTER_2_10, rel=1e-13)
        assert val < 0.0

    def test_strictly_increasing(self):
        for p, h in [(2, 0.5), (3, 2.0), (4, 10.0)]:
            phis = np.linspace(0.01, 6.0, 500)
            vals = [resonance_residual(x, p, h) for x in phis]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_phi(self):
        with pytest.raises(ValueError):
            resonance_residual(0.0, 2, 1.0)


class TestSolveWavenumber:
    def test_pinned_p2_h10(self):
        assert solve_wavenumber(2, 10.0) == pytest.approx(PHI_2_10, abs=2e-15)

    def test_p3_h6_against_expansion(self):
        # phi(3,h) = 1 - (8/3) e^{-2h} (1 + o(1/h e^{-h}))
        corr = (8.0 / 3.0) * math.exp(-12.0)
        assert abs(solve_wavenumber(3, 6.0) - (1.0 - corr)) <= 0.01 * corr

    def test_p4_h5_against_expansion(self):
        # phi(4,h) = 9/4 - (15/2) e^{-2h} + O(e^{-4h})
        phi = solve_wavenumber(4, 5.0)
        assert abs(phi - (2.25 - 7.5 * math.exp(-10.0))) <= 50.0 * math.exp(-20.0)

    def test_residual_meets_tol(self):
        for p, h in [(2, 0.1), (3, 7.0), (4, 15.0)]:
            phi = solve_wavenumber(p, h)
            assert abs(resonance_residual(phi, p, h)) <= 1e-13

    def test_extreme_depths(self):
        # documented working range of the bracket expansion
        assert 0.0 < solve_wavenumber(2, 1e-3) < 1e-5
        assert solve_wavenumber(2, 1e3) == pytest.approx(0.25, abs=1e-12)

    def test_representative_in_brillouin_range(self):
        for p in (2, 3, 4):
            phi = solve_wavenumber(p, 1.7)
            assert 0.0 < phi < p + 1
            assert 0.0 <= phi % 1.0 < 1.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_wavenumber(1, 1.0)
        with pytest.raises(ValueError):
            solve_wavenumber(2, -1.0)

    def test_uniqueness_single_sign_change(self):
        # residual changes sign exactly once on [phi*/4, 4 phi* + p]
        for p, h in [(2, 1.0), (3, 4.0), (4, 0.3)]:
            phi = solve_wavenumber(p, h)
            grid = np.linspace(phi / 4.0, 4.0 * phi + p, 10_000)
            signs = np.sign([resonance_residual(x, p, h) for x in grid])
            flips = np.nonzero(np.diff(signs))[0]
            assert len(flips) == 1

    def test_deep_water_remainder_decay(self):
        # remainder after the two-term expansion keeps shrinking faster than
        # the leading correction
        r = {h: solve_wavenumber(2, h) - wavenumber_asymptote(2, h) for h in (4.0, 6.0)}
        assert abs(r[6.0] / r[4.0]) <= 1.5 * math.exp(-0.7 * 2 * 0.25)
        for p in (3, 4):
            r = {h: solve_wavenumber(p, h) - wavenumber_asymptote(p, h) for h in (5.0, 7.0)}
            rate = math.log(abs(r[5.0] / r[7.0])) / 2.0
            assert rate >= 2.2


class TestResonanceData:
    def test_pinned_p3_h2(self):
        rd = build_resonance_data(3, 2.0)
        assert rd.phi_star == pytest.approx(PHI_3_2, rel=1e-14)
        assert rd.omega_star == pytest.approx(OMEGA_STAR_3_2, rel=1e-13)
        for j in range(4):
            assert rd.Omega[j] == pytest.approx(OMEGA_3_2[j], rel=1e-13)
            assert rd.t[j] == pytest.approx(T_3_2[j], rel=1e-13)

    def test_internal_consistency(self):
        for p, h in [(2, 0.4), (3, 2.0), (4, 11.0)]:
            rd = build_resonance_data(p, h)
            c = phase_speed(h)
            assert abs(rd.residual) <= 1e-12
            for j in range(p + 1):
                assert rd.Omega[j] == pytest.approx(omega_disp(j + rd.phi_star, h), abs=1e-14)
                assert rd.t[j] == pytest.approx(t_ratio(j + rd.phi_star, h), abs=1e-14)
            up = c * rd.phi_star + rd.Omega[0]
            down = c * (p + rd.phi_star) - rd.Omega[p]
            assert abs(up - down) <= 1e-12
            assert rd.omega_star == pytest.approx(up, abs=1e-14)

    def test_deep_water_arrays(self):
        rd = build_resonance_data(2, 40.0)
        assert np.allclose(rd.Omega, [0.5, math.sqrt(5) / 2, 1.5], atol=1e-8)
        assert np.allclose(rd.t, [0.5, math.sqrt(5) / 2, 1.5], atol=1e-8)
        rd = build_resonance_data(4, 40.0)
        expected = [1.5, math.sqrt(13) / 2, math.sqrt(17) / 2, math.sqrt(21) / 2, 2.5]
        assert np.allclose(rd.Omega, expected, atol=1e-8)

    def test_collision_identity_grid(self):
        for p in (2, 3, 4):
            for h in np.linspace(0.1, 15.0, 16):
                rd = build_resonance_data(p, float(h))
                lam_minus = eigenvalue_branch(0, -1, rd.phi_star, float(h))
                lam_plus = eigenvalue_branch(p, +1, rd.phi_star, float(h))
                assert abs(lam_minus - lam_plus) <= 1e-12

    def test_phase_speed_of_the_solve(self):
        hs = [0.05, 1.0, 20.0]
        grid = _resonance_grid(3, hs)
        assert grid.c.tolist() == [phase_speed(h) for h in hs] == [build_resonance_data(3, h).c for h in hs]

    def test_single_depth_records_compare(self):
        one = build_resonance_data(2, 1.0)
        assert (one == build_resonance_data(2, 1.0)) is True
        assert (one == build_resonance_data(2, 1.5)) is False
        assert (one == build_resonance_data(3, 1.0)) is False
        assert (one == replace(one, c=math.nextafter(one.c, 1.0))) is False
        assert (one != build_resonance_data(2, 1.0)) is False

    def test_grid_records_compare(self):
        grid = _resonance_grid(2, [1.0, 2.0])
        assert (grid == _resonance_grid(2, [1.0, 2.0])) is True
        assert (grid == _resonance_grid(2, [1.0, 2.5])) is False
        assert (grid == _resonance_grid(3, [1.0, 2.0])) is False
        assert (grid == build_resonance_data(2, 1.0)) is False
        assert (grid == "not a record") is False


class TestChecksOnce:
    @pytest.mark.parametrize("p, h", [(2, 0.05), (3, 1.0), (4, 20.0)])
    def test_beta1_checks_its_inputs_once(self, monkeypatch, p, h):
        from stokes_isolas import beta, beta1, dispersion

        calls = []

        def counting(name, original):
            def counted(*args):
                calls.append(name)
                return original(*args)

            return counted

        # every module that holds one of these names, so a check reached through any of them counts
        for module in (dispersion, resonance, beta):
            for name in ("_check_depth", "_check_index", "_phase"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        value = beta1(p, h)
        monkeypatch.undo()
        assert sorted(calls) == ["_check_depth", "_check_index", "_phase"]
        assert value == beta1(p, h)

    def test_residual_is_the_acceptance_test(self):
        # the record's residual is f(phi*) itself, the quantity the solve judges:
        # read off the record's tabulation, it equals the public residual at every depth
        cases = [(2, 0.1), (3, 7.0), (4, 15.0), (9, 1e-3)]
        cases += [(p, h) for p in (2, 3, 4) for h in np.geomspace(1e-3, 1e3, 300).tolist()]
        for p, h in cases:
            rd = build_resonance_data(p, h)
            assert rd.residual == resonance_residual(rd.phi_star, p, h)
            assert abs(rd.residual) <= resonance.DEFAULT_TOL


class TestSeriesBranch:
    @pytest.mark.parametrize("p, h_min, h_max", [(2, 0.05, 0.06), (3, 0.03, 0.04), (4, 0.02, 0.03)])
    def test_single_depth_equals_grid_across_the_crossover(self, p, h_min, h_max):
        # t_0 at x = h*phi* below _SERIES_THRESHOLD comes from the series, above it from phi/tanh(x):
        # the float and the array ratio of the one tabulation agree bit for bit on both sides
        hs = np.linspace(h_min, h_max, 201).tolist()
        grid = _resonance_grid(p, hs)
        series = grid.h * grid.phi_star < _SERIES_THRESHOLD
        assert 0 < series.sum() < len(hs)  # both branches are taken
        for i, h in enumerate(hs):
            assert_lane_equals(grid, i, build_resonance_data(p, h))

    def test_subnormal_depths_are_quiet(self):
        # phi/tanh(x) overflows at such depths, only in lanes the series overwrites: no warning, same bits,
        # depth by depth and, padded with ordinary depths, over lanes
        for hs in padded([1e-310, 5e-324]):
            grid = _resonance_grid(2, hs)
            for i, h in enumerate(hs):
                assert_lane_equals(grid, i, build_resonance_data(2, h))


def padded(hs):
    """hs as it is, below _LANES_FROM depths, and followed by ordinary depths up to _LANES_FROM of them."""
    pad = np.linspace(1.0, 20.0, max(resonance._LANES_FROM - len(hs), 0)).tolist()
    assert len(hs) < resonance._LANES_FROM <= len(hs) + len(pad)
    return [hs, hs + pad]


def assert_lane_equals(grid, i, one):
    """Column i of a grid record equals the single-depth record one, field by field, byte for byte."""
    for f in fields(one):
        column = np.asarray(getattr(grid, f.name), dtype=float)
        if f.name != "p":
            column = column[..., i]
        assert column.tobytes() == np.asarray(getattr(one, f.name), dtype=float).tobytes(), (one.h, f.name)


class TestLaneSolveEdgeCases:
    """The grid iterates only lanes with f(lo) < 0 < f(hi); every other case is the single-depth solve's."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_unbracketed_lanes_are_redone_at_one_depth(self, monkeypatch, p):
        # a start bracket below every root needs the expansion toward +inf, which only _solve performs
        monkeypatch.setattr(resonance, "_bracket", lambda p: (1e-3, 2e-3))
        real, redone = resonance._solve, []

        def counting(p, h):
            redone.append(h)
            return real(p, h)

        monkeypatch.setattr(resonance, "_solve", counting)
        hs = np.linspace(0.5, 20.0, resonance._LANES_FROM + 40).tolist()  # a lane grid
        grid = _resonance_grid(p, hs)
        assert redone == hs
        monkeypatch.setattr(resonance, "_solve", real)
        for i, h in enumerate(hs):
            assert_lane_equals(grid, i, build_resonance_data(p, h))

    @staticmethod
    def _lanes():
        # f_k(x) = x^3 + x - r_k, increasing, in the same IEEE operations over floats and over arrays
        r = np.array([0.3, 1.7, 0.9, 5.0, 2.2, 0.5, 1.1, 3.0, 0.7, 4.0])
        f = lambda x, r: x * x * x + x - r  # each lane carries its r
        xa, xb = np.full(r.size, 0.1), np.full(r.size, 2.0)
        fa, fb = f(xa, r), f(xb, r)
        assert ((fa < 0) & (fb > 0)).all()
        # lanes 4..9 lose their bracket: an exact-zero, a positive or a NaN lower end, a zero, negative or NaN upper end
        fa[[4, 5, 6]] = 0.0, 0.5, math.nan
        fb[[7, 8, 9]] = 0.0, -0.5, math.nan
        return r.tolist(), f, xa, xb, fa, fb

    def test_only_bracketed_lanes_are_iterated(self):
        r, f, xa, xb, fa, fb = self._lanes()
        root, _ = resonance._brentq_lanes(f, (np.array(r),), xa, xb, fa, fb)
        assert np.isnan(root[4:]).all()
        for k in range(4):
            scalar, _ = resonance.brentq(lambda x: x * x * x + x - r[k], 0.1, 2.0, fa[k], fb[k], resonance._XTOL)
            assert root[k].hex() == scalar.hex()

    def test_residuals_are_brentqs(self):
        # each settled lane returns the residual brentq returns with the same root; unsettled lanes return NaN
        r, f, xa, xb, fa, fb = self._lanes()
        root, residual = resonance._brentq_lanes(f, (np.array(r),), xa, xb, fa, fb)
        assert np.isnan(residual[4:]).all()
        for k in range(4):
            scalar = resonance.brentq(lambda x: x * x * x + x - r[k], 0.1, 2.0, fa[k], fb[k], resonance._XTOL)
            assert (root[k].hex(), residual[k].hex()) == (scalar[0].hex(), scalar[1].hex())

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_phi_residuals_are_brentqs(self, monkeypatch, p):
        # on the phi* residual every lane of a grid returns the (root, f(root)) brentq returns at its depth
        hs = np.random.default_rng(p).uniform(0.05, 20.0, 200)
        real_lanes, real_brentq, lanes, held = resonance._brentq_lanes, resonance.brentq, [], []
        monkeypatch.setattr(resonance, "_brentq_lanes", lambda *args: lanes.append(real_lanes(*args)) or lanes[-1])
        monkeypatch.setattr(resonance, "brentq", lambda *args: held.append(real_brentq(*args)) or held[-1])
        resonance._solve_grid(p, hs)
        [(root, residual)] = lanes
        assert held == []
        for i, h in enumerate(hs.tolist()):
            held.clear()
            resonance._solve(p, h)
            [(scalar_root, scalar_residual)] = held
            assert (root[i].hex(), residual[i].hex()) == (scalar_root.hex(), scalar_residual.hex()), h

    def test_unconverged_lanes_are_unsettled(self, monkeypatch):
        # where the scalar solve raises for want of steps, the lane comes back NaN
        monkeypatch.setattr(resonance, "_MAXITER", 3)
        r, f, xa, xb, fa, fb = self._lanes()
        root, _ = resonance._brentq_lanes(f, (np.array(r),), xa, xb, fa, fb)
        assert np.isnan(root).all()
        for k in range(4):
            with pytest.raises(SolverError, match="did not converge"):
                resonance.brentq(lambda x: x * x * x + x - r[k], 0.1, 2.0, fa[k], fb[k], resonance._XTOL)


GRID_FIELDS = ("h", "phi_star", "omega_star", "Omega", "t", "residual", "c")


def lanes_forced(monkeypatch, call):
    """call() with every grid, whatever its size, taken by the lane solve."""
    with monkeypatch.context() as m:
        m.setattr(resonance, "_LANES_FROM", 0)
        return call()


def grid_sizes():
    """The grid sizes at both ends and on both sides of the solve's threshold, _LANES_FROM."""
    n = resonance._LANES_FROM
    return [0, 1, 2, n - 1, n, n + 1]


class TestGridSize:
    """Below _LANES_FROM depths a grid is solved depth by depth, from it over lanes, to the same bytes."""

    @pytest.mark.parametrize("p", range(2, 9))
    def test_both_paths_equal_the_single_depth_record(self, monkeypatch, p):
        rng = np.random.default_rng(p)
        for n in grid_sizes():
            hs = rng.uniform(0.05, 20.0, n)
            grid = _resonance_grid(p, hs)
            lanes = lanes_forced(monkeypatch, lambda: _resonance_grid(p, hs))
            for name in GRID_FIELDS:
                a, b = getattr(grid, name), getattr(lanes, name)
                assert a.shape == b.shape == ((p + 1, n) if name in ("Omega", "t") else (n,)), (n, name)
                assert a.dtype == b.dtype == np.float64, (n, name)
                assert a.tobytes() == b.tobytes(), (n, name)
            assert grid.p == lanes.p == p
            for i, h in enumerate(hs.tolist()):
                assert_lane_equals(grid, i, build_resonance_data(p, h))

    @pytest.mark.parametrize("p", [2, 3, 4, 7])
    def test_lane_solve_runs_only_from_lanes_from(self, monkeypatch, p):
        real, calls = resonance._brentq_lanes, []

        def counting(*args):
            calls.append(len(args[2]))
            return real(*args)

        def refuse(*args):
            raise AssertionError("a lane solve below _LANES_FROM depths")

        n = resonance._LANES_FROM
        monkeypatch.setattr(resonance, "_brentq_lanes", refuse)
        for size in range(n):
            _resonance_grid(p, np.linspace(0.05, 20.0, size))
        monkeypatch.setattr(resonance, "_brentq_lanes", counting)
        for size in (n, n + 1, 2 * n):
            _resonance_grid(p, np.linspace(0.05, 20.0, size))
        assert calls == [n, n + 1, 2 * n]

    def test_the_first_failing_depth_raises(self, monkeypatch):
        # every lane is unsettled, so the lane pass too solves each depth again at one depth, in grid order
        monkeypatch.setattr(resonance, "_bracket", lambda p: (1e-3, 2e-3))
        real = resonance._solve

        def failing(p, h):
            if h in (2.0, 3.0):
                raise SolverError(f"h={h}")
            return real(p, h)

        monkeypatch.setattr(resonance, "_solve", failing)
        for hs in padded([1.0, 2.0, 3.0]):
            with pytest.raises(SolverError, match=r"^h=2\.0$"):
                _resonance_grid(2, hs)

    @pytest.mark.parametrize("p", range(2, 9))
    def test_overflowing_lanes_are_quiet(self, p):
        # h * phi overflows to inf in every lane, as it does on floats; geomspace up to finfo.max warns by itself
        hs = np.geomspace(1e300, 1.7e308, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = _resonance_grid(p, hs)
            for i, h in enumerate(hs.tolist()):
                assert_lane_equals(grid, i, build_resonance_data(p, h))

    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_one_record_per_grid_written_before_it_is_built(self, monkeypatch, p):
        # _record builds the grid's record once, and nothing writes into it after: its arrays are made read-only
        real, records = resonance._record, []

        def frozen(*args):
            rd = real(*args)
            for name in GRID_FIELDS:
                getattr(rd, name).flags.writeable = False
            records.append(rd)
            return rd

        monkeypatch.setattr(resonance, "_record", frozen)
        sizes = grid_sizes() + [2 * resonance._LANES_FROM]
        for unsettled in (False, True):
            if unsettled:  # every lane is solved again at one depth after the lane pass
                monkeypatch.setattr(resonance, "_bracket", lambda p: (1e-3, 2e-3))
            for n in sizes:
                records.clear()
                grid = _resonance_grid(p, np.linspace(0.5, 20.0, n))
                assert len(records) == 1 and records[0] is grid, (unsettled, n)


class TestLargeIndex:
    """From p*c = 512 one ulp of p*c exceeds DEFAULT_TOL: the solve accepts a residual of a few ulps of p*c."""

    @pytest.mark.parametrize("p, h", [(1000, 0.28665488591301863), (700, 0.6084870042821937),
                                      (2000, 0.07395266393894624)])
    def test_pinned_roots_are_within_one_ulp_of_the_oracle(self, p, h):
        # roots a fixed DEFAULT_TOL refuses, with residuals of one ulp of p*c, against the oracle rounded to double
        pytest.importorskip("mpmath")
        from stokes_isolas.oracle import OracleConfig, oracle_phi

        phi = solve_wavenumber(p, h)
        assert abs(phi - float(oracle_phi(p, h, OracleConfig()))) <= math.ulp(phi), (p, h)
        assert abs(build_resonance_data(p, h).residual) > resonance.DEFAULT_TOL

    @pytest.mark.parametrize("p", [700, 1000, 2000, 10000])
    def test_grid_accepts_what_one_depth_accepts(self, monkeypatch, p):
        # the lane pass applies the single-depth rule: it accepts every lane, and each equals the record
        hs = np.geomspace(0.05, 20.0, 200)
        real, redone = resonance._solve, []
        monkeypatch.setattr(resonance, "_solve", lambda p, h: redone.append(h) or real(p, h))
        grid = _resonance_grid(p, hs)
        assert redone == []
        monkeypatch.undo()
        for i, h in enumerate(hs.tolist()):
            assert_lane_equals(grid, i, build_resonance_data(p, h))

    @pytest.mark.parametrize("call, value", [(solve_wavenumber, "0x1.62a4dc1e6a27cp+37"),
                                             (omega_star, "0x1.357f11201d089p+37")])
    def test_one_depth_tabulates_nothing_it_does_not_read(self, call, value):
        # one float out, O(1) memory: Omega_j and t_j for j = 0..p would take tens of MiB at p = 10^6
        call(10**6, 1.0)
        tracemalloc.start()
        try:
            got = call(10**6, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.hex() == value
        assert peak < 2**20

    def test_brentq_returns_the_records_residual(self, monkeypatch):
        # the solve accepts phi* by the residual brentq holds at it: the double the record reads off its tabulation
        rng = np.random.default_rng(26)
        cases = list(zip(rng.integers(2, 9, 300).tolist(), np.geomspace(1e-3, 1e3, 300).tolist()))
        cases += [(p, h) for p in (100, 1000, 2000) for h in rng.uniform(0.05, 20.0, 10).tolist()]
        real, held = resonance.brentq, []
        monkeypatch.setattr(resonance, "brentq", lambda *args: held.append(real(*args)) or held[-1])
        for p, h in cases:
            held.clear()
            rd = build_resonance_data(p, h)
            [(root, residual)] = held
            assert root.hex() == rd.phi_star.hex() and residual.hex() == rd.residual.hex(), (p, h)

    @pytest.mark.parametrize("p", [2, 3, 7, 1000])
    def test_table_columns_are_the_records(self, p):
        # the resonance table's h, phi*, omega* and residual, from Omega_0 and Omega_p alone, are the record's doubles
        for hs in ([1.5], np.linspace(0.05, 20.0, 40), np.geomspace(1e-3, 1e3, 300), np.geomspace(1e300, 1.7e308, 120)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                columns = resonance._collision_grid(p, hs)
                rd = _resonance_grid(p, hs)
            for name, column in zip(("h", "phi_star", "omega_star", "residual"), columns):
                assert column.tobytes() == getattr(rd, name).tobytes(), (p, len(hs), name)

    def test_large_p_table_takes_little_memory(self):
        # a resonance table tabulates Omega_0 and Omega_p only: Omega_j and t_j for every j would take 32 MB here
        argv = ["resonance", "--p", "10000", "--h-min", "0.05", "--h-max", "20", "--n", "200"]
        for fmt in ("csv", "json"):
            with contextlib.redirect_stdout(io.StringIO()):
                main([*argv, "--format", fmt])
            out = io.StringIO()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(out):
                    assert main([*argv, "--format", fmt]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, fmt
            assert out.getvalue().count("10000") >= 200, fmt

    def test_default_tol_up_to_p_128(self):
        # c < 1, or c = 1 from h ~ 19.06 up, so p*c <= 128 and the rule is |f| <= DEFAULT_TOL
        hs = np.concatenate([np.geomspace(0.05, 20.0, 400), [19.1, 20.0]])
        c = resonance._phase(hs, resonance._ARRAYS)
        assert c[-1] == 1.0
        for p in range(2, 129):
            assert (resonance._tolerance(p * c) == resonance.DEFAULT_TOL).all(), p
            assert resonance._tolerance(p * c[-1]) == resonance.DEFAULT_TOL, p
        assert resonance._tolerance(math.nextafter(256.0, 0.0)) == resonance.DEFAULT_TOL

    def test_ulps_from_256(self):
        pcs = [256.0, 511.0, 512.0, 528.3, 1e4, 1e5]
        for pc in pcs:
            assert resonance._tolerance(pc) == 3.5 * math.ulp(pc) > resonance.DEFAULT_TOL, pc
        assert resonance._tolerance(np.array(pcs)).tolist() == [resonance._tolerance(pc) for pc in pcs]

    def test_ulps_are_computed_only_above_default_tol(self, monkeypatch):
        def refuse(pc):
            raise AssertionError("the ulp bound was computed")

        monkeypatch.setattr(resonance, "_tolerance", refuse)
        for p in range(2, 9):
            for h in (0.05, 0.3, 1.0, 3.1, 20.0):
                solve_wavenumber(p, h)

    def test_refusal_names_the_tolerance_applied(self, monkeypatch):
        monkeypatch.setattr(resonance, "_tolerance", lambda pc: 1e-300)
        with pytest.raises(SolverError, match=r"^residual -1\.137e-13 above tol 1\.000e-300 at phi=69264\.16410469996$"):
            solve_wavenumber(1000, 0.28665488591301863)


# the 1001-depth grid of the bit-for-bit tests, both ends included
DENSE = np.linspace(0.05, 20.0, 1001).tolist()


class TestRecordFreeSolve:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_equal_the_record_on_the_dense_grid(self, p):
        for h in DENSE:
            rd = build_resonance_data(p, h)
            assert solve_wavenumber(p, h).hex() == rd.phi_star.hex(), h
            assert omega_star(p, h).hex() == rd.omega_star.hex(), h

    @pytest.mark.parametrize("p", [5, 6, 7, 8, 9])
    def test_equal_the_record_beyond_four(self, p):
        for h in (0.05, 0.3, 1.0, 3.1, 20.0):
            rd = build_resonance_data(p, h)
            assert solve_wavenumber(p, h).hex() == rd.phi_star.hex(), h
            assert omega_star(p, h).hex() == rd.omega_star.hex(), h

    def test_no_record_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ResonanceData was built")

        monkeypatch.setattr(resonance, "ResonanceData", refuse)
        assert solve_wavenumber(3, 1.0) > 0.0 and omega_star(3, 1.0) > 0.0


class TestOmegaStar:
    def test_deep_water_limits(self):
        assert omega_star(2, 50.0) == pytest.approx(0.75, abs=1e-10)
        assert omega_star(3, 50.0) == pytest.approx(2.0, abs=1e-10)

    def test_pinned_p4_h8(self):
        assert omega_star(4, 8.0) == pytest.approx(OMEGA_STAR_4_8, rel=1e-13)
        # double-eigenvalue identity
        phi = solve_wavenumber(4, 8.0)
        other = phase_speed(8.0) * (4 + phi) - omega_disp(4 + phi, 8.0)
        assert abs(omega_star(4, 8.0) - other) <= 1e-12
