"""Coefficient assembly: term table, group cancellations, zeros, summation."""

import ast
import dataclasses
import inspect
import math
import pickle
import random
import re
import traceback
import weakref

import numpy as np
import pytest

from stokes_isolas import (
    DEEP_WATER_GROUPS,
    LEADING_MODELS,
    AsymptoticModel,
    IsolaParams,
    beta1,
    beta1_breakdown,
    beta_scan,
    beta_term_ids,
    find_beta_zeros,
    fit_remainder_rate,
    leading_term,
    neumaier_sum,
)
from stokes_isolas import beta, resonance
from stokes_isolas.beta import _grid, _grid_terms
from stokes_isolas.resonance import _resonance_grid, build_resonance_data, solve_wavenumber
from stokes_isolas.stokes_coefficients import _coefficients
from test_resonance import assert_lane_equals, grid_sizes, lanes_forced, padded

# Zeros of the coefficient curves refined by the 50-digit reference
# evaluator (coarser 7-digit reference values round these).
ORACLE_ZEROS = {
    2: (1.84940408375057,),
    3: (0.820643167352878,),
    4: (0.566633042083988, 1.25597417332237),
}


class TestTermTable:
    def test_term_counts(self):
        assert len(beta_term_ids(2)) == 3
        assert len(beta_term_ids(3)) == 9
        assert len(beta_term_ids(4)) == 27

    def test_labels_unique(self):
        for p in (2, 3, 4):
            labels = [tid.label for tid in beta_term_ids(p)]
            assert len(set(labels)) == len(labels)

    def test_signs_balance(self):
        # each sign family of a nonempty path sums to zero
        for p in (2, 3, 4):
            assert sum(tid.sign for tid in beta_term_ids(p)) == 1

    def test_unsupported_p(self):
        with pytest.raises(ValueError):
            beta_term_ids(5)
        with pytest.raises(ValueError):
            beta1(5, 1.0)


class TestBreakdown:
    @pytest.mark.parametrize("p,h", [(2, 1.3), (3, 0.9), (4, 2.2), (4, 8.0)])
    def test_reconstruction_two_orders(self, p, h):
        bd = beta1_breakdown(p, h)
        signed = bd.signed
        forward = neumaier_sum(signed)
        backward = neumaier_sum(reversed(signed))
        largest = max(abs(v) for v in bd.terms.values())
        assert abs(forward - backward) <= 4 * math.ulp(largest)
        assert abs(bd.total - forward) <= 4 * math.ulp(largest)

    @pytest.mark.parametrize("p,h", [(2, 0.7), (3, 1.5), (4, 3.0)])
    def test_group_sums_match_members(self, p, h):
        bd = beta1_breakdown(p, h)
        for name, value in bd.group_sums.items():
            members = [tid.sign * v for tid, v in bd.terms.items() if tid.group == name]
            assert value == pytest.approx(neumaier_sum(members), abs=4 * math.ulp(max(map(abs, members))))

    def test_grid_records_compare(self):
        a, b = _grid(2, [1.0, 2.0]), _grid(2, [1.0, 2.0])
        assert (a == b) is True and (a != b) is False
        assert (a == _grid(2, [1.0, 2.5])) is False
        assert (a == _grid(3, [1.0, 2.0])) is False

    def test_total_matches_beta1(self):
        for p, h in [(2, 2.0), (3, 3.3), (4, 0.8)]:
            assert beta1_breakdown(p, h).total == beta1(p, h)

    def test_integral_float_p(self):
        assert beta1_breakdown(2.0, 1.0) == beta1_breakdown(2, 1.0)
        assert beta1_breakdown(np.int64(3), 1.0) == beta1_breakdown(3, 1.0)
        assert type(beta1_breakdown(2.0, 1.0).p) is int
        assert beta_term_ids(4.0) == beta_term_ids(4)
        for bad in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be an integer >= 2"):
                beta1_breakdown(bad, 1.0)

    def test_group_names(self):
        bd = beta1_breakdown(4, 1.0)
        assert set(bd.group_sums) == {
            "B_{1,1}", "B_{1,2}", "B_{1,3}",
            "B_{2,{1,2}}", "B_{2,{1,3}}", "B_{2,{2,3}}",
            "B_{3,{1,2,3}}",
        }


class TestDeepWaterGroups:
    def test_p2_group_remainder_rates(self):
        # b0 ~ -(3 sqrt3/16) e^{-h/2}, B_{1,1} ~ (15 sqrt3/64) e^{-h/2},
        # both with O(e^{-3h/4}) remainders
        coeffs = DEEP_WATER_GROUPS[2]
        fns = {
            "b0": lambda h: beta1_breakdown(2, h).b0,
            "B_{1,1}": lambda h: beta1_breakdown(2, h).group_sums["B_{1,1}"],
        }
        for name, f in fns.items():
            model = AsymptoticModel(coeffs[name], 0.5, 0.75, name)
            rate, flagged = fit_remainder_rate(f, model, 5.0, 7.0)
            assert not flagged
            assert rate >= 0.65, name

    def test_p3_groups_coefficients_and_rates(self):
        bd = beta1_breakdown(3, 6.0)
        scale = math.exp(-12.0)
        values = dict(bd.group_sums, b0=bd.b0)
        for name, coeff in DEEP_WATER_GROUPS[3].items():
            assert values[name] / scale == pytest.approx(coeff, rel=0.10), name
            f = (lambda h, n=name: beta1_breakdown(3, h).b0 if n == "b0"
                 else beta1_breakdown(3, h).group_sums[n])
            rate, _ = fit_remainder_rate(f, AsymptoticModel(coeff, 2.0, 3.0, name), 4.0, 6.0)
            assert rate >= 2.9, name

    def test_p4_groups_coefficients_and_rates(self):
        bd = beta1_breakdown(4, 5.0)
        scale = math.exp(-10.0)
        values = dict(bd.group_sums, b0=bd.b0)
        for name, coeff in DEEP_WATER_GROUPS[4].items():
            f = (lambda h, n=name: beta1_breakdown(4, h).b0 if n == "b0"
                 else beta1_breakdown(4, h).group_sums[n])
            if coeff == 0.0:
                # groups whose e^{-2h} parts cancel entirely: O(e^{-4h}) decay
                r4, r5 = f(4.0), f(5.0)
                assert math.log(abs(r4 / r5)) >= 3.5, name
            else:
                assert values[name] / scale == pytest.approx(coeff, rel=0.10), name
                rate, _ = fit_remainder_rate(f, AsymptoticModel(coeff, 2.0, 4.0, name), 4.0, 5.0)
                assert rate >= 3.9, name

    def test_group_coefficients_sum_to_leading(self):
        for p in (2, 3, 4):
            total = sum(DEEP_WATER_GROUPS[p].values())
            assert total == pytest.approx(LEADING_MODELS[p].coeff, rel=1e-13)


def test_symbolic_group_identities():
    sympy = pytest.importorskip("sympy")
    R, sqrt = sympy.Rational, sympy.sqrt
    # p=2: -3 sqrt3/16 + 15 sqrt3/64 = 3 sqrt3/64
    assert sympy.simplify(-R(3, 16) * sqrt(3) + R(15, 64) * sqrt(3) - R(3, 64) * sqrt(3)) == 0
    # p=3: (-2 - 10/3 + 8 - 2) sqrt2 = 2 sqrt2/3
    assert sympy.simplify((-2 - R(10, 3) + 8 - 2) * sqrt(2) - R(2, 3) * sqrt(2)) == 0
    # p=4: sqrt15 (-5/8 - 39/16 + 63/16 - 2873/384 + 7098/384 - 4641/384) = -5 sqrt15/24
    total = (-R(5, 8) - R(39, 16) + R(63, 16) - R(2873, 384) + R(7098, 384) - R(4641, 384))
    assert total == -R(5, 24)
    assert sympy.simplify(total * sqrt(15) + 5 * sqrt(5) / (8 * sqrt(3))) == 0
    # the float tables agree with the exact values
    exact4 = {
        "b0": -R(5, 8), "B_{1,1}": -R(39, 16), "B_{1,2}": 0, "B_{1,3}": R(63, 16),
        "B_{2,{1,2}}": -R(2873, 384), "B_{2,{1,3}}": R(7098, 384), "B_{2,{2,3}}": -R(4641, 384),
        "B_{3,{1,2,3}}": 0,
    }
    for name, frac in exact4.items():
        assert DEEP_WATER_GROUPS[4][name] == pytest.approx(float(frac * sqrt(15)), abs=1e-13)


class TestValues:
    def test_p2_deep_water_one_hop_terms(self):
        # both one-hop terms tend to sqrt(15)/16; their difference cancels.  h = 30 lies beyond the domain the
        # beta functions accept, so the emitted rule runs on the solve's record there, as the 40-digit audit does
        signed = beta._plan(2)(*_rule_inputs(_resonance_grid(2, [30.0])))
        by_label = {tid.label: tid.sign * v[0] for tid, v in zip(beta_term_ids(2), signed)}
        target = math.sqrt(15.0) / 16.0
        assert by_label["B_{1,1}^{-}"] == pytest.approx(target, abs=1e-6)
        assert by_label["B_{1,1}^{+}"] == pytest.approx(target, abs=1e-6)
        assert abs(by_label["B_{1,1}^{+}"] - by_label["B_{1,1}^{-}"]) < 1e-6

    def test_p2_h6_near_leading(self):
        val = beta1(2, 6.0)
        lead = (3.0 * math.sqrt(3.0) / 64.0) * math.exp(-3.0)
        assert abs(val / lead - 1.0) <= 0.20

    def test_sign_pattern_p2(self):
        rows = beta_scan(2, np.linspace(0.5, 5.0, 19))
        z = ORACLE_ZEROS[2][0]
        for r in rows:
            assert (r.beta1 < 0) == (r.h < z)

    def test_sign_pattern_p4(self):
        z1, z2 = ORACLE_ZEROS[4]
        for h, expected in [(0.4, -1), (0.9, +1), (2.0, -1), (10.0, -1)]:
            assert math.copysign(1.0, beta1(4, h)) == expected

    def test_shallow_divergence_direction(self):
        for p in (2, 3, 4):
            assert beta1(p, 0.1) < beta1(p, 0.2) < 0.0


def _zeros_by_loop(p, h_min, h_max, grid_n, tol):
    """find_beta_zeros's grid pass as one loop over every grid value: the reference for its candidate scan."""
    grid = _grid(p, np.linspace(h_min, h_max, grid_n + 1))
    hs, vals, noise = grid.h.tolist(), grid.total.tolist(), grid.floor_flag.tolist()

    def trusted(i):
        return 0 <= i <= grid_n and not noise[i]

    f = lambda h: beta.beta1(p, h)
    zeros = []
    for i, v in enumerate(vals):
        if v == 0.0:
            if trusted(i - 1) or trusted(i + 1):
                zeros.append(hs[i])
        elif i < grid_n and v * vals[i + 1] < 0.0 and (trusted(i) or trusted(i + 1)):
            zeros.append(beta.brentq(f, hs[i], hs[i + 1], v, vals[i + 1], tol)[0])
    return zeros


class TestZeros:
    def test_p2_single_zero(self):
        zeros = find_beta_zeros(2, 0.5, 5.0, 2000, 1e-8)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(ORACLE_ZEROS[2][0], abs=1e-6)

    def test_p3_single_zero(self):
        zeros = find_beta_zeros(3, 0.5, 2.0, 500, 1e-8)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(ORACLE_ZEROS[3][0], abs=1e-6)

    def test_p3_empty_range(self):
        assert find_beta_zeros(3, 2.0, 10.0, 1000, 1e-8) == []

    def test_p4_two_zeros(self):
        zeros = find_beta_zeros(4, 0.3, 3.0, 4000, 1e-8)
        assert len(zeros) == 2
        assert zeros[0] == pytest.approx(ORACLE_ZEROS[4][0], abs=1e-6)
        assert zeros[1] == pytest.approx(ORACLE_ZEROS[4][1], abs=1e-6)

    @pytest.mark.parametrize("grid_n", [100, 500, 2000, 7919])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_no_zeros_from_deep_water_noise(self, p, grid_n):
        # deep-water totals sink under the cancellation floor and change
        # sign from rounding alone; only the oracle's zeros may come back
        zeros = find_beta_zeros(p, 0.05, 20.0, grid_n, 1e-8)
        assert zeros == pytest.approx(list(ORACLE_ZEROS[p]), abs=1e-6)
        for h_min in (10.0, 14.0):
            assert find_beta_zeros(p, h_min, 20.0, grid_n, 1e-8) == []

    def test_exact_zero_needs_trusted_neighbour(self, monkeypatch):
        # synthetic curve h - 1.5 whose grid value at 1.5 cancels to exactly 0.0
        def crossing(rd):
            at = np.abs(rd.h - 1.5) < 1e-12
            return np.array([np.where(at, 1.0, rd.h - 1.5), np.where(at, -1.0, 0.0)])

        # the synthetic terms enter the grid record where the real ones do
        monkeypatch.setattr(beta, "_grid_terms", crossing)
        assert find_beta_zeros(2, 1.0, 2.0, 100) == pytest.approx([1.5], abs=1e-12)
        # exact zeros between floor-level neighbours are noise, not roots
        monkeypatch.setattr(beta, "_grid_terms", lambda rd: np.array([np.ones(rd.h.size), -np.ones(rd.h.size)]))
        assert find_beta_zeros(2, 1.0, 2.0, 100) == []

    @pytest.mark.parametrize(
        "placed",
        [
            {0: 0.0, 1: 2.0, 100: -0.0, 99: 2.0},  # exact zeros at both ends of the grid
            {10: 0.0, 11: 0.0, 20: 0.0, 21: 0.0, 19: 1e-15, 22: 1e-15},  # adjacent zeros, trusted or flagged around
            {30: 1e-15, 31: -1.0, 40: 1e-15, 41: -1e-15, 42: -1e-15, 43: 1e-15},  # sign changes by flagged values
            {50: 1e-200, 51: -1e-200, 52: -1e200, 53: 1e200, 54: 1e200},  # a product that underflows, overflows
            {60: math.nan, 61: -1.0, 62: math.nan, 63: 0.0, 64: 1.0, 70: -1.0, 71: 0.0, 72: math.nan},  # NaNs
            {},  # no candidate at all
        ],
        ids=["ends", "adjacent", "flagged", "under-overflow", "nan", "none"],
    )
    def test_candidate_scan_matches_loop(self, monkeypatch, placed):
        # crafted totals on a 101-point grid: 1.0 but where placed, and flagged where |value| is 1e-15, under
        # the floor of a pair of terms +-1.0 that cancel; each Brent refinement is recorded with its bracket
        vals = np.ones(101)
        vals[list(placed)] = list(placed.values())
        scale = np.where(np.abs(vals) == 1e-15, 1.0, 0.0)
        monkeypatch.setattr(beta, "_grid_terms", lambda rd: np.array([vals, scale, -scale]))
        monkeypatch.setattr(beta, "brentq", lambda f, a, b, fa, fb, tol: (("brentq", a, b, fa, fb, tol), 0.0))
        grid = _grid(2, np.linspace(1.0, 2.0, 101))
        assert grid.total.tobytes() == (vals + 0.0).tobytes()  # -0.0 sums to 0.0
        assert grid.floor_flag.tolist() == ((scale == 1.0) | (vals == 0.0)).tolist()
        expected = _zeros_by_loop(2, 1.0, 2.0, 100, 1e-9)
        assert find_beta_zeros(2, 1.0, 2.0, 100, 1e-9) == expected
        assert bool(expected) == (placed != {})

    def test_candidate_scan_matches_loop_on_real_curves(self, monkeypatch):
        monkeypatch.setattr(beta, "brentq", lambda f, a, b, fa, fb, tol: (("brentq", a, b, fa, fb, tol), 0.0))
        for args in ((2, 0.5, 5.0, 2000, 1e-8), (4, 0.3, 3.0, 700, 1e-10), (3, 5.0, 20.0, 1000, 1e-8)):
            assert find_beta_zeros(*args) == _zeros_by_loop(*args)

    def test_refinement_reuses_grid_values(self, monkeypatch):
        evaluated = []
        original = beta.beta1

        def counting(p, h):
            evaluated.append(h)
            return original(p, h)

        monkeypatch.setattr(beta, "beta1", counting)
        hs = np.linspace(0.5, 5.0, 2001).tolist()
        (zero,) = find_beta_zeros(2, 0.5, 5.0, 2000, 1e-8)
        assert zero == pytest.approx(ORACLE_ZEROS[2][0], abs=1e-6)
        assert evaluated and not set(evaluated) & set(hs)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_beta_zeros(2, 2.0, 1.0, 500, 1e-8)
        with pytest.raises(ValueError):
            find_beta_zeros(2, 1.0, 2.0, 50, 1e-8)
        for grid_n in (500.5, math.nan, math.inf, 99.0):
            with pytest.raises(ValueError, match=r"grid_n must be an integer >= 100, got "):
                find_beta_zeros(2, 1.0, 2.0, grid_n, 1e-8)
        assert find_beta_zeros(4, 0.3, 3.0, 500.0) == find_beta_zeros(4, 0.3, 3.0, 500)
        # an infinite xtol would stop Brent at a bracket end at once
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                find_beta_zeros(2, 1.0, 2.0, 500, tol)


class TestScan:
    def test_row_fields(self):
        rows = beta_scan(3, [1.0, 2.0])
        assert [r.h for r in rows] == [1.0, 2.0]
        for r in rows:
            assert r.leading == leading_term(3, r.h)
            assert r.ratio == pytest.approx(r.beta1 / r.leading)
            assert not r.floor_flag

    def test_floor_flag_deep(self):
        # p=4 beyond h ~ 14.4 the total sinks under the cancellation floor
        (row,) = beta_scan(4, [17.0])
        assert row.floor_flag

    @pytest.mark.parametrize("make", [
        pytest.param(lambda hs: (h for h in hs), id="generator"),
        pytest.param(tuple, id="tuple"),
        pytest.param(np.array, id="float64-array"),
        pytest.param(lambda hs: np.array(hs, dtype=np.float32), id="float32-array"),
        pytest.param(lambda hs: np.array(hs).astype(int), id="int-array"),
        pytest.param(lambda hs: np.array(hs, dtype=object), id="object-array"),
    ])
    def test_any_iterable_of_depths(self, make):
        # each depth is the double that float() makes of it: 1.3 as a float32 is 1.2999999523162842
        hs = [1.3, 2.5, 7.75, 20.0]
        assert beta_scan(4, make(hs)) == beta_scan(4, [float(h) for h in make(hs)])

    def test_grid_range_enforced(self):
        with pytest.raises(ValueError):
            beta_scan(2, [0.01])
        with pytest.raises(ValueError):
            beta_scan(2, [25.0])

    def test_slotted_row_keeps_the_dataclass_api(self):
        row, deeper = beta_scan(3, [1.0, 2.0])
        names = ("h", "beta1", "leading", "ratio", "floor_flag")
        assert tuple(f.name for f in dataclasses.fields(row)) == names
        assert dataclasses.asdict(row) == {name: getattr(row, name) for name in names}
        flipped = dataclasses.replace(row, beta1=-row.beta1)
        assert (flipped.h, flipped.beta1, flipped.ratio) == (row.h, -row.beta1, row.ratio)
        twin = type(row)(*dataclasses.astuple(row))
        assert twin == row and hash(twin) == hash(row) and row != deeper and flipped != row
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(row, protocol)) == row
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.beta1 = 0.0

    def test_slotted_row_has_no_instance_dict(self):
        # the documented cost of the slots: no vars(row), no weak references
        (row,) = beta_scan(2, [1.0])
        assert not hasattr(row, "__dict__")
        with pytest.raises(TypeError):
            vars(row)
        with pytest.raises(TypeError):
            weakref.ref(row)


class TestBulkRows:
    """beta_scan fills its rows' slots a column at a time, skipping ScanRow's __init__."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_rows_equal_constructed_rows(self, p):
        hs = np.linspace(0.05, 20.0, 1001)
        rows = beta_scan(p, hs)
        g = _grid(p, hs)
        built = [beta.ScanRow(*r) for r in zip(*[c.tolist() for c in beta._scan_columns(p, g.h, g.signed, g.total)])]
        assert rows == built and list(map(hash, rows)) == list(map(hash, built))
        assert list(map(repr, rows)) == list(map(repr, built))
        for r in rows:
            assert type(r) is beta.ScanRow
            assert [type(getattr(r, f)) for f in ("h", "beta1", "leading", "ratio", "floor_flag")] == \
                [float, float, float, float, bool]

    def test_row_has_no_post_init(self):
        # the bulk fill calls no __init__, so a __post_init__ would silently not run
        assert not hasattr(beta.ScanRow, "__post_init__")
        assert beta.ScanRow.__slots__ == ("h", "beta1", "leading", "ratio", "floor_flag")
        assert beta.ScanRow.__dataclass_params__.frozen


class TestCancellationFloor:
    """8 ulps of the largest term, as math.ulp gives them, at one depth and over a grid."""

    def test_grid_equals_math_ulp(self):
        # each column's largest term in magnitude, of either sign, with a third of it beside it
        tiny = 5e-324
        largest = [0.0, tiny, 2 * tiny, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
                   1.0, np.nextafter(1.0, 0.0), 3.7e-5, 1e308, np.nextafter(np.finfo(float).max, 0.0),
                   np.finfo(float).max, math.inf, math.nan]
        rng = np.random.default_rng(7)
        largest = np.array(largest + (rng.standard_normal(1000) * 10.0 ** rng.integers(-320, 308, 1000)).tolist())
        signs = rng.choice([-1.0, 1.0], largest.size)
        signed = np.array([signs * largest, -signs * largest / 3])
        floor = beta.BetaBreakdown(None, signed, np.zeros(largest.size)).cancellation_floor
        expected = np.array([8.0 * math.ulp(v) for v in largest.tolist()])
        assert floor.dtype == np.float64 and floor.shape == largest.shape
        assert floor.tobytes() == expected.tobytes()

    def test_one_depth_equals_math_ulp(self):
        for p, h in ((2, 0.3), (3, 5.0), (4, 17.0)):
            bd = beta1_breakdown(p, h)
            floor = bd.cancellation_floor
            assert type(floor) is float and floor == 8.0 * math.ulp(max(map(abs, bd.signed)))


def _bits(values):
    return [float(v).hex() for v in values]


# dense grid over the documented range, both ends included; at its shallow
# end t_0 takes the series branch of t_ratio for p = 2
DENSE = np.linspace(0.05, 20.0, 1001).tolist()


class TestGridIdentity:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_scan_rows_equal_single_points(self, p):
        rows = beta_scan(p, DENSE)
        assert [r.h for r in rows] == DENSE
        assert _bits(r.beta1 for r in rows) == _bits(beta1(p, h) for h in DENSE)
        assert _bits(r.leading for r in rows) == _bits(leading_term(p, h) for h in DENSE)
        assert _bits(r.ratio for r in rows) == _bits(r.beta1 / r.leading for r in rows)
        breakdowns = [beta1_breakdown(p, h) for h in DENSE]
        assert [r.floor_flag for r in rows] == [abs(bd.total) < 10 * bd.cancellation_floor for bd in breakdowns]
        assert all(type(r.beta1) is float and type(r.floor_flag) is bool for r in rows)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_grid_phi_equals_scalar_solve(self, p):
        rd = _resonance_grid(p, DENSE)
        assert _bits(rd.phi_star) == _bits(solve_wavenumber(p, h) for h in DENSE)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_grid_breakdowns_equal_single_points(self, p):
        grid = _grid(p, DENSE)
        sums, terms, floor = grid.group_sums, grid.terms, grid.cancellation_floor
        for i, h in enumerate(DENSE):
            one = beta1_breakdown(p, h)
            assert (grid.p, grid.h[i]) == (one.p, one.h)
            assert _bits(grid.signed[:, i]) == _bits(one.signed)
            assert list(terms) == list(one.terms)
            assert _bits(v[i] for v in terms.values()) == _bits(one.terms.values())
            assert list(sums) == list(one.group_sums)
            assert _bits(s[i] for s in sums.values()) == _bits(one.group_sums.values())
            assert _bits([grid.b0[i], grid.total[i], floor[i]]) == _bits([one.b0, one.total, one.cancellation_floor])
            assert grid.floor_flag[i] == one.floor_flag == (abs(one.total) < 10 * one.cancellation_floor)

    def test_empty_scan(self):
        assert beta_scan(2, []) == []
        with pytest.raises(ValueError, match="closed-form coefficients exist for p in"):
            beta_scan(5, [])
        with pytest.raises(ValueError, match="must be an integer"):
            beta_scan(2.5, [])
        assert beta_scan(2.0, [1.0]) == beta_scan(2, [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.01, 25.0, -1.0])
    def test_bad_depth_names_first(self, bad):
        with pytest.raises(ValueError, match=f"got h={bad!r}$"):
            beta_scan(3, [1.0, bad, 30.0, math.nan])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
    def test_grid_depth_check(self, bad):
        with pytest.raises(ValueError, match=f"depth must be a positive finite real, got {bad!r}"):
            _resonance_grid(3, [1.0, bad, -5.0])


class TestOneDepthWithoutRecord:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_beta1_is_the_breakdown_total(self, p):
        assert _bits(beta1(p, h) for h in DENSE) == _bits(beta1_breakdown(p, h).total for h in DENSE)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_from_depth_reads_the_breakdown(self, p):
        for h in DENSE:
            params, bd = IsolaParams.from_depth(p, h, 0.1, 1.0, 0.5), beta1_breakdown(p, h)
            assert _bits([params.beta1, params.y0, params.mu0]) == _bits([bd.total, bd.rd.omega_star, bd.rd.phi_star])
            assert (params.p, params.h) == (p, h)

    def test_beta1_and_from_depth_build_no_record(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ResonanceData was built")

        monkeypatch.setattr(resonance, "ResonanceData", refuse)
        assert beta1(4, 1.0) == IsolaParams.from_depth(4, 1.0, 0.1, 1.0, 0.5).beta1

    @pytest.mark.parametrize("p", [1, 2.5, math.nan, 5])
    def test_same_error_for_a_bad_index(self, p):
        with pytest.raises(ValueError) as one:
            beta1(p, 1.0)
        with pytest.raises(ValueError) as other:
            beta1_breakdown(p, 1.0)
        assert (type(one.value), str(one.value)) == (type(other.value), str(other.value))

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("h", [math.nan, math.inf, 0, -1, 10**400, 1e-40, 1e-5],
                             ids=["nan", "inf", "0", "-1", "10**400", "1e-40", "1e-5"])
    def test_same_error_for_a_bad_depth(self, p, h):
        with pytest.raises(Exception) as one:
            beta1(p, h)
        with pytest.raises(Exception) as other:
            beta1_breakdown(p, h)
        assert (type(one.value), str(one.value)) == (type(other.value), str(other.value))
        assert type(one.value) is ValueError and str(one.value).startswith(DOMAIN)


def _count_solves(monkeypatch):
    """Counts of the single-depth and the lane-wise phi* Brent solves, as the solves look them up."""
    calls = {"brentq": 0, "_brentq_lanes": 0}
    for name in calls:
        original = getattr(resonance, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(resonance, name, counted)
    return calls


DOMAIN = "depth must lie within [0.05, 20.0], got h="
CLOSED_FORMS = r"^closed-form coefficients exist for p in \{2, 3, 4\}, got 5$"
INDEX = r"^isola index p must be an integer >= 2, got "


class TestIndexRefusedBeforeSolve:
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: beta1(p, 1.0),
            lambda p: beta1_breakdown(p, 1.0),
            lambda p: IsolaParams.from_depth(p, 1.0, 0.1, 1.0, 0.5),
            lambda p: beta_scan(p, DENSE),
            lambda p: find_beta_zeros(p, 0.3, 3.0),
            lambda p: beta._grid(p, DENSE),
        ],
        ids=["beta1", "breakdown", "from_depth", "scan", "zeros", "grid"],
    )
    @pytest.mark.parametrize("p, match", [(5, CLOSED_FORMS), (1, INDEX + "1$"), (2.5, INDEX + "2.5$")])
    def test_no_solve_runs(self, monkeypatch, call, p, match):
        calls = _count_solves(monkeypatch)
        with pytest.raises(ValueError, match=match):
            call(p)
        assert calls == {"brentq": 0, "_brentq_lanes": 0}
        call(4)  # the counters see the solves of a valid p
        assert calls["brentq"] + calls["_brentq_lanes"] >= 1

    def test_index_before_depth(self):
        # both bad: the unsupported p is named, not the depth
        for call in (beta1, beta1_breakdown):
            with pytest.raises(ValueError, match=CLOSED_FORMS):
                call(5, math.nan)


def _intermediates(p):
    """Every (j, s) an intermediate can take, j ascending and s = -1 first: the order of the longhand denominators."""
    return [(j, s) for j in range(1, p) for s in (-1, 1)]


def _evaluate_by_loops(p, Omega, t, coefficients, dens, root):
    """Each term of beta_term_ids(p) in nested loops: the reference the emitted rule must equal bit for bit.

    Transcribed from the path rule apart from beta's own statement of it:
    the numerator is the left-to-right product of the hop factors
    a_l + p_l * (w_m * t_m + w_n * t_n), the prefactor root * Omega_j ...
    and the denominator 4^(k+1) * d ..., and the term carries its sign.
    """
    a, pl = coefficients
    den = dict(zip(_intermediates(p), dens))
    out = []
    for tid in beta_term_ids(p):
        nodes = (0, *tid.intermediates, p)
        weights = (1.0, *(-float(s) for s in tid.signs), -1.0)
        numerator = None
        for i in range(len(nodes) - 1):
            m, n = nodes[i], nodes[i + 1]
            hop = a[n - m - 1] + pl[n - m - 1] * (weights[i] * t[m] + weights[i + 1] * t[n])
            numerator = hop if numerator is None else numerator * hop
        prefactor, denominator = root, 4.0 ** (len(nodes) - 1)
        for j, s in zip(tid.intermediates, tid.signs):
            prefactor = prefactor * Omega[j]
            denominator = denominator * den[j, s]
        out.append(tid.sign * (prefactor * numerator / denominator))
    return out


def _rule_inputs(rd):
    """The emitted rule's arguments (Omega, t, c, root), from a record at one depth (floats) or over a grid (arrays)."""
    if np.ndim(rd.h):
        Omega, t, root = rd.Omega, rd.t, np.sqrt(rd.Omega[0] * rd.Omega[rd.p])
    else:
        Omega, t = rd.Omega.tolist(), rd.t.tolist()
        root = math.sqrt(Omega[0] * Omega[rd.p])
    return Omega, t, rd.c, root


def _denominators_by_loop(p, Omega, c):
    """The denominators j*c - s*Omega_j - Omega_0 the terms divide by, written longhand, in _intermediates order."""
    return [j * c - s * Omega[j] - Omega[0] for j, s in _intermediates(p)]


def _terms_by_loops(p, Omega, t, c, root):
    """The signed terms by _evaluate_by_loops, fed _coefficients(c) and the longhand denominators."""
    return _evaluate_by_loops(p, Omega, t, _coefficients(c), _denominators_by_loop(p, Omega, c), root)


def _returned(function):
    """The emitted source of function, its syntax tree and the list expression it returns."""
    source = inspect.getsource(function)
    tree = ast.parse(source)
    return source, tree, next(node for node in ast.walk(tree) if isinstance(node, ast.Return)).value


def _locals(tree):
    """The emitted locals of a syntax tree, name -> the expression assigned to it, and the names each reads."""
    assigned = {node.targets[0].id: node.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    reads = {name: {n.id for n in ast.walk(value) if isinstance(n, ast.Name)} for name, value in assigned.items()}
    return assigned, reads


def _reach(expressions, tree):
    """The expressions and the value of every local they read, directly or through other locals."""
    assigned, reads = _locals(tree)
    reached, seen = list(expressions), set()
    todo = [n.id for e in expressions for n in ast.walk(e) if isinstance(n, ast.Name)]
    while todo:
        name = todo.pop()
        if name in assigned and name not in seen:
            seen.add(name)
            reached.append(assigned[name])
            todo += reads[name]
    return reached


def _leaves_read(expression, tree):
    """The argument names an expression reads, through the locals it reads."""
    assigned, _ = _locals(tree)
    return {n.id for e in _reach([expression], tree) for n in ast.walk(e) if isinstance(n, ast.Name)} - set(assigned)


def _denominators(p):
    """The emitted rule's syntax tree and each expression in its terms that subtracts Omega_0, by (j, s).

    These are the denominators j*c - s*Omega_j - Omega_0: j is the harmonic
    other than 0 the expression reads, and s is -1 where Omega_j is added,
    +1 where it is subtracted.
    """
    _, tree, returned = _returned(beta._plan(p))
    found = {}
    for node in (x for e in _reach(returned.elts, tree) for x in ast.walk(e)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and getattr(node.right, "id", None) == "O0":
            j = max(int(name[1:]) for name in _leaves_read(node, tree) if name.startswith("O"))
            found.setdefault((j, -1 if isinstance(node.left.op, ast.Add) else 1), []).append(node)
    return tree, found


def _evaluated(tree, expressions):
    """A function of the emitted rule's arguments that runs its locals and returns the given expressions of its tree."""
    function = tree.body[0]
    function.body[-1] = ast.Return(ast.List(list(expressions), ast.Load()))
    namespace = {}
    exec(compile(ast.fix_missing_locations(tree), "<denominators>", "exec"), namespace)
    return namespace[function.name]


class TestCompiledPathRule:
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_floats_equal_the_loops(self, p):
        rule = beta._plan(p)
        hs = np.geomspace(0.05, 20.0, 501).tolist()
        assert (hs[0], hs[-1]) == (0.05, 20.0)
        for h in hs:
            args = _rule_inputs(build_resonance_data(p, h))
            out = rule(*args)
            assert type(out) is list and all(type(v) is float for v in out)
            assert _bits(out) == _bits(_terms_by_loops(p, *args)), h

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_arrays_equal_the_loops(self, p):
        rule = beta._plan(p)
        args = _rule_inputs(_resonance_grid(p, np.linspace(0.05, 20.0, 2000)))
        out, loops = rule(*args), _terms_by_loops(p, *args)
        assert all(type(v) is np.ndarray and v.shape == (2000,) for v in out)
        assert np.array(out).tobytes() == np.array(loops).tobytes()

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_emitted_function_equals_the_plain_rule_on_mpmath_numbers(self, p):
        # the emitted code is the plain rule with +-1 * x written +-x, (-x) * y written -(x * y) and x + -y
        # written x - y, exact in any arithmetic: on floats at 501 depths and on arrays of 2000 depths every term is
        # the same double, and at 40 digits, on 60-digit oracle inputs, the same number
        rule = beta._plan(p)
        for h in np.geomspace(0.05, 20.0, 501).tolist():
            args = _rule_inputs(build_resonance_data(p, h))
            assert _bits(rule(*args)) == _bits(list(beta._path_rule(p, *args))), h
        args = _rule_inputs(_resonance_grid(p, np.linspace(0.05, 20.0, 2000)))
        assert np.array(rule(*args)).tobytes() == np.array(list(beta._path_rule(p, *args))).tobytes()

        mp = pytest.importorskip("mpmath")
        from stokes_isolas import oracle

        cfg = oracle.OracleConfig()
        with mp.workdps(40):
            for h in (0.05, 1.0, 20.0):
                phi, x = oracle.oracle_phi(p, h, cfg), mp.mpf(h)
                Omega = [+oracle._omega(j + phi, x) for j in range(p + 1)]
                t = [+oracle._t(j + phi, x) for j in range(p + 1)]
                c = +oracle._coefficients(x)[0]
                root = mp.sqrt(Omega[0] * Omega[p])
                emitted, plain = rule(Omega, t, c, root), list(beta._path_rule(p, Omega, t, c, root))
                assert len(emitted) == len(plain) == len(beta_term_ids(p))
                assert all(type(e) is type(q) is mp.mpf and e == q for e, q in zip(emitted, plain)), h

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_one_expression_per_term(self, p):
        # one labelled line per signed term, in beta_term_ids order, and nothing else
        source, _, returned = _returned(beta._plan(p))
        lines = source.splitlines()
        labels = [lines[out.lineno - 1].rsplit("# ", 1)[1] for out in returned.elts]
        assert labels == [tid.label for tid in beta_term_ids(p)]
        assert all(out.lineno == out.end_lineno for out in returned.elts)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_no_unit_products_or_added_negations(self, p):
        # +-1 t-weights, term signs and signatures are written as signs: no 1 *, -1 *, 1.0 *, nor x + -y, x - -y
        source, tree, returned = _returned(beta._plan(p))
        reached = _reach(returned.elts, tree)
        text = "\n".join(ast.get_source_segment(source, e) for e in reached)
        assert not re.findall(r"(?<![\w.])-?1(?:\.0)? \*", text)
        assert " + -" not in text and " - -" not in text
        for node in (x for e in reached for x in ast.walk(e)):
            if isinstance(node, ast.BinOp):
                # a constant +-1 only as a quotient's dividend: a_1 = -(c^2 + 1.0 / c^2)
                operands = (node.right,) if isinstance(node.op, ast.Div) else (node.left, node.right)
                assert not any(isinstance(x, ast.Constant) and abs(x.value) == 1 for x in operands)
                assert not (isinstance(node.op, (ast.Add, ast.Sub)) and isinstance(node.right, ast.UnaryOp))
        # the hop from a + intermediate to p: both t-weights negative
        assert re.search(r"\* \((-t\d|v\d+) - t\d\)", text)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_no_repeated_subexpression(self, p):
        # each distinct operation is written once: what two terms share is one local, read at least twice
        _, tree, returned = _returned(beta._plan(p))
        written = [ast.dump(node) for e in _reach(returned.elts, tree) for node in ast.walk(e)
                   if isinstance(node, (ast.BinOp, ast.UnaryOp))]
        assert len(written) == len(set(written))
        assigned, _ = _locals(tree)
        assert list(assigned) == [f"v{k}" for k in range(len(assigned))]
        read = [n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        assert all(read.count(name) >= 2 for name in assigned)
        # every prefactor root * Omega_j ... serves two signatures, so is a local: in the terms an Omega_j is read
        # only by a denominator j*c - s*Omega_j - Omega_0, never as a factor
        omegas = {f"O{j}" for j in range(p + 1)}
        factors = [x for e in returned.elts for node in ast.walk(e)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) for x in (node.left, node.right)]
        assert not any(isinstance(x, ast.Name) and x.id in omegas for x in factors)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_denominators_equal_the_loop(self, p):
        # each denominator the terms divide by, run with the locals it reads, is the longhand one bit for bit
        tree, found = _denominators(p)
        assert sorted(found) == _intermediates(p)
        dens = _evaluated(tree, [found[js][0] for js in _intermediates(p)])
        for h in np.geomspace(0.05, 20.0, 501).tolist():
            Omega, t, c, root = _rule_inputs(build_resonance_data(p, h))
            out = dens(Omega, t, c, root)
            assert len(out) == 2 * p - 2 and all(type(d) is float for d in out)
            assert _bits(out) == _bits(_denominators_by_loop(p, Omega, c)), h
        Omega, t, c, root = _rule_inputs(_resonance_grid(p, np.linspace(0.05, 20.0, 2000)))
        out = dens(Omega, t, c, root)
        assert np.array(out).tobytes() == np.array(_denominators_by_loop(p, Omega, c)).tobytes()

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_denominators_read_c_omega_j_and_omega_0_only(self, p):
        # one expression per (j, s), written once, reading c, Omega_j and Omega_0 (through locals such as
        # j * c), with the signature written as a sign: no negation in any of them
        tree, found = _denominators(p)
        assert sorted(found) == _intermediates(p)
        assert all(len(nodes) == 1 for nodes in found.values())
        for (j, s), (d,) in found.items():
            assert _leaves_read(d, tree) == {"c", f"O{j}", "O0"}
        assert not any(isinstance(node, ast.UnaryOp) for (d,) in found.values() for e in _reach([d], tree)
                       for node in ast.walk(e))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_only_the_coefficients_the_hops_use(self, p):
        # a hop spans l = 1 .. p harmonics: a_l and p_l for l > p, and so their constants, are not written
        _, tree, _ = _returned(beta._plan(p))
        constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        marks = {3: {17.0, 51.0, 98.0, 252.0, 318.0}, 4: {39.0, 366.0, 850.0, 238.0, 1676.0, 3042.0}}  # p_l, a_l
        for l, constants_of_l in marks.items():
            assert constants_of_l <= constants if l <= p else not constants_of_l & constants, l

    def test_traceback_shows_the_generated_line(self):
        # c + Omega_1 - Omega_0 = 0 divides term B_{1,1}^{-} of p = 2 by zero
        with pytest.raises(ZeroDivisionError) as err:
            beta._plan(2)([1.5, 0.5, 1.0], [1.0] * 3, 1.0, 1.0)
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert frame.filename == "<path rule p=2>"
        assert re.search(r"/ \(16\.0 \* \(c \+ O1 - O0\)\)\),  # B_\{1,1\}\^\{-\}$", frame.line)


class TestGridSize:
    """The terms of a grid of any size are one array pass, below _LANES_FROM depths and from it, to the same bytes."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_both_paths_equal_the_single_depth_record(self, monkeypatch, p):
        rng = np.random.default_rng(p)
        for size in grid_sizes():
            hs = rng.uniform(0.05, 20.0, size)
            grid = _grid(p, hs)
            lanes = lanes_forced(monkeypatch, lambda: _grid(p, hs))
            rows = len(beta_term_ids(p))
            for name, shape in (("signed", (rows, size)), ("total", (size,)), ("cancellation_floor", (size,))):
                a, b = getattr(grid, name), getattr(lanes, name)
                assert a.shape == b.shape == shape and a.dtype == b.dtype == np.float64, (size, name)
                assert a.tobytes() == b.tobytes(), (size, name)
            assert grid.rd == lanes.rd
            for i, h in enumerate(hs.tolist()):
                one = beta1_breakdown(p, h)
                assert grid.signed[:, i].tobytes() == np.array(one.signed).tobytes(), h
                assert grid.total[i].hex() == one.total.hex(), h
                assert_lane_equals(grid.rd, i, one.rd)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_every_grid_takes_one_array_pass(self, monkeypatch, p):
        # the rule runs on arrays once per grid, empty and one-depth grids included; _point hands it lists
        real, passes = beta._plan(p), []

        def counting(Omega, *args):
            if isinstance(Omega, np.ndarray):
                passes.append(Omega.shape[1])
            return real(Omega, *args)

        monkeypatch.setattr(beta, "_plan", lambda p: counting)
        for size in grid_sizes():
            _grid_terms(_resonance_grid(p, np.linspace(0.05, 20.0, size)))
        assert passes == grid_sizes()


class TestSingularityGuard:
    @pytest.mark.parametrize(
        "call, h",
        [
            (lambda: beta1(2, 1e-40), 1e-40),
            (lambda: beta1_breakdown(4, 1e-200), 1e-200),
            (lambda: IsolaParams.from_depth(2, 1e-40, 0.1, 1.0, 0.5), 1e-40),
            (lambda: find_beta_zeros(2, 1e-200, 1e-100, 100), 1e-200),
            (lambda: beta._grid(2, [1.0, 1e-200]), 1e-200),
            (lambda: beta._grid(2, padded([1.0, 1e-200])[1]), 1e-200),
        ],
        ids=["beta1", "breakdown", "from_depth", "zeros", "grid", "lane-grid"],
    )
    def test_underflowing_depths(self, call, h):
        # Below h ~ 2.7e-33 a Stokes-coefficient denominator underflows to 0.0 (stokes_coefficients(h) still
        # raises SingularityError there): the domain refuses such depths first, for points and grids alike.
        with pytest.raises(ValueError, match=f"^{re.escape(DOMAIN)}{h!r}$"):
            call()


class TestOracleTermAudit:
    def test_random_terms_against_reference(self):
        # transcription audit: the path rule, stated once, against the longhand
        # reference evaluator, 5 random terms x 3 depths
        mp = pytest.importorskip("mpmath")
        from stokes_isolas.oracle import OracleConfig, oracle_beta_terms

        rng = random.Random(20240815)
        labels = [tid.label for tid in beta_term_ids(4)]
        chosen = rng.sample(labels, 5)
        for h in (1.0, 2.5, 5.0):
            bd = beta1_breakdown(4, h)
            by_label = {tid.label: v for tid, v in bd.terms.items()}
            ref = oracle_beta_terms(4, h, OracleConfig())
            for label in chosen:
                assert by_label[label] == pytest.approx(float(ref[label]), rel=1e-12), (label, h)

    def test_all_terms_once(self):
        mp = pytest.importorskip("mpmath")
        from stokes_isolas.oracle import OracleConfig, oracle_beta_terms

        for p in (2, 3):
            bd = beta1_breakdown(p, 1.7)
            by_label = {tid.label: v for tid, v in bd.terms.items()}
            ref = oracle_beta_terms(p, 1.7, OracleConfig())
            assert set(by_label) == set(ref)
            for label, val in by_label.items():
                assert val == pytest.approx(float(ref[label]), rel=1e-12), label
