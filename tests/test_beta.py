"""Coefficient assembly: term table, group cancellations, zeros, summation."""

import math
import random

import numpy as np
import pytest

from stokes_isolas import (
    DEEP_WATER_GROUPS,
    LEADING_MODELS,
    AsymptoticModel,
    IsolaParams,
    SingularityError,
    beta1,
    beta1_breakdown,
    beta_scan,
    beta_term_ids,
    find_beta_zeros,
    fit_remainder_rate,
    leading_term,
    neumaier_sum,
    stokes_coefficients,
)
from stokes_isolas import beta
from stokes_isolas.beta import _grid, _grid_terms, _signed_terms
from stokes_isolas.resonance import ResonanceData, _resonance_grid, solve_wavenumber

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
        # both one-hop terms tend to sqrt(15)/16; their difference cancels
        bd = beta1_breakdown(2, 30.0)
        by_label = {tid.label: v for tid, v in bd.terms.items()}
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

    def test_any_iterable_of_depths(self):
        hs = [0.05, 1.0, 2.5, 20.0]
        rows = beta_scan(4, hs)
        assert beta_scan(4, (h for h in hs)) == beta_scan(4, tuple(hs)) == beta_scan(4, np.array(hs)) == rows

    def test_grid_range_enforced(self):
        with pytest.raises(ValueError):
            beta_scan(2, [0.01])
        with pytest.raises(ValueError):
            beta_scan(2, [25.0])


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


def _engineered(h):
    # synthetic resonance data with c + Omega_1 - Omega_0 = 0
    sc = stokes_coefficients(h)
    return np.array([sc.c + 0.5, 0.5, 1.5]), np.array([1.0, 1.2, 1.4])


class TestSingularityGuard:
    def test_engineered_denominator(self):
        Omega, t = _engineered(1.0)
        rd = ResonanceData(p=2, h=1.0, phi_star=0.3, omega_star=1.0, Omega=Omega, t=t, residual=0.0,
                           c=stokes_coefficients(1.0).c)
        with pytest.raises(SingularityError) as err:
            _signed_terms(rd)
        assert "Omega_1" in str(err.value)

    def test_one_singular_depth_in_a_grid(self, monkeypatch):
        hs = [1.0, 2.0, 3.0]
        real = _resonance_grid(2, hs)
        Omega, t = _engineered(2.0)
        real.Omega[:, 1], real.t[:, 1] = Omega, t
        with pytest.raises(SingularityError) as err:
            _grid_terms(real)
        assert "Omega_1" in str(err.value) and "h=2.0" in str(err.value)
        monkeypatch.setattr(beta, "_resonance_grid", lambda p, hs: real)
        with pytest.raises(SingularityError, match="Omega_1"):
            beta_scan(2, hs)

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda: beta1(2, 1e-40), SingularityError, "underflows to 0.0"),
            (lambda: beta1_breakdown(4, 1e-200), SingularityError, "underflows to 0.0"),
            # from_depth refuses the depth first, as the beta tables do
            (lambda: IsolaParams.from_depth(2, 1e-40, 0.1, 1.0, 0.5), ValueError,
             r"^scan grid must lie within \(0.05, 20.0\), got h=1e-40$"),
            (lambda: find_beta_zeros(2, 1e-200, 1e-100, 100), SingularityError, "underflows to 0.0"),
            (lambda: beta._grid(2, [1.0, 1e-200]), SingularityError, "underflows to 0.0"),
        ],
        ids=["beta1", "breakdown", "from_depth", "zeros", "grid"],
    )
    def test_underflowing_depths(self, call, error, match):
        # Below h ~ 2.7e-33 a Stokes-coefficient denominator underflows to 0.0:
        # the same typed error as the guard above, for points and grids alike.
        with pytest.raises(error, match=match):
            call()


class TestOracleTermAudit:
    def test_random_terms_against_reference(self):
        # transcription audit: the data-driven table against the longhand
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
