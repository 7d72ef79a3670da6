"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; nothing is deferred.  The
values still wrong inside the documented domain are pinned at the end as
strict xfails, each naming the ROADMAP item that fixes it.
"""

import math
import random
import time

import numpy as np
import pytest

from stokes_isolas import (
    DEEP_WATER_GROUPS,
    LEADING_MODELS,
    WAVENUMBER_MODELS,
    IsolaParams,
    band_endpoints,
    beta1,
    beta1_breakdown,
    build_resonance_data,
    discriminant,
    eigenvalue_branch,
    eigenvalue_pair,
    ellipse_points,
    find_beta_zeros,
    fit_remainder_rate,
    leading_term,
    solve_wavenumber,
)
from stokes_isolas.fixtures import DEFAULT_FIXTURES, load_fixtures

# The paper's printed critical depths, each with the rounding of its last
# printed digit.  The one exception, p = 4's 1.255969, is 5.17e-6 below the
# zero (as pinned in test_oracle_fixtures.py): None marks it, and its gap is
# checked instead.
KNOWN_ZEROS = {2: [(1.84940, 5e-6)], 3: [(0.82064, 5e-6)], 4: [(0.566633, 5e-7), (1.255969, None)]}
PRINTED_GAP = (5.16e-6, 5.18e-6)


def matches_printed(z, printed, rounding):
    if rounding is None:
        return PRINTED_GAP[0] <= z - printed <= PRINTED_GAP[1]
    return abs(z - printed) <= rounding


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def test_criterion_1_critical_depths():
    scans = {2: (0.5, 5.0, 2000), 3: (0.3, 3.0, 2000), 4: (0.3, 3.0, 4000)}
    ok = True
    details = []
    for p, (lo, hi, n) in scans.items():
        start = time.perf_counter()
        zeros = find_beta_zeros(p, lo, hi, n, 1e-8)
        elapsed = time.perf_counter() - start
        expected = KNOWN_ZEROS[p]
        ok &= len(zeros) == len(expected)
        ok &= all(matches_printed(z, *e) for z, e in zip(zeros, expected))
        ok &= elapsed < 5.0
        details.append(f"p={p}: {[round(z, 6) for z in zeros]} in {elapsed:.2f}s")
    report(1, "critical-depth reproduction", ok, "; ".join(details))


def test_criterion_2_deep_water_leading():
    ok = True
    details = []
    for p, h_ratio in ((2, 12.0), (3, 8.0), (4, 8.0)):
        ratio = beta1(p, h_ratio) / leading_term(p, h_ratio)
        ok &= 0.97 <= ratio <= 1.03
        details.append(f"p={p} ratio(h={h_ratio})={ratio:.4f}")
    # two-point remainder rates; the p=3 remainder changes sign near h=4.1,
    # so its fit is taken on (5,7) where the fit is meaningful
    for p, pair, bound in ((2, (5.0, 7.0), 0.65), (3, (5.0, 7.0), 2.8), (4, (4.0, 6.0), 3.5)):
        floor = lambda h: beta1_breakdown(p, h).cancellation_floor
        rate, flagged = fit_remainder_rate(
            lambda h: beta1(p, h), LEADING_MODELS[p], *pair, floor=floor
        )
        ok &= (rate >= bound) and not flagged
        details.append(f"p={p} rate{pair}={rate:.3f}>={bound}")
    report(2, "deep-water leading asymptotics", ok, "; ".join(details))


def test_criterion_3_wavenumber_asymptotics():
    ok = True
    details = []
    for p, bound in ((2, 0.6), (4, 3.5)):
        rate, flagged = fit_remainder_rate(
            lambda h: solve_wavenumber(p, h), WAVENUMBER_MODELS[p], 5.0, 7.0
        )
        ok &= rate >= bound and not flagged
        details.append(f"p={p} rate(5,7)={rate:.3f}>={bound}")
    # remainder below the leading correction magnitude at both depths
    for p in (2, 3, 4):
        model = WAVENUMBER_MODELS[p]
        for h in (5.0, 7.0):
            r = solve_wavenumber(p, h) - model.value(h)
            ok &= abs(r) < abs(model.leading(h))
    report(3, "wavenumber asymptotics", ok, "; ".join(details))


def test_criterion_4_collision_identity():
    rng = random.Random(987654321)
    worst_branch = worst_freq = 0.0
    for _ in range(200):
        p = rng.choice((2, 3, 4))
        h = rng.uniform(0.1, 15.0)
        rd = build_resonance_data(p, h)
        lam_minus = eigenvalue_branch(0, -1, rd.phi_star, h)
        lam_plus = eigenvalue_branch(p, +1, rd.phi_star, h)
        worst_branch = max(worst_branch, abs(lam_minus - lam_plus))
        worst_freq = max(worst_freq, abs(rd.residual))
    ok = worst_branch <= 1e-12 and worst_freq <= 1e-12
    report(4, "collision identity (200 random points)", ok,
           f"worst branch gap {worst_branch:.2e}, worst residual {worst_freq:.2e}")


def test_criterion_5_group_cancellation():
    sympy = pytest.importorskip("sympy")
    R, sqrt = sympy.Rational, sympy.sqrt
    ok = True
    details = []

    # numeric group sums against their deep-water coefficients
    for p, h in ((3, 6.0), (4, 5.0)):
        bd = beta1_breakdown(p, h)
        values = dict(bd.group_sums, b0=bd.b0)
        scale = math.exp(-2.0 * h)
        for name, coeff in DEEP_WATER_GROUPS[p].items():
            if coeff == 0.0:
                f = (lambda hh, n=name, q=p: beta1_breakdown(q, hh).group_sums[n])
                decay = math.log(abs(f(4.0) / f(5.0)))
                ok &= decay >= 3.5
            else:
                rel = abs(values[name] / scale - coeff) / abs(coeff)
                ok &= rel <= 0.10
        details.append(f"p={p} groups at h={h} within 10%")

    # exact symbolic identities: group coefficients sum to the leading constants
    ok &= sympy.simplify(-R(3, 16) * sqrt(3) + R(15, 64) * sqrt(3) - R(3, 64) * sqrt(3)) == 0
    ok &= sympy.simplify((-2 - R(10, 3) + 8 - 2) * sqrt(2) - R(2, 3) * sqrt(2)) == 0
    p4_sum = -R(5, 8) - R(39, 16) + R(63, 16) - R(2873, 384) + R(7098, 384) - R(4641, 384)
    ok &= p4_sum == -R(5, 24)
    ok &= sympy.simplify(-R(5, 24) * sqrt(15) + 5 * sqrt(5) / (8 * sqrt(3))) == 0
    details.append("symbolic sums exact")
    report(5, "group-cancellation structure", ok, "; ".join(details))


def test_criterion_6_shallow_divergence_direction():
    ok = True
    details = []
    grid = (0.30, 0.25, 0.20, 0.15, 0.10)
    for p in (2, 3, 4):
        vals = [beta1(p, h) for h in grid]
        ok &= all(v < 0.0 for v in vals)
        ok &= all(a > b for a, b in zip(vals, vals[1:]))
        details.append(f"p={p}: beta(0.30)={vals[0]:.3g} .. beta(0.10)={vals[-1]:.3g}")
    report(6, "shallow divergence direction", ok, "; ".join(details))


def test_criterion_7_oracle_equivalence():
    fixtures = load_fixtures(DEFAULT_FIXTURES)
    ok = len(fixtures) >= 20
    worst = 0.0
    for p, h, oracle_value, _ in fixtures:
        bd = beta1_breakdown(p, h)
        diff = abs(bd.total - oracle_value)
        ok &= diff <= bd.cancellation_floor
        worst = max(worst, diff / bd.cancellation_floor)
    report(7, "oracle equivalence at stored points", ok,
           f"{len(fixtures)} points, worst diff/floor {worst:.2f}")


def test_criterion_8_isola_model_properties():
    ok = True
    params = IsolaParams.from_depth(2, 3.0, 0.05, T1=1.2, E=0.6)

    # discriminant sign pattern +/0/-
    w = params.half_width
    ok &= discriminant(0.0, params) > 0.0
    ok &= discriminant(0.5 * w, params) > 0.0
    ok &= abs(discriminant(w, params)) <= 4 * math.ulp(4 * params.max_growth**2)
    ok &= discriminant(2.0 * w, params) < 0.0

    # endpoint recollision: purely imaginary, equal pair at the band ends
    # (nu at an endpoint carries ulp(mu0)-level error, magnified by the root)
    lo, hi = band_endpoints(params)
    w = params.half_width
    d_nu = math.ulp(abs(params.mu0) + w)
    tol = math.sqrt(2 * params.T1**2 * w * d_nu + 8 * math.ulp(4 * params.max_growth**2))
    for mu in (lo, hi):
        lam_p, lam_m = eigenvalue_pair(mu, params)
        ok &= abs(lam_p.real) <= tol and abs(lam_m.real) <= tol
        ok &= abs(lam_p - lam_m) <= 2 * tol

    # eps^p width scaling exact in the truncated model
    for p_idx in (2, 3, 4):
        small = IsolaParams(p=p_idx, h=1.0, eps=0.01, beta1=0.3, T1=1.0, E=0.5, y0=1.0, mu0=0.0)
        big = IsolaParams(p=p_idx, h=1.0, eps=0.02, beta1=0.3, T1=1.0, E=0.5, y0=1.0, mu0=0.0)
        ok &= big.half_width / small.half_width == 2.0**p_idx

    # ellipse axis identities
    pts = ellipse_points(params, 64)
    g = params.max_growth
    ok &= float(np.max(pts[:, 0])) == g
    ok &= float(np.max(pts[:, 1])) == pytest.approx(params.y0 + g / params.E, rel=1e-14)
    lam_p, _ = eigenvalue_pair(params.mu0, params)
    ok &= lam_p.real == pytest.approx(g, rel=1e-14)
    lhs = pts[:, 0] ** 2 + params.E**2 * (pts[:, 1] - params.y0) ** 2
    curve_tol = 8 * math.ulp(g * g) + 4 * params.E * g * math.ulp(abs(params.y0) + g / params.E)
    ok &= float(np.max(np.abs(lhs - g * g))) <= curve_tol

    report(8, "isola model properties (truncated)", bool(ok))


# Open walls: values inside the documented domain that are still wrong.  Each
# is a strict xfail, so the change that fixes it must remove the marker.


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_deep_water_p3_matches_the_oracle():
    # today 2.10e-3 off, and floor_flag does not say so
    pytest.importorskip("mpmath")
    from stokes_isolas.oracle import oracle_beta1

    assert beta1(3, 14.0) == pytest.approx(float(oracle_beta1(3, 14.0)), rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_deep_water_p4_has_the_oracle_sign():
    # today +1.886e-14 against the oracle's -1.022e-14
    pytest.importorskip("mpmath")
    from stokes_isolas.oracle import oracle_beta1

    assert math.copysign(1.0, beta1(4, 16.0)) == math.copysign(1.0, float(oracle_beta1(4, 16.0)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_shallow_water_phi_within_4_ulps():
    # today 19,606 ulps off: the plain residual's rounding swamps phi* ~ h^2 (p^3 - p) / 12
    pytest.importorskip("mpmath")
    from stokes_isolas.oracle import oracle_phi

    exact = float(oracle_phi(2, 0.01))
    assert abs(solve_wavenumber(2, 0.01) - exact) <= 4 * math.ulp(exact)
