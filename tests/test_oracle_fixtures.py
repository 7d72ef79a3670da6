"""Main path against the stored arbitrary-precision fixtures."""

import math

import pytest

from stokes_isolas import beta, beta1_breakdown, find_beta_zeros
from stokes_isolas.fixtures import DEFAULT_FIXTURES, load_fixtures
from test_beta import _denominators_by_loop

# The paper's printed critical depths, with the rounding of their last
# printed digit, next to their 50-digit refinements.
KNOWN_ZEROS = {
    (2, 0): (1.84940, 5e-6),
    (3, 0): (0.82064, 5e-6),
    (4, 0): (0.566633, 5e-7),
    (4, 1): (1.255969, 5e-7),
}
ORACLE_ZEROS = {
    (2, 0): 1.84940408375057,
    (3, 0): 0.820643167352878,
    (4, 0): 0.566633042083988,
    (4, 1): 1.25597417332237,
}
# The one exception: p = 4's second printed depth is 5.17e-6 from the
# oracle's zero, ten times its print rounding.  The 40-digit audit
# (test_plan_matches_oracle_to_forty_digits) shows the emitted rule and
# the longhand oracle agree, so the gap is not a transcription fault here.
PRINTED_OFF_BY_MORE = (4, 1)


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures(DEFAULT_FIXTURES)


def test_fixture_file_shape(fixtures):
    assert len(fixtures) >= 20
    for p, h, value, digits in fixtures:
        assert p in (2, 3, 4)
        assert h > 0
        assert math.isfinite(value)
        assert digits >= 30


def test_fixture_depth_coverage(fixtures):
    for p in (2, 3, 4):
        hs = [h for q, h, _, _ in fixtures if q == p]
        assert len(hs) >= 6
        assert min(hs) < 1.0 and max(hs) >= 8.0


def test_agreement_within_cancellation_floor(fixtures):
    # any disagreement beyond the reported floor is a transcription bug
    for p, h, oracle_value, _ in fixtures:
        bd = beta1_breakdown(p, h)
        assert abs(bd.total - oracle_value) <= bd.cancellation_floor, (p, h)


def test_refined_zeros_match_coarse_references():
    for key, (printed, rounding) in KNOWN_ZEROS.items():
        if key != PRINTED_OFF_BY_MORE:
            assert abs(ORACLE_ZEROS[key] - printed) <= rounding, key
    # pinned, so that a moved oracle zero shows
    assert 5.16e-6 <= ORACLE_ZEROS[PRINTED_OFF_BY_MORE] - KNOWN_ZEROS[PRINTED_OFF_BY_MORE][0] <= 5.18e-6


def test_main_path_zeros_match_oracle_zeros():
    zeros2 = find_beta_zeros(2, 1.5, 2.2, 200, 1e-10)
    assert zeros2[0] == pytest.approx(ORACLE_ZEROS[(2, 0)], abs=1e-8)
    zeros3 = find_beta_zeros(3, 0.6, 1.0, 200, 1e-10)
    assert zeros3[0] == pytest.approx(ORACLE_ZEROS[(3, 0)], abs=1e-8)
    zeros4 = find_beta_zeros(4, 0.4, 1.5, 400, 1e-10)
    assert zeros4[0] == pytest.approx(ORACLE_ZEROS[(4, 0)], abs=1e-8)
    assert zeros4[1] == pytest.approx(ORACLE_ZEROS[(4, 1)], abs=1e-8)


def test_deep_water_ratio_fixture(fixtures):
    # stored (4, 14) point against the equivalent-coefficient leading form
    val = next(v for p, h, v, _ in fixtures if p == 4 and h == 14.0)
    lead = -(5.0 * math.sqrt(15.0) / 24.0) * math.exp(-28.0)
    assert 0.99 <= val / lead <= 1.01


@pytest.mark.parametrize("p", [2, 3, 4])
def test_plan_matches_oracle_to_forty_digits(p):
    # the emitted path rule is a rational function of its inputs, so fed
    # 60-digit oracle values it audits itself and the Stokes
    # coefficients against the longhand terms far below the double floor,
    # also in deep water (h = 14..20), where doubles cannot resolve beta1
    mp = pytest.importorskip("mpmath")
    from stokes_isolas import oracle

    cfg = oracle.OracleConfig()
    rule = beta._plan(p)
    depths = [h for q, h in oracle.FIXTURE_POINTS if q == p] + [0.05, 14.0, 16.0, 18.0, 20.0]
    with mp.workdps(cfg.digits + 10):
        for h in depths:
            phi, x = oracle.oracle_phi(p, h, cfg), mp.mpf(h)
            Omega = [oracle._omega(j + phi, x) for j in range(p + 1)]
            t = [oracle._t(j + phi, x) for j in range(p + 1)]
            c = oracle._coefficients(x)[0]
            terms = rule(Omega, t, c, mp.sqrt(Omega[0] * Omega[p]))
            ref = oracle.oracle_beta1(p, h, cfg)
            assert abs(mp.fsum(terms) - ref) <= mp.mpf("1e-40") * abs(ref), (p, h)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_signed_limits_cancel_in_deep_water(p):
    # at h = infinity everything is in closed form: phi = (p-1)^2/4 solves sqrt(phi) + sqrt(phi + p) = p with
    # c = 1, and Omega_j = t_j = sqrt(j + phi).  There the emitted rule divides by no vanishing denominator and
    # its signed terms cancel exactly, the premise of evaluating beta1 as deviations from these limits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        c, phi = mp.mpf(1), mp.mpf((p - 1) ** 2) / 4
        Omega = [mp.sqrt(j + phi) for j in range(p + 1)]
        assert abs(Omega[0] + Omega[p] - p * c) <= mp.mpf("1e-58")
        assert min(map(abs, _denominators_by_loop(p, Omega, c))) > 0.5
        terms = beta._plan(p)(Omega, Omega, c, mp.sqrt(Omega[0] * Omega[p]))
        assert abs(mp.fsum(terms)) <= mp.mpf("1e-55") * max(map(abs, terms)), p


def test_kernels_run_on_mpmath_numbers():
    # the phi* residual and the Omega_j/t_j tabulation are written once against a
    # (tanh, sqrt, ratio) triple: given mpmath's tanh and sqrt at the oracle's
    # precision, they reproduce the oracle's longhand kernels and its root
    mp = pytest.importorskip("mpmath")
    from stokes_isolas import oracle
    from stokes_isolas.dispersion import _FLOATS, _phase, _tabulate
    from stokes_isolas.resonance import _residual

    cfg = oracle.OracleConfig()
    kernels = (mp.tanh, mp.sqrt, _FLOATS[2])
    with mp.workdps(cfg.digits + 10):
        tol = mp.mpf("1e-50")
        for p, h in oracle.FIXTURE_POINTS:
            phi, x = oracle.oracle_phi(p, h, cfg), mp.mpf(h)
            Omega, t = _tabulate(p, x, phi, kernels)
            for j in range(p + 1):
                assert abs(Omega[j] - oracle._omega(j + phi, x)) <= tol * Omega[j], (p, h, j)
                assert abs(t[j] - oracle._t(j + phi, x)) <= tol * t[j], (p, h, j)
            assert abs(_residual(p, x, _phase(x, kernels), kernels)(phi)) <= tol, (p, h)


def test_oracle_config_minimum_precision():
    pytest.importorskip("mpmath")
    from stokes_isolas.oracle import OracleConfig

    with pytest.raises(ValueError):
        OracleConfig(digits=30)


def test_shallow_relative_agreement_live():
    # below the fixtures' depth range the O(1)-sized terms make the 8-ulp
    # summation floor unreachable; transcription is audited in relative terms
    mp = pytest.importorskip("mpmath")
    from stokes_isolas.oracle import OracleConfig, oracle_beta1

    cfg = OracleConfig()
    for p, h in [(2, 0.3), (3, 0.3), (4, 0.35)]:
        ours = beta1_breakdown(p, h).total
        ref = float(oracle_beta1(p, h, cfg))
        assert ours == pytest.approx(ref, rel=1e-12), (p, h)
