"""Arbitrary-precision reference evaluator for the instability coefficients.

Script-grade companion to :mod:`stokes_isolas.beta`, kept deliberately
independent of it: every summand below is written out longhand, one
expression per term, instead of being generated from the data-driven table
the main path uses.  The two implementations were transcribed in separate
passes; any disagreement beyond the double-precision cancellation floor is
a transcription bug by definition.  Two audits use it: the stored fixtures
check the double-precision main path to that floor, and a 40-digit audit
in the tests feeds this module's 60-digit phi*, Omega_j, t_j and c to the
main path's own evaluator (``beta._evaluate``, rational in its inputs) and
requires agreement to 1e-40 relative, deep water included.

Results are cached to a TSV fixtures file (one record per line:
p, h, value, digits; '#' starts a comment) which the test suite and
``stokes-isolas selftest`` consume through :mod:`stokes_isolas.fixtures`,
so the fast path can be audited without recomputing here or importing
mpmath.

Regenerate the shipped fixtures with::

    python -m stokes_isolas.oracle [--digits 50] [--out PATH]

Not part of the supported library API; precision over speed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import mpmath as mp

from .errors import OracleError
from .fixtures import DEFAULT_FIXTURES

__all__ = [
    "OracleConfig",
    "oracle_phi",
    "oracle_beta1",
    "oracle_beta_terms",
    "oracle_find_beta_zero",
    "write_fixtures",
]


@dataclass(frozen=True)
class OracleConfig:
    digits: int = 50
    max_bisect: int = 400

    def __post_init__(self):
        if self.digits < 50:
            raise ValueError(f"oracle precision must be >= 50 digits, got {self.digits}")


def _omega(phi, h):
    return mp.sqrt(phi * mp.tanh(h * phi))


def _t(phi, h):
    return mp.sqrt(phi / mp.tanh(h * phi))


def oracle_phi(p: int, h, cfg: OracleConfig = OracleConfig()):
    """Critical wavenumber by plain bisection at cfg.digits precision."""
    with mp.workdps(cfg.digits + 10):
        h = mp.mpf(h)
        c = mp.sqrt(mp.tanh(h))
        f = lambda phi: _omega(phi, h) + _omega(phi + p, h) - p * c
        lo = mp.mpf(1) / 16
        hi = mp.mpf((p - 1) ** 2) / 4 + mp.mpf(1) / 2
        it = 0
        while f(lo) > 0:
            lo /= 4
            it += 1
            if it > cfg.max_bisect:
                raise OracleError(f"bracketing failed for p={p}, h={h}")
        while f(hi) < 0:
            hi *= 2
            it += 1
            if it > cfg.max_bisect:
                raise OracleError(f"bracketing failed for p={p}, h={h}")
        target = mp.mpf(10) ** (-(cfg.digits + 5))
        for _ in range(cfg.max_bisect):
            mid = (lo + hi) / 2
            if f(mid) <= 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < target * max(1, abs(mid)):
                return (lo + hi) / 2
        raise OracleError(
            f"bisection did not reach {mp.nstr(target, 3)} in {cfg.max_bisect} steps"
        )


def _coefficients(h):
    """The eight potential coefficients, transcribed display by display."""
    c = mp.sqrt(mp.tanh(h))
    p1 = -2 / c
    p2 = -(3 + c**4) / (2 * c**7)
    a1 = -(c**2 + c**-2)
    a2 = (-14 * c**4 + 9 * c**8 - 3) / (4 * c**8)
    p3 = -(c**12 + 17 * c**8 + 51 * c**4 + 27) / (32 * c**13)
    a3 = (-(c**16) - 98 * c**12 + 252 * c**8 - 318 * c**4 - 27) / (64 * c**14)
    p4 = (-(c**20) - 39 * c**16 - 366 * c**12 - 850 * c**8 - 657 * c**4 - 135) / (
        64 * c**19 * (c**4 + 5)
    )
    a4 = (
        9 * c**24 + 238 * c**20 - 233 * c**16 - 1676 * c**12 + 743 * c**8 - 3042 * c**4 - 135
    ) / (128 * c**20 * (c**4 + 5))
    return c, a1, a2, a3, a4, p1, p2, p3, p4


def oracle_beta_terms(p: int, h, cfg: OracleConfig = OracleConfig()):
    """All summands of the p-th coefficient as a {label: mpf} dict.

    Labels match the term labels of the main path
    (``b0``, ``B_{1,1}^{-}``, ``B_{2,{1,2}}^{-,+}``, ...) so the
    transcription audit can compare term by term.  Values are the raw term
    values; the signed total is assembled in :func:`oracle_beta1`.
    """
    if p not in (2, 3, 4):
        raise ValueError(f"closed-form coefficients exist for p in {{2,3,4}}, got {p}")
    with mp.workdps(cfg.digits + 10):
        h = mp.mpf(h)
        phi = oracle_phi(p, h, cfg)
        c, a1, a2, a3, a4, p1, p2, p3, p4 = _coefficients(h)
        O = [_omega(j + phi, h) for j in range(p + 1)]
        t = [_t(j + phi, h) for j in range(p + 1)]
        sq = mp.sqrt(O[0] * O[p])

        if p == 2:
            t0, t1, t2 = t[0], t[1], t[2]
            return {
                "b0": sq / 4 * (a2 + p2 * (t0 - t2)),
                "B_{1,1}^{-}": O[1] * sq / (16 * (c + O[1] - O[0]))
                * (a1 + p1 * (t1 - t2)) * (a1 + p1 * (t1 + t0)),
                "B_{1,1}^{+}": O[1] * sq / (16 * (c - O[1] - O[0]))
                * (a1 - p1 * (t1 + t2)) * (a1 + p1 * (t0 - t1)),
            }

        if p == 3:
            t0, t1, t2, t3 = t[0], t[1], t[2], t[3]
            d1m = c + O[1] - O[0]
            d1p = c - O[1] - O[0]
            d2m = 2 * c + O[2] - O[0]
            d2p = 2 * c - O[2] - O[0]
            return {
                "b0": sq / 4 * (a3 + p3 * (t0 - t3)),
                "B_{1,1}^{-}": O[1] * sq / (16 * d1m)
                * (a1 + p1 * (t0 + t1)) * (a2 + p2 * (t1 - t3)),
                "B_{1,1}^{+}": O[1] * sq / (16 * d1p)
                * (a1 + p1 * (t0 - t1)) * (a2 - p2 * (t1 + t3)),
                "B_{1,2}^{-}": O[2] * sq / (16 * d2m)
                * (a1 + p1 * (t2 - t3)) * (a2 + p2 * (t0 + t2)),
                "B_{1,2}^{+}": O[2] * sq / (16 * d2p)
                * (a1 - p1 * (t2 + t3)) * (a2 + p2 * (t0 - t2)),
                "B_{2,{1,2}}^{-,+}": O[1] * O[2] * sq
                * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 - t2)) * (a1 - p1 * (t2 + t3))
                / (64 * d1m * d2p),
                "B_{2,{1,2}}^{-,-}": O[1] * O[2] * sq
                * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 + t2)) * (a1 + p1 * (t2 - t3))
                / (64 * d1m * d2m),
                "B_{2,{1,2}}^{+,-}": O[1] * O[2] * sq
                * (a1 + p1 * (t0 - t1)) * (a1 + p1 * (-t1 + t2)) * (a1 + p1 * (t2 - t3))
                / (64 * d1p * d2m),
                "B_{2,{1,2}}^{+,+}": O[1] * O[2] * sq
                * (a1 + p1 * (t0 - t1)) * (a1 - p1 * (t1 + t2)) * (a1 - p1 * (t2 + t3))
                / (64 * d1p * d2p),
            }

        t0, t1, t2, t3, t4 = t[0], t[1], t[2], t[3], t[4]
        d1m = c + O[1] - O[0]
        d1p = c - O[1] - O[0]
        d2m = 2 * c + O[2] - O[0]
        d2p = 2 * c - O[2] - O[0]
        d3m = 3 * c + O[3] - O[0]
        d3p = 3 * c - O[3] - O[0]
        pref3 = O[1] * O[2] * O[3] * sq
        return {
            "b0": sq / 4 * (a4 + p4 * (t0 - t4)),
            "B_{1,1}^{-}": O[1] * sq / (16 * d1m)
            * (a1 + p1 * (t0 + t1)) * (a3 + p3 * (t1 - t4)),
            "B_{1,1}^{+}": O[1] * sq / (16 * d1p)
            * (a1 + p1 * (t0 - t1)) * (a3 - p3 * (t1 + t4)),
            "B_{1,2}^{-}": O[2] * sq / (16 * d2m)
            * (a2 + p2 * (t2 - t4)) * (a2 + p2 * (t0 + t2)),
            "B_{1,2}^{+}": O[2] * sq / (16 * d2p)
            * (a2 - p2 * (t2 + t4)) * (a2 + p2 * (t0 - t2)),
            "B_{1,3}^{-}": O[3] * sq / (16 * d3m)
            * (a1 + p1 * (t3 - t4)) * (a3 + p3 * (t0 + t3)),
            "B_{1,3}^{+}": O[3] * sq / (16 * d3p)
            * (a1 - p1 * (t3 + t4)) * (a3 + p3 * (t0 - t3)),
            "B_{2,{1,2}}^{-,+}": O[1] * O[2] * sq
            * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 - t2)) * (a2 - p2 * (t2 + t4))
            / (64 * d1m * d2p),
            "B_{2,{1,2}}^{-,-}": O[1] * O[2] * sq
            * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 + t2)) * (a2 + p2 * (t2 - t4))
            / (64 * d1m * d2m),
            "B_{2,{1,2}}^{+,-}": O[1] * O[2] * sq
            * (a1 + p1 * (t0 - t1)) * (a1 + p1 * (-t1 + t2)) * (a2 + p2 * (t2 - t4))
            / (64 * d1p * d2m),
            "B_{2,{1,2}}^{+,+}": O[1] * O[2] * sq
            * (a1 + p1 * (t0 - t1)) * (a1 - p1 * (t1 + t2)) * (a2 - p2 * (t2 + t4))
            / (64 * d1p * d2p),
            "B_{2,{1,3}}^{-,+}": O[1] * O[3] * sq
            * (a1 + p1 * (t0 + t1)) * (a2 + p2 * (t1 - t3)) * (a1 - p1 * (t3 + t4))
            / (64 * d1m * d3p),
            "B_{2,{1,3}}^{-,-}": O[1] * O[3] * sq
            * (a1 + p1 * (t0 + t1)) * (a2 + p2 * (t1 + t3)) * (a1 + p1 * (t3 - t4))
            / (64 * d1m * d3m),
            "B_{2,{1,3}}^{+,-}": O[1] * O[3] * sq
            * (a1 + p1 * (t0 - t1)) * (a2 + p2 * (-t1 + t3)) * (a1 + p1 * (t3 - t4))
            / (64 * d1p * d3m),
            "B_{2,{1,3}}^{+,+}": O[1] * O[3] * sq
            * (a1 + p1 * (t0 - t1)) * (a2 - p2 * (t1 + t3)) * (a1 - p1 * (t3 + t4))
            / (64 * d1p * d3p),
            "B_{2,{2,3}}^{-,+}": O[2] * O[3] * sq
            * (a2 + p2 * (t0 + t2)) * (a1 + p1 * (t2 - t3)) * (a1 - p1 * (t3 + t4))
            / (64 * d2m * d3p),
            "B_{2,{2,3}}^{-,-}": O[2] * O[3] * sq
            * (a2 + p2 * (t0 + t2)) * (a1 + p1 * (t2 + t3)) * (a1 + p1 * (t3 - t4))
            / (64 * d2m * d3m),
            "B_{2,{2,3}}^{+,-}": O[2] * O[3] * sq
            * (a2 + p2 * (t0 - t2)) * (a1 + p1 * (-t2 + t3)) * (a1 + p1 * (t3 - t4))
            / (64 * d2p * d3m),
            "B_{2,{2,3}}^{+,+}": O[2] * O[3] * sq
            * (a2 + p2 * (t0 - t2)) * (a1 - p1 * (t2 + t3)) * (a1 - p1 * (t3 + t4))
            / (64 * d2p * d3p),
            "B_{3,{1,2,3}}^{+,+,+}": pref3
            * (a1 + p1 * (t0 - t1)) * (a1 - p1 * (t1 + t2)) * (a1 - p1 * (t2 + t3))
            * (a1 - p1 * (t3 + t4)) / (256 * d1p * d2p * d3p),
            "B_{3,{1,2,3}}^{-,+,+}": pref3
            * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 - t2)) * (a1 - p1 * (t2 + t3))
            * (a1 - p1 * (t3 + t4)) / (256 * d1m * d2p * d3p),
            "B_{3,{1,2,3}}^{+,-,+}": pref3
            * (a1 + p1 * (t0 - t1)) * (a1 - p1 * (t1 - t2)) * (a1 - p1 * (t3 - t2))
            * (a1 - p1 * (t3 + t4)) / (256 * d1p * d2m * d3p),
            "B_{3,{1,2,3}}^{+,+,-}": pref3
            * (a1 + p1 * (t0 - t1)) * (a1 - p1 * (t1 + t2)) * (a1 - p1 * (t2 - t3))
            * (a1 - p1 * (t4 - t3)) / (256 * d1p * d2p * d3m),
            "B_{3,{1,2,3}}^{-,-,+}": pref3
            * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 + t2)) * (a1 + p1 * (t2 - t3))
            * (a1 - p1 * (t3 + t4)) / (256 * d1m * d2m * d3p),
            "B_{3,{1,2,3}}^{+,-,-}": pref3
            * (a1 + p1 * (t0 - t1)) * (a1 - p1 * (t1 - t2)) * (a1 + p1 * (t3 + t2))
            * (a1 - p1 * (t4 - t3)) / (256 * d1p * d2m * d3m),
            "B_{3,{1,2,3}}^{-,+,-}": pref3
            * (a1 + p1 * (t0 + t1)) * (a1 - p1 * (t2 - t1)) * (a1 - p1 * (t2 - t3))
            * (a1 - p1 * (t4 - t3)) / (256 * d1m * d2p * d3m),
            "B_{3,{1,2,3}}^{-,-,-}": pref3
            * (a1 + p1 * (t0 + t1)) * (a1 + p1 * (t1 + t2)) * (a1 + p1 * (t2 + t3))
            * (a1 + p1 * (t3 - t4)) / (256 * d1m * d2m * d3m),
        }


# Signed assembly orders, written out from the displayed sums.
_SIGNED_SUMS = {
    2: [("b0", +1), ("B_{1,1}^{-}", -1), ("B_{1,1}^{+}", +1)],
    3: [
        ("b0", +1),
        ("B_{1,1}^{-}", -1), ("B_{1,1}^{+}", +1),
        ("B_{1,2}^{-}", -1), ("B_{1,2}^{+}", +1),
        ("B_{2,{1,2}}^{-,+}", -1), ("B_{2,{1,2}}^{-,-}", +1),
        ("B_{2,{1,2}}^{+,-}", -1), ("B_{2,{1,2}}^{+,+}", +1),
    ],
    4: [
        ("b0", +1),
        ("B_{1,1}^{-}", -1), ("B_{1,1}^{+}", +1),
        ("B_{1,2}^{-}", -1), ("B_{1,2}^{+}", +1),
        ("B_{1,3}^{-}", -1), ("B_{1,3}^{+}", +1),
        ("B_{2,{1,2}}^{-,+}", -1), ("B_{2,{1,2}}^{-,-}", +1),
        ("B_{2,{1,2}}^{+,-}", -1), ("B_{2,{1,2}}^{+,+}", +1),
        ("B_{2,{1,3}}^{-,+}", -1), ("B_{2,{1,3}}^{-,-}", +1),
        ("B_{2,{1,3}}^{+,-}", -1), ("B_{2,{1,3}}^{+,+}", +1),
        ("B_{2,{2,3}}^{-,+}", -1), ("B_{2,{2,3}}^{-,-}", +1),
        ("B_{2,{2,3}}^{+,-}", -1), ("B_{2,{2,3}}^{+,+}", +1),
        ("B_{3,{1,2,3}}^{-,+,+}", -1), ("B_{3,{1,2,3}}^{-,-,+}", +1),
        ("B_{3,{1,2,3}}^{+,-,+}", -1), ("B_{3,{1,2,3}}^{+,+,+}", +1),
        ("B_{3,{1,2,3}}^{+,+,-}", -1), ("B_{3,{1,2,3}}^{+,-,-}", +1),
        ("B_{3,{1,2,3}}^{-,-,-}", -1), ("B_{3,{1,2,3}}^{-,+,-}", +1),
    ],
}


def oracle_beta1(p: int, h, cfg: OracleConfig = OracleConfig()):
    """The p-th instability coefficient at >= 30 correct digits."""
    with mp.workdps(cfg.digits + 10):
        terms = oracle_beta_terms(p, h, cfg)
        return mp.fsum(sign * terms[name] for name, sign in _SIGNED_SUMS[p])


def oracle_find_beta_zero(p: int, lo, hi, cfg: OracleConfig = OracleConfig(), digits_out: int = 20):
    """Bisect oracle_beta1 for a sign change inside [lo, hi]."""
    with mp.workdps(cfg.digits + 10):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        flo = oracle_beta1(p, lo, cfg)
        fhi = oracle_beta1(p, hi, cfg)
        if mp.sign(flo) == mp.sign(fhi):
            raise OracleError(f"no sign change of beta on [{lo}, {hi}] for p={p}")
        target = mp.mpf(10) ** (-digits_out)
        while hi - lo > target:
            mid = (lo + hi) / 2
            if mp.sign(oracle_beta1(p, mid, cfg)) == mp.sign(flo):
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def write_fixtures(path, points, cfg: OracleConfig = OracleConfig()):
    """Evaluate beta at each (p, h) and write the TSV fixture file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        "# beta oracle fixtures: p, h, beta1(p,h), digits",
        "# regenerate: python -m stokes_isolas.oracle",
    ]
    for p, h in points:
        val = oracle_beta1(p, h, cfg)
        with mp.workdps(cfg.digits):
            lines.append(f"{p}\t{mp.nstr(mp.mpf(h), 17)}\t{mp.nstr(val, 30)}\t{cfg.digits}")
    path.write_text("\n".join(lines) + "\n")
    return path


# Fixture grid: deterministic spread over each p's depth range, denser where
# the zeros live, plus deep-water points for the floor tests.  Depths stay
# >= 0.55: shallower, the 8-ulp summation floor no longer bounds the (larger)
# input-rounding error of the O(1) terms, and agreement is audited by the
# relative-tolerance oracle tests instead.  The 40-digit audit of the
# compiled path rule runs at these points too, and at h = 0.05 and 14..20,
# where no double-precision check can resolve beta1.
FIXTURE_POINTS = [
    (2, 0.7), (2, 1.0), (2, 1.2), (2, 1.84940), (2, 2.5), (2, 4.0), (2, 6.0), (2, 10.0),
    (3, 0.6), (3, 0.82064), (3, 1.0), (3, 1.5), (3, 3.0), (3, 6.0), (3, 9.0),
    (4, 0.566633), (4, 0.7), (4, 0.9), (4, 1.255969), (4, 2.0), (4, 3.0), (4, 5.0), (4, 8.0), (4, 14.0),
]


def main(argv=None):
    import argparse

    ap = argparse.ArgumentParser(description="regenerate the beta oracle fixtures")
    ap.add_argument("--digits", type=int, default=50)
    ap.add_argument("--out", type=Path, default=DEFAULT_FIXTURES)
    args = ap.parse_args(argv)
    cfg = OracleConfig(digits=args.digits)
    out = write_fixtures(args.out, FIXTURE_POINTS, cfg)
    print(f"wrote {len(FIXTURE_POINTS)} records to {out}")


if __name__ == "__main__":
    main()
