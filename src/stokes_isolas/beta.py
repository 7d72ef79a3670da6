"""Instability coefficients of the high-frequency isolas, term by term.

The p-th coefficient is a signed sum over "paths" of harmonics
0 -> j_1 -> ... -> j_k -> p, one term per increasing subset
{j_1 < ... < j_k} of the intermediate harmonics {1, ..., p-1} and per
choice of a signature s_i = +-1 at each intermediate.  A term visiting k
intermediates is

            [prod_i Omega_{j_i}] * sqrt(Omega_0 * Omega_p)
    term =  ----------------------------------------------- * prod_hops N
            4^(k+1) * prod_i (j_i*c - s_i*Omega_{j_i} - Omega_0)

where each hop between consecutive visited harmonics (m, n) of length
l = n - m contributes the factor

    N = a_l + p_l * (w_m * t_m + w_n * t_n),

with t-weights w = +1 at harmonic 0, w = -1 at harmonic p, and w = -s_i at
intermediate j_i.  The term enters the total with sign prod_i s_i.  This
single rule reproduces all 3 / 9 / 27 displayed summands for p = 2 / 3 / 4;
transcribing it once as data instead of hand-coding 27 expressions is the
main defense against sign typos (the audit tests compare against the
independently transcribed reference evaluator in ``oracle.py``).

Deep in the water column the total is exponentially smaller than the
individual terms (everything but the leading exponential cancels), so the
assembly uses compensated summation; ``cancellation_floor`` reports the
resolution limit 8 ulps of the largest term, below which a computed total
is numerically meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np
from scipy.optimize import brentq

from .dispersion import _check_depth
from .errors import SingularityError
from .resonance import ResonanceData, build_resonance_data
from .stokes_coefficients import StokesCoefficients, stokes_coefficients

__all__ = [
    "BetaTermId",
    "BetaBreakdown",
    "ScanRow",
    "beta_term_ids",
    "beta1",
    "beta1_breakdown",
    "find_beta_zeros",
    "beta_scan",
    "neumaier_sum",
]

# Denominators j*c - s*Omega_j - Omega_0 stay O(1) on the validated depth
# range [0.05, 20]; anything smaller than this is outside that range and
# refused rather than silently amplified.
DENOMINATOR_GUARD = 1e-10

_SCAN_H_RANGE = (0.05, 20.0)


def neumaier_sum(values) -> float:
    """Compensated (Neumaier) summation of a float iterable."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


@dataclass(frozen=True)
class BetaTermId:
    """Identity of one summand: visited intermediates and their signatures.

    ``intermediates == ()`` is the direct 0 -> p term (b0).  ``signs`` holds
    the +-1 superscripts of the displayed formulas, one per intermediate.
    """

    p: int
    intermediates: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def sign(self) -> int:
        """Sign with which this term enters the total."""
        return -1 if sum(1 for s in self.signs if s < 0) % 2 else 1

    @property
    def group(self) -> str:
        k = len(self.intermediates)
        if k == 0:
            return "b0"
        if k == 1:
            return f"B_{{1,{self.intermediates[0]}}}"
        inner = ",".join(map(str, self.intermediates))
        return f"B_{{{k},{{{inner}}}}}"

    @property
    def label(self) -> str:
        if not self.intermediates:
            return "b0"
        sup = ",".join("+" if s > 0 else "-" for s in self.signs)
        return f"{self.group}^{{{sup}}}"


@lru_cache(maxsize=None)
def beta_term_ids(p: int) -> tuple[BetaTermId, ...]:
    """Canonical enumeration: subsets by size then position, signs - before +."""
    if p not in (2, 3, 4):
        raise ValueError(f"closed-form coefficients exist for p in {{2, 3, 4}}, got {p!r}")
    ids = [BetaTermId(p, (), ())]
    for k in range(1, p):
        for J in combinations(range(1, p), k):
            for S in product((-1, 1), repeat=k):
                ids.append(BetaTermId(p, J, S))
    return tuple(ids)


def _term_value(tid: BetaTermId, rd: ResonanceData, sc: StokesCoefficients) -> float:
    c = sc.c
    O = rd.Omega
    t = rd.t
    p = tid.p

    nodes = (0, *tid.intermediates, p)
    weights = (1.0, *(-float(s) for s in tid.signs), -1.0)

    numerator = 1.0
    for i in range(len(nodes) - 1):
        m, n = nodes[i], nodes[i + 1]
        l = n - m
        numerator *= sc.a(l) + sc.p(l) * (weights[i] * t[m] + weights[i + 1] * t[n])

    denominator = 4.0 ** (len(tid.intermediates) + 1)
    prefactor = math.sqrt(O[0] * O[p])
    for j, s in zip(tid.intermediates, tid.signs):
        prefactor *= O[j]
        d = j * c - s * O[j] - O[0]
        if abs(d) < DENOMINATOR_GUARD:
            sign = "-" if s > 0 else "+"
            raise SingularityError(
                f"near-vanishing denominator {j}*c_h {sign} Omega_{j} - Omega_0 = {d:.3e} "
                f"in term {tid.label} at (p={p}, h={rd.h})",
                denominator_label=f"{j}*c_h {sign} Omega_{j} - Omega_0",
                value=d,
            )
        denominator *= d

    return float(prefactor * numerator / denominator)


def _signed_terms(rd: ResonanceData) -> list[float]:
    """Every term of the rd.p-th coefficient with its sign, in beta_term_ids order."""
    sc = stokes_coefficients(rd.h)
    return [tid.sign * _term_value(tid, rd, sc) for tid in beta_term_ids(rd.p)]


def _floor(total: float, terms) -> tuple[float, bool]:
    """Cancellation floor (8 ulps of the largest term) and whether |total| is within 10x of it."""
    floor = 8.0 * math.ulp(max(abs(v) for v in terms))
    return floor, abs(total) < 10.0 * floor


def beta1(p: int, h: float) -> float:
    """Signed compensated sum of all terms of the p-th coefficient at depth h."""
    return neumaier_sum(_signed_terms(build_resonance_data(p, h)))


@dataclass(frozen=True)
class BetaBreakdown:
    """Every summand of the p-th coefficient at one depth.

    ``terms`` maps each term id to its raw (unsigned) value; the signed
    assembly gives ``total`` and the per-path-family ``group_sums``.
    """

    p: int
    h: float
    b0: float
    terms: dict[BetaTermId, float]
    group_sums: dict[str, float]
    total: float

    @property
    def cancellation_floor(self) -> float:
        """8 ulps of the largest term: the resolution limit of ``total``."""
        return _floor(self.total, self.terms.values())[0]

    def signed_values(self) -> list[float]:
        return [tid.sign * v for tid, v in self.terms.items()]


def beta1_breakdown(p: int, h: float) -> BetaBreakdown:
    """Like :func:`beta1` but exposing every term and the group sums."""
    rd = build_resonance_data(p, h)
    ids = beta_term_ids(p)
    signed = _signed_terms(rd)
    groups: dict[str, list[float]] = {}
    for tid, v in zip(ids[1:], signed[1:]):
        groups.setdefault(tid.group, []).append(v)
    return BetaBreakdown(
        p=p,
        h=rd.h,
        b0=signed[0],
        terms={tid: tid.sign * v for tid, v in zip(ids, signed)},
        group_sums={name: neumaier_sum(vals) for name, vals in groups.items()},
        total=neumaier_sum(signed),
    )


def find_beta_zeros(
    p: int,
    h_min: float,
    h_max: float,
    grid_n: int = 2000,
    tol: float = 1e-8,
) -> list[float]:
    """Zeros of h -> beta1(p, h) in [h_min, h_max] by sign-change bracketing.

    Scans a uniform grid of grid_n intervals, then refines each sign change
    by Brent bisection until the bracket is narrower than tol.  Sign changes
    between two grid values that are both within 10x of the cancellation
    floor are rounding noise and are skipped; an exact 0.0 on the grid
    counts only next to a value above the floor.  An empty list is a valid
    result; callers wanting residuals evaluate beta1 at the returned points.
    """
    _check_depth(h_min)
    _check_depth(h_max)
    if not h_min < h_max:
        raise ValueError(f"need h_min < h_max, got {h_min!r} >= {h_max!r}")
    if grid_n < 100:
        raise ValueError(f"grid_n must be >= 100, got {grid_n!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    hs = np.linspace(h_min, h_max, grid_n + 1)
    vals, noise = [], []
    for h in hs:
        terms = _signed_terms(build_resonance_data(p, h))
        total = neumaier_sum(terms)
        vals.append(total)
        noise.append(_floor(total, terms)[1])

    def trusted(i):
        return 0 <= i <= grid_n and not noise[i]

    f = lambda h: beta1(p, h)
    zeros = []
    for i, v in enumerate(vals):
        if v == 0.0:
            if trusted(i - 1) or trusted(i + 1):
                zeros.append(float(hs[i]))
        elif i < grid_n and v * vals[i + 1] < 0.0 and (trusted(i) or trusted(i + 1)):
            zeros.append(brentq(f, hs[i], hs[i + 1], xtol=tol))
    return zeros


@dataclass(frozen=True)
class ScanRow:
    """One point of the coefficient curve with its leading asymptote."""

    h: float
    beta1: float
    leading: float
    ratio: float
    floor_flag: bool


def beta_scan(p: int, hs) -> list[ScanRow]:
    """Tabulate (h, beta1, leading, ratio, floor_flag) over a depth grid.

    This is the data behind the coefficient-vs-depth plots: the computed
    curve next to the leading part of its deep-water expansion.  floor_flag
    marks points where |beta1| is within 10x of the cancellation floor and
    the value should not be trusted.
    """
    from .asymptotics import leading_term

    rows = []
    for h in hs:
        h = float(h)
        if not _SCAN_H_RANGE[0] <= h <= _SCAN_H_RANGE[1]:
            raise ValueError(f"scan grid must lie within {_SCAN_H_RANGE}, got h={h!r}")
        terms = _signed_terms(build_resonance_data(p, h))
        total = neumaier_sum(terms)
        lead = leading_term(p, h)
        rows.append(
            ScanRow(
                h=h,
                beta1=total,
                leading=lead,
                ratio=total / lead if lead != 0.0 else math.nan,
                floor_flag=_floor(total, terms)[1],
            )
        )
    return rows
