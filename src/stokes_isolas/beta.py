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

The rule is compiled once per p into a plan (``_plan``): for each term its
sign, its 4^(k+1), its hops as (l-1, w_m, m, w_n, n) and its intermediates
(j, s), with each distinct hop factor and denominator evaluated once per
depth.  One evaluator (``_evaluate``) applies the plan to Python floats at
a single depth (``beta1``, ``beta1_breakdown``, ``IsolaParams.from_depth``)
or to numpy arrays over a grid of depths, giving one grid record (``_Grid``)
that ``beta_scan``, the grid pass of ``find_beta_zeros`` and the CLI tables
read.  It performs the same IEEE operations in the same order either way,
and the grid's phi* solve is a lane-wise port of the single-depth Brent
solve, so every grid value equals the single-depth value bit for bit.

Deep in the water column the total is exponentially smaller than the
individual terms (everything but the leading exponential cancels), so the
assembly uses compensated summation (``neumaier_sum``), and ``_floor``
gives the resolution limit, 8 ulps of the largest term, below which a
computed total is numerically meaningless.  Each has one body that runs
on floats at one depth and on numpy rows over a grid, like ``_evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .dispersion import _check_depth, _libm, _phase, _sqrt
from .errors import SingularityError
from .resonance import ResonanceData, _check_index, _resonance_grid, brentq, build_resonance_data
from .stokes_coefficients import _coefficients

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


def neumaier_sum(values):
    """Compensated (Neumaier) summation of floats, or of numpy rows column by column.

    The exact error of each ``total + v`` comes from Knuth's branch-free
    TwoSum (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 2005): the error
    term of the classic branch on the larger operand, so the same double.
    """
    total = comp = 0.0
    for v in values:
        t = total + v
        bv = t - total
        comp += (total - (t - bv)) + (v - bv)
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


@dataclass(frozen=True)
class _Plan:
    """The path rule for one p, compiled once.

    hops: distinct hop factors as (l-1, w_m, m, w_n, n); dens: distinct
    intermediate denominators as (j, s); terms: per term, in beta_term_ids
    order, (sign, 4^(k+1), hop indices, denominator indices); groups: the
    term rows of each path family, in first-appearance order.
    """

    p: int
    hops: tuple
    dens: tuple
    terms: tuple
    groups: dict


@lru_cache(maxsize=None)
def _plan(p: int) -> _Plan:
    hops: dict = {}
    dens: dict = {}
    terms, groups = [], {}
    for row, tid in enumerate(beta_term_ids(p)):
        nodes = (0, *tid.intermediates, p)
        weights = (1.0, *(-float(s) for s in tid.signs), -1.0)
        hop_ids = tuple(
            hops.setdefault((n - m - 1, weights[i], m, weights[i + 1], n), len(hops))
            for i, (m, n) in enumerate(zip(nodes, nodes[1:]))
        )
        den_ids = tuple(dens.setdefault(js, len(dens)) for js in zip(tid.intermediates, tid.signs))
        terms.append((tid.sign, 4.0 ** (len(tid.intermediates) + 1), hop_ids, den_ids))
        if row:
            groups.setdefault(tid.group, []).append(row)
    return _Plan(p, tuple(hops), tuple(dens), tuple(terms), groups)


def _denominators(plan: _Plan, Omega, c) -> list:
    """j*c - s*Omega_j - Omega_0 for each distinct intermediate (j, s)."""
    return [j * c - s * Omega[j] - Omega[0] for j, s in plan.dens]


def _evaluate(plan: _Plan, Omega, t, coefficients, dens) -> list:
    """Signed terms in beta_term_ids order.

    Omega[j] and t[j] are floats at one depth or rows of arrays over a grid,
    and the Stokes coefficients and denominators match; either way every
    term gets the same IEEE operations in the same order, so a grid column
    equals the single-depth result bit for bit.
    """
    a, pl = coefficients
    hop = [a[l] + pl[l] * (wm * t[m] + wn * t[n]) for l, wm, m, wn, n in plan.hops]
    root = _sqrt(Omega[0] * Omega[plan.p])
    out = []
    for sign, scale, hop_ids, den_ids in plan.terms:
        numerator = hop[hop_ids[0]]
        for k in hop_ids[1:]:
            numerator = numerator * hop[k]
        prefactor, denominator = root, scale
        for k in den_ids:
            prefactor = prefactor * Omega[plan.dens[k][0]]
            denominator = denominator * dens[k]
        out.append(sign * (prefactor * numerator / denominator))
    return out


def _signed_terms(rd: ResonanceData) -> list[float]:
    """Every term of the rd.p-th coefficient at one depth with its sign, in beta_term_ids order."""
    plan = _plan(rd.p)
    c = _phase(rd.h)
    coefficients = _coefficients(c)
    Omega, t = rd.Omega.tolist(), rd.t.tolist()
    dens = _denominators(plan, Omega, c)
    for tid, (_, _, _, den_ids) in zip(beta_term_ids(rd.p), plan.terms):
        for k in den_ids:
            if abs(dens[k]) < DENOMINATOR_GUARD:
                j, s = plan.dens[k]
                sign = "-" if s > 0 else "+"
                raise SingularityError(
                    f"near-vanishing denominator {j}*c_h {sign} Omega_{j} - Omega_0 = {dens[k]:.3e} "
                    f"in term {tid.label} at (p={rd.p}, h={rd.h})",
                    denominator_label=f"{j}*c_h {sign} Omega_{j} - Omega_0",
                    value=dens[k],
                )
    return _evaluate(plan, Omega, t, coefficients, dens)


def _grid_terms(rd: ResonanceData) -> np.ndarray:
    """Signed terms over a ResonanceData of arrays: one row per term, one column per depth.

    Columns the array pass cannot vouch for (a near-vanishing denominator,
    a non-finite term) are redone by _signed_terms in grid order, which
    raises the error a row-by-row loop would raise first.
    """
    plan = _plan(rd.p)
    c = _phase(rd.h)
    dens = _denominators(plan, rd.Omega, c)
    with np.errstate(all="ignore"):
        terms = np.array(_evaluate(plan, rd.Omega, rd.t, _coefficients(c), dens))
    redo = ~np.isfinite(terms).all(axis=0)
    for d in dens:
        redo |= np.abs(d) < DENOMINATOR_GUARD
    for i in np.flatnonzero(redo):
        lane = ResonanceData(rd.p, float(rd.h[i]), float(rd.phi_star[i]), float(rd.omega_star[i]),
                             rd.Omega[:, i], rd.t[:, i], float(rd.residual[i]))
        terms[:, i] = _signed_terms(lane)
    return terms


def _floor(terms):
    """8 ulps of the largest |term|: a float at one depth, or one per column of grid rows."""
    return 8.0 * _libm(math.ulp, np.abs(terms).max(axis=0))


def _group_sums(p: int, terms) -> dict:
    """Compensated sum of each path family's terms, at one depth or per grid column."""
    return {name: neumaier_sum([terms[k] for k in rows]) for name, rows in _plan(p).groups.items()}


@dataclass(frozen=True)
class _Grid:
    """beta1 over a grid of depths, one column per depth.

    terms holds the signed terms, one row per beta_term_ids(p) entry, and
    total their compensated sum.  Every value equals the single-depth one.
    """

    p: int
    h: np.ndarray
    terms: np.ndarray
    total: np.ndarray

    @property
    def floor_flag(self) -> np.ndarray:
        """Totals within 10x of the cancellation floor."""
        return np.abs(self.total) < 10.0 * _floor(self.terms)

    def group_sums(self) -> dict[str, np.ndarray]:
        """Compensated sum of each path family, as BetaBreakdown.group_sums."""
        return _group_sums(self.p, self.terms)


def _grid(p: int, hs) -> _Grid:
    """The grid record at every depth of hs (see _grid_terms)."""
    rd = _resonance_grid(p, hs)
    terms = _grid_terms(rd)
    return _Grid(rd.p, rd.h, terms, neumaier_sum(terms))


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
        return _floor(list(self.terms.values()))

    def signed_values(self) -> list[float]:
        return [tid.sign * v for tid, v in self.terms.items()]


def beta1_breakdown(p: int, h: float) -> BetaBreakdown:
    """Like :func:`beta1` but exposing every term and the group sums."""
    rd = build_resonance_data(p, h)
    signed = _signed_terms(rd)
    return BetaBreakdown(
        p=p,
        h=rd.h,
        b0=signed[0],
        terms={tid: tid.sign * v for tid, v in zip(beta_term_ids(p), signed)},
        group_sums=_group_sums(p, signed),
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
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    grid = _grid(p, np.linspace(h_min, h_max, grid_n + 1))
    hs, vals, noise = grid.h.tolist(), grid.total.tolist(), grid.floor_flag.tolist()

    def trusted(i):
        return 0 <= i <= grid_n and not noise[i]

    f = lambda h: beta1(p, h)
    zeros = []
    for i, v in enumerate(vals):
        if v == 0.0:
            if trusted(i - 1) or trusted(i + 1):
                zeros.append(hs[i])
        elif i < grid_n and v * vals[i + 1] < 0.0 and (trusted(i) or trusted(i + 1)):
            # the grid already holds beta1 at both ends of the bracket
            zeros.append(brentq(f, hs[i], hs[i + 1], v, vals[i + 1], tol))
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
    the value should not be trusted.  The grid is evaluated at once, and
    every field equals what beta1 and leading_term return at that depth.
    """
    from .asymptotics import leading_term

    _plan(_check_index(p))  # refuses an unsupported p, also on an empty grid
    hs = [float(h) for h in hs]
    grid = np.array(hs)
    inside = (_SCAN_H_RANGE[0] <= grid) & (grid <= _SCAN_H_RANGE[1])
    n = len(hs) if inside.all() else int(np.argmin(inside))
    rows = []
    if n:  # the rows before a depth out of range are evaluated first, as row by row
        g = _grid(p, grid[:n])
        lead = leading_term(p, grid[:n])
        ratio = np.full(n, math.nan)
        np.divide(g.total, lead, out=ratio, where=lead != 0.0)
        rows = list(map(ScanRow, hs, g.total.tolist(), lead.tolist(), ratio.tolist(), g.floor_flag.tolist()))
    if n < len(hs):
        raise ValueError(f"scan grid must lie within {_SCAN_H_RANGE}, got h={hs[n]!r}")
    return rows
