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
depth.  The plan is compiled in turn, lazily and once, into two pieces of
straight-line Python source, so evaluating it walks no loops.  Its
denominators (``_Plan.denominators``) are one expression each,
j*c -+ Omega_j - Omega_0, with -s*Omega_j written as a sign.  Its rule
(``_Plan.rule``) has each distinct hop factor as one local
a_l + p_l * (+-t_m +- t_n), with the t-weights written as signs, each
distinct prefactor root * Omega_j ... as one local, and each term as one
expression, x or -(x).  Dropping the multiplies by +-1 changes no double.
The rule is a rational function of c, Omega_j, t_j and
root = sqrt(Omega_0 * Omega_p), which its caller supplies: only + - * /
and float constants touch them, so it runs on Python floats at a single
depth, on numpy arrays over a grid of depths and on mpmath numbers (the
40-digit audit in the tests).

At one depth (``_point``) p is refused before the depth and both before
the one single-depth solve (``resonance._solve``), whose plain floats and
lists ``_signed_terms`` reads: ``beta1`` and ``IsolaParams.from_depth``
build no record.  For doubles the record is ``BetaBreakdown``: the signed
terms and their total, floats at one depth (``beta1_breakdown``) or one
column per depth over a grid (``_grid``).  ``beta_scan`` (which fills its
rows' slots a column at a time), the grid pass of ``find_beta_zeros`` and
the CLI tables read it.  The rule performs the same IEEE operations in
the same order either way, and the grid's phi* solve is a lane-wise port
of the single-depth Brent solve, so every grid value equals the
single-depth value bit for bit.  The terms of a grid of any size are one
array pass, then one loop of ``_signed_terms`` over the columns it cannot
vouch for.  The phi* solve is the grid path's one size fork: below
``resonance._LANES_FROM`` depths, where numpy's fixed costs outweigh the
gain, it skips its lane pass and solves depth by depth.

Deep in the water column the total is exponentially smaller than the
individual terms (everything but the leading exponential cancels), so the
assembly uses compensated summation (``neumaier_sum``), and the record's
``cancellation_floor`` gives the resolution limit, 8 ulps of the largest
term, below which a computed total is numerically meaningless.  Each has
one body that runs on floats at one depth and on numpy rows over a grid,
like the rule; the floor's ulps are math.ulp's at one depth and
np.spacing's, the same doubles, over a grid (``dispersion._ulp``).
"""

from __future__ import annotations

import linecache
import math
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import combinations, product, repeat

from .asymptotics import leading_term
from .dispersion import _FLOATS, _check_depth, _tabulate, _ulp, np
from .errors import SingularityError
from .resonance import (
    ResonanceData, _check_index, _equal_fields, _record, _resonance_grid, _scan_depths, _solve, brentq,
)
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
    p = int(p)
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

    @cached_property
    def denominators(self):
        """The plan's denominators as straight-line Python: denominators(Omega, c) -> [d0, d1, ...].

        d_k = j*c - s*Omega_j - Omega_0 for the k-th distinct intermediate
        (j, s), left to right, with 1 * c written c and -s * Omega_j written
        as a sign (x - (-y) is exactly x + y): the same doubles as the
        longhand expression, on floats and arrays alike.  Compiled under
        ``<denominators p=...>``.
        """
        p = self.p
        dens = [f"{'c' if j == 1 else f'{j} * c'} {'-' if s > 0 else '+'} O{j} - O0" for j, s in self.dens]
        lines = [
            "def denominators(Omega, c):",
            f"    {', '.join(f'O{j}' for j in range(p + 1))} = Omega",
            f"    return [{', '.join(dens)}]",
        ]
        return _compile(f"<denominators p={p}>", lines, "denominators")

    @cached_property
    def rule(self):
        """The plan as straight-line Python: rule(Omega, t, coefficients, dens, root) -> signed terms.

        Omega_j, t_j, the coefficients a_l, p_l and the denominators become
        locals.  Each distinct hop factor is one local N = a + p * (+-t_m +- t_n),
        its t-weights written as signs (w * t with w = +-1 is exactly +-t,
        and x + -y is exactly x - y).  Each distinct prefactor
        root * Omega_j ... is one local r, assigned once from the prefactor
        of its subset's prefix (r12 = r1 * O2), so it keeps its left-to-right
        association.  Each term is one expression x or -(x), with
        x = prefactor * (N * N ...) / (4^(k+1) * d ...), multiplied left to
        right within each bracket.  Compiled under ``<path rule p=...>``.
        """
        p = self.p
        lines = [
            "def path_rule(Omega, t, coefficients, dens, root):",
            f"    {', '.join(f'O{j}' for j in range(p + 1))} = Omega",
            f"    {', '.join(f't{j}' for j in range(p + 1))} = t",
            "    (a1, a2, a3, a4), (p1, p2, p3, p4) = coefficients",
            f"    {', '.join(f'd{k}' for k in range(len(self.dens)))} = dens",
        ]
        lines += [f"    N{k} = a{l + 1} + p{l + 1} * ({'-' if wm < 0 else ''}t{m} {'-' if wn < 0 else '+'} t{n})"
                  for k, (l, wm, m, wn, n) in enumerate(self.hops)]
        prefactors = {(): "root"}
        for J in dict.fromkeys(tid.intermediates for tid in beta_term_ids(p) if tid.intermediates):
            prefactors[J] = "r" + "".join(map(str, J))
            lines.append(f"    {prefactors[J]} = {prefactors[J[:-1]]} * O{J[-1]}")
        lines.append("    return [")
        for tid, (sign, scale, hop_ids, den_ids) in zip(beta_term_ids(p), self.terms):
            numerator = _product([f"N{k}" for k in hop_ids])
            denominator = _product([repr(scale), *(f"d{k}" for k in den_ids)])
            term = f"{prefactors[tid.intermediates]} * {numerator} / {denominator}"
            lines.append(f"        {term if sign > 0 else f'-({term})'},  # {tid.label}")
        lines.append("    ]")
        return _compile(f"<path rule p={p}>", lines, "path_rule")


def _compile(filename: str, lines: list[str], name: str):
    """The function name that lines define, compiled under filename and put in linecache for tracebacks."""
    source = "\n".join(lines) + "\n"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _product(factors: list[str]) -> str:
    """Source of the left-to-right product of factors, bracketed unless it is one factor."""
    return factors[0] if len(factors) == 1 else f"({' * '.join(factors)})"


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


def _signed_terms(plan: _Plan, h: float, c: float, Omega: list[float], t: list[float]) -> list[float]:
    """Every term of the plan.p-th coefficient at depth h with its sign, in beta_term_ids order.

    c, Omega_j and t_j are the floats and lists the single-depth solve
    returns.  Each denominator is checked against DENOMINATOR_GUARD before
    any term divides by it.
    """
    coefficients = _coefficients(c)
    dens = plan.denominators(Omega, c)
    if min(map(abs, dens)) < DENOMINATOR_GUARD:
        # name the first term, in beta_term_ids order, that divides by a guarded denominator
        tid, k = next((tid, k) for tid, (_, _, _, den_ids) in zip(beta_term_ids(plan.p), plan.terms)
                      for k in den_ids if abs(dens[k]) < DENOMINATOR_GUARD)
        j, s = plan.dens[k]
        sign = "-" if s > 0 else "+"
        raise SingularityError(
            f"near-vanishing denominator {j}*c_h {sign} Omega_{j} - Omega_0 = {dens[k]:.3e} "
            f"in term {tid.label} at (p={plan.p}, h={h})",
            denominator_label=f"{j}*c_h {sign} Omega_{j} - Omega_0",
            value=dens[k],
        )
    return plan.rule(Omega, t, coefficients, dens, math.sqrt(Omega[0] * Omega[plan.p]))


def _grid_terms(rd: ResonanceData) -> np.ndarray:
    """Signed terms over a ResonanceData of arrays: one row per term, one column per depth.

    One array pass takes them all, however few columns the grid has.  Then
    _signed_terms takes again, in grid order, each column the array pass
    cannot vouch for (a near-vanishing denominator, a non-finite term), and
    raises the error a column-by-column loop would raise first.
    """
    plan = _plan(rd.p)
    dens = plan.denominators(rd.Omega, rd.c)
    with np.errstate(all="ignore"):
        root = np.sqrt(rd.Omega[0] * rd.Omega[rd.p])
        terms = np.array(plan.rule(rd.Omega, rd.t, _coefficients(rd.c), dens, root))
    redo = ~np.isfinite(terms).all(axis=0)
    for d in dens:
        redo |= np.abs(d) < DENOMINATOR_GUARD
    for i in np.flatnonzero(redo):
        Omega, t = rd.Omega[:, i].tolist(), rd.t[:, i].tolist()
        terms[:, i] = _signed_terms(plan, float(rd.h[i]), float(rd.c[i]), Omega, t)
    return terms


@dataclass(frozen=True, eq=False)
class BetaBreakdown:
    """Every summand of the p-th coefficient, at one depth or over a grid of depths.

    ``signed`` holds the terms with their signs, in beta_term_ids order, and
    ``total`` their compensated sum: floats at one depth, or one column per
    depth over a grid, like ``rd``, the ResonanceData they came from.  The
    other values are computed when read; ``terms`` maps each term id to its
    raw (unsigned) value.  Every grid value equals the single-depth one.
    Two records are equal when their p, h, signed terms and totals are.
    """

    rd: ResonanceData = field(repr=False)
    signed: list[float] | np.ndarray
    total: float | np.ndarray

    def __eq__(self, other):
        if not isinstance(other, BetaBreakdown):
            return NotImplemented
        return _equal_fields(self, other, ("p", "h", "signed", "total"))

    @property
    def p(self) -> int:
        return self.rd.p

    @property
    def h(self) -> float | np.ndarray:
        return self.rd.h

    @property
    def b0(self) -> float | np.ndarray:
        """The direct 0 -> p term."""
        return self.signed[0]

    @property
    def terms(self) -> dict[BetaTermId, float | np.ndarray]:
        return {tid: tid.sign * v for tid, v in zip(beta_term_ids(self.p), self.signed)}

    @property
    def group_sums(self) -> dict[str, float | np.ndarray]:
        """Compensated sum of each path family's signed terms."""
        return {name: neumaier_sum([self.signed[k] for k in rows]) for name, rows in _plan(self.p).groups.items()}

    @property
    def cancellation_floor(self) -> float | np.ndarray:
        """8 ulps of the largest term: the resolution limit of ``total``."""
        return 8.0 * _ulp(np.abs(self.signed).max(axis=0))

    @property
    def floor_flag(self) -> bool | np.ndarray:
        """Totals within 10x of the cancellation floor."""
        return abs(self.total) < 10.0 * self.cancellation_floor


def _grid(p: int, hs) -> BetaBreakdown:
    """The record at every depth of hs, one column per depth (see _grid_terms); p is refused as by _point."""
    rd = _resonance_grid(_plan(_check_index(p)).p, hs)
    signed = _grid_terms(rd)
    return BetaBreakdown(rd, signed, neumaier_sum(signed))


def _point(p: int, h: float) -> tuple:
    """(p, h, c, phi*, Omega_j, t_j, signed terms, total) at one depth, as ints, floats and lists: no record.

    p is refused first, then h, both before the one single-depth solve
    (``resonance._solve``): a p that is not an integer >= 2 by _check_index,
    then one outside {2, 3, 4} by the plan.  The first six entries are
    _record's arguments.  The total is the one sum of the terms at one
    depth, as _grid's is over a grid.
    """
    plan = _plan(_check_index(p))
    h = _check_depth(h)
    c, phi = _solve(plan.p, h)
    Omega, t = _tabulate(plan.p, h, phi, _FLOATS)
    signed = _signed_terms(plan, h, c, Omega, t)
    return plan.p, h, c, phi, Omega, t, signed, neumaier_sum(signed)


def beta1(p: int, h: float) -> float:
    """Signed compensated sum of all terms of the p-th coefficient at depth h."""
    return _point(p, h)[-1]


def beta1_breakdown(p: int, h: float) -> BetaBreakdown:
    """Like :func:`beta1` but exposing every term and the group sums."""
    *solved, signed, total = _point(p, h)
    return BetaBreakdown(_record(*solved), signed, total)


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
    if not (grid_n >= 100 and grid_n % 1 == 0):
        raise ValueError(f"grid_n must be an integer >= 100, got {grid_n!r}")
    grid_n = int(grid_n)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    grid = _grid(p, np.linspace(h_min, h_max, grid_n + 1))
    total = grid.total
    with np.errstate(all="ignore"):  # as Python's float product: an overflow is +-inf, which keeps its sign
        change = total[:-1] * total[1:] < 0.0
    candidates = np.flatnonzero((total == 0.0) | np.append(change, False))
    if not candidates.size:
        return []
    hs, vals, noise = grid.h.tolist(), total.tolist(), grid.floor_flag.tolist()

    def trusted(i):
        return 0 <= i <= grid_n and not noise[i]

    f = lambda h: beta1(p, h)
    zeros = []
    for i in candidates.tolist():
        v = vals[i]
        if v == 0.0:
            if trusted(i - 1) or trusted(i + 1):
                zeros.append(hs[i])
        elif trusted(i) or trusted(i + 1):
            # a sign change: the grid already holds beta1 at both ends of the bracket
            zeros.append(brentq(f, hs[i], hs[i + 1], v, vals[i + 1], tol)[0])
    return zeros


@dataclass(frozen=True, slots=True)
class ScanRow:
    """One point of the coefficient curve with its leading asymptote.

    beta_scan fills rows without calling __init__, so a __post_init__ here
    would not run.
    """

    h: float
    beta1: float
    leading: float
    ratio: float
    floor_flag: bool


# The __set__ of each field's slot, in field order: what ScanRow's __init__ does, a column at a time.
_SCAN_ROW_SETTERS = [getattr(ScanRow, f.name).__set__ for f in fields(ScanRow)]


def _scan_columns(p: int, hs) -> tuple[np.ndarray, ...]:
    """The columns of beta_scan(p, hs) as arrays, in the order of ScanRow's fields."""
    g = _grid(p, _scan_depths(hs))
    lead = leading_term(p, g.h)  # nonzero on the scan range, so ratio is a plain quotient
    return g.h, g.total, lead, g.total / lead, g.floor_flag


def beta_scan(p: int, hs) -> list[ScanRow]:
    """Tabulate (h, beta1, leading, ratio, floor_flag) over a depth grid.

    This is the data behind the coefficient-vs-depth plots: the computed
    curve next to the leading part of its deep-water expansion.  floor_flag
    marks points where |beta1| is within 10x of the cancellation floor and
    the value should not be trusted.  The grid is evaluated at once, and
    every field equals what beta1 and leading_term return at that depth.

    The rows are made without ScanRow's __init__, which would set their
    five fields one row at a time through object.__setattr__: each field's
    slot descriptor fills that field's column of rows in one map.
    """
    columns = [column.tolist() for column in _scan_columns(p, hs)]
    rows = list(map(object.__new__, repeat(ScanRow, len(columns[0]))))
    for set_field, column in zip(_SCAN_ROW_SETTERS, columns):
        deque(map(set_field, rows, column), maxlen=0)
    return rows
