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
stating it once instead of hand-coding 27 expressions is the main defense
against sign typos (the audit tests compare against the
independently transcribed reference evaluator in ``oracle.py``).

The rule is stated once, as plain arithmetic over ``beta_term_ids(p)``
(``_path_rule(p, Omega, t, c, root)``, which takes the Stokes
coefficients a_l, p_l from ``stokes_coefficients._coefficients``).  At a
p's first use, ``_plan`` runs it once on a recording number (``_Var``)
that writes each distinct operation (op, a, b) once on one tape, with
(+-1) * x written +-x, (-x) * y written -(x * y) and x + -y written
x - y, which changes no number.  From the tape it emits one straight-line
Python function of the same arguments, so an evaluation walks no loops:
``rule(Omega, t, c, root)`` returns the signed terms, one labelled line
each, and nothing else, and computes only what they read (for p = 2, no
a_3, a_4, p_3 or p_4).  A node used twice, such as c^2, a hop factor, a
denominator or a prefactor root * Omega_j ... that several terms share,
becomes one local; every other node, such as each p = 2 denominator, is
written inline.  The emitted code performs the plain rule's IEEE
operations in its order.  The rule is a rational function of c, Omega_j,
t_j and root = sqrt(Omega_0 * Omega_p), which its caller supplies: only
+ - * / and float constants touch them, so it runs on Python floats at a
single depth, on numpy arrays over a grid of depths and on mpmath
numbers (the 40-digit audit in the tests).

The coefficients are computed at depths in ``_DOMAIN`` = [0.05, 20] only,
checked once where every evaluation starts: a depth by ``_check_domain``,
a grid by ``_check_domain_grid``, each refusing the first depth outside
(NaN, +-inf and h <= 0 among them) with one ValueError before any solve.
On the domain the smallest |j*c - s*Omega_j - Omega_0| is 5.6e-4 (p = 2,
at h = 0.05) and every term is finite, so the terms are the rule's
outputs as they come, with no check of their own.

At one depth (``_point``) p is refused before the depth and both before
the one single-depth solve (``resonance._solve``), whose plain floats and
lists the emitted rule reads: ``beta1`` and ``IsolaParams.from_depth``
build no record, nor do the CLI's one-depth tables and ``selftest``.  For
doubles the record is ``BetaBreakdown``: the signed terms and their
total, floats at one depth (``beta1_breakdown``) or one column per depth
over a grid (``_grid``).  ``beta_scan`` (which fills its rows' slots a
column at a time), the grid pass of ``find_beta_zeros`` and the CLI's grid
tables read it.  The rule performs the same IEEE operations in
the same order either way, and the grid's phi* solve is a lane-wise port
of the single-depth Brent solve, so every grid value equals the
single-depth value bit for bit.  The terms of a grid of any size are one
array pass.  The phi* solve is the grid path's one size fork: below
``resonance._LANES_FROM`` depths, where numpy's fixed costs outweigh the
gain, it skips its lane pass and solves depth by depth.

Deep in the water column the total is exponentially smaller than the
individual terms (everything but the leading exponential cancels), so the
assembly uses compensated summation (``neumaier_sum``), and the
cancellation floor gives the resolution limit, 8 ulps of the largest term,
below which a computed total is numerically meaningless.  The floor is the
package's one such rule, ``dispersion._cancellation_floor``, which
``asymptotics.fit_remainder_rate`` and the CLI's ``selftest`` read too.
Each, like the group sums (``_group_sums``) and the floor flag, is one
function of the signed terms that runs on one depth's list of floats and
on a grid's numpy rows, and the record's properties call it; the largest
term is Python's max at one depth and np.max's over a grid, and the
floor's ulps math.ulp's and np.spacing's, the same doubles
(``dispersion._ulp``).
"""

from __future__ import annotations

import linecache
import math
from collections import Counter, deque
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import combinations, groupby, product, repeat

from .asymptotics import leading_term
from .dispersion import _FLOATS, _cancellation_floor, _float, _integer, _read_depths, _tabulate, np
from .resonance import ResonanceData, _check_index, _equal_fields, _record, _resonance_grid, _solve, brentq
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

# The depths the coefficients are computed at, both ends included: every evaluation checks its depths
# against it (_check_domain, _check_domain_grid) before it solves.  On it no denominator
# j*c - s*Omega_j - Omega_0 comes near zero and every term is finite, which tests/test_domain.py checks
# for whatever range this holds.
_DOMAIN = (0.05, 20.0)


def _check_domain(h) -> float:
    """h as a float, refused (ValueError) outside _DOMAIN: NaN, +-inf and h <= 0 with the rest."""
    h = _float(h, "depth")
    if not _DOMAIN[0] <= h <= _DOMAIN[1]:
        raise ValueError(f"depth must lie within [{_DOMAIN[0]}, {_DOMAIN[1]}], got h={h!r}")
    return h


def _check_domain_grid(hs) -> np.ndarray:
    """_check_domain over any iterable of depths in one pass, read by _read_depths: the first outside is refused."""
    grid = _read_depths(hs)
    inside = (_DOMAIN[0] <= grid) & (grid <= _DOMAIN[1])
    if not inside.all():
        _check_domain(grid[np.argmin(inside)])
    return grid


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
    subsets = (J for k in range(1, p) for J in combinations(range(1, p), k))
    return (BetaTermId(p, (), ()), *(BetaTermId(p, J, S) for J in subsets for S in product((-1, 1), repeat=len(J))))


def _path_rule(p: int, Omega, t, c, root):
    """The path rule, stated once: yields each term of the p-th coefficient with its sign, in beta_term_ids order.

    Each hop (m, n) of a term's path multiplies its numerator by
    a_l + p_l * (w_m * t_m + w_n * t_n), l = n - m, with a_l, p_l from
    _coefficients(c), and each intermediate (j, s) multiplies its prefactor
    root by Omega_j and its 4^(k+1) by j*c - s*Omega_j - Omega_0, all left
    to right.  Plain arithmetic on the numbers it is given, the emitted
    rule's arguments: _plan runs it once per p on a tape.
    """
    a, pl = _coefficients(c)
    for tid in beta_term_ids(p):
        harmonics, weights = (0, *tid.intermediates, p), (1, *(-s for s in tid.signs), -1)
        hops = [a[n - m - 1] + pl[n - m - 1] * (wm * t[m] + wn * t[n])
                for m, n, wm, wn in zip(harmonics, harmonics[1:], weights, weights[1:])]
        prefactor = math.prod((Omega[j] for j in tid.intermediates), start=root)
        denominator = math.prod((j * c - s * Omega[j] - Omega[0] for j, s in zip(tid.intermediates, tid.signs)),
                                start=4.0 ** len(hops))
        yield tid.sign * (prefactor * math.prod(hops) / denominator)


def _operator(op: str, reflected: bool = False):
    """_Var's method for x op y, or for y op x when reflected."""
    return (lambda x, y: _Var(x.tape, op, y, x)) if reflected else (lambda x, y: _Var(x.tape, op, x, y))


class _Var:
    """A number on a tape: each + - * / or negation it takes part in returns the tape's node for (op, a, b).

    The tape is a dict, in recording order, that holds each distinct
    (op, a, b) once; a leaf is ("in", its name, None).  A product 1 * x,
    the constant first, is recorded as x; a product or quotient whose first
    operand is a negation or a negative constant as the negation of the one
    with that operand's magnitude, (-x) * y as -(x * y), so -1 * x as -x;
    x + -y as x - y and x - -y as x + y: the same numbers exactly, in IEEE
    and in mpmath alike.
    """

    __slots__ = ("tape", "op", "a", "b")

    def __new__(cls, tape: dict, op: str, a, b=None):
        if op == "*" and a == 1:
            return b
        if op in ("*", "/") and (a.op == "neg" if isinstance(a, _Var) else a < 0):
            return -cls(tape, op, a.a if isinstance(a, _Var) else -a, b)
        if op in ("+", "-") and isinstance(b, _Var) and b.op == "neg":
            op, b = "-" if op == "+" else "+", b.a
        node = super().__new__(cls)
        node.tape, node.op, node.a, node.b = tape, op, a, b
        return tape.setdefault((op, a, b), node)

    __add__, __sub__, __mul__, __truediv__ = map(_operator, "+-*/")
    __radd__, __rsub__, __rmul__, __rtruediv__ = (_operator(op, reflected=True) for op in "+-*/")
    __neg__ = lambda x: _Var(x.tape, "neg", x)


def _source(x, names: dict) -> tuple[str, int]:
    """Python source of a node or a constant x, and its precedence: 4 for a name or a constant, 3 for a negation."""
    if not isinstance(x, _Var):
        return repr(x), 4
    if x in names or x.op == "in":
        return names.get(x, x.a), 4
    if x.op == "neg":
        a, q = _source(x.a, names)
        return f"-{a}" if q == 4 else f"-({a})", 3
    q = 1 if x.op in ("+", "-") else 2
    (a, qa), (b, qb) = _source(x.a, names), _source(x.b, names)
    return f"{a if qa >= q else f'({a})'} {x.op} {b if qb > q else f'({b})'}", q


def _emit(tape: dict, filename: str, name: str, arguments: dict, outputs: dict):
    """The function name(*arguments) returning [*outputs.values()], as straight-line code from their tape.

    arguments maps each argument to its leaf or list of leaves, which the
    code unpacks into the leaves' names.  Only the nodes that the outputs
    read are written.  A node that they use twice or more becomes a local,
    assigned in tape order; every other node is written inline, bracketed
    only where Python would group it otherwise.  Each output is one line of
    the returned list, labelled with its key.  The source is compiled under
    filename and put in linecache for tracebacks.
    """
    uses = Counter(outputs.values())
    for node in reversed(tape.values()):
        if node in uses and node.op != "in":
            uses.update((node.a, node.b))
    names, lines = {}, [f"def {name}({', '.join(arguments)}):"]
    lines += [f"    {', '.join(x.a for x in xs)} = {arg}" for arg, xs in arguments.items() if isinstance(xs, list)]
    for node in tape.values():
        if uses[node] > 1 and node.op != "in":
            lines.append(f"    v{len(names)} = {_source(node, names)[0]}")
            names[node] = f"v{len(names)}"
    lines += ["    return [", *(f"        {_source(x, names)[0]},  # {label}" for label, x in outputs.items()), "    ]"]
    source = "\n".join(lines) + "\n"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace := {"__name__": __name__})
    return namespace[name]


@lru_cache(maxsize=None)
def _plan(p: int):
    """The path rule for p as one emitted function: rule(Omega, t, c, root) -> the signed terms.

    _path_rule runs once on one tape, whose leaves are its arguments:
    Omega_j, t_j, the phase speed c and root.  The function returns the
    signed terms, in beta_term_ids order; it computes only the coefficients
    a_l, p_l that p's hops use.  Its code goes under the file name
    <path rule p=...>.  A p outside {2, 3, 4} is refused by beta_term_ids
    before anything is recorded.
    """
    ids, tape = beta_term_ids(p), {}
    Omega, t = ([_Var(tape, "in", f"{x}{j}") for j in range(p + 1)] for x in "Ot")
    c, root = _Var(tape, "in", "c"), _Var(tape, "in", "root")
    outputs = {tid.label: x for tid, x in zip(ids, _path_rule(p, Omega, t, c, root))}
    return _emit(tape, f"<path rule p={p}>", "path_rule", {"Omega": Omega, "t": t, "c": c, "root": root}, outputs)


def _grid_terms(rd: ResonanceData) -> np.ndarray:
    """Signed terms over a ResonanceData of arrays in one array pass: one row per term, one column per depth."""
    return np.array(_plan(rd.p)(rd.Omega, rd.t, rd.c, np.sqrt(rd.Omega[0] * rd.Omega[rd.p])))


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
        return _group_sums(self.p, self.signed)

    @property
    def cancellation_floor(self) -> float | np.ndarray:
        """8 ulps of the largest term: the resolution limit of ``total``."""
        return _cancellation_floor(self.signed)

    @property
    def floor_flag(self) -> bool | np.ndarray:
        """Totals within 10x of the cancellation floor."""
        return _floor_flag(self.signed, self.total)


def _group_sums(p: int, signed) -> dict:
    """Compensated sum of each path family's signed terms but b0, in beta_term_ids order: floats or rows."""
    rows = groupby(range(1, len(signed)), lambda k: beta_term_ids(p)[k].group)
    return {name: neumaier_sum([signed[k] for k in group]) for name, group in rows}


def _floor_flag(signed, total):
    """Whether total lies within 10x of the cancellation floor of its signed terms: at one depth or over a grid."""
    return abs(total) < 10.0 * _cancellation_floor(signed)


def _grid(p: int, hs) -> BetaBreakdown:
    """The record at every depth of hs, one column per depth (see _grid_terms); p, then hs, refused as by _point."""
    _plan(p := _check_index(p))  # refuses a p outside {2, 3, 4} before the solve
    rd = _resonance_grid(p, _check_domain_grid(hs))
    signed = _grid_terms(rd)
    return BetaBreakdown(rd, signed, neumaier_sum(signed))


def _point(p: int, h: float) -> tuple:
    """(p, h, c, phi*, Omega_j, t_j, signed terms, total) at one depth, as ints, floats and lists: no record.

    p is refused first, then h, both before the one single-depth solve
    (``resonance._solve``): a p that is not an integer >= 2 by _check_index,
    then one outside {2, 3, 4} by the plan, then an h outside _DOMAIN by
    _check_domain.  The first six entries are _record's arguments.  The
    total is the one sum of the terms at one depth, as _grid's is over a
    grid.
    """
    _plan(p := _check_index(p))
    h = _check_domain(h)
    c, phi = _solve(p, h)
    Omega, t = _tabulate(p, h, phi, _FLOATS)
    signed = _plan(p)(Omega, t, c, math.sqrt(Omega[0] * Omega[p]))
    return p, h, c, phi, Omega, t, signed, neumaier_sum(signed)


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
    by Brent bisection until the bracket is narrower than tol.  Every
    argument is read before use: p as beta1 reads it, h_min and h_max as
    doubles in the beta domain (a float32 bound as its double, so the grid
    is float64's), grid_n as an integer >= 100 and tol as a positive finite
    real; a bool tol or a str one is refused (TypeError).  Sign changes
    between two grid values that are both within 10x of the cancellation
    floor are rounding noise and are skipped; an exact 0.0 on the grid
    counts only next to a value above the floor.  An empty list is a valid
    result; callers wanting residuals evaluate beta1 at the returned points.
    """
    h_min, h_max = _check_domain(h_min), _check_domain(h_max)
    if not h_min < h_max:
        raise ValueError(f"need h_min < h_max, got {h_min!r} >= {h_max!r}")
    grid_n = _integer(grid_n, "grid_n", 100)
    if not 0 < (tol := _float(tol, "tol")) < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    grid = _grid(p, np.linspace(h_min, h_max, grid_n + 1))
    total = grid.total
    with np.errstate(all="ignore"):  # as Python's float product: an overflow is +-inf, which keeps its sign
        change = total[:-1] * total[1:] < 0.0
    candidates = np.flatnonzero((total == 0.0) | np.append(change, False))
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


def _scan_columns(p: int, h, signed, total) -> tuple:
    """ScanRow's fields, in order, from _point's h, signed terms and total (floats), or from _grid's (arrays)."""
    lead = leading_term(p, h)  # nonzero on _DOMAIN, so ratio is a plain quotient
    return h, total, lead, total / lead, _floor_flag(signed, total)


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
    g = _grid(p, hs)
    columns = [column.tolist() for column in _scan_columns(p, g.h, g.signed, g.total)]
    rows = list(map(object.__new__, repeat(ScanRow, len(columns[0]))))
    for set_field, column in zip(_SCAN_ROW_SETTERS, columns):
        deque(map(set_field, rows, column), maxlen=0)
    return rows
