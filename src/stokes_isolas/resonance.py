"""Critical Floquet wavenumber where two flat-water eigenvalue branches collide.

For each integer p >= 2 and depth h > 0 the branch of signature -1 at mode 0
meets the branch of signature +1 at mode p for exactly one positive Floquet
wavenumber phi*.  Eliminating the common frequency, phi* is the unique
positive root of the strictly increasing residual

    f(phi) = Omega(phi, h) + Omega(phi + p, h) - p * c(h).

The collision frequency omega* = c*phi* + Omega(phi*, h) is the ordinate of
the branching point from which the p-th instability isola bifurcates.  The
pairing (mode 0, signature -1) with (mode p, signature +1) is adopted as the
definition of the p-th resonance; it reproduces the deep-water limits
phi* -> (p-1)^2/4 and all downstream expansions, which is the validation
available from the source material.  The solve starts from a bracket
centered on that limit, so it takes p up to ``_P_MAX``, the square root
of the largest double.  ``_check_index`` returns an int p from 2 to
``_P_MAX`` as it is; any other p it reads with ``dispersion._integer``,
which refuses a bool, numpy's bools and every non-real (TypeError) and
a p that is not an integer >= 2 (ValueError; an int beyond the double
range reads as inf), and then it refuses a p above ``_P_MAX``.

One depth is solved by ``_solve`` with ``brentq``, a grid of depths by
``_solve_grid`` with ``_brentq_lanes``: a scalar and a lane-wise port of
scipy's ``brentq`` (Brent's method, Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4).  Both perform the IEEE operations
scipy's C code performs, so they return the same phi* as scipy and as each
other, and the package needs no scipy at run time.  Both return with each
root the residual they hold there, f(phi*) = Omega_0 + Omega_p - p*c, and
both accept a root when it is within ``_tolerance(p*c)``; they build no
record and tabulate nothing, so the solve takes O(1) memory a depth
whatever p.  Callers tabulate what they read: nothing for
``solve_wavenumber``, j = 0..p for the beta coefficients at one depth, for
``build_resonance_data``, which wraps them in a ``ResonanceData``, and for
``_resonance_grid``, its grid form, and j = 0 and p for
``_collision_point`` (``omega_star``) and ``_collision_grid``, the columns
of a ``resonance`` table at one depth and over a grid.  The residual's
body and the tabulation are each the same operations on floats and on
arrays, and one ``_collision`` body reads omega* and the residual off the
tabulation, so every grid value equals the single-depth one bit for bit,
and the residual read off the tabulation is the double the solve returned.

Over arrays each set of wavenumbers is one pass of the exact array tanh
(``dispersion._tanh``): both wavenumbers phi and phi + p of each bracket
end and of each lane step (``_residuals``), then all p+1 harmonics of
every depth (``_tabulate`` over rows).  Each lane carries
its depth and p*c, so no step gathers them.  A grid is one lane pass,
from ``_LANES_FROM`` depths up (it costs about 1 ms however few lanes
it has), then one loop of ``_solve`` over every depth the lane pass did
not accept, in grid order.  This is the grid path's one size fork: the
terms (``beta._grid_terms``) and the tabulation take one array pass
whatever the grid's size.  The lane pass expands brackets toward 0+ only
and iterates only the lanes they bracket, so Brent's edge cases have one
owner, ``_solve``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial

from .dispersion import (
    _ARRAYS, _FLOATS, _check_depth, _check_depths, _check_finite, _integer, _phase, _read_depths, _tabulate, _tanh,
    _ulp, np,
)
from .errors import SolverError

__all__ = [
    "ResonanceData",
    "resonance_residual",
    "solve_wavenumber",
    "build_resonance_data",
    "omega_star",
]

# Largest |f(phi*)| the solve accepts while p*c < 256, so for every p <= 128 (c <= 1).  From p*c = 512
# one ulp of p*c exceeds it; _tolerance accepts up to 3.5 ulps of p*c.  f(phi*) is an exact difference,
# a multiple of half an ulp of p*c, and at most 3 ulps over p = 2..10^5 at 400 depths in [0.05, 20].
DEFAULT_TOL = 1e-13

# Geometric bracket expansion: each step divides the lower end by 4 or
# doubles the upper end.  The root collapses toward 0 like h^2 in shallow
# water, so ~200 steps covers any h in [1e-3, 1e3] with huge margin.
_MAX_EXPANSIONS = 200

# Brent settings of the phi* solve, shared by brentq and _brentq_lanes.
_XTOL = 1e-15
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100

# Fewer depths than this are solved by _solve one by one, more by one lane pass (_solve_grid),
# which costs about 0.7-1.2 ms however few lanes it has, one depth about 20 us.  Median of 9 timings of
# _solve_grid alone in ms, lanes / depth by depth, the two alternating, on seeded depths in [0.05, 20]
# (one core of a shared 2-core Intel Xeon, Python 3.11, numpy 2.4); either way every double is the same:
#
#     depths      p = 2        3         4         5         6         7         8
#          1   1.18/0.06 0.87/0.05 0.73/0.04 0.75/0.04 0.74/0.04 0.84/0.05 0.86/0.05
#          8   1.25/0.18 1.15/0.18 0.87/0.16 0.86/0.15 0.68/0.14 0.82/0.15 1.05/0.15
#         32   1.34/0.71 1.16/0.63 1.22/0.59 1.16/0.51 1.30/0.55 1.34/0.54 1.38/0.50
#         64   1.59/1.38 1.35/1.23 1.46/1.11 1.31/1.03 1.45/1.06 1.45/1.06 1.56/0.97
#         96   1.46/2.01 1.40/1.79 1.26/1.65 1.41/1.55 1.19/1.52 1.34/1.57 1.44/1.47
#        128   1.66/2.65 1.59/2.38 1.55/2.22 1.37/2.04 1.35/2.14 1.49/2.06 1.55/1.93
#        256   2.13/5.28 1.62/4.59 1.78/4.23 1.84/4.36 1.81/4.48 1.84/4.45 1.89/4.14
#
# Over n = 1..256 (median of 5 pairs, two scans) the fork that misplaces the fewest sizes lies at 69-133
# depths by p (116 and 133 for p = 4), and the lanes win at every size from 79-180 on.
_LANES_FROM = 96


# The largest p taken, sqrt of the largest double (an int, the cheaper to compare): above it (p - 1)**2, four
# times the bracket's center, overflows.
_P_MAX = int(math.sqrt(sys.float_info.max))


def _check_index(p: int) -> int:
    """p as an int from 2 to _P_MAX, read by _integer; an int in that range is returned without the reader."""
    if type(p) is int and 2 <= p <= _P_MAX:
        return p
    if (index := _integer(p, "isola index p", 2)) > _P_MAX:
        raise ValueError(f"isola index p must be at most {float(_P_MAX)!r}, sqrt of the largest double, got {p!r}")
    return index


def resonance_residual(phi: float, p: int, h: float) -> float:
    """Collision residual f(phi) = Omega(phi) + Omega(phi+p) - p*c(h).

    Strictly increasing in phi > 0 (sum of increasing frequencies minus a
    constant), negative at 0+ and unbounded above, hence a single root.
    """
    p = _check_index(p)
    h = _check_depth(h)
    if (phi := _check_finite(phi, "phi")) <= 0.0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    return _residual(p, h, _phase(h, _FLOATS), _FLOATS)(phi)


def _residual(p: int, h, c, kernels):
    """f(phi) at depth h with c = c(h), unchecked, binding the kernels' tanh and sqrt once."""
    tanh, sqrt, _ = kernels
    pc = p * c

    def f(phi):
        q = phi + p
        return sqrt(phi * tanh(h * phi)) + sqrt(q * tanh(h * q)) - pc
    return f


def _bracket(p: int) -> tuple[float, float]:
    center = (p - 1) ** 2 / 4.0
    return max(center - 0.5, 0.0625), center + 0.5


def brentq(f, xa, xb, fa, fb, xtol):
    """Scalar port of scipy's brentq (scipy/optimize/Zeros/brentq.c).

    Finds a root of f in [xa, xb] by Brent's method, given the residuals
    fa = f(xa) and fb = f(xb) the caller already holds, so neither end is
    evaluated again.  rtol and maxiter are scipy's defaults, _RTOL and
    _MAXITER.  Every step performs the IEEE operations of the C code in its
    order, so the root is the double scipy's brentq returns for the same f,
    bracket and xtol.

    Returns (root, f(root)): the residual it already holds at the root (fa,
    fb or its last evaluation), so f is not evaluated again.

    Raises SolverError where scipy raises: on a NaN residual, on ends of
    the same sign, and when _MAXITER steps do not converge.
    """
    if fa != fa or fb != fb:
        raise SolverError(f"NaN residual at an end of [{xa!r}, {xb!r}]", bracket=(xa, xb))
    if fa == 0:
        return xa, fa
    if fb == 0:
        return xb, fb
    # C's signbit(), here with 0 and NaN excluded
    if (fa < 0) == (fb < 0):
        raise SolverError(f"f({xa!r}) and f({xb!r}) have the same sign", bracket=(xa, xb))
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here, which fails the step test below
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            limit = abs(spre) if abs(spre) < bound else bound  # C's MIN()
            if 2 * abs(stry) < limit:
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise SolverError(f"NaN residual at x={xcur!r}", bracket=(xpre, xblk))
    raise SolverError(f"Brent's method did not converge in {_MAXITER} steps", bracket=(xcur, xblk))


def _brentq_lanes(f, args, xa, xb, fa, fb):
    """Lane-wise port of scipy's brentq (scipy/optimize/Zeros/brentq.c).

    Brent's method on every lane of the brackets [xa, xb], whose residuals
    fa, fb are already known, with the phi* solve's xtol, rtol and maxiter.
    Each lane performs the IEEE operations brentq performs, so it returns
    the same double; lanes leave the loop as they converge.  args holds
    arrays of the lanes' constants (the phi* solve's depths h and p*c),
    which each lane carries with it: f(x, *args) evaluates the residual of
    the lanes still iterating, at x.  When lanes converge, one index array
    compacts every lane array with ``take``.  A step computes only the
    branches some lane takes: no swap when no lane swaps, no select when
    every lane takes the short step, and only the interpolation or only
    the extrapolation when every lane takes it.

    Returns (root, f(root)) as arrays: the residual each lane holds at its
    root, as brentq returns it.  A lane without fa < 0 < fb (f stays finite
    inside such a bracket) or that does not converge is unsettled, both NaN.
    """
    root, froot = np.full(xa.size, np.nan), np.full(xa.size, np.nan)
    lanes = np.flatnonzero((fa < 0) & (fb > 0))
    if not lanes.size:
        return root, froot
    xpre, xcur, fpre, fcur, *args = (a.take(lanes) for a in (xa, xb, fa, fb, *args))
    xblk, fblk = xpre, fpre  # the first step's flip: fpre < 0 < fcur in every lane
    spre = scur = xcur - xpre
    with np.errstate(all="ignore"):
        for _ in range(_MAXITER):
            swap = np.abs(fblk) < np.abs(fcur)
            if swap.any():  # most steps swap in no lane
                xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
                fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

            delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            asbis = np.abs(sbis)
            done = (fcur == 0) | (asbis < delta)
            settle = np.flatnonzero(done)
            if settle.size:  # the first iterations settle no lane: nothing to compact
                lane = lanes.take(settle)
                root.put(lane, xcur.take(settle))
                froot.put(lane, fcur.take(settle))
                if settle.size == lanes.size:
                    break
                keep = np.flatnonzero(~done)
                lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, asbis, *args = (
                    a.take(keep) for a in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis, asbis, *args)
                )
            aspre = np.abs(spre)
            nfcur = -fcur
            # interpolate where xpre == xblk, else extrapolate; often every lane does the same
            interpolate = xpre == xblk
            if interpolate.all():
                stry = nfcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = nfcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                if interpolate.any():
                    stry = np.where(interpolate, nfcur * (xcur - xpre) / (fcur - fpre), stry)
            bound = 3 * asbis - delta
            limit = np.where(aspre < bound, aspre, bound)  # C's MIN()
            short = (aspre > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < limit)
            if short.all():  # most steps take the short step in every lane
                spre, scur = scur, stry
            else:
                spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, *args)
            # the next step's flip: fpre != 0 in every lane still iterating, and a lane with fcur == 0
            # settles at (xcur, fcur) on the next step whatever its flip
            flip = np.signbit(fpre) != np.signbit(fcur)
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            step = xcur - xpre
            spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
    return root, froot


def _equal_fields(a, b, names) -> bool:
    """Whether a and b agree in every named field: as floats, or as arrays element by element."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


@dataclass(frozen=True, eq=False)
class ResonanceData:
    """Everything the instability-coefficient formulas need at one (p, h).

    Omega[j] and t[j] are the dispersion kernels evaluated at j + phi*
    for j = 0..p, and c is the phase speed c(h) the phi* solve used;
    omega_star is the collision frequency, reachable from either colliding
    branch (the residual records how well they agree).

    Over a grid of depths (see ``_resonance_grid``) h, phi_star,
    omega_star, residual and c are arrays with one entry per depth, and
    Omega and t have one row per harmonic j and one column per depth.
    Two records are equal when every field is, element by element.
    """

    p: int
    h: float
    phi_star: float
    omega_star: float
    Omega: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    residual: float
    c: float

    def __eq__(self, other):
        if not isinstance(other, ResonanceData):
            return NotImplemented
        return _equal_fields(self, other, [f.name for f in fields(self)])


def _tolerance(pc):
    """The largest |f(phi*)| accepted where p*c = pc, a float or an array (see DEFAULT_TOL).

    For a float it is the double np.maximum would give, and numpy stays unloaded.
    """
    tol = 3.5 * _ulp(pc)
    return max(DEFAULT_TOL, tol) if isinstance(tol, float) else np.maximum(DEFAULT_TOL, tol)


def _collision(p: int, c, phi, Omega0, Omegap):
    """omega* = c*phi + Omega_0 and the residual f(phi) = Omega_0 + Omega_p - p*c, from Omega_j at j + phi."""
    return c * phi + Omega0, Omega0 + Omegap - p * c


def _record(p: int, h, c, phi, Omega, t) -> ResonanceData:
    """The record at phi* = phi from its tabulated Omega_j, t_j: omega* and the residual f(phi*) read off them."""
    omega, residual = _collision(p, c, phi, Omega[0], Omega[p])
    return ResonanceData(p, h, phi, omega, np.array(Omega), np.array(t), residual, c)


def _solve(p: int, h: float) -> tuple[float, float]:
    """The one single-depth solve: (c, phi*) as floats, in O(1) memory whatever p; nothing is tabulated.

    p and h are as _check_index and _check_depth return them: every caller
    checks them first.  Starts from a bracket centered on the deep-water
    limit (p-1)^2/4, expands it geometrically toward 0+ or +infinity until
    the residual changes sign, then refines with Brent's method.  The root
    is accepted when the residual brentq returns with it has magnitude at
    most _tolerance(p*c).  It is computed as Omega_0 + Omega_p - p*c of the
    tabulation at phi* (the record's residual), so it is the same double.

    Raises
    ------
    SolverError
        If no sign change is found after the documented maximum number of
        expansions (pathological depths far outside [1e-3, 1e3]), or if
        the residual at the root exceeds _tolerance(p*c), which it names.
    """
    c = _phase(h, _FLOATS)
    f = _residual(p, h, c, _FLOATS)

    lo, hi = _bracket(p)
    expansions = 0
    flo = f(lo)
    while flo > 0.0:
        lo /= 4.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise SolverError(f"no sign change toward 0+ for p={p}, h={h}", bracket=(lo, hi))
        flo = f(lo)
    fhi = f(hi)
    while fhi < 0.0:
        hi *= 2.0
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise SolverError(f"no sign change toward +inf for p={p}, h={h}", bracket=(lo, hi))
        fhi = f(hi)

    phi, residual = brentq(f, lo, hi, flo, fhi, _XTOL)
    if abs(residual) > DEFAULT_TOL and abs(residual) > (tol := _tolerance(p * c)):
        raise SolverError(f"residual {residual:.3e} above tol {tol:.3e} at phi={phi!r}", bracket=(lo, hi))
    return c, phi


def build_resonance_data(p: int, h: float) -> ResonanceData:
    """Solve f(phi*) = 0 and tabulate Omega_j, t_j, omega* for j = 0..p, as one record.

    Checks p and h (ValueError), then solves by ``_solve``, whose
    SolverError it raises; the record's residual is the f(phi*) accepted.
    """
    p, h = _check_index(p), _check_depth(h)
    c, phi = _solve(p, h)
    return _record(p, h, c, phi, *_tabulate(p, h, phi, _FLOATS))


def _residuals(p: int, phi, h, pc):
    """f(phi) in lanes of depths h with p*c = pc, arrays, unchecked: both wavenumbers from one exact-tanh pass.

    Every element performs the operations of ``_residual`` on floats.
    """
    q = np.empty((2, phi.size))
    q[0] = phi
    np.add(phi, p, out=q[1])
    Omega = np.sqrt(q * _tanh(h * q))
    return Omega[0] + Omega[1] - pc


def _solve_grid(p: int, hs) -> tuple:
    """_solve at every depth of hs, bit for bit: (p, h, c, phi*), the last three arrays; nothing is tabulated.

    p is checked, then hs is read by ``dispersion._read_depths``, into an
    array the record owns, and its first non-finite or non-positive depth
    is refused before any solve.  From _LANES_FROM depths up one lane pass
    solves them all, each lane accepted when the residual ``_brentq_lanes``
    returns with its root is within _tolerance(p*c), as _solve accepts.
    Then _solve solves, in grid order, every depth the lane pass did not
    accept (no f(lo) < 0 < f(hi) after expanding toward 0+ only, no
    convergence, a residual above _tolerance), every depth of a smaller
    grid, and the first failing depth raises its error.
    """
    p = _check_index(p)
    h = _check_depths(_read_depths(hs))
    if h.size < _LANES_FROM:
        c, phi, redo = np.empty(h.size), np.empty(h.size), range(h.size)
    else:
        c = _phase(h, _ARRAYS)
        pc = p * c
        # h * phi overflows to inf in deep lanes, as it does on floats
        with np.errstate(over="ignore"):
            # bracket expansion toward 0+, lane by lane as in _solve
            lo, hi = (np.full(h.size, end) for end in _bracket(p))
            flo, fhi = _residuals(p, lo, h, pc), _residuals(p, hi, h, pc)
            for _ in range(_MAX_EXPANSIONS):
                lanes = np.flatnonzero(flo > 0.0)
                if not lanes.size:
                    break
                lo[lanes] /= 4.0
                flo[lanes] = _residuals(p, lo[lanes], h[lanes], pc[lanes])

            phi, f = _brentq_lanes(partial(_residuals, p), (h, pc), lo, hi, flo, fhi)
        redo = np.flatnonzero(~(np.abs(f) <= _tolerance(pc)))  # NaN where unsettled
    for i in redo:
        c[i], phi[i] = _solve(p, float(h[i]))
    return p, h, c, phi


def _resonance_grid(p: int, hs) -> ResonanceData:
    """build_resonance_data at every depth of hs, as one ResonanceData of arrays.

    ``_solve_grid`` checks and solves, then every harmonic of every depth is
    tabulated in one array pass.
    """
    p, h, c, phi = _solve_grid(p, hs)
    with np.errstate(over="ignore"):  # h * q overflows to inf in deep lanes, as it does on floats
        (Omega,), (t,) = _tabulate(0, h, np.arange(p + 1)[:, None] + phi, _ARRAYS)
    return _record(p, h, c, phi, Omega, t)


def _collision_grid(p: int, hs) -> tuple[np.ndarray, ...]:
    """h, phi*, omega* and the residual at every depth of hs, each the double of _resonance_grid's record.

    The resonance table's columns in O(n) memory and time whatever p: only
    Omega_0 and Omega_p are tabulated, the latter at phi* + p, which is
    p + phi*, its wavenumber in the full tabulation.  Checks and errors are
    _resonance_grid's.
    """
    p, h, c, phi = _solve_grid(p, hs)
    with np.errstate(over="ignore"):
        (Omega,), _ = _tabulate(0, h, np.stack((phi, phi + p)), _ARRAYS)
    return (h, phi, *_collision(p, c, phi, Omega[0], Omega[1]))


def _collision_point(p: int, h: float) -> tuple[float, ...]:
    """_collision_grid at one depth, as floats: the same checks and doubles, and numpy stays unloaded."""
    p, h = _check_index(p), _check_depth(h)
    c, phi = _solve(p, h)
    (Omega0,), _ = _tabulate(0, h, phi, _FLOATS)
    (Omegap,), _ = _tabulate(0, h, phi + p, _FLOATS)
    return (h, phi, *_collision(p, c, phi, Omega0, Omegap))


def solve_wavenumber(p: int, h: float) -> float:
    """The critical wavenumber phi*(p, h): the root of f that the single-depth solve accepts."""
    return _solve(_check_index(p), _check_depth(h))[1]


def omega_star(p: int, h: float) -> float:
    """Collision frequency omega*(p, h) = c*phi* + Omega(phi*, h)."""
    return _collision_point(p, h)[2]
