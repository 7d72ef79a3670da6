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
available from the source material.

One depth is solved by ``_solve`` with ``brentq``, a grid of depths by
``_resonance_grid`` with ``_brentq_lanes``: a scalar and a lane-wise port of
scipy's ``brentq`` (Brent's method, Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4).  Both perform the IEEE operations
scipy's C code performs, so they return the same phi* as scipy and as each
other, and the package needs no scipy at run time.  ``_solve`` builds no
record: ``solve_wavenumber``, ``omega_star`` and the beta coefficients at
one depth read its floats and lists, and ``build_resonance_data`` wraps them
in a ``ResonanceData``.  Both solves share one residual body, one
tabulation over the dispersion kernels' float or array triple and one
``_record`` body, so every grid value equals the single-depth one bit for
bit.  phi* is accepted when the residual read off the tabulation,
f(phi*) = Omega_0 + Omega_p - p*c, is at most DEFAULT_TOL in magnitude.  The
grid expands brackets toward 0+ only, iterates only the lanes they bracket
and solves every lane it does not accept again at one depth, so Brent's
edge cases have one owner, ``_solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dispersion import _ARRAYS, _FLOATS, _check_depth, _check_depths, _check_finite, _float, _phase, _tabulate
from .errors import SolverError

__all__ = [
    "ResonanceData",
    "resonance_residual",
    "solve_wavenumber",
    "build_resonance_data",
    "omega_star",
]

# Largest |f(phi*)| the solve accepts, at one depth and over a grid.
DEFAULT_TOL = 1e-13

# Geometric bracket expansion: each step divides the lower end by 4 or
# doubles the upper end.  The root collapses toward 0 like h^2 in shallow
# water, so ~200 steps covers any h in [1e-3, 1e3] with huge margin.
_MAX_EXPANSIONS = 200

# Brent settings of the phi* solve, shared by brentq and _brentq_lanes.
_XTOL = 1e-15
_RTOL = 4 * float(np.finfo(float).eps)
_MAXITER = 100

_SCAN_H_RANGE = (0.05, 20.0)  # the documented depth range of the beta tables and of the isola model


def _check_index(p: int) -> int:
    if not (p >= 2 and p % 1 == 0):  # also refuses nan and inf
        raise ValueError(f"isola index p must be an integer >= 2, got {p!r}")
    return int(p)


def _scan_depth(h) -> None:
    """Refuse (ValueError) a depth h outside the documented range [0.05, 20], compared as a float."""
    h = _float(h)
    if not _SCAN_H_RANGE[0] <= h <= _SCAN_H_RANGE[1]:
        raise ValueError(f"scan grid must lie within {_SCAN_H_RANGE}, got h={h!r}")


def _scan_depths(hs) -> np.ndarray:
    """Any iterable of real depths as a float array; the first outside the range is refused by _scan_depth."""
    whole = isinstance(hs, np.ndarray) and hs.ndim == 1
    if not whole:
        hs = list(hs)  # read again below if a real in it lies beyond the double range
    try:
        # a 1-d array converts whole: np.fromiter would walk it through numpy scalars, at twice a list's cost
        grid = hs.astype(float) if whole else np.fromiter(hs, dtype=float)
    except OverflowError:  # such a real reads as +-inf, refused below
        grid = np.fromiter(map(_float, hs), dtype=float)
    inside = (_SCAN_H_RANGE[0] <= grid) & (grid <= _SCAN_H_RANGE[1])
    if not inside.all():
        _scan_depth(grid[np.argmin(inside)])
    return grid


def resonance_residual(phi: float, p: int, h: float) -> float:
    """Collision residual f(phi) = Omega(phi) + Omega(phi+p) - p*c(h).

    Strictly increasing in phi > 0 (sum of increasing frequencies minus a
    constant), negative at 0+ and unbounded above, hence a single root.
    """
    p = _check_index(p)
    h = _check_depth(h)
    if phi <= 0.0:
        raise ValueError(f"phi must be positive, got {phi!r}")
    return _residual(p, h, _phase(h, _FLOATS), _FLOATS)(_check_finite(phi, "phi"))


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

    Raises SolverError where scipy raises: on a NaN residual, on ends of
    the same sign, and when _MAXITER steps do not converge.
    """
    if fa != fa or fb != fb:
        raise SolverError(f"NaN residual at an end of [{xa!r}, {xb!r}]", bracket=(xa, xb))
    if fa == 0:
        return xa
    if fb == 0:
        return xb
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
            return xcur

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


def _brentq_lanes(f, xa, xb, fa, fb):
    """Lane-wise port of scipy's brentq (scipy/optimize/Zeros/brentq.c).

    Brent's method on every lane of the brackets [xa, xb], whose residuals
    fa, fb are already known, with the phi* solve's xtol, rtol and maxiter.
    Each lane performs the IEEE operations brentq performs, so it returns
    the same double; lanes leave the loop as they converge.
    f(x, lanes) evaluates the residual at x for the given lane indices.

    Returns the roots; a lane without fa < 0 < fb (f stays finite inside
    such a bracket) or that does not converge is unsettled, its root NaN.
    """
    root = np.full(xa.size, np.nan)
    lanes = np.flatnonzero((fa < 0) & (fb > 0))
    xpre, xcur, fpre, fcur = xa[lanes], xb[lanes], fa[lanes], fb[lanes]
    xblk = fblk = spre = scur = np.zeros(lanes.size)
    with np.errstate(all="ignore"):
        for _ in range(_MAXITER):
            flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
            fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

            delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0) | (np.abs(sbis) < delta)
            if done.any():  # the first iterations settle no lane: nothing to compact
                root[lanes[done]] = xcur[done]
                go = ~done
                lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    a[go] for a in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
                )
            if not lanes.size:
                break

            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),  # interpolate
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),  # extrapolate
            )
            bound = 3 * np.abs(sbis) - delta
            limit = np.where(np.abs(spre) < bound, np.abs(spre), bound)  # C's MIN()
            short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < limit)
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

            xpre, fpre = xcur, fcur
            xcur = np.where(np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0, delta, -delta))
            fcur = f(xcur, lanes)
    return root


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


def _record(p: int, h, c, phi, Omega, t) -> ResonanceData:
    """The record at phi* = phi from its tabulated Omega_j, t_j: omega* and the residual f(phi*) read off them."""
    return ResonanceData(p, h, phi, c * phi + Omega[0], np.array(Omega), np.array(t), Omega[0] + Omega[p] - p * c, c)


def _solve(p: int, h: float) -> tuple[float, float, list[float], list[float]]:
    """The one single-depth solve: (c, phi*, Omega_j, t_j for j = 0..p), floats and lists, no record.

    p and h are as _check_index and _check_depth return them: every caller
    checks them first.  Starts from a bracket centered on the deep-water
    limit (p-1)^2/4, expands it geometrically toward 0+ or +infinity until
    the residual changes sign, then refines with Brent's method.  The root
    is accepted when the residual read off the tabulation (the record's),
    f(phi*) = Omega_0 + Omega_p - p*c, has magnitude at most DEFAULT_TOL.

    Raises
    ------
    SolverError
        If no sign change is found after the documented maximum number of
        expansions (pathological depths far outside [1e-3, 1e3]), or if
        the residual at the root exceeds DEFAULT_TOL.
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

    phi = brentq(f, lo, hi, flo, fhi, _XTOL)
    Omega, t = _tabulate(p, h, phi, _FLOATS)
    residual = Omega[0] + Omega[p] - p * c
    if abs(residual) > DEFAULT_TOL:
        raise SolverError(f"residual {residual:.3e} above tol {DEFAULT_TOL:.3e} at phi={phi!r}", bracket=(lo, hi))
    return c, phi, Omega, t


def build_resonance_data(p: int, h: float) -> ResonanceData:
    """Solve f(phi*) = 0 and tabulate Omega_j, t_j, omega* for j = 0..p, as one record.

    Checks p and h (ValueError), then solves by ``_solve``, whose
    SolverError it raises; the record's residual is the f(phi*) accepted.
    """
    p, h = _check_index(p), _check_depth(h)
    return _record(p, h, *_solve(p, h))


def _resonance_grid(p: int, hs) -> ResonanceData:
    """build_resonance_data at every depth of hs at once, as one ResonanceData of arrays.

    Bit-identical to calling build_resonance_data per depth, which re-solves
    in grid order every lane left unsettled (no f(lo) < 0 < f(hi) after
    expanding toward 0+ only, no convergence, a record residual above
    DEFAULT_TOL), so the first failing depth raises its error.  The first
    non-finite or non-positive depth is refused before any solve.
    """
    p = _check_index(p)
    h = _check_depths(np.array(hs, dtype=float))
    c = _phase(h, _ARRAYS)
    f = lambda phi, lanes: _residual(p, h[lanes], c[lanes], _ARRAYS)(phi)

    # bracket expansion toward 0+, lane by lane as in _solve
    lo, hi = (np.full(h.size, end) for end in _bracket(p))
    flo, fhi = f(lo, ...), f(hi, ...)
    for _ in range(_MAX_EXPANSIONS):
        lanes = np.flatnonzero(flo > 0.0)
        if not lanes.size:
            break
        lo[lanes] /= 4.0
        flo[lanes] = f(lo[lanes], lanes)

    phi = _brentq_lanes(f, lo, hi, flo, fhi)
    rd = _record(p, h, c, phi, *_tabulate(p, h, phi, _ARRAYS))
    for i in np.flatnonzero(~(np.abs(rd.residual) <= DEFAULT_TOL)):  # NaN where phi* is unsettled
        lane = build_resonance_data(p, h[i])
        for name in ("phi_star", "omega_star", "Omega", "t", "residual"):
            getattr(rd, name)[..., i] = getattr(lane, name)
    return rd


def solve_wavenumber(p: int, h: float) -> float:
    """The critical wavenumber phi*(p, h): the root of f that the single-depth solve accepts."""
    return _solve(_check_index(p), _check_depth(h))[1]


def omega_star(p: int, h: float) -> float:
    """Collision frequency omega*(p, h) = c*phi* + Omega(phi*, h)."""
    c, phi, Omega, _ = _solve(_check_index(p), _check_depth(h))
    return c * phi + Omega[0]
