"""Linear dispersion relation of gravity water waves on finite depth.

All quantities are nondimensional.  The three kernels are

    c(h)      = sqrt(tanh(h))            phase speed of the carrier wave
    Omega(phi, h) = sqrt(phi * tanh(h * phi))   wave frequency at wavenumber phi
    t(phi, h) = sqrt(phi / tanh(h * phi))        companion ratio, t * Omega = phi

together with the flat-water eigenvalue branches

    omega^sigma(j + mu, h) = c(h) * (j + mu) - sigma * Omega(j + mu, h)

labelled by a mode index j and a signature sigma = +-1.

The public functions take floats and check their inputs; a real beyond
the double range reads as +-inf (``_float``) and is refused like one.  The
private kernels ``_phase`` and ``_tabulate`` skip the checks and take the
number type's (tanh, sqrt, ratio): ``_FLOATS``, or ``_ARRAYS`` for numpy
arrays of depths and wavenumbers, which performs the same IEEE operations,
so a grid gets the same doubles as one call per depth.  Over arrays
``_tanh`` calls libm only where the rounding of 1 - tanh x leaves its
double undecided: with k = (1 - tanh x) / 2^-53 from numpy's exp and
n = rint(k), it writes 1 - n 2^-53 wherever 0.5 - |k - n| > k 2^-44
(from x ~ 3.8 up; where exp(-2x) is subnormal k is tiny and n = 0).  The
2^-44 margin covers numpy's error in k (2^-51.5) and libm's in 1 - tanh x
(about 2^-51 for fdlibm's tanh, which glibc and musl use, or for a
correctly rounded one) at least 64 times over.  ``_ulp`` takes math.ulp's
values from np.spacing.  The one global state is ``np``, numpy imported
on the first read of one of its attributes, each attribute then cached:
the scalar API (floats throughout) never reads one, so importing the
package does not import numpy.  Double precision throughout; Omega and t
are accurate to a few ulps.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "phase_speed",
    "omega_disp",
    "t_ratio",
    "eigenvalue_branch",
]


class _Numpy:
    """numpy, imported at the first attribute read; each attribute is then cached here, read like a module's."""

    def __getattr__(self, name):  # called only for names not yet cached
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

# Below this value of |h*phi| the ratio phi/tanh(h*phi) is evaluated by its
# Taylor series; both branches agree to ~1e-16 at the crossover.
_SERIES_THRESHOLD = 1e-4


def _libm(fn, x):
    """fn of a float, or of each element of an array, through the math module.

    numpy's exp is not bit-equal to libm's: on uniform samples of [0, 20]
    np.exp differs from math.exp in the last bit for about 5% of the
    arguments.  The grid path must return the same doubles as the
    single-point path, so arrays go through libm one element at a time.
    ``exp`` (``asymptotics``) uses it, and ``_tanh`` and ``_ulp`` where
    they cannot do without libm.
    """
    if isinstance(x, float):
        return fn(x)
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _tanh(x: np.ndarray) -> np.ndarray:
    """libm's tanh of each element of an array, bit for bit.

    np.tanh is not bit-equal to math.tanh (it differs in the last bit for
    about a fifth of uniform samples of [0, 20]), but from x ~ 3.8 up the
    rounding of 1 - tanh x fixes the double libm returns.  Doubles in
    [0.5, 1) are 2^-53 apart, so there libm's tanh is 1 - n 2^-53 with n
    the integer nearest to k = (1 - tanh x) / 2^-53 = 2^54 e / (1 + e),
    e = exp(-2x), unless k lies within a hair of a tie.  The rule: compute
    k in numpy, take n = rint(k), and write 1 - n 2^-53 wherever
    0.5 - |k - n| > k 2^-44.  Where the test can be close (k >= 1/4) each
    of its steps is exact; below, n = 0 and it passes by far.  1 - n 2^-53
    is exact too, since the test fails wherever k >= 2^43.  Where e is
    subnormal (x > ~354) k is tiny and n = 0, far from a tie; from
    x ~ 19.06 up n = 0 gives libm's 1.0.  The other elements (x below
    ~3.8, negatives, +-0, NaN, -inf and near-ties) go through libm like
    ``_libm``: they are found once by index (np.flatnonzero, so x may have
    any shape), gathered with ``take`` and written back with ``put``, and
    an array without them calls no libm at all.

    The rule rests on a premise: for x >= 1 libm returns the rounding of
    1 - y', with y' within about 2^-51 relative of 1 - tanh x.  fdlibm's
    1 - 2 / (expm1(2x) + 2), which glibc and musl use, meets it, and so
    does any correctly rounded tanh.  numpy's k is within 2^-51.5 relative
    of the true value (against mpmath, x < 350).  The margin k 2^-44 is at
    least 64 times the sum of the two errors (under 2^-50 k), so where the
    test passes libm's k lies on n's side of every tie.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # very negative x: k is inf or NaN, and undecided
        e = np.exp(-2.0 * x)
        k = 2.0**54 * e / (1.0 + e)
    n = np.rint(k)
    undecided = np.flatnonzero(~(0.5 - np.abs(k - n) > k * 2.0**-44))
    th = 1.0 - n * 2.0**-53
    th.put(undecided, _libm(math.tanh, x.take(undecided)))
    return th


def _ulp(x):
    """math.ulp of a float, or of each element of an array of x >= 0 (NaN included), bit for bit.

    For a finite x >= 0 below the largest double, np.spacing(x) is the gap
    from x up to the next double, which is math.ulp(x), at 0.0 and the
    subnormals too.  The largest double, inf and NaN go through libm: there
    np.spacing overflows to inf, or returns NaN for inf.
    """
    if isinstance(x, float):
        return math.ulp(x)
    edge = ~(x < sys.float_info.max)
    ulp = np.spacing(np.where(edge, 0.0, x))
    ulp[edge] = _libm(math.ulp, x[edge])
    return ulp


def _ratio(x, phi, th, h):
    """phi / th, with th = tanh(x) and x = h * phi, from its series where x < _SERIES_THRESHOLD; one float."""
    return (1.0 + x * x / 3.0 - x ** 4 / 45.0) / h if x < _SERIES_THRESHOLD else phi / th


def _ratios(x, phi, th, h):
    """_ratio at every element of arrays x, phi and th of one shape, with h an array that broadcasts to it."""
    small = np.flatnonzero(x < _SERIES_THRESHOLD)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only where the series overwrites
        ratio = phi / th
    if small.size:  # the series on Python floats: x ** 4 by libm's pow, as in _ratio
        h = np.broadcast_to(h, x.shape)
        ratio.put(small, list(map(_ratio, *(a.take(small).tolist() for a in (x, phi, th, h)))))
    return ratio


def _sqrt(x):
    """np.sqrt of an array: numpy is imported by the first call, not when _ARRAYS is built."""
    return np.sqrt(x)


# The kernels' (tanh, sqrt, ratio) for floats and for numpy arrays; IEEE 754 rounds sqrt correctly in both.
_FLOATS = (math.tanh, math.sqrt, _ratio)
_ARRAYS = (_tanh, _sqrt, _ratios)


def _phase(h, kernels):
    tanh, sqrt, _ = kernels
    return sqrt(tanh(h))


def _tabulate(n: int, h, phi, kernels):
    """The lists Omega_j and t_j at j + phi for j = 0..n and phi >= 0, unchecked; each pair from one tanh.

    Over arrays phi may hold rows of wavenumbers, each row a lane per depth
    of h: with n = 0 the loop's one step tabulates every element in one
    pass, one call of ``_tanh`` for all (the grid passes row j = j + phi*
    of every harmonic).  The body is the one floats take, so each element
    is the double that a call on floats returns.
    """
    tanh, sqrt, ratio = kernels
    Omega, t = [], []
    for j in range(n + 1):
        q = j + phi
        x = h * q
        th = tanh(x)
        Omega.append(sqrt(q * th))
        t.append(sqrt(ratio(x, q, th, h)))
    return Omega, t


def _float(x) -> float:
    """float(x), with a real beyond the double range rounded to +-inf as IEEE 754 rounds it, not OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_depth(h: float) -> float:
    h = _float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"depth must be a positive finite real, got {h!r}")
    return h


def _check_depths(h: np.ndarray) -> np.ndarray:
    """_check_depth over an array of floats in one pass: its first non-finite or non-positive depth is refused."""
    ok = (h > 0.0) & (h < math.inf)  # false at NaN too
    if not ok.all():
        _check_depth(h[np.argmin(ok)])
    return h


def _check_finite(x: float, name: str) -> float:
    x = _float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def phase_speed(h: float) -> float:
    """Phase speed c(h) = sqrt(tanh(h)) of the unit-wavenumber carrier.

    Strictly increasing in h, with values in (0, 1); approaches 1 like
    1 - exp(-2h) in deep water.
    """
    return _phase(_check_depth(h), _FLOATS)


def omega_disp(phi: float, h: float) -> float:
    """Frequency Omega(phi, h) = sqrt(phi * tanh(h * phi)).

    Even in phi and exactly zero at phi = 0; strictly increasing in both
    arguments for phi >= 0.
    """
    h = _check_depth(h)
    phi = _check_finite(phi, "phi")
    (omega,), _ = _tabulate(0, h, abs(phi), _FLOATS)  # phi * tanh(h*phi) is even; abs makes that exact
    return omega


def t_ratio(phi: float, h: float) -> float:
    """Companion ratio t(phi, h) = sqrt(phi / tanh(h * phi)).

    Satisfies t * Omega = phi.  The removable singularity at phi -> 0+ is
    handled by the series x/tanh(x) = 1 + x^2/3 - x^4/45 + ..., giving the
    limit 1/sqrt(h).
    """
    h = _check_depth(h)
    phi = _check_finite(phi, "phi")
    if phi < 0.0:
        raise ValueError(f"phi must be nonnegative, got {phi!r}")
    _, (t,) = _tabulate(0, h, phi, _FLOATS)
    return t


def eigenvalue_branch(j: int, sigma: int, mu: float, h: float) -> float:
    """Imaginary part of the flat-water eigenvalue branch (j, sigma) at mu.

    Returns omega^sigma(j + mu, h) = c(h)*(j + mu) - sigma*Omega(j + mu, h).
    The branches obey the reflection omega^+(-phi, h) = -omega^-(phi, h).
    """
    if sigma not in (1, -1) or not _float(j) % 1 == 0:  # inf % 1 is nan: refuses nan, inf and j beyond the double range
        raise ValueError(f"need an integer mode index j and sigma = +1 or -1, got j={j!r}, sigma={sigma!r}")
    h = _check_depth(h)
    mu = _check_finite(mu, "mu")
    phi = j + mu
    (omega,), _ = _tabulate(0, h, abs(phi), _FLOATS)
    return _phase(h, _FLOATS) * phi - sigma * omega
