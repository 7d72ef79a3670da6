"""Linear dispersion relation of gravity water waves on finite depth.

All quantities are nondimensional.  The three kernels are

    c(h)      = sqrt(tanh(h))            phase speed of the carrier wave
    Omega(phi, h) = sqrt(phi * tanh(h * phi))   wave frequency at wavenumber phi
    t(phi, h) = sqrt(phi / tanh(h * phi))        companion ratio, t * Omega = phi

together with the flat-water eigenvalue branches

    omega^sigma(j + mu, h) = c(h) * (j + mu) - sigma * Omega(j + mu, h)

labelled by a mode index j and a signature sigma = +-1.

The public functions take floats and check their inputs.  Every number
argument of the package is read by one of two readers: ``_float`` reads
a real number (``numbers.Real``, a 0-d numpy array of one included) as
its double, a real beyond the double range as +-inf, which is then
refused like one, and refuses anything else, a bool, numpy's bools, a
complex number, str, bytes, None and Decimal among them, with a
TypeError naming the argument; ``_integer`` reads an integer argument
(p, ``find_beta_zeros``' grid_n, ``ellipse_points``' n, j and sigma)
through ``_float`` and refuses one that is not integral or is too small
with a ValueError naming it.  Entry points compute only with what these
return.
The private kernels ``_phase`` and ``_tabulate`` skip the checks and take
the number type's (tanh, sqrt, ratio): ``_FLOATS``, or ``_ARRAYS`` for
numpy arrays of depths and wavenumbers, which performs the same IEEE
operations, so a grid gets the same doubles as one call per depth.  Over
arrays ``_tanh`` calls libm only where the rounding of 1 - tanh x leaves
its double undecided: with k = (1 - tanh x) / 2^-53 from numpy's exp and
n = rint(k), it writes 1 - n 2^-53 wherever 0.5 - |k - n| > k 2^-44
(from x ~ 3.8 up; where exp(-2x) is subnormal k is tiny and n = 0).  The
2^-44 margin covers numpy's error in k (2^-51.5) and libm's in 1 - tanh x
(about 2^-51 for fdlibm's tanh, which glibc and musl use, or for a
correctly rounded one) at least 64 times over.  ``_ulp`` takes math.ulp's
values from np.spacing.  ``_cancellation_floor``, 8 ulps of the largest
of a sum's terms, is the package's one resolution rule for a total that
cancels: ``beta``, ``asymptotics`` and the CLI read it.  The one global
state is ``np``, numpy imported on the first read of one of its
attributes, each attribute then cached: the scalar API (floats
throughout) never reads one, so importing the package does not import
numpy.  Double precision throughout; Omega and t are accurate to a few
ulps.
"""

from __future__ import annotations

import math
import numbers
import sys
from itertools import repeat

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


def _cancellation_floor(terms):
    """8 ulps of the largest |term|, from one depth's list of floats or a grid's rows (one column a depth).

    The package's one resolution rule for a sum of terms that cancel: a
    total below it is numerically meaningless.
    """
    largest = max(map(abs, terms)) if isinstance(terms, list) else np.abs(terms).max(axis=0)
    return 8.0 * _ulp(largest)


def _ratio(x, phi, th, h):
    """phi / th, with th = tanh(x) and x = h * phi, from its series where x < _SERIES_THRESHOLD; one float."""
    return (1.0 + x * x / 3.0 - x ** 4 / 45.0) / h if x < _SERIES_THRESHOLD else phi / th


def _ratios(x, phi, th, h):
    """_ratio at every element of arrays x, phi and th of one shape, with h an array that broadcasts to it."""
    small = np.flatnonzero(x < _SERIES_THRESHOLD)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # only where the series overwrites
        ratio = phi / th
    if small.size:  # the series on Python floats: x ** 4 by libm's pow, as in _ratio
        # h is gathered off its broadcast view, which take would first copy whole
        columns = [a.take(small) for a in (x, phi, th)] + [np.broadcast_to(h, x.shape).flat[small]]
        ratio.put(small, list(map(_ratio, *(a.tolist() for a in columns))))
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


def _float(x, name: str) -> float:
    """float(x) of a real number x, with a real beyond the double range rounded to +-inf as IEEE 754 rounds it.

    The one reader of a real number argument.  A float is returned as it
    is, and a 0-d numpy array is read as the scalar it holds.  A bool, or
    anything that is not a ``numbers.Real``, is refused with a TypeError
    naming it as name: a complex number, numpy's included, a str, bytes,
    None, a Decimal and numpy's bools.  The rest (an int, a Fraction,
    numpy's integers and floats, float16 included, mpmath's mpf) is
    rounded once to the nearest double.
    """
    if type(x) is float:
        return x
    if type(x) is not int and (isinstance(x, bool) or not isinstance(x, numbers.Real)):  # an int is real
        # a 0-d array reads as its scalar; before numpy is loaded there is no array, so the test loads no numpy
        if isinstance(x, getattr(sys.modules.get("numpy"), "ndarray", ())) and x.ndim == 0:
            return _float(x[()], name)
        raise TypeError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _integer(x, name: str, least=None) -> int:
    """x as an int, refused (ValueError) unless it is integral, and at least least when one is given.

    The one reader of an integer argument.  x is read as ``_float`` reads
    it, so NaN, +-inf and an int beyond the double range are refused, and
    so is a bool (TypeError); an int comes back as it is, exact beyond
    2**53, anything else as int of its double.
    """
    if (value := _float(x, name)) % 1 == 0 and (least is None or value >= least):  # inf % 1 is nan: no nan, +-inf
        return x if type(x) is int else int(value)
    raise ValueError(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {x!r}")


def _check_depth(h: float) -> float:
    h = _float(h, "depth")
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"depth must be a positive finite real, got {h!r}")
    return h


def _read_depths(hs) -> np.ndarray:
    """Any iterable of depths as a new 1-D float array, each depth read as _float reads it: nothing else is checked.

    The one reader of a grid of depths.  An array that is not 1-D, or whose
    dtype holds bools, times or text, is refused (TypeError, naming its
    shape and dtype).  A 1-D float64 array is copied, so the caller's array
    is never held.  Any other iterable, an object or complex array among
    them, is read into a list once.  A list whose sum is a float holds no
    complex number (a complex term makes the sum complex), no text and no
    real beyond the double range (the sum raises): it goes to numpy in one
    call, a list of bools too.  Any other goes through _float depth by
    depth, which rounds such a real to +-inf and refuses a complex number,
    str or bytes (TypeError).  The sum takes a fifth of the time of one
    isinstance test a depth.
    """
    if isinstance(hs, np.ndarray):
        if hs.ndim != 1 or hs.dtype.kind in "bmMSU":
            raise TypeError(f"depths must be a 1-D array of real numbers, got shape {hs.shape} and dtype {hs.dtype}")
        if hs.dtype == np.float64:
            return hs.copy()
    hs = list(hs)
    try:
        plain = isinstance(sum(hs, 0.0), float)
    except (TypeError, OverflowError):
        plain = False
    return np.fromiter(hs if plain else map(_float, hs, repeat("depth")), dtype=float, count=len(hs))


def _check_depths(h: np.ndarray) -> np.ndarray:
    """_check_depth over an array of floats in one pass: its first non-finite or non-positive depth is refused."""
    ok = (h > 0.0) & (h < math.inf)  # false at NaN too
    if not ok.all():
        _check_depth(h[np.argmin(ok)])
    return h


def _check_finite(x: float, name: str) -> float:
    x = _float(x, name)
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
    j, sigma = _integer(j, "j"), _integer(sigma, "sigma")
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
    h = _check_depth(h)
    mu = _check_finite(mu, "mu")
    phi = j + mu
    (omega,), _ = _tabulate(0, h, abs(phi), _FLOATS)
    return _phase(h, _FLOATS) * phi - sigma * omega
