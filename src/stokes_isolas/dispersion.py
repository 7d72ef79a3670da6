"""Linear dispersion relation of gravity water waves on finite depth.

All quantities are nondimensional.  The three kernels are

    c(h)      = sqrt(tanh(h))            phase speed of the carrier wave
    Omega(phi, h) = sqrt(phi * tanh(h * phi))   wave frequency at wavenumber phi
    t(phi, h) = sqrt(phi / tanh(h * phi))        companion ratio, t * Omega = phi

together with the flat-water eigenvalue branches

    omega^sigma(j + mu, h) = c(h) * (j + mu) - sigma * Omega(j + mu, h)

labelled by a mode index j and a signature sigma = +-1.

The public functions take floats and check their inputs.  The private
kernels ``_omega``, ``_omega_t`` and ``_phase`` skip the checks and take either
floats or numpy arrays of depths and wavenumbers; both forms perform the same
IEEE operations, so a grid of depths gets the same doubles as one call per
depth.  No caching, no global state, safe to call concurrently.  Double
precision throughout; Omega and t are accurate to a few ulps, which
downstream consumers budget against.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "phase_speed",
    "omega_disp",
    "t_ratio",
    "eigenvalue_branch",
]

# Below this value of |h*phi| the ratio phi/tanh(h*phi) is evaluated by its
# Taylor series; both branches agree to ~1e-16 at the crossover.
_SERIES_THRESHOLD = 1e-4


def _libm(fn, x):
    """fn of a float, or of each element of an array, through the math module.

    numpy's exp is not bit-equal to libm's: on uniform samples of [0, 20]
    np.exp differs from math.exp in the last bit for about 5% of the
    arguments.  The grid path must return the same doubles as the
    single-point path, so arrays go through libm one element at a time.
    ``exp`` (``asymptotics``) and ``ulp`` (``beta``) use it; ``tanh`` has
    its own kernel, ``_tanh``.  sqrt needs no such care: IEEE 754 rounds it
    correctly in both.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)
    return fn(x)


# From here up libm's tanh is exactly 1.0: fdlibm's s_tanh.c, which glibc
# uses, returns 1 - tiny, rounded to 1.0, for every x >= 22 and for +inf.
_TANH_ONE = 22.0


def _tanh(x):
    """libm's tanh of a float, or of each element of an array.

    np.tanh is not bit-equal to math.tanh (it differs in the last bit for
    about a fifth of uniform samples of [0, 20]), so arrays go through libm
    like ``_libm``, but only where x < 22 (NaN included); elsewhere libm
    would return exactly 1.0, which is written without a call.  Deep grids
    put many of their arguments h * (j + phi*) there.
    """
    if not isinstance(x, np.ndarray):
        return math.tanh(x)
    th = np.ones(x.shape)
    below = ~(x >= _TANH_ONE)
    th[below] = _libm(math.tanh, x[below])
    return th


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _phase(h):
    return _sqrt(_tanh(h))


def _omega(phi, h):
    """Omega for phi >= 0, unchecked; floats or arrays."""
    return _sqrt(phi * _tanh(h * phi))


def _series_ratio(x: float, h: float) -> float:
    return (1.0 + x * x / 3.0 - x ** 4 / 45.0) / h


def _omega_t(phi, h):
    """(Omega, t) for phi >= 0, unchecked, from one tanh; floats, or arrays of equal shape."""
    x = h * phi
    th = _tanh(x)
    omega = _sqrt(phi * th)
    if not isinstance(x, np.ndarray):
        return omega, math.sqrt(_series_ratio(x, h) if x < _SERIES_THRESHOLD else phi / th)
    small = x < _SERIES_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = phi / th
    # x ** 4 as Python floats: libm pow, as in the scalar branch
    ratio[small] = list(map(_series_ratio, x[small].tolist(), h[small].tolist()))
    return omega, np.sqrt(ratio)


def _check_depth(h: float) -> float:
    h = float(h)
    if not math.isfinite(h) or h <= 0.0:
        raise ValueError(f"depth must be a positive finite real, got {h!r}")
    return h


def _check_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def phase_speed(h: float) -> float:
    """Phase speed c(h) = sqrt(tanh(h)) of the unit-wavenumber carrier.

    Strictly increasing in h, with values in (0, 1); approaches 1 like
    1 - exp(-2h) in deep water.
    """
    return _phase(_check_depth(h))


def omega_disp(phi: float, h: float) -> float:
    """Frequency Omega(phi, h) = sqrt(phi * tanh(h * phi)).

    Even in phi and exactly zero at phi = 0; strictly increasing in both
    arguments for phi >= 0.
    """
    h = _check_depth(h)
    phi = _check_finite(phi, "phi")
    return _omega(abs(phi), h)  # phi * tanh(h*phi) is even; abs makes that exact


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
    return _omega_t(phi, h)[1]


def eigenvalue_branch(j: int, sigma: int, mu: float, h: float) -> float:
    """Imaginary part of the flat-water eigenvalue branch (j, sigma) at mu.

    Returns omega^sigma(j + mu, h) = c(h)*(j + mu) - sigma*Omega(j + mu, h).
    The branches obey the reflection omega^+(-phi, h) = -omega^-(phi, h).
    """
    if sigma not in (1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
    h = _check_depth(h)
    mu = _check_finite(mu, "mu")
    phi = j + mu
    return _phase(h) * phi - sigma * _omega(abs(phi), h)
