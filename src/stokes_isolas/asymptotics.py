"""Deep-water expansions and the two-point remainder rate fitter.

As h -> +infinity the instability coefficients vanish exponentially:

    p = 2:  (3*sqrt(3)/64)  * exp(-h/2),  remainder O(exp(-3h/4))
    p = 3:  (2*sqrt(2)/3)   * exp(-2h),   remainder O(exp(-3h))
    p = 4:  -(5*sqrt(15)/24) * exp(-2h),  remainder O(exp(-4h))

and the critical wavenumbers approach their deep-water limits:

    phi(2,h) = 1/4 + (3/8)  * exp(-h/2) + o(exp(-3h/4))
    phi(3,h) = 1   - (8/3)  * exp(-2h)  + o(exp(-3h))
    phi(4,h) = 9/4 - (15/2) * exp(-2h)  + O(exp(-4h))

The per-group leading coefficients (the cancellation bookkeeping behind the
totals) are tabulated in DEEP_WATER_GROUPS.  A remainder's decay rate is
checked by the deterministic two-point fit

    rate ~= log(|r(h1)| / |r(h2)|) / (h2 - h1),     r = f - model,

evaluated at depths where r is far above the floating-point floor;
``floor_flag`` reports when that safety margin is NOT met and the estimate
should be reported but not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import _check_depth, _check_depths, _libm
from .errors import DegenerateFitError

__all__ = [
    "AsymptoticModel",
    "LEADING_MODELS",
    "WAVENUMBER_MODELS",
    "DEEP_WATER_GROUPS",
    "leading_term",
    "wavenumber_asymptote",
    "fit_remainder_rate",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)


@dataclass(frozen=True)
class AsymptoticModel:
    """One expansion f(h) ~ offset + coeff * exp(-rate*h) + O(exp(-remainder_rate*h))."""

    coeff: float
    rate: float
    remainder_rate: float
    description: str
    offset: float = 0.0

    def __post_init__(self):
        if not self.remainder_rate > self.rate:
            raise ValueError(
                f"remainder_rate must exceed rate, got {self.remainder_rate} <= {self.rate}"
            )

    def leading(self, h: float) -> float:
        """coeff * exp(-rate*h); h may be an array of depths (libm exp per element).

        A non-finite or non-positive depth is refused (ValueError); for an
        array, the first such depth is named.
        """
        h = _check_depths(h) if isinstance(h, np.ndarray) else _check_depth(h)
        return self.coeff * _libm(math.exp, -self.rate * h)

    def value(self, h: float) -> float:
        return self.offset + self.leading(h)


LEADING_MODELS = {
    2: AsymptoticModel(3.0 * _SQRT3 / 64.0, 0.5, 0.75, "second-isola coefficient, deep water"),
    3: AsymptoticModel(2.0 * _SQRT2 / 3.0, 2.0, 3.0, "third-isola coefficient, deep water"),
    4: AsymptoticModel(-5.0 * _SQRT15 / 24.0, 2.0, 4.0, "fourth-isola coefficient, deep water"),
}

WAVENUMBER_MODELS = {
    2: AsymptoticModel(3.0 / 8.0, 0.5, 0.75, "critical wavenumber, p=2", offset=0.25),
    3: AsymptoticModel(-8.0 / 3.0, 2.0, 3.0, "critical wavenumber, p=3", offset=1.0),
    4: AsymptoticModel(-15.0 / 2.0, 2.0, 4.0, "critical wavenumber, p=4", offset=2.25),
}

# Leading deep-water coefficient of each term group (same exponential rate as
# the total for that p).  Groups with coefficient 0 cancel one exponential
# order deeper; their sums decay at the total's remainder rate instead.
DEEP_WATER_GROUPS = {
    2: {"b0": -3.0 * _SQRT3 / 16.0, "B_{1,1}": 15.0 * _SQRT3 / 64.0},
    3: {
        "b0": -2.0 * _SQRT2,
        "B_{1,1}": -10.0 * _SQRT2 / 3.0,
        "B_{1,2}": 8.0 * _SQRT2,
        "B_{2,{1,2}}": -2.0 * _SQRT2,
    },
    4: {
        "b0": -5.0 * _SQRT15 / 8.0,
        "B_{1,1}": -39.0 * _SQRT15 / 16.0,
        "B_{1,2}": 0.0,
        "B_{1,3}": 63.0 * _SQRT15 / 16.0,
        "B_{2,{1,2}}": -2873.0 * _SQRT15 / 384.0,
        "B_{2,{1,3}}": 1183.0 * _SQRT15 / 64.0,
        "B_{2,{2,3}}": -1547.0 * _SQRT15 / 128.0,
        "B_{3,{1,2,3}}": 0.0,
    },
}


def _model_for(p: int, table, what: str) -> AsymptoticModel:
    try:
        return table[p]
    except KeyError:
        raise ValueError(f"no closed-form {what} for p={p!r}; supported: 2, 3, 4") from None


def leading_term(p: int, h: float) -> float:
    """Leading deep-water part of the p-th coefficient (yellow curve data); h may be an array of depths."""
    return _model_for(p, LEADING_MODELS, "leading term").leading(h)


def wavenumber_asymptote(p: int, h: float) -> float:
    """Two-term deep-water expansion of the critical wavenumber phi(p, h); h may be an array of depths."""
    return _model_for(p, WAVENUMBER_MODELS, "wavenumber expansion").value(h)


def _default_floor(f_val: float, lead_val: float) -> float:
    return 8.0 * math.ulp(max(abs(f_val), abs(lead_val)))


def fit_remainder_rate(f, model: AsymptoticModel, h1: float, h2: float, floor=None):
    """Two-point decay-rate estimate of the remainder f - model.

    Parameters
    ----------
    f : callable
        Scalar function of depth.
    model : AsymptoticModel
        Expansion to subtract (offset + leading exponential).
    h1, h2 : float
        Fit depths, h2 > h1; choose them with the remainder well above the
        floating-point floor or the estimate is meaningless.
    floor : callable or None
        Resolution limit of f as a function of depth, evaluated at each
        fit depth; None estimates 8 ulps of the larger of |f| and |model|
        (adequate when f itself is not a cancellation-prone sum; for the
        coefficient sums pass the breakdown's ``cancellation_floor``).

    Returns
    -------
    (estimated_rate, floor_flag) : (float, bool)
        floor_flag is True when either remainder is within 10x of the
        floor, in which case the rate is reported but should not be
        asserted against.

    Raises
    ------
    DegenerateFitError
        If the remainder vanishes exactly at either depth.
    """
    if not h2 > h1:
        raise ValueError(f"need h2 > h1, got {h1!r}, {h2!r}")

    rs = []
    flagged = False
    for h in (h1, h2):
        f_val = f(h)
        r = f_val - model.value(h)
        if r == 0.0:
            raise DegenerateFitError(f"remainder is exactly zero at h={h}")
        fl = _default_floor(f_val, model.value(h)) if floor is None else floor(h)
        flagged = flagged or abs(r) < 10.0 * fl
        rs.append(r)

    rate = math.log(abs(rs[0]) / abs(rs[1])) / (h2 - h1)
    return rate, flagged
