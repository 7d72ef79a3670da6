"""Taylor coefficients of the Stokes-wave-induced potentials.

The first four diagonal Taylor coefficients a_l, p_l (l = 1..4) of the
surface potentials induced by a small-amplitude Stokes wave are explicit
rational functions of the phase speed c = sqrt(tanh(h)).  They feed the
instability-coefficient sums in :mod:`stokes_isolas.beta`.

In the deep-water limit (c -> 1):

    (a1, p1) -> (-2, -2)      (a2, p2) -> (-2, -2)
    (a3, p3) -> (-3, -3)      (a4, p4) -> (-16/3, -16/3)

All eight coefficients diverge as h -> 0+ (powers of 1/c in the
denominators).  Polynomials are evaluated by Horner's rule in u = c^4,
which is the variable the numerators are naturally written in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dispersion import phase_speed
from .errors import SingularityError

__all__ = ["StokesCoefficients", "stokes_coefficients"]


@dataclass(frozen=True)
class StokesCoefficients:
    """Diagonal Taylor coefficients at one depth, plus the phase speed used."""

    a1: float
    a2: float
    a3: float
    a4: float
    p1: float
    p2: float
    p3: float
    p4: float
    c: float

    def a(self, l: int) -> float:
        return (self.a1, self.a2, self.a3, self.a4)[l - 1]

    def p(self, l: int) -> float:
        return (self.p1, self.p2, self.p3, self.p4)[l - 1]


def stokes_coefficients(h: float) -> StokesCoefficients:
    """Evaluate all eight coefficients a_1..a_4, p_1..p_4 at depth h.

    Exact rational expressions in c = sqrt(tanh(h)); for h below ~0.05 the
    values grow like large negative powers of c and eventually overflow the
    double range near h ~ 1e-3 (the shallow regime needs dedicated
    asymptotics, out of scope here).
    """
    c = phase_speed(h)
    (a1, a2, a3, a4), (p1, p2, p3, p4) = _coefficients(c)
    return StokesCoefficients(a1=a1, a2=a2, a3=a3, a4=a4, p1=p1, p2=p2, p3=p3, p4=p4, c=c)


def _coefficients(c):
    """((a1, a2, a3, a4), (p1, p2, p3, p4)) at phase speed c: a float, or an array of them.

    Raises SingularityError where a denominator (a product of powers of c)
    underflows to 0.0, for h below ~2.7e-33.  Arrays get inf or NaN there
    instead, and the grid path redoes such depths one at a time.
    """
    try:
        c2 = c * c
        u = c2 * c2  # c^4

        p1 = -2.0 / c
        a1 = -(c2 + 1.0 / c2)

        # p2 = -(3 + c^4) / (2 c^7),  a2 = (9 c^8 - 14 c^4 - 3) / (4 c^8)
        p2 = -(3.0 + u) / (2.0 * u * c2 * c)
        a2 = ((9.0 * u - 14.0) * u - 3.0) / (4.0 * u * u)

        # p3 = -(c^12 + 17 c^8 + 51 c^4 + 27) / (32 c^13)
        p3 = -(((u + 17.0) * u + 51.0) * u + 27.0) / (32.0 * u * u * u * c)
        # a3 = -(c^16 + 98 c^12 - 252 c^8 + 318 c^4 + 27) / (64 c^14)
        a3 = -((((u + 98.0) * u - 252.0) * u + 318.0) * u + 27.0) / (64.0 * u * u * u * c2)

        # p4 = -(c^20 + 39 c^16 + 366 c^12 + 850 c^8 + 657 c^4 + 135) / (64 c^19 (c^4 + 5))
        num_p4 = ((((u + 39.0) * u + 366.0) * u + 850.0) * u + 657.0) * u + 135.0
        p4 = -num_p4 / (64.0 * u * u * u * u * c2 * c * (u + 5.0))
        # a4 = (9 c^24 + 238 c^20 - 233 c^16 - 1676 c^12 + 743 c^8 - 3042 c^4 - 135)
        #      / (128 c^20 (c^4 + 5))
        num_a4 = (((((9.0 * u + 238.0) * u - 233.0) * u - 1676.0) * u + 743.0) * u - 3042.0) * u - 135.0
        a4 = num_a4 / (128.0 * u * u * u * u * u * (u + 5.0))

        return (a1, a2, a3, a4), (p1, p2, p3, p4)
    except ZeroDivisionError:
        raise SingularityError(
            f"Stokes coefficients are singular at phase speed c={c!r}: a denominator underflows to 0.0",
            value=0.0,
        ) from None
