"""Leading-order geometry of one instability isola.

Truncated parametric model of the p-th isola: with beta1 computed by
:mod:`stokes_isolas.beta` and the externally supplied band/shape functions
T1 > 0 and E in (0, 1) (no closed form is computed here), the discriminant
of the colliding eigenvalue pair reduces to

    D(nu) = 4*beta1^2*eps^(2p) - T1^2*nu^2,    nu = mu - mu0,

positive strictly inside the instability band, zero at its endpoints
mu0 -+ 2*|beta1|*eps^p/T1, negative outside.  Inside the band the pair has
real part +-sqrt(D)/2 (maximal growth |beta1|*eps^p at the center); outside
it is purely imaginary; at the endpoints the two eigenvalues recollide on
the imaginary axis.  The isola itself is approximated by the ellipse

    x^2 + E^2*(y - y0)^2 = beta1^2*eps^(2p).

All remainder terms of the source expansions are truncated to zero, so
every output is a leading-order model with error O(eps^(p+1)); the center
ordinate y0 and band center mu0 default to the collision frequency and
critical wavenumber (their exact positions are O(eps^2)-close).

The ellipse is the unit circle (cos 2 pi k/n, sin 2 pi k/n) scaled by
(max_growth, max_growth/E) and shifted by y0.  The circle of the last n
asked for is held, one read-only n x 2 array, so repeated calls with one n
skip the trigonometry; a call with another n replaces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .beta import _point
from .dispersion import _check_finite, _float, _integer, np
from .resonance import _check_index, _collision

__all__ = [
    "IsolaParams",
    "IsolaGeometry",
    "discriminant",
    "band_endpoints",
    "eigenvalue_pair",
    "ellipse_points",
    "isola_geometry",
]


@dataclass(frozen=True)
class IsolaParams:
    """Inputs of the truncated isola model at one (p, h, eps).

    beta1 normally comes from :func:`stokes_isolas.beta.beta1`; T1 and E
    must be supplied by the caller.  y0 and mu0 default (via
    :meth:`from_depth`) to the collision frequency and critical wavenumber.
    Each field is stored as it is read: p as an int, the others as
    doubles, so a numpy float32 eps gives the model's doubles; a field that
    is not a real number is refused by name (TypeError).
    """

    p: int
    h: float
    eps: float
    beta1: float
    T1: float
    E: float
    y0: float
    mu0: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_index(self.p))
        for name in ("h", "eps", "beta1", "T1", "y0", "mu0"):  # the first field that is not a finite real is named
            object.__setattr__(self, name, _check_finite(getattr(self, name), name))
        E = self.E  # a refusal shows E as given, 10**400 as it is
        object.__setattr__(self, "E", _float(E, "E"))
        for name in ("h", "eps", "T1"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if not 0.0 < self.E < 1.0:
            raise ValueError(f"E must lie in (0, 1), got {E!r}")
        try:  # max_growth / E >= max_growth, as E < 1
            width, height = self.half_width, self.max_growth / self.E
        except OverflowError:  # eps**p alone leaves the float range
            width = height = math.inf
        ends = (self.mu0 - width, self.mu0 + width, self.y0 - height, self.y0 + height)
        if not all(map(math.isfinite, ends)):
            raise ValueError(f"band ends mu0 -+ half_width and ellipse extremes y0 +- max_growth / E must be finite, "
                             f"got {ends!r} at eps={self.eps!r}, T1={self.T1!r}, E={self.E!r}")

    @classmethod
    def from_depth(cls, p, h, eps, T1, E, y0=None, mu0=None):
        """Fill beta1, y0, mu0 from one phi* solve at depth h: the values of beta1_breakdown(p, h).

        beta1 is its total, y0 the collision frequency omega* = c*phi* + Omega_0
        and mu0 the critical wavenumber phi*.  p, then h, are refused as by
        beta1, both before the solve.
        """
        _, _, c, phi, Omega, _, _, total = _point(p, h)
        return cls(
            p=p,
            h=h,
            eps=eps,
            beta1=total,
            T1=T1,
            E=E,
            y0=_collision(p, c, phi, Omega[0], Omega[-1])[0] if y0 is None else y0,
            mu0=phi if mu0 is None else mu0,
        )

    @property
    def max_growth(self) -> float:
        """Largest real part on the isola, |beta1| * eps^p."""
        return abs(self.beta1) * self.eps**self.p

    @property
    def half_width(self) -> float:
        """Half-width of the Floquet instability band, 2*|beta1|*eps^p/T1."""
        return 2.0 * self.max_growth / self.T1


def discriminant(nu: float, params: IsolaParams) -> float:
    """D(nu) = 4*beta1^2*eps^(2p) - T1^2*nu^2 around the band center.

    nu must be finite, and (T1*nu)^2 must not overflow (ValueError).
    """
    nu = _check_finite(nu, "nu")
    return _discriminant(nu, params, "nu", nu)


def _discriminant(nu: float, params: IsolaParams, name: str, value: float) -> float:
    """D(nu); the caller's argument `name` = `value` is refused when T1^2*nu^2 overflows."""
    g = params.max_growth
    try:
        square = (params.T1 * nu) ** 2
    except OverflowError:
        square = math.inf
    if square == math.inf:  # T1*nu may round to inf itself, and inf ** 2 does not raise
        raise ValueError(f"{name} is too far from the band center: T1^2*nu^2 overflows, got {value!r}")
    return 4.0 * g * g - square


def band_endpoints(params: IsolaParams) -> tuple[float, float]:
    """(mu_low, mu_high); both equal mu0 when beta1 = 0 (closed band)."""
    w = params.half_width
    return params.mu0 - w, params.mu0 + w


def eigenvalue_pair(mu: float, params: IsolaParams) -> tuple[complex, complex]:
    """The colliding eigenvalue pair at Floquet exponent mu.

    Inside the band: y0*i +- sqrt(D)/2 (nonzero real part); outside:
    purely imaginary, y0*i +- i*sqrt(|D|); continuous across the endpoints
    where both eigenvalues equal y0*i.  mu must be finite, and
    (T1*(mu - mu0))^2 must not overflow (ValueError).
    """
    mu = _check_finite(mu, "mu")
    D = _discriminant(mu - params.mu0, params, "mu", mu)
    if D > 0.0:
        half = 0.5 * math.sqrt(D)
        return complex(half, params.y0), complex(-half, params.y0)
    root = math.sqrt(-D)
    return complex(0.0, params.y0 + root), complex(0.0, params.y0 - root)


@lru_cache(maxsize=1)
def _unit_circle(n: int) -> np.ndarray:
    """(cos theta_k, sin theta_k) at theta_k = 2*pi*k/n, read-only; held for the last n only."""
    theta = 2.0 * math.pi * np.arange(n) / n
    circle = np.empty((n, 2))
    circle[:, 0] = np.cos(theta)
    circle[:, 1] = np.sin(theta)
    circle.flags.writeable = False
    return circle


def ellipse_points(params: IsolaParams, n: int) -> np.ndarray:
    """n samples (x, y) of the approximating ellipse, in sample order, as a new array.

    Sample k is (g*cos theta_k, y0 + (g/E)*sin theta_k) at
    theta_k = 2*pi*k/n, g = max_growth: the held unit circle of this n
    scaled column by column, then shifted by y0.  Satisfies
    x^2 + E^2*(y - y0)^2 = beta1^2*eps^(2p) to rounding; for even n the
    sample set is symmetric under x -> -x.  Extreme points are
    (+-max_growth, y0) and (0, y0 +- max_growth/E).
    """
    g = params.max_growth
    pts = _unit_circle(_integer(n, "n", 8)) * (g, g / params.E)
    pts[:, 1] += params.y0
    return pts


@dataclass(frozen=True)
class IsolaGeometry:
    """Band endpoints, growth, and sampled isola curve for one parameter set."""

    mu_low: float
    mu_high: float
    max_growth: float
    ellipse: np.ndarray = field(repr=False)
    band_open: bool

    @property
    def band_width(self) -> float:
        return self.mu_high - self.mu_low


def isola_geometry(params: IsolaParams, n: int = 256) -> IsolaGeometry:
    """Assemble the leading-order geometry (degenerate when beta1 = 0)."""
    return IsolaGeometry(*band_endpoints(params), params.max_growth, ellipse_points(params, n), params.beta1 != 0.0)
