"""References the benchmark checks the program against, and their error bounds.

Nothing here calls the program.  Reference values come from the mpmath
oracle (``stokes_isolas.oracle``), a longhand 50-digit transcription kept
apart from the main path.  The bound on how far a double-precision result
may sit from that reference comes from an a-priori running error analysis
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 3-4)
of the method as the package documents it; see ``README.md`` in this
directory for the derivation.

The critical depths are cached in ``critical_depths.json``, because the
oracle needs about a second per zero.  Rebuild the cache with::

    python3 perfbench/reference.py --rebuild
"""

from __future__ import annotations

import json
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np

U = 2.0**-53          # unit roundoff of IEEE double
LIBM_ULPS = 2.0       # accuracy assumed of libm tanh/cos/sin, in ulps (glibc: <= 2)
SLACK = 2.0           # first-order truncation and operation-order allowance

# brentq settings of the phi* solve (resonance.solve_wavenumber).
PHI_XTOL = 1e-15
PHI_RTOL = 4 * 2.0**-52

CACHE = Path(__file__).with_name("critical_depths.json")
# Brackets around the paper's critical depths used to rebuild the cache.
ZERO_BRACKETS = {2: [(1.8, 1.9)], 3: [(0.8, 0.85)], 4: [(0.55, 0.58), (1.24, 1.27)]}


class Err:
    """Values and first-order bounds on their absolute rounding errors.

    ``v`` and ``e`` are float arrays (one entry per depth).  Each operation
    adds the propagated input errors and one rounding of its result (``U``
    for correctly rounded + - * / sqrt, ``LIBM_ULPS`` ulps for tanh).
    """

    __slots__ = ("v", "e")
    __array_ufunc__ = None  # make ndarray * Err defer to Err.__rmul__

    def __init__(self, v, e=0.0):
        self.v = np.asarray(v, dtype=float)
        self.e = np.broadcast_to(np.asarray(e, dtype=float), self.v.shape)

    def __add__(self, o):
        o = _lift(o)
        v = self.v + o.v
        return Err(v, self.e + o.e + U * np.abs(v))

    __radd__ = __add__

    def __sub__(self, o):
        o = _lift(o)
        v = self.v - o.v
        return Err(v, self.e + o.e + U * np.abs(v))

    def __rsub__(self, o):
        return _lift(o) - self

    def __neg__(self):
        return Err(-self.v, self.e)

    def __mul__(self, o):
        o = _lift(o)
        v = self.v * o.v
        return Err(v, np.abs(o.v) * self.e + np.abs(self.v) * o.e + U * np.abs(v))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _lift(o)
        v = self.v / o.v
        return Err(v, (self.e + np.abs(v) * o.e) / np.abs(o.v) + U * np.abs(v))

    def __rtruediv__(self, o):
        return _lift(o) / self


def _lift(x):
    return x if isinstance(x, Err) else Err(x)


def _sqrt(x: Err) -> Err:
    v = np.sqrt(x.v)
    return Err(v, x.e / (2.0 * v) + U * v)


def _tanh(x: Err) -> Err:
    v = np.tanh(x.v)
    return Err(v, (1.0 - v * v) * x.e + 2.0 * LIBM_ULPS * U * np.abs(v))


def _phi_float(p: int, h: np.ndarray) -> np.ndarray:
    """phi* by bisection, to about 1e-16 relative; independent of the package."""
    c = np.sqrt(np.tanh(h))
    f = lambda x: np.sqrt(x * np.tanh(h * x)) + np.sqrt((x + p) * np.tanh(h * (x + p))) - p * c
    lo = np.full_like(h, 1e-12)
    hi = np.full_like(h, (p - 1) ** 2 / 4.0 + 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = f(mid) <= 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _kernels(x: Err, h: np.ndarray):
    """Omega = sqrt(x tanh(hx)) and t = sqrt(x / tanh(hx)) with error bounds."""
    th = _tanh(h * x)
    t = _sqrt(x / th)
    # t_ratio switches to a Taylor series below hx = 1e-4; allow four more
    # roundings for it (its truncation error is below 1e-27 relative).
    t = Err(t.v, t.e + 4.0 * U * t.v)
    return _sqrt(x * th), t


def _coefficients(c: Err):
    """a_1..a_4, p_1..p_4 by Horner's rule in u = c^4, as the package states."""
    c2 = c * c
    u = c2 * c2
    p1 = -2.0 / c
    a1 = -(c2 + 1.0 / c2)
    p2 = -(3.0 + u) / (2.0 * u * c2 * c)
    a2 = ((9.0 * u - 14.0) * u - 3.0) / (4.0 * u * u)
    p3 = -(((u + 17.0) * u + 51.0) * u + 27.0) / (32.0 * u * u * u * c)
    a3 = -((((u + 98.0) * u - 252.0) * u + 318.0) * u + 27.0) / (64.0 * u * u * u * c2)
    num_p4 = ((((u + 39.0) * u + 366.0) * u + 850.0) * u + 657.0) * u + 135.0
    p4 = -num_p4 / (64.0 * u * u * u * u * c2 * c * (u + 5.0))
    num_a4 = (((((9.0 * u + 238.0) * u - 233.0) * u - 1676.0) * u + 743.0) * u - 3042.0) * u - 135.0
    a4 = num_a4 / (128.0 * u * u * u * u * u * (u + 5.0))
    return (a1, a2, a3, a4), (p1, p2, p3, p4)


def _inputs(p: int, h: np.ndarray):
    """c, phi* and the kernels Omega_j, t_j, each with its error bound.

    phi* carries the brentq tolerance (xtol + rtol*phi) plus the rounding
    noise of the collision residual divided by its slope.
    """
    c = _sqrt(_tanh(Err(h)))
    phi = _phi_float(p, h)
    f = _kernels(Err(phi), h)[0] + _kernels(Err(phi + p), h)[0] - p * c

    def slope(x):
        th = np.tanh(h * x)
        return (th + h * x * (1.0 - th * th)) / (2.0 * np.sqrt(x * th))

    phi_e = Err(phi, PHI_XTOL + PHI_RTOL * phi + f.e / (slope(phi) + slope(phi + p)))
    O, t = zip(*(_kernels(j + phi_e, h) for j in range(p + 1)))
    return c, phi_e, O, t


def beta_model(p: int, hs) -> tuple[np.ndarray, np.ndarray]:
    """Double-precision beta1(p, h) by the path rule, and an error bound.

    Returns ``(values, bounds)`` for the depths ``hs``.  ``bounds`` is an
    a-priori bound on |computed - exact| for any double evaluation that
    follows the documented method (this one included): first-order error
    bounds propagated through every summand, plus the Neumaier summation
    error, times ``SLACK``.
    """
    h = np.asarray(hs, dtype=float)
    c, _, O, t = _inputs(p, h)
    a, pc = _coefficients(c)
    err = np.zeros_like(h)
    abs_sum = np.zeros_like(h)
    signed = []
    for k in range(p):
        for J in combinations(range(1, p), k):
            for S in product((-1, 1), repeat=k):
                nodes = (0, *J, p)
                weights = (1.0, *(-float(s) for s in S), -1.0)
                num = Err(np.ones_like(h))
                for m, n in zip(nodes, nodes[1:]):
                    w_m, w_n = weights[nodes.index(m)], weights[nodes.index(n)]
                    num = num * (a[n - m - 1] + pc[n - m - 1] * (w_m * t[m] + w_n * t[n]))
                den = Err(np.full_like(h, 4.0 ** (k + 1)))
                pref = _sqrt(O[0] * O[p])
                for j, s in zip(J, S):
                    pref = pref * O[j]
                    den = den * (j * c - s * O[j] - O[0])
                term = pref * num / den
                sign = -1.0 if sum(s < 0 for s in S) % 2 else 1.0
                err += term.e
                abs_sum += np.abs(term.v)
                signed.append(sign * term.v)
    total, comp = np.zeros_like(h), np.zeros_like(h)
    for v in signed:  # Neumaier, elementwise
        s = total + v
        comp += np.where(np.abs(total) >= np.abs(v), (total - s) + v, (v - s) + total)
        total = s
    total = total + comp
    summation = 2.0 * U * np.abs(total) + 4.0 * len(signed) * U * U * abs_sum
    return total, SLACK * (err + summation)


def phi_error_bound(p: int, h: float) -> float:
    """Bound on |phi*_computed - phi*| from the solve's tolerance and noise."""
    return float(SLACK * _inputs(p, np.array([h]))[1].e[0])


def omega_star_error_bound(p: int, h: float) -> float:
    """Bound on |c*phi* + Omega(phi*) computed - exact|."""
    c, phi, O, _ = _inputs(p, np.array([h]))
    return float(SLACK * (c * phi + O[0]).e[0])


class Oracle:
    """Memoised oracle references for one run (the oracle costs ~15 ms a point)."""

    def __init__(self):
        import mpmath as mp
        from stokes_isolas import oracle

        self._mp = mp
        self._oracle = oracle
        self._beta = {}

    def beta(self, p: int, h: float):
        """(oracle beta1, bound on the program's error) at (p, h)."""
        key = (p, h)
        if key not in self._beta:
            value = float(self._oracle.oracle_beta1(p, h))
            self._beta[key] = (value, float(beta_model(p, [h])[1][0]))
        return self._beta[key]

    def term_labels(self, p: int, h: float):
        return list(self._oracle.oracle_beta_terms(p, h))

    def phi(self, p: int, h: float) -> float:
        return float(self._oracle.oracle_phi(p, h))

    def omega_star(self, p: int, h: float) -> float:
        mp = self._mp
        with mp.workdps(60):
            phi = self._oracle.oracle_phi(p, h)
            hh = mp.mpf(h)
            return float(mp.sqrt(mp.tanh(hh)) * phi + mp.sqrt(phi * mp.tanh(hh * phi)))

    def verify_critical_depths(self, table) -> list[str]:
        """Confirm each cached zero is bracketed by an oracle sign change."""
        problems = []
        for p, zeros in table.items():
            for z in zeros:
                delta = 1e-12 * max(1.0, z["h"])
                lo = self._oracle.oracle_beta1(p, z["h"] - delta)
                hi = self._oracle.oracle_beta1(p, z["h"] + delta)
                if self._mp.sign(lo) == self._mp.sign(hi):
                    problems.append(f"cached critical depth p={p} h={z['h']!r} has no oracle sign change")
        return problems


def load_critical_depths(path: Path = CACHE) -> dict[int, list[dict]]:
    data = json.loads(path.read_text())
    return {int(p): zs for p, zs in data["zeros"].items()}


def rebuild(path: Path = CACHE) -> None:
    import mpmath as mp
    from stokes_isolas.oracle import oracle_beta1, oracle_find_beta_zero

    zeros = {}
    for p, brackets in ZERO_BRACKETS.items():
        zeros[str(p)] = []
        for lo, hi in brackets:
            z = oracle_find_beta_zero(p, lo, hi)
            zf = float(z)
            # Where the double-precision beta1 may change sign: its error
            # bound over the oracle slope at the zero.
            with mp.workdps(60):
                d = 1e-8
                slope = float((oracle_beta1(p, z + d) - oracle_beta1(p, z - d)) / (2 * d))
            shift = float(beta_model(p, [zf])[1][0]) / abs(slope)
            zeros[str(p)].append({"h": zf, "h_20_digits": mp.nstr(z, 20), "float_zero_shift": shift})
    doc = {
        "about": "critical depths of beta1 from oracle_find_beta_zero (50 digits); "
        "rebuild: python3 perfbench/reference.py --rebuild",
        "zeros": zeros,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rebuild"]:
        sys.exit("usage: python3 perfbench/reference.py --rebuild")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    rebuild()
    print(f"wrote {CACHE}")
