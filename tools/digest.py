"""One SHA-256 over the doubles the grid and single-depth paths return.

A change that claims to keep every output bit can be checked by running
this script before and after it: the two digests must be equal.  It hashes
the raw float64 and bool bytes (not pickles, whose bytes depend on the
Python and numpy versions) of these results at the 1001 depths
np.linspace(0.05, 20, 1001), for p = 2, 3, 4 in turn:

- ``_resonance_grid``: h, phi*, omega*, Omega_j, t_j, the residual and c;
- ``_grid``: the signed terms, their total and the cancellation floor;
- ``beta_scan``: each column of its rows, floor_flag as bools;
- ``beta1_breakdown`` at every 20th depth: the same values as the first
  two items at that depth, and floor_flag;
- at the same depths, the results that come without a record: ``beta1``,
  ``solve_wavenumber``, ``omega_star``, and the beta1, y0 and mu0 of
  ``IsolaParams.from_depth(p, h, 0.1, 1.0, 0.5)``.

Then, for p = 2..8 in turn, at the 401 depths np.geomspace(1e-3, 1e3, 401),
where brackets take many steps toward 0+ and deep lanes saturate tanh:

- ``_resonance_grid``: its seven fields, as above;
- ``solve_wavenumber`` at every 20th depth.

It imports only names that have existed since the script was written, so
it can hash an older ``src/`` to compare with the current one:

    PYTHONPATH=path/to/older/src python tools/digest.py

Run from the repository root:

    PYTHONPATH=src python tools/digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from stokes_isolas.beta import _grid, beta1, beta1_breakdown, beta_scan
from stokes_isolas.isola import IsolaParams
from stokes_isolas.resonance import _resonance_grid, omega_star, solve_wavenumber

RESONANCE_FIELDS = ("h", "phi_star", "omega_star", "Omega", "t", "residual", "c")
HS = np.linspace(0.05, 20.0, 1001)
WIDE = np.geomspace(1e-3, 1e3, 401)


def _floats(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _bools(x) -> bytes:
    return np.asarray(x, dtype=bool).tobytes()


def _record(bd) -> list[bytes]:
    """The bytes of a BetaBreakdown's resonance data, terms, total, floor and flag."""
    rd = [_floats(getattr(bd.rd, name)) for name in RESONANCE_FIELDS]
    return rd + [_floats(bd.signed), _floats(bd.total), _floats(bd.cancellation_floor), _bools(bd.floor_flag)]


def digest() -> str:
    sha = hashlib.sha256()
    for p in (2, 3, 4):
        rd = _resonance_grid(p, HS)
        parts = [_floats(getattr(rd, name)) for name in RESONANCE_FIELDS]
        g = _grid(p, HS)
        parts += [_floats(g.signed), _floats(g.total), _floats(g.cancellation_floor)]
        rows = beta_scan(p, HS)
        parts += [_floats([r.h for r in rows]), _floats([r.beta1 for r in rows]),
                  _floats([r.leading for r in rows]), _floats([r.ratio for r in rows]),
                  _bools([r.floor_flag for r in rows])]
        for h in HS[::20].tolist():
            parts += _record(beta1_breakdown(p, h))
            params = IsolaParams.from_depth(p, h, 0.1, 1.0, 0.5)
            parts.append(_floats([beta1(p, h), solve_wavenumber(p, h), omega_star(p, h),
                                  params.beta1, params.y0, params.mu0]))
        for part in parts:
            sha.update(part)
    for p in range(2, 9):
        rd = _resonance_grid(p, WIDE)
        for name in RESONANCE_FIELDS:
            sha.update(_floats(getattr(rd, name)))
        sha.update(_floats([solve_wavenumber(p, h) for h in WIDE[::20].tolist()]))
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
