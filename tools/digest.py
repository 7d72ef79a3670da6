"""One SHA-256 over the doubles the grid and single-depth paths return, and the CLI's tables.

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
  ``IsolaParams.from_depth(p, h, 0.1, 1.0, 0.5)``;
- at the same depths, ``isola_geometry`` of those parameters, and of them
  with T1 = 1.3 and E = 0.55 (not powers of two, so a reordered product or
  quotient shows), for n = 8, 9, 64, 257 in turn: the ellipse, mu_low,
  mu_high, max_growth and band_open as a bool.

Then, for p = 2..8 in turn, at the 401 depths np.geomspace(1e-3, 1e3, 401),
where brackets take many steps toward 0+ and deep lanes saturate tanh:

- ``_resonance_grid``: its seven fields, as above;
- ``solve_wavenumber`` at every 20th depth.

Then, on the first n of 130 seeded depths in [0.05, 20], for every n from
0 to 130, so that a grid is taken depth by depth and over lanes whichever
size divides the two paths: ``_resonance_grid``'s seven fields for p = 2..8,
and ``_grid``'s signed terms, total and cancellation floor for p = 2, 3, 4.
Then ``_resonance_grid`` for p = 2..8 at np.geomspace(1e300, 1.7e308, 200),
where h * phi overflows in every lane.

Then ``dispersion._tanh``, the array tanh, over a fixed argument set:
seeded uniform points of [-50, 60], arguments where k = (1 - tanh x) / 2^-53
lies within a hair of a tie, libm's first 1.0 (19.0615474653985) and its
neighbours, np.geomspace(22, 1e308), +-0, subnormals, +-inf and NaN.  Last,
``find_beta_zeros`` on fixed intervals, among them the whole scan range
for p = 2, 3, 4 on a 7919-interval grid.

Last of all, the stdout of ``cli.main``, in CSV and in JSON, for the
tables in CLI_TABLES: most span several of the emitter's 1024-row blocks,
and between them they hold repeated and constant columns, both values of
floor_flag, a null column, a resonance table at p = 1000, the isola band,
``zeros`` and ``selftest``.

It imports only names that have existed since the script was written, so
it can hash an older ``src/`` to compare with the current one:

    PYTHONPATH=path/to/older/src python tools/digest.py

Run from the repository root:

    PYTHONPATH=src python tools/digest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io

import numpy as np

from stokes_isolas import cli
from stokes_isolas.beta import _grid, beta1, beta1_breakdown, beta_scan, find_beta_zeros
from stokes_isolas.dispersion import _tanh
from stokes_isolas.isola import IsolaParams, isola_geometry
from stokes_isolas.resonance import _resonance_grid, omega_star, solve_wavenumber

RESONANCE_FIELDS = ("h", "phi_star", "omega_star", "Omega", "t", "residual", "c")
HS = np.linspace(0.05, 20.0, 1001)
WIDE = np.geomspace(1e-3, 1e3, 401)
ISOLA_NS = (8, 9, 64, 257)
NEAR_TIES = (6.6607419124648555, 4.000209762934944, 4.421292989801063, 5.4291950339896635, 5.996696724563351)
TANH_ARGS = np.concatenate([
    np.random.default_rng(2026).uniform(-50.0, 60.0, 200_000),
    NEAR_TIES,
    np.nextafter(19.0615474653985, [0.0, 19.0615474653985, np.inf]),
    np.geomspace(22.0, 1e308, 1001),
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, np.inf, -np.inf, np.nan],
])
SIZED = np.random.default_rng(130).uniform(0.05, 20.0, 130)
HUGE = np.geomspace(1e300, 1.7e308, 200)
ZERO_INTERVALS = [(2, 0.5, 5.0, 2000), (3, 0.5, 2.0, 500, 1e-10), (4, 0.3, 3.0, 4000)]
ZERO_INTERVALS += [(p, 0.05, 20.0, 7919) for p in (2, 3, 4)]

GRID = ("--h-min", "0.05", "--h-max", "20")
CLI_TABLES = [
    ("beta", "--p", "3", "--breakdown", *GRID, "--n", "500"),
    ("beta", "--p", "4", "--groups", *GRID, "--n", "200"),
    ("beta", "--p", "4", *GRID, "--n", "1100"),
    ("resonance", "--p", "2", *GRID, "--n", "1800"),
    ("resonance", "--p", "6", *GRID, "--n", "1100"),
    ("resonance", "--p", "1000", *GRID, "--n", "300"),
    ("isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5", "--n", "2000"),
    ("zeros", "--p", "4", "--h-min", "0.3", "--h-max", "3"),
    ("selftest",),
]


def _stdout(argv) -> bytes:
    """What cli.main writes to stdout for argv; its stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return out.getvalue().encode()


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
            for shape in (params, dataclasses.replace(params, T1=1.3, E=0.55)):
                for n in ISOLA_NS:
                    geo = isola_geometry(shape, n)
                    parts += [_floats(geo.ellipse), _floats([geo.mu_low, geo.mu_high, geo.max_growth]),
                              _bools(geo.band_open)]
        for part in parts:
            sha.update(part)
    for p in range(2, 9):
        rd = _resonance_grid(p, WIDE)
        for name in RESONANCE_FIELDS:
            sha.update(_floats(getattr(rd, name)))
        sha.update(_floats([solve_wavenumber(p, h) for h in WIDE[::20].tolist()]))
    for n in range(SIZED.size + 1):
        for p in range(2, 9):
            rd = _resonance_grid(p, SIZED[:n])
            for name in RESONANCE_FIELDS:
                sha.update(_floats(getattr(rd, name)))
        for p in (2, 3, 4):
            g = _grid(p, SIZED[:n])
            for part in (g.signed, g.total, g.cancellation_floor):
                sha.update(_floats(part))
    for p in range(2, 9):
        rd = _resonance_grid(p, HUGE)
        for name in RESONANCE_FIELDS:
            sha.update(_floats(getattr(rd, name)))
    sha.update(_floats(_tanh(TANH_ARGS)))
    for args in ZERO_INTERVALS:
        sha.update(_floats(find_beta_zeros(*args)))
    for argv in CLI_TABLES:
        for fmt in ("csv", "json"):
            sha.update(_stdout((*argv, "--format", fmt)))
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
