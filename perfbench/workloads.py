"""The benchmark's workloads: seeded operations on the package's public API.

Every workload builds one *round*: a fixed list of operations whose make-up
(which entry point, which p, which grid size) does not depend on the seed;
the seed draws the depths, intervals and other continuous inputs.  A run
repeats whole rounds, so every run has the same mix and the same share of
each kind of operation, whatever its seed or length.

Depth grids are stratified: one point per equal-width cell of the range,
at a seeded position inside the cell, so that no seed concentrates its
points where an evaluation is cheaper or dearer.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import numpy as np

H_RANGE = (0.05, 20.0)      # documented scan range
# Zero searches stay below this depth.  Deeper, beta1 falls toward its
# rounding floor (flagged from h ~ 14.4 for p=4, ~15.5 for p=3) and the
# finder reports sign changes of rounding noise as critical depths.
ZEROS_H_MAX = 12.0
ZERO_MARGIN = 0.05          # no interval end within this of a critical depth


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    pts: int               # depth points the caller receives results for
    isola: bool = False    # the op goes through the isola layer


def stratified(rng, lo, hi, n):
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(0.0, 1.0, n)


def _interval(rng, zeros, k):
    """A seeded [lo, hi] in [0.05, ZEROS_H_MAX] holding exactly k of ``zeros``."""
    bounds = [H_RANGE[0], *zeros, ZEROS_H_MAX]
    gaps = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    first = int(rng.integers(0, len(gaps) - k))
    lo_gap, hi_gap = gaps[first], gaps[first + k]
    lo_min = lo_gap[0] + (ZERO_MARGIN if first > 0 else 0.0)
    hi_max = hi_gap[1] - (ZERO_MARGIN if first + k < len(gaps) - 1 else 0.0)
    if k == 0:
        lo = rng.uniform(lo_min, hi_max - 0.2)
        hi = rng.uniform(lo + 0.1, hi_max)
    else:
        lo = rng.uniform(lo_min, lo_gap[1] - ZERO_MARGIN)
        hi = rng.uniform(hi_gap[0] + ZERO_MARGIN, hi_max)
    return float(lo), float(hi)


class Workload:
    name = ""
    # Code a fresh interpreter runs to measure set-up: import what the
    # workload uses and return a first result for each p.
    setup_code = ""

    def __init__(self, si, seed, critical_depths):
        self.si = si
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.zeros = critical_depths
        self.ops: list[Op] = self.build()

    def build(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class Scan(Workload):
    name = "scan"
    setup_code = (
        "import stokes_isolas as si\n"
        "for p in (2, 3, 4): si.beta_scan(p, [1.0])\n"
    )
    GRID_N = 2000

    def build(self):
        grid = stratified(self.rng, *H_RANGE, self.GRID_N)
        grid[0], grid[-1] = H_RANGE  # cover both ends of the range
        self.grid = [float(h) for h in grid]
        # p = 3 and 4 twice: with five ops a round, the median falls in the
        # middle of the p = 3 scans and the p90 in the middle of the p = 4 ones.
        return [Op("beta_scan", (p, self.grid), self.GRID_N) for p in (2, 3, 4, 3, 4)]

    def warmup(self):
        for p in (2, 3, 4):
            self.si.beta_scan(p, self.grid[::100])

    def run(self, op):
        return self.si.beta_scan(*op.args)


class Point(Workload):
    name = "point"
    setup_code = (
        "import stokes_isolas as si\n"
        "for p in (2, 3, 4): si.beta1(p, 1.0)\n"
    )
    N_BETA = 400    # per round; p cycles 2, 3, 4
    N_ISOLA = 100
    ISOLA_N = 64

    def build(self):
        rng = self.rng
        ops = []
        for p in (2, 3, 4):
            n = len(range(p - 2, self.N_BETA, 3))
            hs = stratified(rng, *H_RANGE, n)
            hs[0], hs[1] = H_RANGE
            ops += [Op("beta1", (p, float(h)), 1) for h in hs]
        for p in (2, 3, 4):
            n = len(range(p - 2, self.N_ISOLA, 3))
            for h in stratified(rng, *H_RANGE, n):
                eps, t1, e = rng.uniform(0.02, 0.2), rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.9)
                ops.append(Op("isola", (p, float(h), float(eps), float(t1), float(e)), 1, isola=True))
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self):
        for op in self.ops[:50]:
            self.run(op)

    def run(self, op):
        si = self.si
        if op.kind == "beta1":
            return si.beta1(*op.args)
        params = si.IsolaParams.from_depth(*op.args)
        return params, si.isola_geometry(params, self.ISOLA_N)

    @staticmethod
    def same(a, b):
        if isinstance(a, tuple):
            (pa, ga), (pb, gb) = a, b
            return (
                pa == pb
                and (ga.mu_low, ga.mu_high, ga.max_growth, ga.band_open)
                == (gb.mu_low, gb.mu_high, gb.max_growth, gb.band_open)
                and np.array_equal(ga.ellipse, gb.ellipse)
            )
        return a == b


class Zeros(Workload):
    name = "zeros"
    setup_code = (
        "import stokes_isolas as si\n"
        "for p in (2, 3, 4): si.find_beta_zeros(p, 1.0, 2.0, 100, 1e-8)\n"
    )
    # (p, critical depths inside the interval, grid_n).  Grid sizes are set
    # so the ops' costs form separate steps, ~1.6x apart; with five kinds the
    # median and the p90 fall in the middle of one kind whatever the seed.
    SLOTS = ((2, 1, 1000), (3, 1, 1000), (4, 0, 700), (4, 1, 1200), (4, 2, 2000))

    def build(self):
        ops = []
        for p, k, grid_n in self.SLOTS:
            lo, hi = _interval(self.rng, [z["h"] for z in self.zeros[p]], k)
            tol = float(10.0 ** self.rng.uniform(-10.0, -8.0))
            ops.append(Op("find_beta_zeros", (p, lo, hi, grid_n, tol), grid_n + 1))
        return ops

    def warmup(self):
        for p in (2, 3, 4):
            self.si.find_beta_zeros(p, 1.0, 2.0, 100, 1e-8)

    def run(self, op):
        return self.si.find_beta_zeros(*op.args)


class Cli(Workload):
    name = "cli"
    setup_code = (
        "import contextlib, io\n"
        "from stokes_isolas import cli\n"
        "for p in (2, 3, 4):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['beta', '--p', str(p), '--h', '1.0'])\n"
    )

    def build(self):
        rng = self.rng

        def grid(lo_max=2.0, hi_max=H_RANGE[1]):
            lo = rng.uniform(H_RANGE[0], lo_max)
            return ["--h-min", repr(float(lo)), "--h-max", repr(float(rng.uniform(lo + 1.0, hi_max)))]

        def depth():
            return ["--h", repr(float(rng.uniform(*H_RANGE)))]

        def isola(p, n, fmt):
            return Op("cli", (
                "isola", "--p", str(p), *depth(),
                "--eps", repr(float(rng.uniform(0.02, 0.2))),
                "--T1", repr(float(rng.uniform(0.5, 2.0))),
                "--E", repr(float(rng.uniform(0.2, 0.9))),
                "--n", str(n), "--format", fmt,
            ), 1, isola=True)

        def zeros(p, n, k, fmt):
            lo, hi = _interval(rng, [z["h"] for z in self.zeros[p]], k)
            tol = float(10.0 ** rng.uniform(-10.0, -8.0))
            return Op("cli", (
                "zeros", "--p", str(p), "--h-min", repr(lo), "--h-max", repr(hi),
                "--n", str(n), "--tol", repr(tol), "--format", fmt,
            ), n + 1)

        def table(*argv, n, fmt):
            return Op("cli", (*argv, "--n", str(n), "--format", fmt), n)

        # Fifteen kinds of call (odd, so the median is one kind's latency);
        # sizes are set so that their costs form separate steps.
        return [
            table("beta", "--p", "2", *grid(), n=8, fmt="csv"),
            table("beta", "--p", "4", *grid(), n=500, fmt="json"),
            Op("cli", ("beta", "--p", "3", *depth(), "--format", "json"), 1),
            table("beta", "--p", "3", "--groups", *grid(), n=500, fmt="csv"),
            table("beta", "--p", "4", "--groups", *grid(), n=110, fmt="json"),
            table("beta", "--p", "4", "--breakdown", *grid(), n=37, fmt="json"),
            table("beta", "--p", "2", "--breakdown", *grid(), n=500, fmt="csv"),
            table("resonance", "--p", "2", *grid(), n=1800, fmt="csv"),
            Op("cli", ("resonance", "--p", "4", *depth(), "--format", "json"), 1),
            zeros(4, 1000, int(rng.integers(0, 3)), "csv"),
            zeros(2, 300, int(rng.integers(0, 2)), "json"),
            isola(3, 64, "json"),
            isola(2, 2000, "csv"),
            Op("cli", ("selftest", "--format", "json"), 24),
            Op("cli", ("selftest",), 24),
        ]

    def warmup(self):
        for op in self.ops:
            if op.pts <= 24:
                self.run(op)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.si.cli.main(list(op.args))
        return code, out.getvalue()


WORKLOADS = {w.name: w for w in (Scan, Point, Zeros, Cli)}

