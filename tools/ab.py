"""In-process A/B timer: one perfbench workload on two stokes_isolas trees.

Separate benchmark runs of one commit spread widely on a shared host, so
two versions are compared here in one process, round against round:

- each tree's ``stokes_isolas`` package is copied into a temporary
  directory under its own name (``stokes_isolas_a``, ``stokes_isolas_b``)
  and imported from there, so the two run side by side;
- one round of the workload (``perfbench/workloads.py``, with the critical
  depths of ``perfbench/critical_depths.json``) is built for each, from the
  same seed; neither file is changed;
- after a warm-up the first round's outputs of B must equal A's, bit for
  bit;
- each pair times a sample of whole rounds of A and of B, B first in every
  other pair;
- it prints each side's quartiles of points per second, the median ratio
  B/A over the pairs and the pairs B won, against the rule that a gain is
  claimed only when B wins at least nine tenths of them.

Run from the root of the repository:

    python tools/ab.py A_SRC B_SRC [--workload zeros] [--pairs 20] [--rounds 5] [--seed 1]

A_SRC and B_SRC are directories holding a ``stokes_isolas`` package, such
as the ``src`` of two checkouts.  The exit status is 0 when the outputs
agree, 1 when they differ.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(src: Path, name: str, into: Path):
    """The stokes_isolas package under src, copied into `into` (on sys.path) and imported as `name`, its cli too."""
    for module in [m for m in sys.modules if m == name or m.startswith(f"{name}.")]:
        del sys.modules[module]  # an earlier copy of that name
    shutil.copytree(src / "stokes_isolas", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    return package


def plain(value):
    """value in a form that compares across the two packages, bit for bit.

    A dataclass becomes its class name and fields, an array its dtype,
    shape and bytes and a float its hex string (NaN equals NaN, -0.0 does
    not equal 0.0), within lists, tuples and dicts.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__, *(plain(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def time_rounds(workload, rounds: int) -> float:
    """Points per second over `rounds` whole rounds of the workload."""
    points = rounds * sum(op.pts for op in workload.ops)
    start = time.perf_counter()
    for _ in range(rounds):
        for op in workload.ops:
            workload.run(op)
    return points / (time.perf_counter() - start)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_src", type=Path, help="directory holding side A's stokes_isolas")
    ap.add_argument("b_src", type=Path, help="directory holding side B's stokes_isolas")
    ap.add_argument("--workload", default="zeros", help="a perfbench workload (default zeros)")
    ap.add_argument("--pairs", type=int, default=20, help="pairs of samples (default 20)")
    ap.add_argument("--rounds", type=int, default=5, help="whole rounds per sample (default 5)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.rounds < 1:
        ap.error("--pairs and --rounds must be at least 1")

    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from reference import load_critical_depths
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    critical_depths = load_critical_depths()
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            sides = []
            for name, src in (("stokes_isolas_a", args.a_src), ("stokes_isolas_b", args.b_src)):
                workload = WORKLOADS[args.workload](load(src, name, Path(tmp)), args.seed, critical_depths)
                workload.warmup()
                sides.append(workload)
            a, b = sides
            same = all(plain(a.run(x)) == plain(b.run(y)) for x, y in zip(a.ops, b.ops))
            speed = {"A": [], "B": []}
            for i in range(args.pairs):
                for side in ("AB" if i % 2 == 0 else "BA"):
                    speed[side].append(time_rounds(a if side == "A" else b, args.rounds))
        finally:
            sys.path.remove(tmp)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.rounds} rounds;"
          f" outputs {'equal' if same else 'DIFFER'}")
    stats = {}
    for side, src in (("A", args.a_src), ("B", args.b_src)):
        q1, q2, q3 = stats[side] = quartiles(speed[side])
        print(f"{side} pts_per_s: median {q2:.0f}, quartiles [{q1:.0f}, {q3:.0f}]  ({src})")
    ratios = [vb / va for va, vb in zip(speed["A"], speed["B"])]
    won = sum(r > 1.0 for r in ratios)
    needed = math.ceil(0.9 * args.pairs)
    gap, spread = stats["B"][1] - stats["A"][1], stats["A"][2] - stats["A"][0]
    print(f"median ratio B/A: {statistics.median(ratios):.4f}")
    print(f"B won {won}/{args.pairs} pairs, median gain {gap:.0f} against A's IQR {spread:.0f}:"
          f" a gain needs {needed} won and a gain above the IQR, {'met' if won >= needed and gap > spread else 'not met'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
