"""Benchmark of stokes-isolas: one workload per run, checked against references.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads: scan, point, zeros, cli (see workloads.py and README.md).
``--trace 0`` times whole rounds of the workload untraced and prints the
end-to-end metrics; ``--trace 1`` runs the same rounds untraced and then
traced, and prints the per-layer metrics.  Either way the first round's
outputs are checked, later rounds must reproduce them exactly, and the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record of the
run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SETUP_RUNS = 5          # fresh interpreters per set-up measurement, after one warm-up
IMPORTTIME_RUNS = 3
UNTRACED_SHARE = 0.25   # share of --seconds the traced run spends untraced

# Speed of the machine, sampled beside the workload.  On a shared host the
# same code runs up to ~40% slower for tens of seconds at a time; times are
# reported at the speed where one calibration loop takes CAL_REF_NS.
CAL_REF_NS = 500_000
CAL_SHARE = 0.05            # calibration time kept at 5% of op time, between ops
CAL_WINDOW_NS = 500_000_000


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _kernel(x, h):
    return math.sqrt(x * math.tanh(h * x))


def calibration_loop():
    """Fixed work in the package's style, ~0.5 ms: calls, math, small
    numpy arrays, a frozen dataclass, tuples.  Of the loops tried, its time
    tracked the package's time best as the host's speed changed."""
    total = 0.0
    for i in range(1, 150):
        h = 0.1 * i
        vals = np.array([_kernel(j + 0.25, h) for j in range(4)])
        pair = _Pair(float(vals[0]), float(vals[-1]))
        t = tuple(v * 2.0 for v in (pair.a, pair.b))
        total += t[0] - t[1] + sum(vals.tolist())
    return total


def calibration_sample():
    """(start ns, duration ns) of one calibration loop."""
    t0 = time.perf_counter_ns()
    calibration_loop()
    return t0, time.perf_counter_ns() - t0


class Failure:
    """Stands for an operation that raised."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __eq__(self, other):
        return False


def load_package():
    if not (SRC / "stokes_isolas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'stokes_isolas'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import stokes_isolas
    import stokes_isolas.cli  # noqa: F401  (the cli workload calls it as stokes_isolas.cli)

    if Path(stokes_isolas.__file__).resolve().parent != (SRC / "stokes_isolas").resolve():
        sys.exit(f"perfbench: imported stokes_isolas from {stokes_isolas.__file__}, not from {SRC}")
    return stokes_isolas


def child_env():
    env = dict(os.environ)
    env.pop("STOKES_ISOLA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh_interpreter(code, extra=()):
    """Wall seconds of a new interpreter running ``code``, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", code],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up interpreter failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def measure_setup(code):
    """Median wall seconds of fresh interpreters running ``code``.

    Run after ``peak_rss_mb``, whose interpreter has already warmed the
    bytecode caches and the page cache.
    """
    return statistics.median(fresh_interpreter(code)[0] for _ in range(SETUP_RUNS))


def import_seconds(code):
    """Median over fresh interpreters of the self import time of scipy.* and numpy.*."""
    line = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")
    samples = {"scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_RUNS):
        _, err = fresh_interpreter(code, ("-X", "importtime"))
        sums = dict.fromkeys(samples, 0)
        for m in line.finditer(err):
            top = m.group(3).strip().split(".")[0]
            if top in sums:
                sums[top] += int(m.group(1))
        for k in samples:
            samples[k].append(sums[k] / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


class Runner:
    """Runs whole rounds of a workload and keeps what the checks need."""

    def __init__(self, workload):
        self.w = workload
        self.ops = workload.ops
        self.first = None
        self.start_ns = []
        self.latency_ns = []
        self.calibration = [calibration_sample()]
        self._cal_ns = self.calibration[0][1]
        self._op_ns = 0
        self.pts = 0
        self.rounds = 0
        self.diverged = [0] * len(self.ops)

    def round(self, on_op=None):
        w, first = self.w, self.first
        results = []
        for i, op in enumerate(self.ops):
            if on_op:
                on_op(i)
            t0 = time.perf_counter_ns()
            try:
                r = w.run(op)
            except Exception as exc:  # recorded as a failed operation
                r = Failure(exc)
            t1 = time.perf_counter_ns()
            self.start_ns.append(t0)
            self.latency_ns.append(t1 - t0)
            self.pts += op.pts
            self._op_ns += t1 - t0
            while self._cal_ns < CAL_SHARE * self._op_ns:
                sample = calibration_sample()
                self.calibration.append(sample)
                self._cal_ns += sample[1]
            if first is None:
                results.append(r)
            elif not w.same(r, first[i]):
                self.diverged[i] += 1
        if first is None:
            self.first = results
        self.rounds += 1

    def until(self, seconds, on_op=None):
        deadline = time.perf_counter() + seconds
        while True:
            self.round(on_op)
            if time.perf_counter() >= deadline:
                return

    def scaled_latency_ns(self):
        """Op latencies at the reference speed.

        Each op is scaled by CAL_REF_NS over the mean calibration time from
        CAL_WINDOW_NS before it starts to CAL_WINDOW_NS after it ends (the
        mean, because an op's time is the integral of the host's slowness
        over its duration).
        """
        t = np.array([c[0] for c in self.calibration], dtype=float)
        cum = np.concatenate(([0.0], np.cumsum([c[1] for c in self.calibration], dtype=float)))
        start = np.asarray(self.start_ns, dtype=float)
        lat = np.asarray(self.latency_ns, dtype=float)
        hi = np.searchsorted(t, start + lat + CAL_WINDOW_NS, side="right")
        lo = np.minimum(np.searchsorted(t, start - CAL_WINDOW_NS), hi - 1)
        local = (cum[hi] - cum[lo]) / (hi - lo)
        return lat * CAL_REF_NS / local

    def busy_seconds(self):
        return float(self.scaled_latency_ns().sum()) / 1e9

    def speed_factor(self):
        """Reference over mean calibration time, over the whole run."""
        return CAL_REF_NS / statistics.fmean(c[1] for c in self.calibration)


def check_round(workload, results, oracle, critical_depths):
    """Problems by op index for the first round's results."""
    import checks

    ctx = checks.Context(oracle, critical_depths,
                         SRC / "stokes_isolas" / "schemas" / "output.schema.json",
                         np.random.default_rng([workload.seed, 1]))
    problems = {i: [r.text] for i, r in enumerate(results) if isinstance(r, Failure)}

    def guarded(check, *args):
        try:
            return check(*args)
        except Exception as exc:  # a malformed output fails its op, not the run
            return [f"check raised {type(exc).__name__}: {exc}"]

    if workload.name == "point":
        checked = [None if i in problems else r for i, r in enumerate(results)]
        found = guarded(checks.check_point_round, workload.ops, checked, ctx, workload.ISOLA_N)
        if isinstance(found, list):  # the check itself raised: fail the whole round
            found = dict.fromkeys(range(len(results)), found)
        problems.update({i: v for i, v in found.items() if i not in problems})
        return problems
    for i, (op, r) in enumerate(zip(workload.ops, results)):
        if i not in problems:
            found = guarded(checks.CHECKS[op.kind], op, r, ctx)
            if found:
                problems[i] = found
    return problems


def tally(runner, problems):
    """(attempted, failed, wrong): wrong outputs are failed ops that did not raise."""
    attempted = runner.rounds * len(runner.ops)
    failed = wrong = 0
    for i in range(len(runner.ops)):
        if i in problems:
            failed += runner.rounds
            wrong += runner.rounds * (not isinstance(runner.first[i], Failure))
        else:
            failed += runner.diverged[i]
            wrong += runner.diverged[i]
    return attempted, failed, wrong


def end_to_end(runner, workload):
    lat_ms = runner.scaled_latency_ns() / 1e6
    rss = peak_rss_mb(workload)  # first: its interpreter warms the caches for setup
    return {
        # Scaled by the run's mean calibration: that follows the host's slow
        # drift between runs, though not the noise of single start-ups.
        "setup_s": (measure_setup(workload.setup_code) * runner.speed_factor(), "s"),
        "pts_per_s": (runner.pts / runner.busy_seconds(), "pts/s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def peak_rss_mb(workload):
    """Peak resident memory of a fresh interpreter running one round.

    Measured apart from this process, whose per-op records grow with the
    number of ops a run completes (a faster program would look bigger).
    """
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import run; " \
           f"run.rss_probe({workload.name!r}, {workload.seed!r})"
    return float(fresh_interpreter(code)[1].split()[-1])


def rss_probe(name, seed):
    """Warm up and run one round of a workload; print peak RSS in MB to stderr.

    Reads VmHWM, the peak of this address space: getrusage's ru_maxrss
    would carry over the parent's size from before the exec.
    """
    from reference import load_critical_depths
    from workloads import WORKLOADS

    workload = WORKLOADS[name](load_package(), seed, load_critical_depths())
    workload.warmup()
    for op in workload.ops:
        try:
            workload.run(op)
        except Exception:  # counted as a failed op by the timed run
            pass
    with open("/proc/self/status") as status:
        hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(hwm_kb / 1024.0, file=sys.stderr)


def per_layer(tracer, runner, untraced_s, imports):
    """Per-layer metrics of the traced rounds; see README.md for what each should move."""
    count, incl, self_ = tracer.totals()
    speed = runner.speed_factor()  # times at the reference speed, as end to end
    incl = Counter({k: v * speed for k, v in incl.items()})
    self_ = Counter({k: v * speed for k, v in self_.items()})
    pts = runner.pts
    ops = len(runner.latency_ns)
    isola_ops = runner.rounds * sum(op.isola for op in runner.ops)
    searches = count["beta.find_beta_zeros"]
    solves = count["resonance.solve_wavenumber"]

    def layer(name, counter):
        return sum(v for k, v in counter.items() if k.split(".")[0] == name and "@" not in k)

    def per(x, n):
        return x / n if n else 0.0

    beta_assembly = sum(self_[f"beta.{f}"] for f in ("beta1", "beta1_breakdown", "_term_value", "beta_scan"))
    dispersion_calls = sum(count[f"dispersion.{f}"] for f in ("phase_speed", "omega_disp", "t_ratio", "eigenvalue_branch"))
    refine_ns = incl["beta.brentq"]
    return {
        "dispersion.calls_per_pt": (dispersion_calls / pts, "count"),
        "dispersion.self_us_per_pt": (layer("dispersion", self_) / 1e3 / pts, "us"),
        "resonance.solves_per_pt": (solves / pts, "count"),
        "resonance.residuals_per_solve": (per(count["resonance.resonance_residual"], solves), "count"),
        "resonance.solve_us": (per(incl["resonance.solve_wavenumber"] / 1e3, solves), "us"),
        "stokes_coefficients.self_us_per_pt": (layer("stokes_coefficients", self_) / 1e3 / pts, "us"),
        "stokes_coefficients.lookups_per_pt": (
            (count["stokes_coefficients.StokesCoefficients.a"] + count["stokes_coefficients.StokesCoefficients.p"]) / pts,
            "count",
        ),
        "beta.assembly_self_us_per_pt": (beta_assembly / 1e3 / pts, "us"),
        "beta.sum_self_us_per_pt": (self_["beta.neumaier_sum"] / 1e3 / pts, "us"),
        "beta.evals_per_search": (per(count["beta.beta1@beta.find_beta_zeros"], searches), "count"),
        "beta.grid_ms_per_search": (per((incl["beta.find_beta_zeros"] - refine_ns) / 1e6, searches), "ms"),
        "beta.refine_ms_per_search": (per(refine_ns / 1e6, searches), "ms"),
        "beta.depth_checks_per_pt": (count["dispersion._check_depth"] / pts, "count"),
        "asymptotics.self_us_per_pt": (layer("asymptotics", self_) / 1e3 / pts, "us"),
        "isola.self_us_per_op": (per(layer("isola", self_) / 1e3, isola_ops), "us"),
        "cli.emit_ms_per_op": (per(incl["cli._emit"] / 1e6, ops) if count["cli.main"] else 0.0, "ms"),
        "cli.pool_overhead_ms_per_op": (
            per((tracer.pool_wall_ns - tracer.pool_work_ns) * speed / 1e6, ops) if count["cli.main"] else 0.0, "ms",
        ),
        "setup.import_scipy_s": (imports["scipy"], "s"),
        "setup.import_numpy_s": (imports["numpy"], "s"),
        "trace.overhead_frac": (runner.busy_seconds() / untraced_s, "ratio"),
    }


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.pop("STOKES_ISOLA_THREADS", None)  # the pool runs at the program's default
    si = load_package()
    from reference import Oracle, load_critical_depths

    critical_depths = load_critical_depths()
    workload = WORKLOADS[args.workload](si, args.seed, critical_depths)
    workload.warmup()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracer import Tracer

        plain = Runner(workload)
        plain.until(args.seconds * UNTRACED_SHARE)
        traced = Runner(workload)
        traced.first = plain.first  # tracing must not change a single result
        tracer = Tracer()
        tracer.install()
        try:
            tracer.log_spans = True
            traced.round(on_op=lambda i: setattr(tracer, "log_spans", i == 0))
            tracer.log_spans = False
            for _ in range(plain.rounds - 1):
                traced.round()
        finally:
            tracer.uninstall()
        runner = plain
        imports = import_seconds(workload.setup_code)
        metrics = per_layer(tracer, traced, plain.busy_seconds(), imports)
        record["spans_of_first_op"] = [
            {"name": n, "start_ns": s, "end_ns": e, "id": i, "parent": p} for n, s, e, i, p in tracer.spans
        ]
    else:
        runner = Runner(workload)
        runner.until(args.seconds)
        traced = None

    oracle = Oracle()
    problems = check_round(workload, runner.first, oracle, critical_depths)
    reference_problems = []
    if args.workload in ("zeros", "cli"):
        reference_problems = oracle.verify_critical_depths(critical_depths)
    attempted, failed, wrong = tally(runner, problems)
    if traced is not None:
        a, f, w = tally(traced, problems)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    else:
        metrics = end_to_end(runner, workload)

    for i, msgs in sorted(problems.items())[:10]:
        print(f"perfbench: op {i} {workload.ops[i].kind} {workload.ops[i].args[:1]}...: {'; '.join(msgs)}", file=sys.stderr)
    for msg in reference_problems:
        print(f"perfbench: reference: {msg}", file=sys.stderr)

    result = {
        "correct": wrong == 0 and not reference_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result, rounds=runner.rounds, ops_per_round=len(workload.ops),
                  problems={str(i): m for i, m in problems.items()})
    if traced is None:  # enough to recompute the scaled latencies
        record["op_start_ns"] = runner.start_ns
        record["op_latency_ns"] = runner.latency_ns
        record["calibration"] = runner.calibration  # (start ns, duration ns)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
