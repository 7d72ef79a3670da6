"""Correctness checks of one round's results, against references the program
did not compute.

* beta1 values: every point against the independent double-precision model
  of ``reference.beta_model`` (two a-priori bounds apart at most), and a
  seeded sample that covers every p and both ends of the range against the
  50-digit oracle (one bound).
* zeros: count and position against the oracle's cached critical depths.
* CLI tables: parse, validate JSON against the package's output schema,
  row counts, and the sums of ``--breakdown`` terms and ``--groups`` sums.
* isola: the model's identities and the oracle's phi* and omega*.

Each check returns a list of problems for one operation; an empty list
means the operation passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from reference import U, beta_model, omega_star_error_bound, phi_error_bound

ORACLE_SAMPLE = 4           # seeded oracle points per table, besides its two ends
ISOLA_ORACLE_SAMPLE = 6     # isola ops per round checked against the oracle

_SQRT2, _SQRT3, _SQRT15 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(15.0)


def leading_reference(p, h):
    """Leading deep-water terms of beta1, as the paper states them."""
    h = np.asarray(h, dtype=float)
    return {
        2: (3 * _SQRT3 / 64) * np.exp(-h / 2),
        3: (2 * _SQRT2 / 3) * np.exp(-2 * h),
        4: -(5 * _SQRT15 / 24) * np.exp(-2 * h),
    }[p]


def phi_asymptote_reference(p, h):
    return {
        2: 0.25 + 0.375 * math.exp(-h / 2),
        3: 1.0 - (8.0 / 3.0) * math.exp(-2 * h),
        4: 2.25 - 7.5 * math.exp(-2 * h),
    }[p]


class Context:
    """What the checks share within one run."""

    def __init__(self, oracle, critical_depths, schema_path, rng):
        self.oracle = oracle
        self.zeros = critical_depths
        self.rng = rng
        self._schema_path = schema_path
        self._validator = None

    def validate(self, doc):
        if self._validator is None:
            import jsonschema

            schema = json.loads(self._schema_path.read_text())
            self._validator = jsonschema.Draft7Validator(schema)
        return [e.message for e in self._validator.iter_errors(doc)][:3]

    def sample(self, n):
        """Both ends and a seeded sample of the indices 0..n-1."""
        inner = range(1, n - 1)
        k = min(ORACLE_SAMPLE, len(inner))
        return sorted({0, n - 1, *(int(i) for i in self.rng.choice(inner, k, replace=False))})


# -- beta values -------------------------------------------------------------


def check_betas(p, hs, values, ctx, oracle_at=()):
    """Every value against the model; the indices ``oracle_at`` also against the oracle."""
    problems = []
    model, bound = beta_model(p, hs)
    values = np.asarray(values, dtype=float)
    bad = ~(np.abs(values - model) <= 2.0 * bound)
    for i in np.flatnonzero(bad)[:3]:
        problems.append(
            f"beta1({p}, {hs[i]!r}) = {values[i]!r}, independent model {model[i]!r} "
            f"(allowed difference {2 * bound[i]:.3g})"
        )
    for i in oracle_at:
        ref, b = ctx.oracle.beta(p, float(hs[i]))
        if not abs(values[i] - ref) <= b:
            problems.append(f"beta1({p}, {hs[i]!r}) = {values[i]!r}, oracle {ref!r} (bound {b:.3g})")
    return problems


def check_scan_rows(p, hs, betas, leadings, ratios, ctx, oracle_at):
    problems = check_betas(p, hs, betas, ctx, oracle_at)
    lead_ref = leading_reference(p, hs)
    if not np.all(np.abs(np.asarray(leadings) - lead_ref) <= 8 * U * np.abs(lead_ref)):
        problems.append(f"leading term differs from the closed form for p={p}")
    if any(r != b / l for r, b, l in zip(ratios, betas, leadings)):
        problems.append("ratio is not beta1 / leading")
    return problems


def check_beta_scan(op, rows, ctx):
    p, grid = op.args
    if [r.h for r in rows] != list(grid):
        return [f"scan rows do not echo the {len(grid)}-point grid"]
    return check_scan_rows(
        p, grid, [r.beta1 for r in rows], [r.leading for r in rows], [r.ratio for r in rows],
        ctx, ctx.sample(len(grid)),
    )


# -- zeros -------------------------------------------------------------------


def check_zero_list(p, lo, hi, tol, found, ctx):
    expected = [z for z in ctx.zeros[p] if lo < z["h"] < hi]
    if len(found) != len(expected):
        return [f"zeros(p={p}, [{lo!r}, {hi!r}]) returned {len(found)} depths, oracle has {len(expected)}"]
    problems = []
    for z, ref in zip(sorted(found), expected):
        allowed = 4 * tol + ref["float_zero_shift"]
        if not abs(z - ref["h"]) <= allowed:
            problems.append(f"critical depth {z!r} vs oracle {ref['h']!r} (allowed {allowed:.3g})")
    return problems


def check_find_beta_zeros(op, zeros, ctx):
    p, lo, hi, _, tol = op.args
    return check_zero_list(p, lo, hi, tol, zeros, ctx)


# -- isola -------------------------------------------------------------------


def check_isola_identities(p, eps, T1, E, band, xs, ys, n):
    """The truncated isola model's identities, to rounding."""
    problems = []
    beta, y0, mu0 = band["beta1"], band["y0"], band["mu0"]
    g = abs(beta) * eps**p
    if len(xs) != n:
        problems.append(f"{len(xs)} ellipse samples, asked for {n}")
    if not abs(band["max_growth"] - g) <= 4 * U * g:
        problems.append("max_growth is not |beta1| eps^p")
    w = 2.0 * g / T1
    half = (band["mu_high"] - band["mu_low"]) / 2.0
    if not abs(half - w) <= 4 * U * (abs(mu0) + w) + 8 * U * w:
        problems.append(f"band half-width {half!r}, expected 2|beta1|eps^p/T1 = {w!r}")
    if band["band_open"] != (beta != 0.0):
        problems.append("band_open disagrees with beta1")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    dy = ys - y0
    lhs = xs * xs + E * E * dy * dy
    # x = g cos and y = y0 + (g/E) sin carry a few roundings each; y - y0
    # also carries the roundings of |y|, which swamp (g/E) sin when g is
    # below the spacing of doubles near y0.
    err_dy = 4 * U * (np.abs(ys) + np.abs(dy))
    tol = 16 * U * (lhs + g * g) + E * E * err_dy * (2 * np.abs(dy) + err_dy)
    if not np.all(np.abs(lhs - g * g) <= tol):
        problems.append("ellipse samples off x^2 + E^2 (y - y0)^2 = beta1^2 eps^(2p)")
    return problems


def check_isola_oracle(p, h, band, ctx):
    problems = []
    ref, b = ctx.oracle.beta(p, h)
    if not abs(band["beta1"] - ref) <= b:
        problems.append(f"isola beta1 {band['beta1']!r}, oracle {ref!r}")
    y0_ref = ctx.oracle.omega_star(p, h)
    if not abs(band["y0"] - y0_ref) <= omega_star_error_bound(p, h):
        problems.append(f"y0 {band['y0']!r}, oracle c*phi* + Omega(phi*) = {y0_ref!r}")
    phi_ref = ctx.oracle.phi(p, h)
    if not abs(band["mu0"] - phi_ref) <= phi_error_bound(p, h):
        problems.append(f"mu0 {band['mu0']!r}, oracle phi* = {phi_ref!r}")
    return problems


def _band_of(params, geo):
    return {
        "beta1": params.beta1, "y0": params.y0, "mu0": params.mu0,
        "max_growth": geo.max_growth, "mu_low": geo.mu_low, "mu_high": geo.mu_high,
        "band_open": geo.band_open,
    }


# -- the point workload ------------------------------------------------------


def check_point_round(ops, results, ctx, n_isola_points):
    """Problems by op index for one round of the point workload.

    ``results`` holds None for ops that raised; those are skipped.
    """
    problems = {}
    by_p = {}
    for i, op in enumerate(ops):
        if op.kind == "beta1" and results[i] is not None:
            by_p.setdefault(op.args[0], []).append(i)
    for p, idx in by_p.items():
        hs = [ops[i].args[1] for i in idx]
        # The two ends of the range, and a seeded sample, go to the oracle.
        picks = set(ctx.sample(len(idx))) | {hs.index(min(hs)), hs.index(max(hs))}
        model, bound = beta_model(p, hs)
        for j, i in enumerate(idx):
            v = results[i]
            errs = []
            if not abs(v - model[j]) <= 2.0 * bound[j]:
                errs.append(f"beta1({p}, {hs[j]!r}) = {v!r}, independent model {model[j]!r}")
            if j in picks:
                ref, b = ctx.oracle.beta(p, hs[j])
                if not abs(v - ref) <= b:
                    errs.append(f"beta1({p}, {hs[j]!r}) = {v!r}, oracle {ref!r} (bound {b:.3g})")
            if errs:
                problems[i] = errs
    isola_idx = [i for i, op in enumerate(ops) if op.kind == "isola" and results[i] is not None]
    oracle_idx = set(isola_idx[:ISOLA_ORACLE_SAMPLE])
    for i in isola_idx:
        p, h, eps, T1, E = ops[i].args
        params, geo = results[i]
        band = _band_of(params, geo)
        errs = []
        if (params.p, params.h, params.eps, params.T1, params.E) != (p, h, eps, T1, E):
            errs.append("isola parameters do not echo the inputs")
        errs += check_betas(p, [h], [params.beta1], ctx)
        errs += check_isola_identities(p, eps, T1, E, band, geo.ellipse[:, 0], geo.ellipse[:, 1], n_isola_points)
        if i in oracle_idx:
            errs += check_isola_oracle(p, h, band, ctx)
        if errs:
            problems[i] = errs
    return problems


# -- CLI ---------------------------------------------------------------------


def _flag(argv, name, cast=str, default=None):
    return cast(argv[argv.index(name) + 1]) if name in argv else default


def _parse(text, fmt, ctx):
    """(records, comment lines, problems) of one CLI output."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [], [], [f"output is not JSON: {exc}"]
        return doc, [], ctx.validate(doc)
    comments = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body)))
    return rows, comments, []


def _num(row, key):
    return float(row[key])


def check_cli(op, result, ctx):
    code, text = result
    argv = list(op.args)
    if code != 0:
        return [f"exit code {code}"]
    fmt = _flag(argv, "--format", default="csv")
    records, comments, problems = _parse(text, fmt, ctx)
    if problems:
        return problems
    cmd = argv[0]
    if cmd == "beta":
        return _check_cli_beta(argv, records, ctx)
    if cmd == "resonance":
        return _check_cli_resonance(argv, records, ctx)
    if cmd == "zeros":
        p = _flag(argv, "--p", int)
        found = [_num(r, "h_star") for r in records]
        return check_zero_list(
            p, _flag(argv, "--h-min", float), _flag(argv, "--h-max", float), _flag(argv, "--tol", float), found, ctx
        )
    if cmd == "isola":
        return _check_cli_isola(argv, fmt, records, comments, ctx)
    if cmd == "selftest":
        return _check_cli_selftest(records, ctx)
    return [f"no check for {cmd}"]


def _grid_of(argv):
    h = _flag(argv, "--h", float)
    if h is not None:
        return [h]
    n = _flag(argv, "--n", int)
    return [float(x) for x in np.linspace(_flag(argv, "--h-min", float), _flag(argv, "--h-max", float), n)]


def _by_depth(records, grid):
    """Group records by depth; problems if the depths are not the grid."""
    groups = {}
    for r in records:
        groups.setdefault(_num(r, "h"), []).append(r)
    hs = list(groups)
    if len(hs) != len(grid) or any(abs(a - b) > 4 * U * abs(b) for a, b in zip(hs, grid)):
        return hs, groups, [f"{len(hs)} depths in the table, asked for {len(grid)}"]
    return hs, groups, []


def _check_cli_beta(argv, records, ctx):
    p = _flag(argv, "--p", int)
    grid = _grid_of(argv)
    hs, groups, problems = _by_depth(records, grid)
    if problems:
        return problems
    ends = sorted({0, len(hs) - 1})
    if "--breakdown" in argv or "--groups" in argv:
        per_depth = 3 ** (p - 1) if "--breakdown" in argv else 2 ** (p - 1)
        sums, slack = [], []
        for h in hs:
            rows = groups[h]
            if len(rows) != per_depth:
                return [f"{len(rows)} rows at h={h!r}, expected {per_depth}"]
            if "--breakdown" in argv:
                vals = [int(r["sign"]) * _num(r, "value") for r in rows]
                if len({r["term"] for r in rows}) != per_depth:
                    problems.append(f"repeated term labels at h={h!r}")
            else:
                vals = [_num(r, "value") for r in rows]
            sums.append(math.fsum(vals))
            # group sums are rounded once more each (compensated sums)
            slack.append(2 * U * sum(abs(v) for v in vals))
        if "--breakdown" in argv:
            labels = {r["term"] for r in groups[hs[0]]}
            if labels != set(ctx.oracle.term_labels(p, hs[0])):
                problems.append("term labels differ from the oracle's")
        model, bound = beta_model(p, hs)
        bad = ~(np.abs(np.asarray(sums) - model) <= 2.0 * bound + np.asarray(slack))
        for i in np.flatnonzero(bad)[:3]:
            problems.append(f"terms at h={hs[i]!r} add up to {sums[i]!r}, model beta1 {model[i]!r}")
        for i in ends:
            ref, b = ctx.oracle.beta(p, hs[i])
            if not abs(sums[i] - ref) <= b + slack[i]:
                problems.append(f"terms at h={hs[i]!r} add up to {sums[i]!r}, oracle {ref!r}")
        return problems
    rows = [groups[h][0] for h in hs]
    if any(len(groups[h]) != 1 for h in hs):
        return ["more than one scan row per depth"]
    return check_scan_rows(
        p, hs, [_num(r, "beta1") for r in rows], [_num(r, "leading") for r in rows],
        [_num(r, "ratio") for r in rows], ctx, ends,
    )


def _check_cli_resonance(argv, records, ctx):
    p = _flag(argv, "--p", int)
    grid = _grid_of(argv)
    hs, groups, problems = _by_depth(records, grid)
    if problems:
        return problems
    for i, h in enumerate(hs):
        (r,) = groups[h]
        if not abs(_num(r, "residual")) <= 1e-12:
            problems.append(f"collision residual {r['residual']} at h={h!r}")
        asym = phi_asymptote_reference(p, h)
        if not abs(_num(r, "phi_asymptote") - asym) <= 8 * U * abs(asym):
            problems.append(f"phi_asymptote at h={h!r} differs from the closed form")
        if i in (0, len(hs) - 1):
            if not abs(_num(r, "phi") - ctx.oracle.phi(p, h)) <= phi_error_bound(p, h):
                problems.append(f"phi* at h={h!r} differs from the oracle")
            if not abs(_num(r, "omega_star") - ctx.oracle.omega_star(p, h)) <= omega_star_error_bound(p, h):
                problems.append(f"omega* at h={h!r} differs from the oracle")
        if len(problems) > 3:
            break
    return problems


_BAND_KEYS = ("beta1", "y0", "mu0", "max_growth", "mu_low", "mu_high")


def _check_cli_isola(argv, fmt, records, comments, ctx):
    p, h = _flag(argv, "--p", int), _flag(argv, "--h", float)
    eps, T1, E, n = (_flag(argv, k, float) for k in ("--eps", "--T1", "--E", "--n"))
    if fmt == "json":
        band, points = records[0], records[1:]
        if band.get("schema") != "isola_band":
            return ["first JSON record is not the isola band"]
    else:
        band = dict(line.split(" = ", 1) for line in comments)
        try:
            band = {**{k: float(band[k]) for k in _BAND_KEYS}, "band_open": band["band_open"] == "true"}
        except KeyError as exc:
            return [f"band metadata lacks {exc}"]
        points = records
    xs = [float(r["x"]) for r in points]
    ys = [float(r["y"]) for r in points]
    problems = check_betas(p, [h], [band["beta1"]], ctx)
    problems += check_isola_identities(p, eps, T1, E, band, xs, ys, int(n))
    return problems + check_isola_oracle(p, h, band, ctx)


def _check_cli_selftest(records, ctx):
    if len(records) != 24:
        return [f"selftest printed {len(records)} rows, the fixture file has 24"]
    problems = []
    for r in records:
        p, h = int(r["p"]), _num(r, "h")
        value, fixture = _num(r, "value"), _num(r, "oracle")
        _, bound = beta_model(p, [h])
        if not abs(value - fixture) <= bound[0] + U * abs(fixture):
            problems.append(f"selftest value {value!r} at (p={p}, h={h!r}) vs fixture {fixture!r}")
    return problems


CHECKS = {"beta_scan": check_beta_scan, "find_beta_zeros": check_find_beta_zeros, "cli": check_cli}
