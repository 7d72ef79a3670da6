"""Command-line front end emitting plot-ready tables as CSV or JSON.

Subcommands
-----------
resonance   critical wavenumber, collision frequency, residual
beta        coefficient values over a depth grid; --breakdown / --groups
zeros       critical depths where the coefficient vanishes
isola       band metadata plus sampled isola ellipse
selftest    compare against the stored arbitrary-precision fixtures

Conventions: each subcommand hands one emitter (``_emit``) its field names,
in the order of the schema's ``required`` list, and one column per field:
the grid record's arrays as they are, lists elsewhere.  A ``beta`` or
``resonance`` table of one depth (``--h``) and ``selftest`` take the
single-depth path on floats and lists (``beta._point``,
``resonance._collision_point``), the same doubles as a grid's, and load no
numpy; grid tables, ``zeros`` and ``isola`` are arrays.  Data rows go to
stdout, diagnostics to stderr; every float is printed in shortest
round-trip form; exit code 0 on success, 1 when the reader closes stdout
early, 2 on usage errors (non-finite inputs, grids too big to allocate), 3
on numerical failures.  CSV uses a header row and '.' decimals (isola band
metadata appears as leading '#' comments); JSON is an array of
schema-tagged objects validating against ``schemas/output.schema.json``.

The argument parser is built once per process and reused unchanged.  The
emitter writes a table in blocks of rows and builds no row of values: it
turns each column of a block into text, spelling each distinct value of an
array once (a float64 array told apart on its bit pattern, so -0.0 and 0.0
stay distinct), a list of floats in one ``float.__repr__`` pass and any
other list value by value, and fills a per-table row template with the
texts.  The bytes are those of ``json.dump(records, indent=2)`` and of
``csv.writer``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

from .asymptotics import wavenumber_asymptote
from .beta import (
    ScanRow, _cancellation_floor, _grid, _group_sums, _point, _scan_columns, beta1, beta_term_ids, find_beta_zeros,
)
from .dispersion import np
from .errors import StokesIsolasError
from .isola import IsolaParams, isola_geometry
from .resonance import _collision_grid, _collision_point, _scan_depth, _scan_depths

SCHEMA_PATH = Path(__file__).parent / "schemas" / "output.schema.json"

CLOSED_PIPE_EXIT = 1
USAGE_EXIT = 2
NUMERICAL_EXIT = 3

_BLOCK = 1024  # rows turned into text and written at a time


def _csv_text(value) -> str:
    """A value as CSV text: true/false, empty for None, float.__repr__ for floats, else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _csv_cell(value) -> str:
    """A CSV field, quoted as csv.writer quotes it."""
    text = _csv_text(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(values, cell) -> list[str]:
    """Text of one column of a block: an array's distinct values spelled once, a list's values in turn.

    An array is spelled as its tolist() would be, each distinct value once: a
    float64 array is told apart on its bit pattern, so -0.0 and 0.0 stay
    distinct, any other array on its values.  A list of floats takes one
    float.__repr__ pass.  cell(value) spells one value; it is called for each
    distinct value of an array, for each value of any other list, and for
    non-finite floats.
    """
    if not isinstance(values, (list, tuple)):  # an array: numpy is loaded already
        floats = values.dtype == np.float64
        keys = values.view(np.int64) if floats else values
        distinct, at = np.unique(keys, return_inverse=True)
        if distinct.size == keys.size:  # nothing repeats: spell the column in its own order
            return _column(values.tolist(), cell)
        text = _column((distinct.view(np.float64) if floats else distinct).tolist(), cell)
        return np.array(text, dtype=object)[at].tolist()
    try:
        text = list(map(float.__repr__, values))
    except TypeError:  # not a float column
        return list(map(cell, values))
    if not all(map(math.isfinite, values)):  # JSON spells these NaN, Infinity, -Infinity
        text = [t if math.isfinite(v) else cell(v) for t, v in zip(text, values)]
    return text


def _lines(fill, columns, cell) -> list[str]:
    """The rows of a block as text: each column in one pass, then fill() per row of cells."""
    return list(map(fill, zip(*[_column(c, cell) for c in columns])))


def _json_template(schema: str, fields) -> str:
    """One row object as json.dump(indent=2) lays it out, with a %s slot per field."""
    head = f'    "schema": {json.dumps(schema)}'.replace("%", "%%")
    slots = (f"    {json.dumps(k)}: ".replace("%", "%%") + "%s" for k in fields)
    return "  {\n" + ",\n".join((head, *slots)) + "\n  }"


def _emit(fmt: str, schema: str, fields: tuple, columns, band=None):
    """Write one table to stdout: one column of values per field, in the order of fields.

    A column is a list, or an array written as its tolist() would be; all
    have one length.  CSV is a header row and one line per row; JSON is an
    array with one object per row, tagged with schema.  band, the isola band
    as a pair (fields, values), comes first: an ``isola_band`` object in
    JSON, and '# name = value' lines in CSV.  The columns are spelled _BLOCK
    rows at a time, so the text held at once does not grow with the table.
    """
    out, size = sys.stdout, len(columns[0])
    blocks = ([c[i:i + _BLOCK] for c in columns] for i in range(0, size, _BLOCK))
    if fmt == "json":
        tables = [(_json_template("isola_band", band[0]), [[[v] for v in band[1]]])] if band else []
        tables.append((_json_template(schema, fields), blocks))
        sep = "[\n"
        for template, table in tables:
            for block in table:
                out.write(sep + ",\n".join(_lines(template.__mod__, block, json.dumps)))
                sep = ",\n"
        out.write("[]\n" if sep == "[\n" else "\n]\n")
        return
    if band:
        out.write("".join(f"# {k} = {_csv_text(v)}\n" for k, v in zip(*band)))
    # csv.writer quotes a lone empty field, which would otherwise read as no field
    fill = ",".join if len(fields) != 1 else lambda cells: cells[0] or '""'
    out.write(fill([_csv_cell(k) for k in fields]) + "\n")
    for block in blocks:
        out.write("\n".join(_lines(fill, block, _csv_cell)) + "\n")


def _h_grid(args, parser) -> float | np.ndarray:
    """A table's depths: one float (--h), which the single-depth path takes without numpy, or a grid's array."""
    if args.h is not None:
        if args.h_min is not None or args.h_max is not None:
            parser.error("give either --h or --h-min/--h-max, not both")
        return args.h
    if args.h_min is None or args.h_max is None:
        parser.error("give --h, or both --h-min and --h-max")
    if not 0 < args.h_min < args.h_max < math.inf:
        parser.error("need 0 < --h-min < --h-max < inf")
    if args.n < 2:
        parser.error(f"--n must be >= 2 for a --h-min/--h-max grid, got {args.n}")
    return np.linspace(args.h_min, args.h_max, args.n)


def _add_grid_flags(sub, default_n=7):
    sub.add_argument("--h", type=float, help="single depth")
    sub.add_argument("--h-min", type=float, help="grid start")
    sub.add_argument("--h-max", type=float, help="grid end")
    sub.add_argument("--n", type=int, default=default_n, help="grid points")


def _columns(n: int, *columns) -> list:
    """The columns of an n-row table: a list or an array as it is, a lone value (int, float, bool, None) n times."""
    return [[c] * n if c is None or isinstance(c, (int, float)) else c for c in columns]


def cmd_resonance(args, parser):
    hs = _h_grid(args, parser)
    one = isinstance(hs, float)
    h, phi, omega, residual = (_collision_point if one else _collision_grid)(args.p, hs)
    asym = wavenumber_asymptote(args.p, h) if args.p in (2, 3, 4) else None
    p = args.p if one else np.full(h.size, args.p)  # an int array is spelled faster than a list of ints
    columns = _columns(1 if one else h.size, p, h, phi, omega, residual, asym)
    _emit(args.format, "resonance", ("p", "h", "phi", "omega_star", "residual", "phi_asymptote"), columns)
    return 0


def cmd_beta(args, parser):
    hs = _h_grid(args, parser)
    if one := isinstance(hs, float):
        _scan_depth(h := hs)
        *_, signed, total = _point(args.p, h)
    else:
        grid = _grid(args.p, _scan_depths(hs))
        h, signed, total = grid.h, grid.signed, grid.total
    if not (args.breakdown or args.groups):
        fields = tuple(f.name for f in dataclasses.fields(ScanRow))
        _emit(args.format, "scan", fields, _columns(1 if one else h.size, *_scan_columns(args.p, h, signed, total)))
        return 0

    ids = beta_term_ids(args.p)
    if args.breakdown:
        schema = "beta_term"
        labels = {"term": [tid.label for tid in ids], "group": [tid.group for tid in ids],
                  "sign": [tid.sign for tid in ids]}
        values = [tid.sign * v for tid, v in zip(ids, signed)]  # each term unsigned again: exact, as a product by +-1
    else:
        sums = {"b0": signed[0], **_group_sums(args.p, signed)}
        schema, labels, values = "beta_group", {"group": list(sums)}, list(sums.values())
    p = args.p
    if not one:  # k rows a depth, each depth's rows in turn
        k, n = len(values), h.size
        p, h, values = np.full(k * n, p), np.repeat(h, k), np.array(values).T.ravel()
        labels = {key: np.tile(v, n) for key, v in labels.items()}
    columns = _columns(len(values), p, h, *labels.values(), values)
    _emit(args.format, schema, ("p", "h", *labels, "value"), columns)
    return 0


def cmd_zeros(args, parser):
    zeros = find_beta_zeros(args.p, args.h_min, args.h_max, args.n, args.tol)
    columns = ([args.p] * len(zeros), zeros, [beta1(args.p, z) for z in zeros])
    _emit(args.format, "zero", ("p", "h_star", "residual"), columns)
    return 0


def cmd_isola(args, parser):
    params = IsolaParams.from_depth(args.p, args.h, args.eps, args.T1, args.E, y0=args.y0, mu0=args.mu0)
    geo = isola_geometry(params, args.n)
    # the band is the two records' fields, the ellipse aside: the schema's isola_band order
    band = [(f.name, getattr(r, f.name)) for r in (params, geo) for f in dataclasses.fields(r) if f.name != "ellipse"]
    _emit(args.format, "isola_point", ("x", "y"), geo.ellipse.T, tuple(zip(*band)))
    return 0


def cmd_selftest(args, parser):
    from .fixtures import DEFAULT_FIXTURES, load_fixtures

    p, h, oracle, _ = zip(*load_fixtures(args.fixtures or DEFAULT_FIXTURES))
    signed, value = zip(*(point[-2:] for point in map(_point, p, h)))
    floor = list(map(_cancellation_floor, signed))
    diff = [abs(v - o) for v, o in zip(value, oracle)]
    ok = [d <= f for d, f in zip(diff, floor)]
    columns = (p, h, value, oracle, diff, floor, ok)
    _emit(args.format, "selftest", ("p", "h", "value", "oracle", "abs_diff", "floor", "ok"), columns)
    failures = ok.count(False)
    if failures:
        print(f"selftest: {failures} point(s) beyond the cancellation floor", file=sys.stderr)
        return NUMERICAL_EXIT
    print(f"selftest: {len(ok)} points within the cancellation floor", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads "--mu0 -2e-3" as "--mu0=-2e-3": Python 3.11's negative-number pattern has no exponent, inf or nan."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # subparsers are built of the same class
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stokes-isolas",
        description="instability-isola coefficients of Stokes waves: tables and plot data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("resonance", help="critical wavenumber and collision frequency")
    s.add_argument("--p", type=int, required=True, help="isola index, any integer >= 2")
    _add_grid_flags(s)
    s.set_defaults(func=cmd_resonance)

    s = sub.add_parser("beta", help="instability coefficient over depth")
    s.add_argument("--p", type=int, required=True, choices=(2, 3, 4))
    _add_grid_flags(s)
    table = s.add_mutually_exclusive_group()
    table.add_argument("--breakdown", action="store_true", help="emit every term")
    table.add_argument("--groups", action="store_true", help="emit group sums")
    s.set_defaults(func=cmd_beta)

    s = sub.add_parser("zeros", help="critical depths where the coefficient vanishes")
    s.add_argument("--p", type=int, required=True, choices=(2, 3, 4))
    s.add_argument("--h-min", type=float, required=True)
    s.add_argument("--h-max", type=float, required=True)
    s.add_argument("--n", type=int, default=2000, help="scan grid intervals")
    s.add_argument("--tol", type=float, default=1e-8, help="bisection width on h")
    s.set_defaults(func=cmd_zeros)

    s = sub.add_parser("isola", help="band endpoints and sampled isola ellipse")
    s.add_argument("--p", type=int, required=True, choices=(2, 3, 4))
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--eps", type=float, required=True, help="wave amplitude")
    s.add_argument("--T1", type=float, required=True,
                   help="band-width function T1(h) > 0 (no closed form here: external input)")
    s.add_argument("--E", type=float, required=True,
                   help="ellipse eccentricity function E(h) in (0,1) (no closed form here: external input)")
    s.add_argument("--y0", type=float, help="center ordinate; default: collision frequency")
    s.add_argument("--mu0", type=float, help="band center; default: critical wavenumber")
    s.add_argument("--n", type=int, default=64, help="ellipse samples")
    s.set_defaults(func=cmd_isola)

    s = sub.add_parser("selftest", help="compare against stored oracle fixtures")
    s.add_argument("--fixtures", type=Path, help="fixture file override")
    s.set_defaults(func=cmd_selftest)

    for s in sub.choices.values():  # added last, so it ends every usage line
        s.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a reader that left early shows here, not at shutdown
        return code
    except BrokenPipeError:
        # As the signal module docs advise: send what is still buffered to
        # devnull, so that the flush at shutdown does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_PIPE_EXIT
    except StokesIsolasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (ValueError, MemoryError) as exc:  # MemoryError: a --n too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
