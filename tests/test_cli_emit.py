"""The table emitter writes the bytes of its json/csv reference, and the parser is reused safely."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokes_isolas import cli


def _fmt(value):
    """The reference's per-cell text for CSV."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def reference_emit(fmt, schema, fields, rows, band=None):
    """The table writer the emitter replaces: json.dump(indent=2), csv.writer over _fmt."""
    out = sys.stdout
    if fmt == "json":
        records = [dict(zip(("schema", *band[0]), ("isola_band", *band[1])))] if band else []
        records += [dict(zip(("schema", *fields), (schema, *row))) for row in rows]
        json.dump(records, out, indent=2)
        out.write("\n")
        return
    if band:
        out.writelines(f"# {k} = {_fmt(v)}\n" for k, v in zip(*band))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def written(emit, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(*args)
    return out.getvalue()


SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16])
FLOATS = st.floats(allow_subnormal=True) | SPECIAL_FLOATS
TEXT = st.text(st.sampled_from(',"\n\r %{}\\é€😀ab') | st.characters(), max_size=8)
KINDS = [
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-2, 2) | st.integers(-(10**20), 10**20),
    st.booleans(),
    st.none(),
    TEXT,
]
MIXED = st.one_of(KINDS)
# A list column holds values of one kind, as every list column of the CLI does, or of any kind;
# an array column is a float64, int64, bool or str array, written as its tolist() is.
LISTS = [(kind, None) for kind in (*KINDS, MIXED)]
ARRAYS = [(FLOATS, np.float64), (st.integers(-2, 2) | st.integers(-(2**63), 2**63 - 1), np.int64),
          (st.booleans(), bool), (TEXT, str)]
NAMES = st.lists(TEXT.filter(lambda k: k != "schema"), min_size=1, max_size=5, unique=True)


# lists of one kind whose values repeat, as one-depth labels and selftest's p and ok columns are
ONE_KIND = ("t", ("i", "b", "s", "n"),
            [[2, 2, 3, 2], [True, False, True, True], ["a,b", 'q"', "a,b", ""], [None, None, None, None]], None)


def as_rows(columns):
    """The rows the reference writes for columns: an array's values as its tolist() gives them."""
    return list(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))


@st.composite
def tables(draw):
    fields = tuple(draw(NAMES))
    size = draw(st.integers(0, 12))
    columns = []
    for _ in fields:
        kind, dtype = draw(st.sampled_from([*LISTS, *ARRAYS]))
        pool = draw(st.lists(kind, min_size=1, max_size=3))  # values that may repeat down the column
        values = draw(st.lists(st.sampled_from(pool) | kind, min_size=size, max_size=size))
        columns.append(values if dtype is None else np.array(values, dtype=dtype))
    band = None
    if draw(st.booleans()):
        names = draw(NAMES)
        band = (tuple(names), tuple(draw(MIXED) for _ in names))
    return draw(TEXT), fields, columns, band


@settings(max_examples=300, deadline=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]), block=st.integers(1, 4))
@example(table=("scan", ("h",), [[]], None), fmt="json", block=1)
@example(table=("scan", ("h",), [np.array([])], None), fmt="csv", block=1)
@example(table=("scan", ("h",), [[None, ""]], None), fmt="csv", block=1)
@example(table=("x", ("",), [[""]], ((), ())), fmt="csv", block=2)
@example(table=("t", ("v",), [[1, True, 0, False]], None), fmt="json", block=8)
@example(table=ONE_KIND, fmt="csv", block=3)
@example(table=ONE_KIND, fmt="json", block=3)
@example(
    table=("beta_term", ("term", "v"), [["B_{2,{1,2}}^{-,+}", 'a"b\nc'], [-0.0, math.nan]], (("p", "s"), (2, "x,y"))),
    fmt="csv",
    block=1,
)
@example(
    table=("t", ("x", "s", "b"), [np.array([0.0, -0.0, math.nan, -math.inf, 0.0, -0.0, math.inf]),
                                  np.array(['a"b', "a,b", "a\nb", 'a"b', "", "", "x"]),
                                  np.array([True, False, True, True, False, False, True])], None),
    fmt="json",
    block=4,
)
def test_emit_writes_the_reference_bytes(table, fmt, block):
    schema, fields, columns, band = table
    with mock.patch.object(cli, "_BLOCK", block):  # small blocks, so tables span several
        assert written(cli._emit, fmt, schema, fields, columns, band) == written(
            reference_emit, fmt, schema, fields, as_rows(columns), band
        )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_float_column_spells_each_distinct_double_once(fmt):
    k = 5
    values = np.random.default_rng(5).permutation(np.repeat(np.linspace(0.1, 0.5, k), 7))
    column, spelled = cli._column, []

    def spy(values, cell):  # the lists _column spells: an array's distinct values, in one list
        if isinstance(values, list):
            spelled.append(values)
        return column(values, cell)

    with mock.patch.object(cli, "_column", spy):
        out = written(cli._emit, fmt, "t", ("x",), [values])
    assert spelled == [sorted(set(values.tolist()))]
    assert out == written(reference_emit, fmt, "t", ("x",), as_rows([values]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_signed_zeros_print_apart_in_one_block(fmt):
    out = written(cli._emit, fmt, "t", ("x",), [np.array([0.0, -0.0, -0.0, 0.0])])
    cells = out.split()[1:] if fmt == "csv" else [r["x"] for r in json.loads(out)]
    assert [math.copysign(1.0, float(c)) for c in cells] == [1.0, -1.0, -1.0, 1.0]


@pytest.mark.parametrize(
    "value", [np.int64(1), np.bool_(True), np.float32(1.0), 1j, object()], ids=lambda v: type(v).__name__
)
@pytest.mark.parametrize("column", [[], [1.0]], ids=["alone", "after-float"])
def test_json_refuses_what_json_refuses(value, column):
    rows = [(v,) for v in (*column, value)]
    with pytest.raises(TypeError):
        written(reference_emit, "json", "t", ("x",), rows)
    with pytest.raises(TypeError, match="not JSON serializable"):
        written(cli._emit, "json", "t", ("x",), [[*column, value]])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


GOOD = ["beta", "--p", "4", "--h-min", "1", "--h-max", "3", "--n", "4", "--breakdown", "--format", "json"]
USAGE_ERRORS = [
    ["beta", "--p", "4", "--h", "3", "--breakdown", "--groups"],
    ["beta", "--p", "x", "--h", "3"],
    ["zeros", "--p", "2"],
    ["nonsense"],
]


class TestParserReuse:
    def test_built_once(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [GOOD, *USAGE_ERRORS], ids=lambda a: " ".join(a))
    def test_same_argv_twice(self, argv):
        assert run(argv) == run(argv)

    @pytest.mark.parametrize("bad", USAGE_ERRORS, ids=lambda a: " ".join(a))
    def test_good_call_after_usage_error(self, bad):
        alone = run(GOOD)
        code, _, err = run(bad)
        assert code == 2 and err.startswith("usage: stokes-isolas")
        assert run(GOOD) == alone

    def test_reused_parser_matches_fresh_process(self):
        for argv in USAGE_ERRORS:
            run(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "stokes_isolas.cli", *GOOD], capture_output=True, text=True
        )
        assert run(GOOD) == (proc.returncode, proc.stdout, proc.stderr)
