"""Golden CLI output: stdout must match the stored bytes exactly.

Every subcommand and table mode runs once in CSV and once in JSON on a
small grid; the stored files under ``tests/golden/`` hold the expected
stdout.  The grids span the documented depth range [0.05, 20] (at its
shallow end p = 2 takes the series branch of t_ratio, at its deep end
p = 4 sets floor_flag), so any change in the last bit of a value shows
up here.

Regenerate deliberately, only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from stokes_isolas.cli import main

GOLDEN = Path(__file__).parent / "golden"

GRID = ["--h-min", "0.05", "--h-max", "20"]

CASES = {
    "beta": ["beta", "--p", "4", *GRID, "--n", "40"],
    "beta_p2": ["beta", "--p", "2", *GRID, "--n", "40"],
    "beta_point": ["beta", "--p", "3", "--h", "0.82064"],
    "beta_groups": ["beta", "--p", "4", "--groups", *GRID, "--n", "5"],
    "beta_breakdown": ["beta", "--p", "3", "--breakdown", *GRID, "--n", "4"],
    "resonance": ["resonance", "--p", "4", *GRID, "--n", "40"],
    "resonance_p6": ["resonance", "--p", "6", *GRID, "--n", "6"],
    "zeros": ["zeros", "--p", "4", "--h-min", "0.3", "--h-max", "11.9", "--n", "400"],
    "isola": ["isola", "--p", "2", "--h", "3", "--eps", "0.05", "--T1", "1", "--E", "0.5", "--n", "16"],
    "selftest": ["selftest"],
}

FORMATS = ("csv", "json")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, fmt):
    code, out = run([*CASES[name], "--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for fmt in FORMATS:
            code, out = run([*argv, "--format", fmt])
            if code != 0:
                sys.exit(f"{name} {fmt}: exit code {code}")
            (GOLDEN / f"{name}.{fmt}").write_text(out, encoding="utf-8")
