"""Run-time dependencies: numpy only.

scipy is needed only by the parity tests and mpmath only by the oracle, so
a plain ``pip install .`` must import, answer and pass ``selftest``
without either.  Each check runs in a fresh interpreter; there the two
are blocked by putting None in ``sys.modules``, which makes any import of
them raise ImportError.  numpy itself is loaded by the first array
operation only: the scalar API and the CLI's one-depth tables never load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli_golden import CASES, FORMATS, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
OPTIONAL = ("scipy", "mpmath")

GOLDEN_RUNNER = """
import contextlib, io, json, sys
for name in {optional!r}:
    sys.modules[name] = None
from stokes_isolas.cli import main
results = {{}}
for key, argv in json.loads(sys.stdin.read()).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results[key] = [code, out.getvalue()]
print(json.dumps(results))
"""


def python(code, stdin=""):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_golden_output_without_scipy_or_mpmath():
    runs = {f"{name}.{fmt}": [*argv, "--format", fmt] for name, argv in CASES.items() for fmt in FORMATS}
    results = json.loads(python(GOLDEN_RUNNER.format(optional=OPTIONAL), json.dumps(runs)))
    for key in runs:
        code, out = results[key]
        assert code == 0, key
        assert out == (GOLDEN / key).read_text(encoding="utf-8"), key


def test_import_loads_neither():
    loaded = python(
        "import json, sys, stokes_isolas, stokes_isolas.cli\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {OPTIONAL!r})))"
    )
    assert json.loads(loaded) == []


SCALAR_RUNNER = """
import dataclasses, json, sys
import stokes_isolas as si

params = si.IsolaParams.from_depth(3, 1.0, 0.1, 1.0, 0.5)
results = [
    *(si.beta1(p, 1.0) for p in (2, 3, 4)), si.solve_wavenumber(3, 1.0), si.solve_wavenumber(1000, 1.0),
    si.omega_star(3, 1.0), si.phase_speed(1.0), si.omega_disp(0.5, 1.0), si.t_ratio(0.5, 1.0),
    si.eigenvalue_branch(3, 1, 0.2, 1.0),
    si.resonance_residual(0.5, 3, 1.0), *dataclasses.astuple(si.stokes_coefficients(1.0)),
    params.beta1, params.y0, params.mu0, *si.band_endpoints(params),
    *(part for z in si.eigenvalue_pair(params.mu0, params) for part in (z.real, z.imag)),
    si.leading_term(3, 1.0), si.wavenumber_asymptote(3, 1.0),
    si.fit_remainder_rate(lambda h: si.beta1(3, h), si.LEADING_MODELS[3], 4.0, 5.0)[0],
]
scalar = {"numpy": "numpy" in sys.modules, "types": sorted({type(v).__name__ for v in results})}
row, = si.beta_scan(3, [1.0])
print(json.dumps([scalar, "numpy" in sys.modules, row.beta1.hex(), si.beta1(3, 1.0).hex()]))
"""


def test_scalar_api_loads_no_numpy():
    # floats in, plain floats out, and numpy stays unloaded until the first array operation; beta1 records and
    # emits each p's rule on its own tape (p = 4's alone carries a_4 and p_4) without numpy too
    scalar, loaded, scanned, single = json.loads(python(SCALAR_RUNNER))
    assert scalar == {"numpy": False, "types": ["float"]}
    assert loaded
    assert scanned == single


# The golden tables of one depth: beta (plain, --groups, --breakdown) and resonance (p = 4, 6 and 1000) at --h,
# and selftest.
ONE_DEPTH = sorted(name for name, argv in CASES.items()
                   if argv[0] == "selftest" or argv[0] in ("beta", "resonance") and "--h" in argv)

ONE_DEPTH_RUNNER = """
import contextlib, io, json, sys
from stokes_isolas.cli import main

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, out.getvalue()]

results = {key: run(argv) for key, argv in json.loads(sys.stdin.read()).items()}
one_depth = "numpy" in sys.modules
run(["beta", "--p", "4", "--h-min", "1", "--h-max", "2", "--n", "3"])
print(json.dumps([results, one_depth, "numpy" in sys.modules]))
"""


def test_one_depth_tables_load_no_numpy():
    # each one-depth table takes the single-depth path on floats; a grid table is the first to load numpy
    assert {CASES[name][2] for name in ONE_DEPTH if CASES[name][0] == "resonance"} == {"4", "6", "1000"}
    runs = {f"{name}.{fmt}": [*CASES[name], "--format", fmt] for name in ONE_DEPTH for fmt in FORMATS}
    results, one_depth, grid = json.loads(python(ONE_DEPTH_RUNNER, json.dumps(runs)))
    for key in runs:
        assert results[key] == [0, (GOLDEN / key).read_text(encoding="utf-8")], key
    assert not one_depth
    assert grid
