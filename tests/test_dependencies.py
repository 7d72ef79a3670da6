"""Run-time dependencies: numpy only.

scipy is needed only by the parity tests and mpmath only by the oracle, so
a plain ``pip install .`` must import, answer and pass ``selftest``
without either.  Each check runs in a fresh interpreter; there the two
are blocked by putting None in ``sys.modules``, which makes any import of
them raise ImportError.
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
