"""The benchmark's checks catch wrong outputs: each corruption is a failed op.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from reference import Oracle, load_critical_depths  # noqa: E402
from workloads import Cli, Op, Point, Scan, Zeros  # noqa: E402

si = run.load_package()
CRITICAL = load_critical_depths()


@pytest.fixture(scope="module")
def oracle():
    return Oracle()


class SmallScan(Scan):
    GRID_N = 40


class SmallPoint(Point):
    N_BETA = 12
    N_ISOLA = 6


def failed_ops(workload, oracle, corrupt=None):
    """Run one round (corrupting results with ``corrupt``) and tally it."""
    if corrupt is not None:
        plain_run = workload.run
        workload.run = lambda op: corrupt(op, plain_run(op))
    runner = run.Runner(workload)
    runner.round()
    problems = run.check_round(workload, runner.first, oracle, CRITICAL)
    attempted, failed, wrong = run.tally(runner, problems)
    assert attempted == len(workload.ops)
    return failed, wrong


def test_clean_rounds_pass(oracle):
    for cls in (SmallScan, SmallPoint, Zeros):
        assert failed_ops(cls(si, 5, CRITICAL), oracle) == (0, 0), cls.name


def test_flipped_beta_sign_fails_its_scan(oracle):
    w = SmallScan(si, 5, CRITICAL)
    target = next(op for op in w.ops if op.args[0] == 3)

    def flip(op, rows):
        if op is target:
            k = 7  # an interior point, not one the oracle sample is sure to pick
            rows[k] = dataclasses.replace(rows[k], beta1=-rows[k].beta1)
        return rows

    assert failed_ops(w, oracle, flip) == (1, 1)


def test_flipped_beta_sign_fails_a_point(oracle):
    w = SmallPoint(si, 5, CRITICAL)
    # p = 2: the bound resolves the sign of beta1 over the whole range
    target = next(op for op in w.ops if op.kind == "beta1" and op.args[0] == 2 and 0.5 < op.args[1] < 19.0)

    def flip(op, value):
        return -value if op is target else value

    assert failed_ops(w, oracle, flip) == (1, 1)


def test_moved_zero_fails(oracle):
    w = Zeros(si, 5, CRITICAL)
    with_zero = next(i for i, op in enumerate(w.ops) if op.args[0] == 2 and op.args[1] < 1.85 < op.args[2])

    def move(op, zeros):
        return [z + 1e-6 for z in zeros] if op is w.ops[with_zero] else zeros

    assert failed_ops(w, oracle, move) == (1, 1)


def test_spurious_zero_fails(oracle):
    w = Zeros(si, 5, CRITICAL)

    def extra(op, zeros):
        return zeros + [op.args[2] - 0.01] if op is w.ops[0] else zeros

    assert failed_ops(w, oracle, extra) == (1, 1)


def test_dropped_csv_row_fails(oracle):
    w = Cli(si, 5, CRITICAL)
    w.ops = [
        Op("cli", ("beta", "--p", "2", "--h-min", "0.5", "--h-max", "3.0", "--n", "10"), 10),
        Op("cli", ("beta", "--p", "4", "--h-min", "0.5", "--h-max", "3.0", "--n", "10"), 10),
    ]

    def drop(op, result):
        code, text = result
        if op is w.ops[1]:
            lines = text.splitlines(keepends=True)
            text = "".join(lines[:4] + lines[5:])
        return code, text

    assert failed_ops(w, oracle, drop) == (1, 1)


def test_nonzero_exit_fails(oracle):
    w = Cli(si, 5, CRITICAL)
    w.ops = [Op("cli", ("selftest",), 24)]
    assert failed_ops(w, oracle, lambda op, r: (3, r[1])) == (1, 1)


@pytest.mark.parametrize("cls", [Zeros, SmallPoint])
def test_raising_op_fails_but_is_not_a_wrong_output(oracle, cls):
    w = cls(si, 5, CRITICAL)

    def boom(op, result):
        if op is w.ops[0]:
            raise ValueError("injected")
        return result

    assert failed_ops(w, oracle, boom) == (1, 0)


def test_malformed_output_fails_its_op(oracle):
    w = Cli(si, 5, CRITICAL)
    w.ops = [Op("cli", ("isola", "--p", "2", "--h", "1.0", "--eps", "0.1", "--T1", "1.0", "--E", "0.5",
                        "--n", "16", "--format", "json"), 1)]
    assert failed_ops(w, oracle, lambda op, r: (0, "[]")) == (1, 1)
