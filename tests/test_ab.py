"""tools/ab.py times a perfbench workload on two package trees in one process."""

import dataclasses
import importlib.util
import math
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

NUMBER = r"\d+"


def test_one_tree_against_itself(capsys):
    src = str(ROOT / "src")
    assert ab.main([src, src, "--workload", "zeros", "--pairs", "2", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    patterns = [
        r"workload zeros, seed 1, 2 pairs of 1 rounds; outputs equal",
        rf"A pts_per_s: median {NUMBER}, quartiles \[{NUMBER}, {NUMBER}\]  \(.*src\)",
        rf"B pts_per_s: median {NUMBER}, quartiles \[{NUMBER}, {NUMBER}\]  \(.*src\)",
        r"median ratio B/A: \d+\.\d{4}",
        rf"B won [0-2]/2 pairs, median gain -?{NUMBER} against A's IQR {NUMBER}: a gain needs 2 won and a gain"
        r" above the IQR, (met|not met)",
    ]
    assert len(lines) == len(patterns)
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_pairs_must_be_positive(capsys):
    src = str(ROOT / "src")
    try:
        ab.main([src, src, "--pairs", "0"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("--pairs 0 was accepted")
    assert "--pairs and --rounds must be at least 1" in capsys.readouterr().err


def _row_class():
    @dataclasses.dataclass(frozen=True)
    class Row:
        h: float
        values: np.ndarray

    return Row


def test_results_compare_across_packages_bit_for_bit():
    # the two packages' classes are distinct, so results compare by class name and fields
    a, b = _row_class(), _row_class()
    assert a is not b and a(1.0, np.ones(2)) != b(1.0, np.ones(2))
    assert ab.plain([a(math.nan, np.array([0.5, -0.0]))]) == ab.plain([b(math.nan, np.array([0.5, -0.0]))])
    assert ab.plain(a(1.0, np.array([-0.0]))) != ab.plain(b(1.0, np.array([0.0])))
    assert ab.plain((0, "x", [-0.0])) != ab.plain((0, "x", [0.0]))
    assert ab.plain([1.0]) != ab.plain((1.0,))
