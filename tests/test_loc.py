"""tools/loc.py counts code lines: no blank, comment or docstring lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment: the line is code


class A:
    """Class docstring."""

    x = """a string that is no docstring,
    over two lines"""

    def f(self, y):
        """Function
        docstring."""
        return math.sqrt(
            y
        )
'''


def test_counts_code_lines_only():
    # import, class, x (2 lines), def, return (3 lines)
    assert loc.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     8  a.py", "     1  b.py", "     9  total"]


def test_an_empty_directory_is_refused(tmp_path, capsys):
    assert loc.main([str(tmp_path)]) == 2
    assert "no modules" in capsys.readouterr().err
