"""tools/loc.py: docstring lines come from ast, code lines are the rest."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

MODULE = '''"""Module docstring,
over two lines."""

import math


class Shape:
    """One line."""

    def area(self):
        """Three
        lines
        here."""
        note = """not a docstring:
        an assignment"""
        return math.pi


def free():
    # a comment, then a string that is not the first statement
    x = 1
    "just an expression"
    return x
'''


def test_counts_a_synthetic_module(tmp_path):
    assert loc.count(MODULE) == (23, 6, 17)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "shapes.py").write_text(MODULE)
    (tmp_path / "b" / "shapes.py").write_text(MODULE.replace('    """One line."""\n\n', ""))
    (tmp_path / "b" / "extra.py").write_text("x = 1\n")
    a, b = loc.count_tree(tmp_path / "a"), loc.count_tree(tmp_path / "b")
    rows = {line.split()[0]: line.split()[1:] for line in loc.report(a, b).splitlines()}
    assert rows["shapes.py"] == ["23", "21", "-2", "6", "5", "-1", "17", "16", "-1"]
    assert rows["extra.py"] == ["0", "1", "1", "0", "0", "0", "0", "1", "1"]
    assert rows["total"] == ["23", "22", "-1", "6", "5", "-1", "17", "17", "0"]
