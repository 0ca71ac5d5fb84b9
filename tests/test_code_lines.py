"""``tools/code_lines.py`` against a hand count of a small package."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

# Code lines: the import, the two lines of the ``def``, the three lines of
# the sum and the ``return``: 7.  The docstrings, the comment lines and
# the blank lines are left out.
_MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment leaves the line code

# A comment on its own line.


def hypot(a,
          b):
    """A function docstring."""
    total = (a * a
             + b * b
             + 0)
    return math.sqrt(total)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_match_a_hand_count(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(_MODULE)
    (tmp_path / "one.py").write_text("x = 1\n")
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
    tool = _tool()
    assert tool.code_lines(tmp_path / "mod.py") == 7
    assert tool.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["0", "__init__.py"], ["7", "mod.py"], ["1", "one.py"], ["8", "total"]]
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
