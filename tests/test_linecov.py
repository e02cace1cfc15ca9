"""tools/linecov.py: ``executable`` takes the lines of a module's code
objects without its docstrings, and ``unreached`` lists, per module, the
executable lines outside a hit set and then the total.  Tracing a whole
pytest run is the tool's job, not this test's."""

import importlib.util
import sys
from pathlib import Path

_TOOLS = str(Path(__file__).resolve().parent.parent / "tools")
_spec = importlib.util.spec_from_file_location("linecov", f"{_TOOLS}/linecov.py")
linecov = importlib.util.module_from_spec(_spec)
sys.path.insert(0, _TOOLS)  # linecov imports srcsize from its own directory
try:
    _spec.loader.exec_module(linecov)
finally:
    sys.path.remove(_TOOLS)

TEXT = '''"""Module
docstring."""
import os


def f(x):
    """Function docstring."""
    # a comment
    if x:
        return 1
    return 2


class A:
    """Class docstring."""
    y = 3
'''


def test_executable_lines_are_the_code_lines_without_docstrings():
    # not the docstrings (1-2, 7, 15), the comment (8) or the blank lines
    assert linecov.executable(TEXT) == {3, 6, 9, 10, 11, 14, 16}


def test_unreached_lists_each_module_then_the_total():
    modules = [
        ("a.py", TEXT, {3, 6, 9, 11, 14, 16}),
        ("b.py", "x = 1\n", {1}),
        ("c.py", '"""Doc."""\nif x:\n    y = 2\n', {2}),
    ]
    assert linecov.unreached(modules) == [
        "a.py: 1 of 7 unreached",
        "    10  return 1",
        "c.py: 1 of 2 unreached",
        "     3  y = 2",
        "total: 2 of 10 executable lines unreached",
    ]
