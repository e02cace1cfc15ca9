"""tools/srcsize.py: ``split`` sorts each line into the class its docstring
names (code, docstring, comment or blank), and ``main`` prints the totals and
then one split per module."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "srcsize.py"
_spec = importlib.util.spec_from_file_location("srcsize", _PATH)
srcsize = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(srcsize)


def counts(code=0, docstring=0, comment=0, blank=0):
    return {"code": code, "docstring": docstring, "comment": comment, "blank": blank}


@pytest.mark.parametrize("text,want", [
    # a module docstring and a function docstring
    ('"""Module\ndocstring."""\n\n\ndef f():\n    """Function docstring."""\n'
     '    return 1\n', counts(code=2, docstring=3, blank=2)),
    # a comment-only line
    ("# a note\nx = 1\n", counts(code=1, comment=1)),
    # a code line with a trailing comment
    ("x = 1  # a note\n", counts(code=1)),
    # a blank line
    ("x = 1\n\ny = 2\n", counts(code=2, blank=1)),
    # a multi-line string that is not a whole statement
    ('x = """a\nb\n"""\n', counts(code=3)),
])
def test_split_counts_each_line_class(text, want):
    assert srcsize.split(text) == want


def test_main_prints_the_totals_then_one_line_per_module(tmp_path, capsys):
    (tmp_path / "b.py").write_text('"""Doc."""\n\nx = 1  # note\n')
    (tmp_path / "a.py").write_text("# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert srcsize.main(["srcsize.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("lines 5 (cat ") and out[0].endswith("/*.py | wc -l)")
    assert out[1:] == [
        "code 2  docstring 1  comment 1  blank 1",
        "a.py: lines 2  code 1  docstring 0  comment 1  blank 0",
        "b.py: lines 3  code 1  docstring 1  comment 0  blank 1",
    ]
