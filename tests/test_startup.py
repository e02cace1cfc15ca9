"""tools/startup.py: importing jetalg in a clean interpreter loads none of
the heavy standard-library modules, and ``main`` prints the total, one line
per jetalg module and the loaded module set.  Timings are printed, never
asserted."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "startup.py"
_spec = importlib.util.spec_from_file_location("startup", _PATH)
startup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(startup)

# what dataclasses and typing pull in; jetalg needs none of them
HEAVY = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def test_a_clean_import_loads_no_heavy_module():
    rows, loaded = startup.run_child()
    assert {"jetalg.cli", "jetalg.suites", "jetalg.fileio", "jetalg.sampling"} <= {r[0] for r in rows}
    assert {"fractions", "json", "random", "zlib", "argparse"} <= set(loaded)
    assert not HEAVY & set(loaded)


def test_main_prints_the_total_each_jetalg_module_and_the_module_set(capsys):
    assert startup.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("-S -X importtime, import jetalg.cli")
    assert re.fullmatch(r"total import \d+\.\d ms \(\d+ modules\)", lines[1])
    assert lines[2] == "jetalg modules (self ms, cumulative ms):"
    rows = [re.fullmatch(r"  (jetalg(?:\.\w+)?) +\d+\.\d\d +\d+\.\d\d", line)
            for line in lines[3:-1]]
    assert all(rows)
    names = [m.group(1) for m in rows]
    assert "jetalg" in names and names[-1] == "jetalg.cli"
    assert "jetalg.charts" in names and "jetalg.suites" in names
    head, _, mods = lines[-1].partition(": ")
    assert re.fullmatch(r"standard library beyond a bare -S interpreter \(\d+\)", head)
    assert "argparse" in mods.split() and not HEAVY & set(mods.split())
