"""tools/xver.py: another Python version gives the seed-42 report hash and
the CLI goldens, and a difference makes the tool fail."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SEED_42_REPORT_SHA256

TOOL = Path(__file__).resolve().parent.parent / "tools" / "xver.py"
_spec = importlib.util.spec_from_file_location("xver", TOOL)
xver = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(xver)


def test_another_version_gives_the_recorded_outputs():
    here = "%d.%d" % sys.version_info[:2]
    other = next((v for v in xver.VERSIONS if v != here and xver.interpreter(v)), None)
    if other is None:
        pytest.skip("no other Python version installed")
    proc = subprocess.run([sys.executable, str(TOOL), other],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[1].endswith(" golden cases: 0 differences")


def test_a_difference_fails_and_a_missing_version_is_skipped(monkeypatch, capsys):
    assert xver.SEED_42_SHA256 == SEED_42_REPORT_SHA256
    assert xver.main(["xver.py", "0.0"]) == 0
    assert capsys.readouterr().out == "0.0: skipped, not installed\n"
    monkeypatch.setattr(xver, "SEED_42_SHA256", "0" * 64)
    assert xver.child() == 1
    first, last = capsys.readouterr().out.splitlines()
    assert first == f"seed-42 report: exit 0, sha256 {SEED_42_REPORT_SHA256}"
    assert last.endswith(" golden cases: 1 differences")
