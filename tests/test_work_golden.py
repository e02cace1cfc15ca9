"""The work of seed-42 ``verify --suite all`` on the CLI defaults is pinned:
``tools/workcount.py``'s eight counts (and its exit code) must equal
``tests/work_golden.json`` exactly.

The counts are deterministic (``test_workcount.py``), so unlike a timing this
gate has no noise: a memo that stops hitting, a table that is rebuilt or an
extra ``reduce`` moves a count.  A change that moves one on purpose records
the new counts in the golden and states the old and new counts in
CHANGES.md."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "work_golden.json").read_text())


def test_seed_42_verify_all_does_the_recorded_work():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "workcount.py"), *GOLDEN["args"]],
        capture_output=True, text=True, check=True).stdout
    got = {name: int(value) for name, value in (line.split() for line in out.splitlines())}
    assert got == GOLDEN["counts"]
