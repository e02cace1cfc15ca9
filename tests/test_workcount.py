"""tools/workcount.py: its counts are deterministic and count real work."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "workcount.py"


def counts(hash_seed):
    """name -> value from one run of the tool in a fresh process, under the
    given string-hash seed."""
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    out = subprocess.run(
        [sys.executable, str(TOOL), "localization", "--chart", "elliptic",
         "--orders", "1,2"],
        env=env, capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


def test_two_runs_give_identical_counts():
    assert counts(1) == counts(2)


def test_a_tiny_run_counts_every_kind_of_work():
    got = counts(0)
    assert got.pop("exit") == "0"
    assert set(got) == {"add_product.calls", "add_product.pairs", "derive.fresh",
                        "reduce.calls", "invert.calls"}
    assert all(int(v) > 0 for v in got.values()), got
    # one inversion of g per order, whatever the number of checks
    assert got["invert.calls"] == "2"
