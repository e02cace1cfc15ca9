"""Golden CLI outputs: exit code and stdout of about 25 invocations, byte for
byte, against ``cli_golden.json``.

The invocations cover the README examples and each subcommand on the
built-in charts and atlases; chart files are named relative to the
repository root.  Regenerate the data only when an output is meant to
change, and say which one changed and why:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from jetalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

INVOCATIONS = [
    # the README examples
    ["validate", "--chart", "src/jetalg/charts/elliptic.json",
     "--atlas", "src/jetalg/charts/p1.json"],
    ["jet", "--chart", "loc_x", "--expr", "1/x", "--order", "2"],
    ["delta", "--chart", "loc_x", "--expr", "x^2", "--order", "2"],
    ["bracket", "--chart", "loc_x", "--left", "1 # x", "--right", "1 # 1", "--order", "2"],
    ["phi", "--chart", "loc_x", "--field", "1 # x^2", "--order", "2"],
    ["psi", "--chart", "loc_x", "--vf", "x", "--term", "1:0:x^2", "--order", "2"],
    ["localize", "--chart", "loc_x", "--vf", "1", "--order", "2", "--den-power", "1"],
    ["dop-mul", "--chart", "loc_x", "--left", "1 @ 1", "--right", "x @ 0", "--apply", "x^2"],
    ["transition", "--atlas", "p1_pair", "--pair", "std:inf", "--monomial", "1",
     "--index", "0", "--order", "3", "--route", "both"],
    ["cocycle", "--atlas", "p1", "--triple", "std,inf,shift", "--order", "3"],
    ["verify", "--suite", "taylor", "--chart", "elliptic", "--orders", "1,2",
     "--samples", "4", "--seed", "42"],
    # each subcommand on elliptic, affine2 and p1
    ["jet", "--chart", "elliptic", "--expr", "x*inv(y)^2 + y", "--order", "3"],
    ["jet", "--chart", "affine2", "--expr", "x1^2*x2 - 3*x2^3/2", "--order", "3",
     "--format", "json"],
    ["delta", "--chart", "elliptic", "--expr", "y*x", "--order", "3"],
    ["delta", "--chart", "affine2", "--power", "1,2", "--order", "4"],
    ["bracket", "--chart", "elliptic", "--left", "y # x", "--right", "x^2 # inv(y)",
     "--order", "3"],
    ["bracket", "--chart", "affine2", "--left", "x1 # x2;1", "--right", "x2^2 # 1;x1",
     "--order", "2", "--format", "json"],
    ["phi", "--chart", "elliptic", "--field", "y # x*inv(y)", "--order", "3"],
    ["phi", "--chart", "affine2", "--field", "x1 # x2^2;x1", "--order", "2"],
    ["localize", "--chart", "elliptic", "--vf", "x", "--order", "3"],
    ["dop-mul", "--chart", "elliptic", "--left", "y @ 2; x @ 1",
     "--right", "inv(y) @ 1; x^2", "--apply", "y*x"],
    ["dop-mul", "--chart", "affine2", "--left", "x1 @ 1,0; x2 @ 0,2; 1",
     "--right", "x1*x2 @ 1,1; x2^2", "--apply", "x1^3*x2^2"],
    ["dop-mul", "--chart", "affine2", "--left", "x1 @ 1,0; x2 @ 0,2",
     "--right", "x1*x2 @ 1,1; x2^2", "--format", "json"],
    ["av-map", "--chart", "elliptic", "--word", "f y | v x | v inv(y)", "--order", "2"],
    ["av-map", "--chart", "affine2", "--word", "v x1;x2 | f x1 | v 1;x1^2", "--order", "2"],
    ["transition", "--atlas", "p1", "--pair", "std:shift", "--monomial", "2",
     "--index", "0", "--order", "3"],
    ["cocycle", "--atlas", "p1", "--triple", "std,shift,inf", "--order", "4"],
    ["verify", "--suite", "smash-bracket", "--chart", "elliptic", "--chart", "affine2",
     "--orders", "1,2", "--samples", "3", "--seed", "7", "--format", "json"],
    ["verify", "--suite", "av-tensor", "--chart", "elliptic", "--orders", "1,2",
     "--samples", "2", "--seed", "11"],
    ["verify", "--suite", "localization", "--samples", "2", "--seed", "5"],
]


def run(argv):
    """Exit code and stdout of one in-process invocation from the repository
    root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_invocation():
    assert set(_golden()) == {tuple(argv) for argv in INVOCATIONS}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _golden()[tuple(argv)]
    code, out = run(argv)
    assert code == want["exit"]
    assert out == want["stdout"]


def record():
    cases = []
    for argv in INVOCATIONS:
        code, out = run(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
