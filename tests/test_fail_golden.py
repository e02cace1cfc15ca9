"""Golden failing reports: for each of the ten verification suites, one name
in ``jetalg.suites`` is replaced by a function that gives a wrong answer, and
``jetalg verify`` must exit 1 with the same stdout, byte for byte, in text
and JSON, as recorded in ``fail_golden.json``.

Passing records carry no values, so this file is what pins the failure
witness: the check ids, the params, the string form of every sampled input
and the repro command.  Regenerate the data only when an output is meant to
change, and say which one changed and why:

    PYTHONPATH=src python tests/test_fail_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from jetalg import suites
from jetalg.cli import main
from jetalg.envalg import av_to_tensor, u_mul
from jetalg.jetfields import _remainder
from jetalg.jets import jet_of
from jetalg.liealg import phi, psi

GOLDEN = Path(__file__).resolve().parent / "fail_golden.json"

_oracle = suites.bracket_oracle

# suite id -> (name in jetalg.suites, a replacement that answers wrongly)
FAULTS = {
    "taylor": ("taylor_identity_check", lambda f, k: False),
    "jet-hom": ("jet_of", lambda f, k: jet_of(f + f.chart.one(), k)),
    "smash-bracket": ("bracket_oracle", lambda a1, g1, a2, g2, k:
                      -_oracle(a1, g1, a2, g2, k)),
    "iso-roundtrip": ("psi", lambda p, k: -psi(p, k)),
    "iso-hom": ("phi", lambda u: -phi(u)),
    "localization": ("_remainder", lambda g, ginv, v, m, k:
                     -_remainder(g, ginv, v, m, k)),
    "pbw": ("u_mul", lambda a, b, r: u_mul(b, a, r)),
    "av-tensor": ("av_to_tensor", lambda word, r: av_to_tensor(word[::-1], r)),
    "transition": ("filtration_check", lambda tp, m, p, r: False),
    "cocycle": ("cocycle_check", lambda atlas, triple, m, p, r: False),
}

CASES = [(sid, fmt) for sid in suites.SUITE_IDS for fmt in ("text", "json")]


def argv(sid, fmt):
    return ["verify", "--suite", sid, "--seed", "5", "--samples", "1",
            "--orders", "1,2", "--format", fmt]


def run(sid, fmt):
    """Exit code and stdout of the suite with its fault in place."""
    name, wrong = FAULTS[sid]
    saved = getattr(suites, name)
    setattr(suites, name, wrong)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv(sid, fmt))
    finally:
        setattr(suites, name, saved)
    return code, out.getvalue()


def _golden():
    return {(case["suite"], case["format"]): case
            for case in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_suite_and_format():
    assert set(_golden()) == set(CASES)


@pytest.mark.parametrize("sid,fmt", CASES, ids=lambda v: v)
def test_failing_report_matches_golden(sid, fmt):
    want = _golden()[(sid, fmt)]
    code, out = run(sid, fmt)
    assert code == want["exit"] == 1
    assert out == want["stdout"]


def record():
    cases = []
    for sid, fmt in CASES:
        code, out = run(sid, fmt)
        cases.append({"suite": sid, "format": fmt, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
