"""Replay the seed-42 report hash and ``tests/cli_golden.json`` under other
Python versions.

    python3 tools/xver.py [VERSION ...]

VERSION is a version prefix (default: 3.10 3.12 3.13).  For each, the tool
takes the newest interpreter under ``~/.pyenv/versions`` whose directory
name starts with it and skips the version when there is none.  Each
interpreter runs this file as a child, from the repository root, with
``PYTHONPATH=src`` and ``PYTHONDONTWRITEBYTECODE=1`` (no ``__pycache__`` is
left in ``src/``: byte code in the checkout moves the benchmark's
``setup_s``).  The child

* writes ``verify --suite all --seed 42 --format json`` through ``cli.main``
  and checks its sha256 against ``SEED_42_SHA256``, and
* replays every ``tests/cli_golden.json`` entry through ``cli.main`` and
  compares the exit code and standard output byte for byte,

and prints one line per difference.  The tool prints one line per version
and exits 1 when any child reports a difference or fails, else 0.  Standard
library only: the other interpreters have neither pytest nor hypothesis.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERSIONS = ("3.10", "3.12", "3.13")
SEED_42_SHA256 = "6c28334c798364fabbe27537d03476626e9ba22f50a0ebf475c45361e2fc136e"
_CHILD = "--child"


def interpreter(version):
    """Path of the newest ~/.pyenv interpreter for a version prefix, or None."""
    root = os.path.expanduser(os.path.join("~", ".pyenv", "versions"))
    found = [d for d in glob.glob(os.path.join(root, version + "*"))
             if os.path.basename(d).startswith(version + ".")
             and os.path.isfile(os.path.join(d, "bin", "python3"))]
    if not found:
        return None
    newest = max(found, key=lambda d: [int(p) for p in os.path.basename(d).split(".")
                                       if p.isdigit()])
    return os.path.join(newest, "bin", "python3")


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def child():
    """Compare this interpreter's outputs with the recorded ones; print
    each difference and return 1 if there is one."""
    from jetalg.cli import main

    diffs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        code, _ = _run(main, ["verify", "--suite", "all", "--seed", "42",
                              "--format", "json", "--out", path])
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    if code != 0 or digest != SEED_42_SHA256:
        diffs.append(f"seed-42 report: exit {code}, sha256 {digest}")
    with open(os.path.join(ROOT, "tests", "cli_golden.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        code, out = _run(main, case["argv"])
        if (code, out) != (case["exit"], case["stdout"]):
            diffs.append(f"golden {' '.join(case['argv'])}: exit {code}")
    for line in diffs:
        print(line)
    print(f"seed-42 report and {len(cases)} golden cases: {len(diffs)} differences")
    return 1 if diffs else 0


def main(argv):
    if argv[1:] == [_CHILD]:
        return child()
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    status = 0
    for version in argv[1:] or VERSIONS:
        exe = interpreter(version)
        if exe is None:
            print(f"{version}: skipped, not installed")
            continue
        proc = subprocess.run([exe, os.path.abspath(__file__), _CHILD], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            status = 1
        print(f"{version} ({exe}): {'FAILED' if proc.returncode else 'ok'}")
        for line in (proc.stdout + proc.stderr).strip().splitlines():
            print(f"  {line}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
