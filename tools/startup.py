"""What importing jetalg costs a fresh process, module by module.

    python3 tools/startup.py

The tool runs one clean child of this interpreter that imports
``jetalg.cli``, what every ``jetalg`` command imports: ``-S`` (no
``site``, so no ``.pth`` file from site-packages is loaded), ``-X
importtime``, ``PYTHONDONTWRITEBYTECODE=1`` and ``src`` first on
``PYTHONPATH``.  It prints

* the total import milliseconds of the child (the sum of every module's
  self time, the interpreter's own start-up imports included),
* each jetalg module's self and cumulative milliseconds, in import order,
* the standard-library top-level modules the import loads beyond a bare
  ``-S`` interpreter.

Byte code already in ``src`` is read; none is written, so a checkout
without ``__pycache__`` shows the compile time too.  Timings vary from run
to run; only the module set is exact.  Standard library only.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE = ("import sys\n"
        "before = set(sys.modules)\n"
        "import jetalg.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n")


def run_child():
    """(rows, loaded) of one clean child importing ``jetalg.cli``: rows are
    the ``-X importtime`` lines as (module, self_us, cumulative_us) in
    import order, loaded the sorted top-level names, jetalg's excluded, of
    the standard-library modules the import added to ``sys.modules``."""
    path = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(p for p in (path, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", CODE], env=env,
                          capture_output=True, text=True, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        rows.append((name.strip(), int(self_us), int(cum_us)))
    loaded = {m.split(".")[0] for m in proc.stdout.split()}
    return rows, sorted(loaded - {"jetalg"})


def main():
    rows, loaded = run_child()
    total = sum(self_us for _, self_us, _ in rows)
    print(f"python {sys.version.split()[0]} -S -X importtime, import jetalg.cli")
    print(f"total import {total / 1000:.1f} ms ({len(rows)} modules)")
    print("jetalg modules (self ms, cumulative ms):")
    for name, self_us, cum_us in rows:
        if name.split(".")[0] == "jetalg":
            print(f"  {name:20} {self_us / 1000:7.2f} {cum_us / 1000:7.2f}")
    print(f"standard library beyond a bare -S interpreter ({len(loaded)}): {' '.join(loaded)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
