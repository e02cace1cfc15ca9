"""Lines of ``src/jetalg`` that a pytest run never executes.

    python3 tools/linecov.py [PYTEST_ARGS...]

Runs ``pytest.main(PYTEST_ARGS)`` in this process (``-q -p no:cacheprovider``
when none are given) with a plugin that records every line run in a module
under ``src/jetalg`` through ``sys.settrace`` and ``threading.settrace``.
Hypothesis replaces the trace function, and a RecursionError raised inside
it clears it, so the plugin installs it again before each test's setup and
call.  The executable lines of a module are the ``co_lines()`` of its code
objects, minus the lines ``srcsize.line_kinds`` classes as docstring.  The
tool prints, per module, the executable lines the run never reached with
their source text, then the total; it exits with pytest's exit code.  The
tracer slows the run down several times over.
"""

import glob
import os
import sys
import threading
import types

import pytest

from srcsize import line_kinds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def executable(text, filename="<module>"):
    """The line numbers of text that hold code: every line of a code
    object's ``co_lines()``, without the docstring lines."""
    lines, todo = set(), [compile(text, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    kinds = line_kinds(text)
    return {n for n in lines if kinds.get(n) != "docstring"}


def unreached(modules):
    """Output lines for [(name, text, hit line numbers)]: per module with an
    unreached line, a header and one line per unreached line with its
    source; then the total."""
    out, missed, total = [], 0, 0
    for name, text, hits in modules:
        lines = executable(text, name)
        gone = sorted(lines - hits)
        missed += len(gone)
        total += len(lines)
        if gone:
            src = text.splitlines()
            out.append(f"{name}: {len(gone)} of {len(lines)} unreached")
            out.extend(f"  {n:4}  {src[n - 1].strip()}" for n in gone)
    out.append(f"total: {missed} of {total} executable lines unreached")
    return out


class Tracer:
    """A pytest plugin recording (filename, line) for every line run in a
    file under ``prefix``."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.hits = set()
        self._inside = {}  # co_filename -> whether it lies under prefix

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self._inside.get(name)
        if inside is None:
            inside = self._inside[name] = os.path.abspath(name).startswith(self.prefix)
        return self._local if inside else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def install(self):
        sys.settrace(self._global)
        threading.settrace(self._global)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.install()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        self.install()
        yield


def main(argv):
    pkg = os.path.join(SRC, "jetalg")
    sys.path.insert(0, SRC)  # import jetalg from here, by absolute path
    tracer = Tracer(pkg + os.sep)
    tracer.install()  # before collection imports jetalg
    try:
        code = pytest.main(argv[1:] or ["-q", "-p", "no:cacheprovider"],
                           plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    hits = {}
    for filename, line in tracer.hits:
        hits.setdefault(os.path.abspath(filename), set()).add(line)
    modules = []
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            modules.append((os.path.basename(path), fh.read(), hits.get(path, set())))
    print("\n".join(unreached(modules)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
