"""Span tracer for the traced benchmark pass.

The tracer wraps named functions and methods of the installed ``jetalg``
modules from outside the library: nothing under ``src/`` is edited.  Each
wrapped call is a span.  For every span name it keeps

* ``calls``   -- number of calls, recursive ones included;
* ``self_s``  -- time inside the span minus the time of wrapped child spans;
* ``total_s`` -- time of outermost activations only, so recursion is not
  counted twice;

plus the exact counters a probe adds (``coef_mults``, ``terms_in``,
``max_s``) and, for memo candidates, how many calls repeat an argument tuple
already seen in the pass (``repeat_ratio``).

The tracer's own bookkeeping (probes, clock reads) runs outside the timed
interval of the span it belongs to and is subtracted from the parent span,
so self times stay attributed to library code.  Its total cost still shows
as ``trace.overhead_s``: the traced pass's wall time minus an untraced one.

Because modules bind each other's names at import (``charts`` imports
``poly_div_exact``, ``suites`` keeps its suite functions in a dict), a
function is patched wherever it is bound: in every ``jetalg`` module's
globals and in dicts held by those modules.  The benchmark itself calls
jetalg functions through their modules (``jets.jet_of``), so its calls are
traced too.  A method is patched in its class under every alias
(``__radd__ = __add__``).
"""

from __future__ import annotations

import sys
import time


class SpanStat:
    __slots__ = ("calls", "self_s", "total_s", "counters", "seen", "repeats")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counters = {}
        self.seen = None
        self.repeats = 0

    def add(self, counter, n):
        self.counters[counter] = self.counters.get(counter, 0) + n

    def top(self, counter, n):
        if n > self.counters.get(counter, 0):
            self.counters[counter] = n

    def note_key(self, key):
        """Count a repeat when an equal argument key was seen before."""
        if self.seen is None:
            self.seen = set()
        if key in self.seen:
            self.repeats += 1
        else:
            self.seen.add(key)


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []
        self._depth = {}

    def stat(self, name):
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = SpanStat()
        return got

    def wrap(self, name, fn, probe=None, post=None):
        """Return a wrapper that records fn's calls as spans called `name`.

        probe(stat, args) runs before the call and post(stat, result) after
        it; both are excluded from the span's times."""
        stat = self.stat(name)
        stack = self._stack
        depth = self._depth
        depth[name] = 0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            stat.calls += 1
            if probe is not None:
                probe(stat, args)
            frame = [0.0]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                spent = clock() - start
                if post is not None:
                    post(stat, result)
                return result
            except BaseException:
                spent = clock() - start
                raise
            finally:
                stack.pop()
                depth[name] = level
                stat.self_s += spent - frame[0]
                if level == 0:
                    stat.total_s += spent
                if stack:
                    stack[-1][0] += clock() - entered

        return traced


def patch_function(module, attr, wrapper):
    """Rebind module.attr to wrapper in every jetalg module, in its globals
    and in dicts it holds.  Returns the number of bindings replaced."""
    original = getattr(module, attr)
    hits = 0
    jetalg_modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "jetalg" or name.startswith("jetalg."))
    ]
    for mod in jetalg_modules:
        space = vars(mod)
        for key, val in list(space.items()):
            if val is original:
                space[key] = wrapper
                hits += 1
            elif isinstance(val, dict):
                for k2, v2 in list(val.items()):
                    if v2 is original:
                        val[k2] = wrapper
                        hits += 1
    return hits


def patch_method(cls, attr, wrapper):
    """Set wrapper on cls under attr and every alias of the same function."""
    original = cls.__dict__[attr]
    for k in [k for k, v in cls.__dict__.items() if v is original]:
        setattr(cls, k, wrapper)
