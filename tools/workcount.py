"""Deterministic work counts for one ``jetalg verify`` run.

    python3 tools/workcount.py SUITE [--chart LABEL ...] [--orders 1,2]
                               [--samples 1] [--seed 42]

SUITE is a verify suite id or ``all``; LABEL is a built-in chart name or a
chart JSON file, and the charts and the atlas default as for ``jetalg
verify``.  The tool loads the atlas, then the charts, then runs
``suites.run_verification`` and prints the run's exit code (0 when every
check passes, else 1) and eight counts of loading the charts (their
derivative tables) and of the run, not of loading the atlas:

* ``add_product.calls`` and ``add_product.pairs`` -- calls of the one
  numerator product loop ``multipoly.add_product`` and the term pairs they
  multiply (``len(a) * len(b)`` per call);
* ``derive.fresh`` -- ``RingElem._derive`` calls, the derivations the
  element memo does not answer;
* ``reduce.calls`` -- ``ChartSpec.reduce`` calls;
* ``invert.fresh`` -- ``RingElem._invert`` calls, the inversions the
  element memo does not answer;
* ``sum_products.calls`` -- calls of the sum-of-products kernel
  ``charts.sum_products``;
* ``lift.calls`` -- ``ChartSpec.lift`` calls (cached or not);
* ``pow.calls`` -- ``RingElem.__pow__`` calls, the powers of ring
  elements taken by binary exponentiation.

Counts are of one fresh process: the charts' power and kernel caches start
empty.  The wrappers are installed from outside the library, as the
benchmark's span tracer does (``perfbench/spans.py``); nothing under
``src/`` is edited.
"""

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]

from jetalg import charts, multipoly  # noqa: E402
from jetalg.charts import ChartSpec, RingElem  # noqa: E402
from jetalg.cli import (  # noqa: E402
    DEFAULT_ATLAS, DEFAULT_CHARTS, _resolve_atlas, _resolve_chart,
)
from jetalg.suites import run_verification  # noqa: E402
from spans import patch_function, patch_method  # noqa: E402

COUNTS = ("add_product.calls", "add_product.pairs", "derive.fresh",
          "reduce.calls", "invert.fresh", "sum_products.calls", "lift.calls",
          "pow.calls")


def install(counts):
    """Wrap the counted functions; each call adds to counts[name]."""
    add_product = multipoly.add_product

    def counted_add_product(out, a, b, f, top):
        counts["add_product.calls"] += 1
        counts["add_product.pairs"] += len(a) * len(b)
        return add_product(out, a, b, f, top)

    patch_function(multipoly, "add_product", counted_add_product)
    patch_function(charts, "sum_products",
                   _counter(counts, "sum_products.calls", charts.sum_products))
    for cls, attr, name in ((RingElem, "_derive", "derive.fresh"),
                            (ChartSpec, "reduce", "reduce.calls"),
                            (RingElem, "_invert", "invert.fresh"),
                            (ChartSpec, "lift", "lift.calls"),
                            (RingElem, "__pow__", "pow.calls")):
        patch_method(cls, attr, _counter(counts, name, cls.__dict__[attr]))


def _counter(counts, name, fn):
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("suite")
    ap.add_argument("--chart", action="append")
    ap.add_argument("--atlas", default=DEFAULT_ATLAS)
    ap.add_argument("--orders", default="1")
    ap.add_argument("--samples", type=int, default=1)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    counts = dict.fromkeys(COUNTS, 0)
    install(counts)
    atlas = _resolve_atlas(args.atlas)
    counts.update(dict.fromkeys(COUNTS, 0))
    labels = args.chart or list(DEFAULT_CHARTS)
    charts = [_resolve_chart(c) for c in labels]
    report = run_verification(args.suite, charts, atlas,
                              [int(k) for k in args.orders.split(",")],
                              args.samples, args.seed, labels, args.atlas)
    print(f"exit {0 if report.passed() else 1}")
    for name in COUNTS:
        print(f"{name} {counts[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
