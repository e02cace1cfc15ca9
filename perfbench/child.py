"""One benchmark process: set up a workload and, unless only set-up is
measured, run one pass of it.  Prints a single JSON line on stdout.

    python3 perfbench/child.py --workload NAME --seed N --size full|tiny
        --mode setup|pass|traced --spawned-at T

T is the parent's CLOCK_MONOTONIC reading taken just before it started this
process, so ``setup_s`` covers interpreter start, ``import jetalg`` and
loading and validating the workload's charts and atlas; a speed probe
(``workloads.probe``) follows it, so that run.py can scale it to the
reference speed as it does every check latency.  run.py starts
these processes; running one by hand is only useful for debugging.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OPTIONS = ("--workload", "--seed", "--size", "--mode", "--spawned-at")


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    # No argparse: everything imported before set-up ends counts in setup_s.
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) != 2 * len(OPTIONS) or sorted(opts) != sorted(OPTIONS):
        raise SystemExit(f"usage: child.py {' '.join(o + ' V' for o in OPTIONS)}")
    return (opts["--workload"], int(opts["--seed"]), opts["--size"],
            opts["--mode"], float(opts["--spawned-at"]))


def main():
    workload, seed, size, mode, spawned_at = parse_args(sys.argv[1:])
    sys.path.insert(0, SRC)
    import jetalg
    if os.path.dirname(os.path.abspath(jetalg.__file__)) != os.path.join(SRC, "jetalg"):
        raise SystemExit(f"imported jetalg from {jetalg.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    layer = None
    if mode == "traced":
        import layers
        layer = layers.LayerTrace()
        layer.install()
    state = wl.setup(seed, size)
    setup_s = monotonic() - spawned_at
    import json
    out = {"setup_s": setup_s, "setup_probe_s": workloads.probe()}
    if mode != "setup":
        import resource

        inp, input_sha = wl.inputs(state, seed, size)
        verdicts = workloads.Verdicts()
        start = time.perf_counter()
        details = wl.run(state, inp, seed, size, verdicts)
        wall = time.perf_counter() - start
        checks = len(verdicts.latencies)
        out.update({
            "seed": seed,
            "wall_s": wall,
            "latencies_s": verdicts.latencies,
            "probes_s": verdicts.probes,
            "checks": checks,
            "attempted": checks + details.pop("missing", 0),
            "failures": verdicts.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "input_sha256": input_sha,
            "details": details,
        })
        if layer is not None:
            out["layers"] = layer.metrics()
            out["derive_repeats_by_suite"] = layer.derive_repeats_by_suite()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
