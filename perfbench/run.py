"""jetalg benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload verify-all|deep-jet|transport|all
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from anywhere; it measures the jetalg sources in ``src/`` next to
this directory.  Everything runs one process at a time, without threads:
this process only starts children (``child.py``) and aggregates.

``--trace 0`` measures the end-to-end metrics, with tracing off:

* set-up: ten set-up-only children after one unmeasured warm-up child,
  plus the set-up of every pass child; ``setup_s`` is the median;
* passes: one fresh child per pass, so every cache in jetalg starts cold,
  as on a CLI invocation; passes repeat until S seconds have gone by, at
  least four.  verify-all's passes run at the seeds N, N + 1000, ...
  (see ``workloads.py``); the other workloads repeat N.  A check's latency
  is its median over the passes; ``check_p50_ms`` and ``check_p90_ms`` are
  percentiles of those over the checks, and ``wall_s`` is their sum.
  ``peak_rss_mb`` is the median over the passes.

Every time but ``peak_rss_mb`` is given in reference seconds: the host's
speed swings by 1.7x, in episodes of seconds to minutes, so each check's
latency, and each set-up time, is scaled by PROBE_REF_S over the time a
fixed probe kernel took right after it (see ``workloads.probe``).  The
log lines also give the plain times.

``--trace 1`` runs one untraced pass and two traced passes of the same
seed and reports the per-layer metrics (see ``layers.py``), checking that
every exact count is identical in the two traced passes;
``trace.overhead_s`` is the traced wall time minus the untraced one.

Every pass is gated for correctness (see ``workloads.py``): no check may
fail or raise, the passes of a run must see identical inputs, and
verify-all must reproduce the roadmap's report hash at seed 42.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for a reader, together with ``failed_frac``.  ``--size tiny`` shrinks
every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOAD_NAMES = ("verify-all", "deep-jet", "transport")
SETUP_SAMPLES = 10
MIN_PASSES = 4
TRACED_PASSES = 2
# A workload's run must end within 180 s: no pass starts that would end
# after DEADLINE_S, and no child may outlive CHILD_TIMEOUT_S.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

class BenchError(Exception):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(line):
    print(line, flush=True)


def spawn(workload, seed, size, mode, started):
    """Run one child and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    remaining = CHILD_TIMEOUT_S - (monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--size", size, "--mode", mode]
    spawned = monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} {mode} child timed out") from e
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} child exited {proc.returncode}:\n"
            + proc.stderr[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"{workload} {mode} child printed no result") from e


def gate(workload, size, passes):
    """Correctness problems over the passes of one run (empty when fine)."""
    import workloads  # needs jetalg on sys.path; see main()
    wl = workloads.WORKLOADS[workload]
    problems = []
    first_of_seed = {}
    for i, res in enumerate(passes):
        for label in res["failures"][:10]:
            problems.append(f"pass {i}: check failed: {label}")
        problems.extend(
            f"pass {i}: {p}" for p in wl.gate(res["seed"], size, res))
        first = first_of_seed.setdefault(res["seed"], res)
        for key in ("input_sha256", "details"):
            if res[key] != first[key]:
                problems.append(f"passes of seed {res['seed']} disagree on {key}")
    if any(res["checks"] != passes[0]["checks"] for res in passes[1:]):
        problems.append("passes of one run disagree on the number of checks")
    return problems


def measure(workload, seed, seconds, size, started):
    """End-to-end run: returns (metrics, passes)."""
    import workloads
    stride = workloads.WORKLOADS[workload].seed_stride
    ref = workloads.PROBE_REF_S
    spawn(workload, seed, size, "setup", started)  # warm-up, not measured
    setups = [spawn(workload, seed, size, "setup", started)
              for _ in range(SETUP_SAMPLES)]
    passes = []
    t0 = monotonic()
    while True:
        passes.append(spawn(workload, seed + stride * len(passes), size,
                            "pass", started))
        elapsed = monotonic() - t0
        if len(passes) >= MIN_PASSES and (
                elapsed >= seconds
                or monotonic() - started + passes[-1]["wall_s"] > DEADLINE_S):
            break
    setups += passes
    med = statistics.median
    # Each latency is scaled to reference speed by the probe taken right
    # after it.  The passes run the same checks in the same order (on other
    # inputs in verify-all), so a check's latency is its median over them;
    # the percentiles are taken over the checks.
    per_check = [med(lats) for lats in zip(*(
        [lat * ref / pr for lat, pr in zip(p["latencies_s"], p["probes_s"])]
        for p in passes))]
    per_check_ms = [x * 1e3 for x in per_check]
    log(f"  {len(passes)} passes, {passes[0]['checks']} checks each, "
        f"{len(setups)} set-up samples")
    log(f"  plain times: check time per pass median "
        f"{med(sum(p['latencies_s']) for p in passes):.6g} s, set-up median "
        f"{med(p['setup_s'] for p in setups):.6g} s, probe median "
        f"{med(pr for p in passes for pr in p['probes_s']) * 1e3:.6g} ms "
        f"(reference {ref * 1e3:.6g} ms)")
    return {
        "setup_s": (med(p["setup_s"] * ref / p["setup_probe_s"]
                        for p in setups), "s"),
        "wall_s": (sum(per_check), "s"),
        "check_p50_ms": (med(per_check_ms), "ms"),
        "check_p90_ms": (statistics.quantiles(
            per_check_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in passes), "MB"),
    }, passes


def measure_traced(workload, seed, size, started):
    """Traced run: returns (metrics, passes, problems)."""
    import layers
    untraced = spawn(workload, seed, size, "pass", started)
    traced = [spawn(workload, seed, size, "traced", started)
              for _ in range(TRACED_PASSES)]
    problems = []
    metrics = {}
    for name, unit in layers.metric_names():
        if name == "trace.overhead_s":
            value = (statistics.median(t["wall_s"] for t in traced)
                     - untraced["wall_s"])
        elif name.rsplit(".", 1)[1] in layers.EXACT_STATS:
            value = traced[0]["layers"][name]
            if any(t["layers"][name] != value for t in traced[1:]):
                problems.append(f"count {name} differs between traced passes")
        else:
            value = statistics.median(t["layers"][name] for t in traced)
        metrics[name] = (value, unit)
    by_suite = traced[0]["derive_repeats_by_suite"]
    for sid, roadmap in layers.ROADMAP_DERIVE_REPEATS.items():
        if sid in by_suite:
            calls, ratio = by_suite[sid]
            log(f"  derive repeat ratio in suite {sid}: {ratio:.3f} of "
                f"{calls} calls (roadmap measured {roadmap:.2f})")
    return metrics, [untraced] + traced, problems


def run_workload(workload, seed, seconds, trace, size):
    started = monotonic()
    log(f"workload {workload}  seed {seed}  "
        f"{'traced' if trace else 'end-to-end'}  size {size}")
    if trace:
        metrics, passes, problems = measure_traced(
            workload, seed, size, started)
    else:
        metrics, passes = measure(workload, seed, seconds, size, started)
        problems = []
    problems += gate(workload, size, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) + p["attempted"] - p["checks"]
                 for p in passes)
    first = passes[0]
    if first["input_sha256"]:
        log(f"  inputs sha256 {first['input_sha256']}")
    if "digest" in first["details"]:
        log(f"  report sha256 {first['details']['digest']}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<44} {value:>14.6g} {unit}")
    log(f"  {'failed_frac':<44} {failed / attempted:>14.6g} "
        f"({failed} of {attempted} checks)")
    for p in problems:
        log(f"  INCORRECT: {p}")
    return not problems, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jetalg", "__init__.py")):
        print(f"error: no jetalg sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, att, fail, mets = run_workload(
                name, args.seed, args.seconds, args.trace, args.size)
            correct = correct and ok
            attempted += att
            failed += fail
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({
                prefix + k: {"value": v, "unit": u}
                for k, (v, u) in mets.items()
            })
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
