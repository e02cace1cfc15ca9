"""Self-test of the benchmark, at tiny workload sizes (about 20 s).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
in both modes and for every workload; that the results are correct at tiny
size; that the gates reject a wrong verify-all report hash, and a missing
check or a wrong input hash in deep-jet and transport; and
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == RESULT_KEYS, f"result keys {sorted(res)}"
    return res


def check_metrics(bench):
    for wl in bench["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            res = result_of(run_bench(
                ROOT, "--workload", wl["name"], "--seed", "42", "--seconds",
                "1", "--trace", trace, "--size", "tiny"))
            assert res["correct"] is True, f"{wl['name']} trace {trace}: incorrect"
            assert res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (
                f"{wl['name']} trace {trace}: missing "
                f"{sorted(set(want) - set(got))}, unexpected "
                f"{sorted(set(got) - set(want))}, units differ on "
                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            for name, val in res["metrics"].items():
                assert isinstance(val["value"], (int, float)), name
                if group == "end_to_end":
                    assert val["value"] > 0, f"{name} is not positive"
            print(f"ok: {wl['name']} trace {trace}: {len(got)} metrics")


def tiny_pass(workload):
    from child import monotonic
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload",
         workload, "--seed", "42", "--size", "tiny", "--mode", "pass",
         "--spawned-at", repr(monotonic())],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout)


def check_wrong_results_caught():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads
    result = tiny_pass("verify-all")
    wl = workloads.VerifyAll()
    wl.expected_sha256 = {("tiny", 42): result["details"]["digest"]}
    assert wl.gate(42, "tiny", result) == [], "gate rejects the true hash"
    wl.expected_sha256 = {("tiny", 42): "0" * 64}
    assert any("sha256" in p for p in wl.gate(42, "tiny", result)), (
        "a wrong expected report hash was not caught")
    assert workloads.VerifyAll.expected_sha256[("full", 42)] == (
        workloads.VERIFY_ALL_SEED42_SHA256)
    print("ok: verify-all: a wrong expected report hash is caught")
    for name in ("deep-jet", "transport"):
        wl = workloads.WORKLOADS[name]
        result = tiny_pass(name)
        assert wl.gate(42, "tiny", result) == [], f"{name}: gate rejects a true pass"
        assert wl.gate(42, "tiny", dict(result, checks=result["checks"] - 1)), (
            f"{name}: a missing check was not caught")
        assert wl.gate(42, "tiny", dict(result, input_sha256="0" * 64)), (
            f"{name}: a wrong input hash was not caught")
        print(f"ok: {name}: a missing check and a wrong input hash are caught")


def check_fails_without_sources(bench):
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "--workload", bench["workloads"][0]["name"],
                         "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0, "benchmark succeeded without jetalg sources"
    assert "{" not in proc.stdout, "benchmark printed a result without sources"
    print("ok: exits", proc.returncode, "without jetalg sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check_metrics(bench)
    check_wrong_results_caught()
    check_fails_without_sources(bench)
    print("selftest passed")


if __name__ == "__main__":
    main()
