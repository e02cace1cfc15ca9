"""What the benchmark in ``perfbench/`` relies on in ``jetalg``.

``perfbench/workloads.py`` times each check as the gap between two calls of
``SuiteEnv.record``, which it replaces for the pass, and wraps each entry of
``_SUITE_FUNCS``; ``perfbench/layers.py`` finds the suite functions in the
module by their ``__name__``, and a traced run patches every span of
``perfbench/layers.py`` by its jetalg attribute name.  Each of the three
workloads' tiny passes at seed 42 must meet the gate the benchmark applies
to it, untraced in process and traced in a ``child.py`` process (whose
probes read ``RingElem.s`` and ``RingElem.num``).  The files are imported
or run here as they are, so a change to jetalg that breaks a hook, a span or
a workload fails the tests, not only a benchmark run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from jetalg import sampling, suites
from jetalg.fixtures import standard_chart
from jetalg.jetfields import JetField

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _load("perfbench_workloads", WORKLOADS)


def test_every_benchmark_span_resolves_to_a_jetalg_attribute(monkeypatch):
    # layers.py imports its sibling spans.py, as run.py does with
    # perfbench/ on sys.path
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    try:
        layers = _load("perfbench_layers", WORKLOADS.parent / "layers.py")
    finally:
        sys.modules.pop("spans", None)
    assert layers.SPANS and layers.SAMPLER_METHODS
    for name, owner, attr, _stats in layers.SPANS:
        if isinstance(owner, type):
            assert owner.__module__.startswith("jetalg."), name
            assert callable(owner.__dict__.get(attr)), name
        else:
            assert owner.__name__.startswith("jetalg."), name
            assert callable(getattr(owner, attr, None)), name
    assert [sid for _name, sid, _fn in layers.SUITE_SPANS] == list(suites.SUITE_IDS)
    for name, _sid, fn_name in layers.SUITE_SPANS:
        assert callable(getattr(suites, fn_name, None)), name
    for meth in layers.SAMPLER_METHODS:
        assert callable(getattr(sampling.Sampler, meth, None)), meth


def test_verify_all_tiny_pass_meets_its_gate():
    workloads = _workloads()
    record, funcs = suites.SuiteEnv.record, dict(suites._SUITE_FUNCS)
    wl = workloads.VerifyAll()
    details = wl.run(wl.setup(42, "tiny"), None, 42, "tiny", workloads.Verdicts())
    assert wl.gate(42, "tiny", {"details": details}) == []
    assert suites.SuiteEnv.record is record and suites._SUITE_FUNCS == funcs


@pytest.mark.parametrize("name", ["transport", "deep-jet"])
def test_generated_tiny_pass_meets_its_gate(name):
    # The drawn inputs must hash to the recorded seed-42 value, the pass
    # must run the expected number of checks, and every check must hold.
    workloads = _workloads()
    wl = workloads.WORKLOADS[name]
    state = wl.setup(42, "tiny")
    inputs, input_sha256 = wl.inputs(state, 42, "tiny")
    verdicts = workloads.Verdicts()
    wl.run(state, inputs, 42, "tiny", verdicts)
    result = {"checks": len(verdicts.latencies), "input_sha256": input_sha256}
    assert wl.gate(42, "tiny", result) == []
    assert verdicts.failures == []


@pytest.mark.parametrize("name", ["verify-all", "deep-jet", "transport"])
def test_traced_tiny_pass_runs_every_probe(name):
    # the traced child wraps every span of layers.py, runs its probes and
    # reports one exact count per counter: no failure, every check made
    out = subprocess.run(
        [sys.executable, str(WORKLOADS.parent / "child.py"), "--workload", name,
         "--seed", "42", "--size", "tiny", "--mode", "traced", "--spawned-at", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout)
    wl = _workloads().WORKLOADS[name]
    want = (sum(wl.sizes["tiny"][2].values()) if name == "verify-all"
            else wl.check_counts["tiny"])
    assert result["failures"] == [] and result["checks"] == result["attempted"] == want
    counts = {k: v for k, v in result["layers"].items()
              if k.rsplit(".", 1)[1] in ("calls", "coef_mults", "terms_in", "max_s")}
    assert counts and all(type(v) is int and v >= 0 for v in counts.values())
    assert counts["charts.RingElem.derive.calls"] > 0


def test_suite_functions_are_module_functions_under_their_names():
    assert list(suites._SUITE_FUNCS) == list(suites.SUITE_IDS)
    for f in suites._SUITE_FUNCS.values():
        assert getattr(suites, f.__name__) is f


def test_each_record_is_made_before_the_next_check_starts(monkeypatch):
    # Per smash-bracket case: one JetField bracket (u, w) for the oracle
    # check, its record, six more for the Lie check, then the Lie and anchor
    # records.  A suite that computed the case before recording it would
    # log all seven brackets first.
    log = []
    bracket, record = JetField.bracket, suites.SuiteEnv.record

    def logged_bracket(self, other):
        log.append("bracket")
        return bracket(self, other)

    def logged_record(env, suite, check, *rest):
        log.append(check.rsplit("/", 1)[1])
        return record(env, suite, check, *rest)

    monkeypatch.setattr(JetField, "bracket", logged_bracket)
    monkeypatch.setattr(suites.SuiteEnv, "record", logged_record)
    suites.run_verification(
        "smash-bracket", [standard_chart("loc_x")], None, [1], 2, 42)
    case = ["bracket", "oracle"] + ["bracket"] * 6 + ["lie", "anchor"]
    assert log == case * 2
