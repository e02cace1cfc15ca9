"""What the benchmark in ``perfbench/`` relies on in ``jetalg.suites``.

``perfbench/workloads.py`` times each check as the gap between two calls of
``SuiteEnv.record``, which it replaces for the pass, and wraps each entry of
``_SUITE_FUNCS``; ``perfbench/layers.py`` finds the suite functions in the
module by their ``__name__``.  The file is imported here as it is, so a
change to the suites that breaks those hooks fails the tests, not only a
benchmark run."""

import importlib.util
from pathlib import Path

from jetalg import suites
from jetalg.fixtures import standard_chart
from jetalg.jetfields import JetField

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_tiny_pass_meets_its_gate():
    workloads = _workloads()
    record, funcs = suites.SuiteEnv.record, dict(suites._SUITE_FUNCS)
    wl = workloads.VerifyAll()
    details = wl.run(wl.setup(42, "tiny"), None, 42, "tiny", workloads.Verdicts())
    assert wl.gate(42, "tiny", {"details": details}) == []
    assert suites.SuiteEnv.record is record and suites._SUITE_FUNCS == funcs


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
