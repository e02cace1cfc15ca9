"""Check records and reports for the verification suites.

A record is the dict the report prints: the check, the mathematical
statement it verifies, its parameters, the pass/fail status, and, on
failure, a witness holding the sampled inputs as strings plus a single CLI
command that reproduces the run.  Reports serialize deterministically
through ``dumps``: stable key order, no timestamps, exact rational strings
only."""

from __future__ import annotations

import json


def dumps(data):
    """The JSON text of every report and CLI result: sorted keys, an indent
    of 2 and a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class Report:
    def __init__(self, version, seed, targets, params):
        self.version = version
        self.seed = seed
        self.targets = targets
        self.params = params
        self.records = []

    def counts(self):
        passed = sum(1 for r in self.records if r["status"] == "pass")
        return passed, len(self.records) - passed

    def passed(self):
        return all(r["status"] == "pass" for r in self.records)

    def to_data(self):
        passed, failed = self.counts()
        return {
            "version": self.version,
            "seed": self.seed,
            "targets": self.targets,
            "params": self.params,
            "summary": {"passed": passed, "failed": failed},
            "records": self.records,
        }

    def to_json(self):
        return dumps(self.to_data())

    def to_text(self):
        lines = []
        for r in self.records:
            lines.append(f"[{r['status'].upper():4}] {r['check']}  ({r['statement']})")
            for key, val in sorted(r.get("witness", {}).items()):
                lines.append(f"        {key}: {val}")
        passed, failed = self.counts()
        lines.append(f"{passed} passed, {failed} failed (seed {self.seed})")
        return "\n".join(lines) + "\n"
