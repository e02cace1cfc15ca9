"""Check records and reports for the verification suites.

A record names the check, the mathematical statement it verifies, its
parameters, the pass/fail status, and, on failure, a witness holding the
sampled inputs as strings plus a single CLI command that reproduces the run.
Reports serialize deterministically: stable key order, no timestamps, exact
rational strings only."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    check: str
    statement: str
    params: dict
    status: str  # "pass" | "fail"
    witness: dict | None = None

    def to_data(self):
        out = {
            "check": self.check,
            "statement": self.statement,
            "params": self.params,
            "status": self.status,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    version: str
    seed: int
    targets: dict
    params: dict
    records: list = field(default_factory=list)

    def extend(self, records):
        self.records.extend(records)

    def counts(self):
        passed = sum(1 for r in self.records if r.status == "pass")
        return passed, len(self.records) - passed

    def passed(self):
        return all(r.status == "pass" for r in self.records)

    def to_data(self):
        passed, failed = self.counts()
        return {
            "version": self.version,
            "seed": self.seed,
            "targets": self.targets,
            "params": self.params,
            "summary": {"passed": passed, "failed": failed},
            "records": [r.to_data() for r in self.records],
        }

    def to_json(self):
        return json.dumps(self.to_data(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = []
        for r in self.records:
            lines.append(f"[{r.status.upper():4}] {r.check}  ({r.statement})")
            if r.witness:
                for key, val in sorted(r.witness.items()):
                    lines.append(f"        {key}: {val}")
        passed, failed = self.counts()
        lines.append(f"{passed} passed, {failed} failed (seed {self.seed})")
        return "\n".join(lines) + "\n"
