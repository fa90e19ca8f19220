"""Operation and check counts shared by the workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Tally:
    """Operations attempted and failed; a failed check counts as a failure."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def check(self, name: str, failure: Optional[str]) -> None:
        """Record one check; `failure` describes what went wrong, None if it passed."""
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0})
        if failure is None:
            entry["passed"] += 1
        else:
            entry["failed"] += 1
            self.failed += 1
            entry.setdefault("first_failure", failure)
