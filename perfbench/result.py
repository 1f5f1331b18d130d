"""One run's outcome: metrics with units, counts, and gate violations."""

from __future__ import annotations


class Result:
    def __init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        #: Sample count behind each metric that is a statistic.
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        #: Extra numbers kept in the result file, never gated.
        self.details: dict = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def violation(self, text: str) -> None:
        """Record a correctness-gate violation (the run will fail)."""
        if len(self.violations) < 50:
            self.violations.append(text)
        self.details["violations_total"] = (
            self.details.get("violations_total", 0) + 1
        )

    @property
    def correct(self) -> bool:
        return not self.details.get("violations_total")
