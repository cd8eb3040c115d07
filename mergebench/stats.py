"""Summary statistics and failure accounting for the benchmark.

The tail rule: a latency tail is the highest percentile that still has
at least :data:`TAIL_BEYOND` samples above it.  For ``n`` samples that
is the ``(n - 10)``-th smallest value, i.e. percentile ``100·(n-10)/n``.
Because every run of a workload makes the same number of operations,
the percentile is the same on every run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

TAIL_BEYOND = 10
#: The closure engine's work counters in ``repro.obs.metrics.REGISTRY``.
CLOSURE_COUNTERS = ("closure.inserts", "closure.arrows_swept", "closure.components_rebuilt")


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int


def p50(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("p50 of no samples")
    return statistics.median(samples)


def tail(samples: Sequence[float]) -> Tail:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        raise ValueError(
            f"{n} samples cannot support a tail with {TAIL_BEYOND} beyond it "
            "and still lie at or above the median"
        )
    ordered = sorted(samples)
    rank = n - TAIL_BEYOND  # 1-based rank of the tail value
    return Tail(ordered[rank - 1], 100.0 * rank / n, n, n - rank)


def hit_rate(now: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]) -> float:
    """Hits over lookups between two ``{name: {"hits", "misses"}}`` readings."""
    hits = sum(s["hits"] - before.get(k, {}).get("hits", 0) for k, s in now.items())
    misses = sum(s["misses"] - before.get(k, {}).get("misses", 0) for k, s in now.items())
    return hits / (hits + misses) if hits + misses else 0.0


def rate(count: int, seconds: float) -> float:
    if seconds <= 0:
        raise ValueError("rate over a non-positive interval")
    return count / seconds


@dataclass
class Tally:
    """Operations attempted and failed; a failed check is a failed op."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one checked operation; record *reason* if it failed."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Report:
    """Named metrics with units, plus human-readable notes."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def not_entered(self, units: Dict[str, str]) -> None:
        """Report 0 for metrics of layers a workload's traffic never enters.

        Every run prints every metric of the manifest (*units* maps
        each missing name to its unit); a layer the workload does not
        pass through did no work there.
        """
        for name, unit in units.items():
            self.add(name, 0.0, unit)
        if units:
            self.notes.append(f"not entered, reported as 0: {' '.join(units)}")

    def latency_pair(self, tally: Tally, prefix: str, samples_ms: Sequence[float]) -> None:
        """Print ``<prefix>`` p50 and tail from one sample; check tail ≥ p50.

        Printed with the sample count and the tail's percentile; neither
        is a metric (see NOTES.md).
        """
        median = p50(samples_ms)
        t = tail(samples_ms)
        self.notes.append(
            f"{prefix}: n={t.samples} p50={median:.3f}ms "
            f"tail=p{t.percentile:.2f} ({t.beyond} beyond) {t.value:.3f}ms"
        )
        tally.check(t.value >= median, f"{prefix} tail < p50")

    def result(self, tally: Tally) -> Dict[str, object]:
        return {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": self.metrics,
        }
