"""What one benchmark run shares between its workload modules."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, TypeVar

from proc import Child, child_env
from stats import Report, Tally

ChildT = TypeVar("ChildT", bound=Child)


@dataclass
class Context:
    root: Path  # the checkout: holds src/repro
    here: Path  # this directory
    work: Path  # scratch directory of this run, inside the checkout
    seed: int
    seconds: int
    trace: bool
    tally: Tally = field(default_factory=Tally)
    report: Report = field(default_factory=Report)
    children: List[Child] = field(default_factory=list)

    def track(self, child: ChildT) -> ChildT:
        """Remember *child* so :meth:`stop_all` can stop it."""
        self.children.append(child)
        return child

    def stop_all(self) -> None:
        for child in self.children:
            child.reap()

    @property
    def spans_path(self) -> Path:
        return self.work.parent / f"spans-{self.work.name}.jsonl"

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Note how long a stage of the run took (printed, not a metric)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.report.notes.append(f"phase {name}: {time.perf_counter() - start:.1f}s")

    def helper(self, script: str, *args: str, timeout: float = 170) -> Dict[str, Any]:
        """Run a helper script to completion; its last line is JSON."""
        with open(self.work / f"{Path(script).stem}.err", "ab") as err:
            done = subprocess.run(
                [sys.executable, str(self.here / script), *args],
                cwd=self.root, env=child_env(self.root),
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err, timeout=timeout, check=True,
            )
        return json.loads(done.stdout.splitlines()[-1])

    def record_checks(self, outcome: Dict[str, Any]) -> None:
        """Fold a checker's ``{"checks", "failures"}`` into the tally."""
        failures: List[str] = outcome["failures"]
        self.tally.ok(outcome["checks"] - len(failures))
        for reason in failures:
            self.tally.fail(reason)
