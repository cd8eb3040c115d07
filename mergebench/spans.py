"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, start, end and parent; the spans of one request
share a request id.  Spans stay in memory until :meth:`Recorder.dump`
writes them out as JSON lines at the end of a run.  A layer's self time
is its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "rid", "parent", "name", "start", "end")

    def __init__(self, sid: int, rid: int, parent: Optional[int], name: str,
                 start: float) -> None:
        self.sid = sid
        self.rid = rid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Collects spans; ``request()`` opens a root, ``span()`` a child."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._rid = 0

    @contextmanager
    def request(self, name: str) -> Iterator[Span]:
        self._rid += 1
        with self.span(name) as root:
            yield root

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), self._rid, parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def nest(self, root: Span, found: List[Tuple[str, float, float]]) -> None:
        """Add finished spans ``(name, start, end)`` to *root*'s request.

        Spans recorded elsewhere (the program's own ``repro.obs`` spans,
        the storage wrapper's calls) carry no link to ours; each becomes
        a child of the innermost span of the request that contains it.
        """
        ours = [(s.start, -s.end, 0, s) for s in self.spans
                if s.rid == root.rid and s is not root]
        theirs = [(start, -end, 1, name) for name, start, end in found]
        stack = [root]
        for start, neg_end, is_new, item in sorted(ours + theirs,
                                                  key=lambda e: e[:3]):
            while len(stack) > 1 and stack[-1].end < -neg_end:
                stack.pop()
            if is_new:
                item = Span(len(self.spans), root.rid, stack[-1].sid, item, start)
                item.end = -neg_end
                self.spans.append(item)
            stack.append(item)

    def per_request_ms(self, name: str) -> List[float]:
        """Total duration of spans called *name* in each request."""
        totals: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.name == name:
                totals[s.rid] += s.ms
        return list(totals.values())

    def self_ms(self) -> Dict[int, float]:
        """Self time of every span: duration minus direct children."""
        child_ms: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_ms[s.parent] += s.ms
        return {s.sid: s.ms - child_ms[s.sid] for s in self.spans}

    def unattributed_share(self) -> float:
        """Share of root-span time no child span accounts for."""
        own = self.self_ms()
        roots = [s for s in self.spans if s.parent is None]
        total = sum(s.ms for s in roots)
        return sum(own[s.sid] for s in roots) / total if total else 0.0

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "request": s.rid, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


class GcPauses:
    """Wall time spent in collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses_ms: List[float] = []
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pauses_ms.append((time.perf_counter() - self._start) * 1e3)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def total_ms(self) -> float:
        return sum(self.pauses_ms)
