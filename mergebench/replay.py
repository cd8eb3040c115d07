"""In-process replay of a pass, with a benchmark span around each layer call.

Usage (``PYTHONPATH`` at the checkout's ``src``)::

    python mergebench/replay.py DATA_DIR REQUESTS SKIP SPANS

Opens a service on the empty DATA_DIR and replays REQUESTS, one a
line, through the calls the HTTP front end makes; the first SKIP lines
run untimed.  ``p BODY`` is a ``POST /v1/schemas`` body: ``json.loads``
→ ``schema_from_dict`` → ``MergeService.register``.  ``q CLASS`` is a
query and ``v CLASS`` a view of the class's component, each with its
encode.  Then it closes the service and times ``MergeService.open`` on
the directory the replay wrote: recovery from the log.

``repro.obs`` is enabled, so ``register`` records its own
``service.plan`` / ``service.rebuild`` / ``service.snapshot`` spans; a
delegating storage backend times ``append``, ``load_state`` and
``records`` around the real :class:`FileBackend`.  Spans go to SPANS at
the end; the last stdout line is a JSON summary.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import GcPauses, Recorder  # noqa: E402
from stats import CLOSURE_COUNTERS, hit_rate  # noqa: E402

from repro import obs  # noqa: E402
from repro.io.json_io import schema_from_dict, schema_to_dict  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.obs.tracing import tracer  # noqa: E402
from repro.perf.interning import intern_stats  # noqa: E402
from repro.perf.memo import cache_stats  # noqa: E402
from repro.service import MergeService  # noqa: E402
from repro.service.storage import FileBackend, LogRecord, ServiceState  # noqa: E402

Found = List[Tuple[str, float, float]]


class TimedBackend:
    """A :class:`FileBackend` whose calls are timed into *found*."""

    def __init__(self, inner: FileBackend) -> None:
        self.inner = inner
        self.found: Found = []
        self.replayed = 0

    def _timed(self, name: str, fn: Any, *args: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.found.append((name, start, time.perf_counter()))

    def append(self, record: LogRecord) -> int:
        return self._timed("storage.append", self.inner.append, record)

    def load_state(self) -> Optional[ServiceState]:
        return self._timed("storage.load_state", self.inner.load_state)

    def records(self, after: int = 0) -> Iterator[Tuple[int, LogRecord]]:
        # Span from the first read to exhaustion: decode plus the
        # service's replay of each record between yields.
        start = time.perf_counter()
        try:
            for item in self.inner.records(after):
                if item[0] > after:
                    self.replayed += 1
                yield item
        finally:
            self.found.append(("storage.replay", start, time.perf_counter()))

    def save_state(self, state: ServiceState) -> None:
        self._timed("storage.save_state", self.inner.save_state, state)

    def close(self) -> None:
        self.inner.close()


class ProgramSpans:
    """Collects the program's finished ``repro.obs`` spans."""

    def __init__(self) -> None:
        self.found: Found = []

    def __call__(self, span: Any) -> None:
        self.found.append((span.name, span.start_s, span.end_s))


class Replay:
    def __init__(self) -> None:
        self.rec = Recorder()
        self.program = ProgramSpans()
        self.backend: Optional[TimedBackend] = None
        self.query_encode_ms: List[float] = []
        obs.enable()
        tracer().add_sink(self.program)

    def collect(self, root: Any) -> None:
        """Nest the program's and the backend's spans under *root*."""
        found = self.program.found
        if self.backend is not None:
            found += self.backend.found
            self.backend.found = []
        self.rec.nest(root, found)
        self.program.found = []

    def post(self, body: bytes) -> None:
        rec = self.rec
        with rec.request("post") as root:
            with rec.span("parse"):
                doc = json.loads(body)
            with rec.span("decode"):
                schemas = [schema_from_dict(d) for d in doc["schemas"]]
            with rec.span("register"):
                self.service.register(schemas)
        self.collect(root)

    def open(self, data_dir: str) -> None:
        self.backend = TimedBackend(FileBackend(data_dir))
        with self.rec.request("open") as root:
            self.service = MergeService(storage=self.backend)
        self.collect(root)

    def request(self, line: bytes) -> None:
        kind, _, arg = line.partition(b" ")
        if kind == b"p":
            self.post(arg)
            return
        rec = self.rec
        with rec.request("get") as root:
            if kind == b"q":
                with rec.span("read"):
                    answer = self.service.query(arg.decode()).to_dict()
                with rec.span("encode") as encode:
                    json.dumps(answer)
                self.query_encode_ms.append(encode.ms)
            else:
                with rec.span("read"):
                    view = self.service.merged_view(arg.decode())
                with rec.span("encode"):
                    json.dumps({"view": schema_to_dict(view)})
        self.collect(root)


def replay(data_dir: str, requests: str, skip: int, spans: str) -> Dict[str, Any]:
    lines = Path(requests).read_bytes().splitlines()
    replay = Replay()
    replay.open(data_dir)
    rec = replay.rec
    for line in lines[:skip]:
        replay.request(line)
    rec.spans.clear()
    log = Path(data_dir) / FileBackend.LOG_NAME
    log_before = log.stat().st_size
    counters = {name: REGISTRY.value(name) for name in CLOSURE_COUNTERS}
    memo, interned = cache_stats(), intern_stats()
    timed = lines[skip:]
    with GcPauses() as gc_pauses:
        for line in timed:
            replay.request(line)
    posted = [json.loads(line[2:]) for line in timed if line.startswith(b"p ")]
    out: Dict[str, Any] = {
        "requests": len(timed),
        "posts": len(posted),
        "schemas": sum(len(doc["schemas"]) for doc in posted),
        "post_ms": rec.per_request_ms("post"),
        "parse_ms": rec.per_request_ms("parse"),
        "decode_ms": rec.per_request_ms("decode"),
        "register_ms": rec.per_request_ms("register"),
        "plan_ms": rec.per_request_ms("service.plan"),
        "rebuild_ms": rec.per_request_ms("service.rebuild"),
        "commit_ms": rec.per_request_ms("service.snapshot"),
        "append_ms": rec.per_request_ms("storage.append"),
        "read_ms": rec.per_request_ms("read"),
        "encode_ms": rec.per_request_ms("encode"),
        "query_encode_ms": replay.query_encode_ms,
        "log_bytes": log.stat().st_size - log_before,
        "counters": {n: REGISTRY.value(n) - counters[n] for n in CLOSURE_COUNTERS},
        "memo_hit_rate": hit_rate(cache_stats(), memo),
        "interning_hit_rate": hit_rate(intern_stats(), interned),
        "gc_pause_ms": gc_pauses.total_ms,
        "gc_pauses_ms": [p for p in gc_pauses.pauses_ms if p >= 10.0],
        "unattributed_share": rec.unattributed_share(),
    }
    replay.service.close()
    replay.open(data_dir)
    out.update({
        "open_ms": rec.per_request_ms("open")[0],
        "load_state_ms": sum(rec.per_request_ms("storage.load_state")),
        "replay_ms": sum(rec.per_request_ms("storage.replay")),
        "replayed_records": replay.backend.replayed,
    })
    rec.dump(Path(spans))
    replay.service.close()
    return out


def main() -> int:
    out = replay(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
