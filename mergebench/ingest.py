"""ingest: the durable write path, with a paced reader on the side.

The server starts on an empty data directory (fsync on, no periodic
cuts).  Set-up posts a base of disjoint pods plus a small hot set and
reads one hot answer back; ``setup_s`` is the median of three such
launches.  Then one closed-loop writer connection posts fixed-size
batches of never-seen schemas (every ``BRIDGE_EVERY``-th batch joins
two components), while a second connection reads the hot set on a
fixed schedule: class queries, and every ``VIEW_EVERY``-th read a view
of a hot class's component.  The writer never touches the hot set and
the hot set fits the answer cache, so the reader's latency, timed from
each read's due time, is time spent waiting behind the writer.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from context import Context
from inputs import Universe, batch_body
from proc import Conn, Server, get_request, post_request
from stats import Report, p50, rate, tail

PODS, POD_SIZE, BASE_PER_POD = 500, 12, 20
BASE_BATCH = 1000
HOT_PODS, HOT_SIZE, HOT_PER_POD = 8, 6, 3
BATCH, BRIDGE_EVERY = 64, 4
WARMUP_BATCHES = 8
SETUP_LAUNCHES = 3
#: Timed batches and reads per second of ``--seconds``.
BATCHES_PER_SECOND = 18
READS_PER_SECOND = 100
VIEW_EVERY = 4
SAMPLE_QUERIES, SAMPLE_VIEWS = 32, 12
#: Layers the ingest traffic never enters: the §4 merge.
NOT_ENTERED = ("merge.",)
#: One paced read: ``q`` (query) or ``v`` (view of the class's component).
Read = Tuple[str, str]


@dataclass
class Inputs:
    base: List[bytes]
    base_schemas: int
    hot: List[str]
    bodies: List[bytes]  # warm-up then timed batch bodies
    reads: List[Read]
    sample: List[str]

    @property
    def timed(self) -> List[bytes]:
        return self.bodies[WARMUP_BATCHES:]


def build(seed: int, seconds: int) -> Inputs:
    universe = Universe(seed, "p")
    rng = random.Random(f"ingest:{seed}")
    pods = [universe.pod(i, POD_SIZE) for i in range(PODS)]
    hot_pods = [universe.pod(PODS + i, HOT_SIZE) for i in range(HOT_PODS)]
    base = [universe.pod_schema(p) for p in pods for _ in range(BASE_PER_POD)]
    base += [universe.pod_schema(p, HOT_SIZE) for p in hot_pods for _ in range(HOT_PER_POD)]
    # Each bridge joins two pods no bridge touched before (runs past
    # 55 s wrap around), so every joined component spans two pods
    # whatever the seed; random pairs would grow seed-dependent chains,
    # and the batches that touch them set the tail.
    unbridged = itertools.cycle(rng.sample(pods, len(pods)))
    bodies = []
    for index in range(WARMUP_BATCHES + seconds * BATCHES_PER_SECOND):
        docs = [universe.pod_schema(rng.choice(pods)) for _ in range(BATCH)]
        if index % BRIDGE_EVERY == BRIDGE_EVERY - 1:
            docs[-1] = universe.bridge_schema(next(unbridged), next(unbridged))
        bodies.append(batch_body(docs))
    hot = [p.pool[0] for p in hot_pods] + [p.pool[1] for p in hot_pods]
    reads = [("v" if i % VIEW_EVERY == VIEW_EVERY - 1 else "q", rng.choice(hot))
             for i in range(seconds * READS_PER_SECOND)]
    sample = rng.sample([c for p in pods for c in p.pool], SAMPLE_QUERIES)
    rng.shuffle(base)
    base_bodies = [batch_body(base[i:i + BASE_BATCH]) for i in range(0, len(base), BASE_BATCH)]
    return Inputs(base_bodies, len(base), hot, bodies, reads, sample)


@dataclass
class Pass:
    server: Server
    data_dir: Path
    setup_s: float
    register_ms: List[float] = field(default_factory=list)
    receipts: List[Tuple[int, bytes]] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    writer_s: float = 0.0


def launch(ctx: Context, inputs: Inputs, name: str, telemetry: bool) -> Pass:
    """Start a server on an empty directory, post the base, read one answer.

    The base is large enough that posting it, not interpreter start-up,
    is most of ``setup_s``, and that the heap the timed phase grows
    from is already several times what one run adds.
    """
    data_dir = ctx.work / name
    shutil.rmtree(data_dir, ignore_errors=True)
    t0 = time.perf_counter()
    server = ctx.track(Server(ctx.root, data_dir, ctx.work / "server.err", telemetry))
    server.wait_ready()
    with Conn(server.port) as conn:
        for generation, base in enumerate(inputs.base, 1):
            status, body = conn.call(post_request("/v1/schemas", base))
            receipt = json.loads(body) if status == 200 else {}
            ctx.tally.check(receipt.get("generation") == generation, "base batch refused")
        status, body = conn.call(get_request(f"/v1/query/{inputs.hot[0]}"))
        ctx.tally.check(status == 200 and json.loads(body)["class"] == inputs.hot[0],
                        "first hot answer wrong")
    return Pass(server, data_dir, time.perf_counter() - t0)


def read_paced(port: int, reads: List[Read], raws: Dict[Read, bytes],
               expected: Dict[Read, bytes], start: float, out: Pass, bad: List[str]) -> None:
    """Open loop: read *i* is due at ``start + i / READS_PER_SECOND``."""
    with Conn(port) as conn:
        for i, read in enumerate(reads):
            due = start + i / READS_PER_SECOND
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            status, body = conn.call(raws[read])
            done = time.perf_counter()
            out.read_ms.append((done - due) * 1e3)
            out.late_ms.append((now - due) * 1e3)
            if status != 200 or body != expected[read]:
                bad.append(f"hot read {i} {read}: status {status}")


def measure(ctx: Context, inputs: Inputs, run: Pass) -> None:
    """Warm up, then the timed writer and the paced reader."""
    port = run.server.port
    with Conn(port) as conn:
        # Every hot answer, read once before the timer; views go to the
        # component the query names.
        raws: Dict[Read, bytes] = {}
        expected: Dict[Read, bytes] = {}
        for cls in inputs.hot:
            raws["q", cls] = get_request(f"/v1/query/{cls}")
            status, body = conn.call(raws["q", cls])
            ctx.tally.check(status == 200, f"hot query {cls}: status {status}")
            expected["q", cls] = body
            sid = json.loads(body).get("component")
            raws["v", cls] = get_request(f"/v1/components/{sid}/view")
            status, expected["v", cls] = conn.call(raws["v", cls])
            ctx.tally.check(status == 200, f"hot view {cls}: status {status}")
        posts = [post_request("/v1/schemas", b) for b in inputs.bodies]
        for raw in posts[:WARMUP_BATCHES]:
            run.receipts.append(conn.call(raw))
        timed = posts[WARMUP_BATCHES:]
        bad: List[str] = []
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            start = time.perf_counter() + 0.05
            reader = threading.Thread(
                target=read_paced,
                args=(port, inputs.reads, raws, expected, start, run, bad),
            )
            reader.start()
            while time.perf_counter() < start:
                time.sleep(0.001)
            t_first = time.perf_counter()
            for raw in timed:
                t0 = time.perf_counter()
                run.receipts.append(conn.call(raw))
                run.register_ms.append((time.perf_counter() - t0) * 1e3)
            run.writer_s = time.perf_counter() - t_first
            reader.join(timeout=170)
        finally:
            gc.enable()
            gc.unfreeze()
    ctx.tally.check(not reader.is_alive(), "reader did not finish")
    ctx.tally.ok(len(run.read_ms) - len(bad))
    for reason in bad:
        ctx.tally.fail(reason)


def check_receipts(ctx: Context, inputs: Inputs, run: Pass) -> Dict[str, Any]:
    """Every receipt is 200 and generations strictly increase."""
    last: Dict[str, Any] = {"generation": len(inputs.base)}
    for status, body in run.receipts:
        receipt = json.loads(body) if status == 200 else {}
        ok = receipt.get("generation", 0) > last["generation"]
        ctx.tally.check(ok, f"receipt {status} {body[:80]!r}")
        if ok:
            last = receipt
    return last


def sample_answers(port: int, inputs: Inputs) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Untimed: query and view answers for the sampled classes."""
    queries: Dict[str, Any] = {}
    views: Dict[str, Any] = {}
    with Conn(port) as conn:
        for cls in inputs.hot[:HOT_PODS] + inputs.sample:
            status, body = conn.call(get_request(f"/v1/query/{cls}"))
            queries[cls] = json.loads(body) if status == 200 else {"status": status}
        sids = sorted({q.get("component") for q in queries.values()} - {None})
        for sid in sids[:SAMPLE_VIEWS]:
            status, body = conn.call(get_request(f"/v1/components/{sid}/view"))
            views[str(sid)] = json.loads(body) if status == 200 else {"status": status}
    return queries, views


def write_acked(ctx: Context, inputs: Inputs, run: Pass) -> Path:
    acked = ctx.work / "acked.jsonl"
    lines = inputs.base + [
        body for body, (status, _r) in zip(inputs.bodies, run.receipts) if status == 200
    ]
    acked.write_bytes(b"\n".join(lines))
    return acked


def verify(ctx: Context, inputs: Inputs, run: Pass) -> Tuple[float, int, int]:
    """Answer checks, SIGKILL, then recovery in a fresh process.

    Returns the server's peak RSS (MB), the bytes in its data directory
    and the number of schemas it acknowledged.
    """
    last = check_receipts(ctx, inputs, run)
    queries, views = sample_answers(run.server.port, inputs)
    peak = run.server.reap()
    acked = write_acked(ctx, inputs, run)
    spec = {
        "acked": str(acked), "queries": queries, "views": views,
        "recover": {"data_dir": str(run.data_dir),
                    "generation": last["generation"],
                    "components": last.get("components")},
    }
    spec_path = ctx.work / "check.json"
    spec_path.write_text(json.dumps(spec))
    disk = sum(f.stat().st_size for f in run.data_dir.rglob("*") if f.is_file())
    ctx.record_checks(ctx.helper("check.py", str(spec_path)))
    schemas = inputs.base_schemas + BATCH * sum(1 for s, _ in run.receipts if s == 200)
    return peak, disk, schemas


def run(ctx: Context) -> None:
    with ctx.phase("inputs"):
        inputs = build(ctx.seed, ctx.seconds)
    report = ctx.report
    if not ctx.trace:
        setups = []
        with ctx.phase("setup"):
            for launch_no in range(SETUP_LAUNCHES):
                run_ = launch(ctx, inputs, f"data{launch_no}", telemetry=False)
                setups.append(run_.setup_s)
                if launch_no < SETUP_LAUNCHES - 1:
                    run_.server.reap()
                    shutil.rmtree(run_.data_dir)
        with ctx.phase("measure"):
            measure(ctx, inputs, run_)
        with ctx.phase("verify"):
            peak, disk, schemas = verify(ctx, inputs, run_)
        report.add("setup_s", statistics.median(setups), "s")
        report.add("throughput_per_s", rate(len(inputs.timed) * BATCH, run_.writer_s), "1/s")
        report.add("peak_rss_mb", peak, "MB")
        # Printed, not metrics: every workload reports the same three
        # metrics, and a latency of the writer's closed loop would
        # repeat its throughput (NOTES.md).
        report.latency_pair(ctx.tally, "register", run_.register_ms)
        report.latency_pair(ctx.tally, "read", run_.read_ms)
        report.notes.append(f"disk bytes per schema: {disk / schemas:.1f}")
        return
    trace(ctx, inputs)


def trace(ctx: Context, inputs: Inputs) -> None:
    """Untraced pass, ``--telemetry`` pass, in-process replay."""
    plain = launch(ctx, inputs, "plain", telemetry=False)
    measure(ctx, inputs, plain)
    # The answer and recovery checks run in every untraced run; here
    # they would only lengthen the run.
    check_receipts(ctx, inputs, plain)
    plain.server.reap()

    traced = launch(ctx, inputs, "traced", telemetry=True)
    measure(ctx, inputs, traced)
    with Conn(traced.server.port) as conn:
        _status, body = conn.call(get_request("/v1/stats?format=json"))
    stats = json.loads(body)["stats"]
    traced.server.reap()

    requests, skip = replay_requests(inputs, write_acked(ctx, inputs, plain))
    replay = ctx.helper("replay.py", str(ctx.work / "replay"), str(requests), str(skip),
                        str(ctx.spans_path))
    report = ctx.report
    # Round trips and server-side times come from the same --telemetry
    # server; parse, decode and encode, which it does not time, from the
    # replay.  The reader's round trip runs from send, not from due time.
    latency = stats["telemetry"]["latency"]
    http_self(report, "http.register_self_ms", traced.register_ms,
              [latency["register"]["p50"] * 1e3, p50(replay["parse_ms"]),
               p50(replay["decode_ms"])])
    http_self(report, "http.read_self_ms",
              [r - w for (kind, _c), r, w in zip(inputs.reads, traced.read_ms, traced.late_ms)
               if kind == "q"],
              [latency["query"]["p50"] * 1e3, p50(replay["query_encode_ms"])])
    report.add("http.read_wait_ms", tail(plain.late_ms).value, "ms")
    server_counters(report, stats, reads=1 + 2 * len(inputs.hot) + len(traced.read_ms))
    replay_layers(report, replay, [len(b) for b in inputs.timed])
    report.add("trace.overhead_ratio", p50(traced.register_ms) / p50(plain.register_ms), "ratio")
    http_tail = tail(plain.register_ms)
    inproc_tail = tail(replay["post_ms"])
    report.notes.append(
        f"ingest tail gap: HTTP register p{http_tail.percentile:.2f}="
        f"{http_tail.value:.1f}ms vs in-process {inproc_tail.value:.1f}ms; "
        f"in-process gc pauses >=10ms {[round(p) for p in replay['gc_pauses_ms']]}, "
        f"append p50 {p50(replay['append_ms']):.3f}ms tail "
        f"{tail(replay['append_ms']).value:.3f}ms, "
        f"http self p50 {report.metrics['http.register_self_ms']['value']:.2f}ms"
    )


def http_self(report: Report, name: str, rtt_ms: Sequence[float],
              inside_ms: Sequence[float]) -> None:
    """Round-trip p50 less the p50s of the layers inside it."""
    value = p50(rtt_ms) - sum(inside_ms)
    report.add(name, value, "ms")
    if value < 0:
        report.notes.append(f"{name} unresolved: below zero")


def server_counters(report: Report, stats: Dict[str, Any], reads: int) -> None:
    """The ``--telemetry`` server's counters over its life; it answered *reads* GETs."""
    report.add("service.plan_retries", stats["telemetry"]["register"]["plan_retries"], "count")
    outcomes = stats["telemetry"]["merged_view"]
    views = sum(outcomes.values())
    report.add("service.view_hit_rate", outcomes["hits"] / views, "ratio")
    report.add("service.view_partial_rate", outcomes["partial_hits"] / views, "ratio")
    report.add("service.view_miss_rate", outcomes["misses"] / views, "ratio")
    answers = stats["snapshot_cache"]
    lookups = answers["hits"] + answers["partial_hits"] + answers["misses"]
    report.add("snapshots.answer_hit_rate",
               (answers["hits"] + answers["partial_hits"]) / lookups, "ratio")
    report.add("snapshots.answer_partial_rate", answers["partial_hits"] / lookups, "ratio")
    report.add("snapshots.evictions_per_1k_reads", answers["evictions"] * 1000 / reads, "count")
    parts = stats["component_cache"]
    report.add("snapshots.component_hit_rate",
               (parts["hits"] + parts["partial_hits"])
               / (parts["hits"] + parts["partial_hits"] + parts["misses"]), "ratio")


def replay_layers(report: Report, replay: Dict[str, Any], body_bytes: List[int]) -> None:
    """The replay's spans and counters; *body_bytes* of the timed POSTs."""
    schemas, posts = replay["schemas"], replay["posts"]
    for name, key in (("json_io.parse_ms", "parse_ms"), ("json_io.decode_ms", "decode_ms"),
                      ("json_io.encode_ms", "encode_ms"),
                      ("service.register_ms", "register_ms"), ("service.plan_ms", "plan_ms"),
                      ("service.rebuild_ms", "rebuild_ms"), ("service.commit_ms", "commit_ms"),
                      ("service.read_ms", "read_ms"), ("storage.append_ms", "append_ms")):
        report.add(name, p50(replay[key]), "ms")
    report.add("json_io.body_bytes_per_schema", sum(body_bytes) / schemas, "B")
    counters = replay["counters"]
    report.add("closure.inserts_per_schema", counters["closure.inserts"] / schemas, "count")
    report.add("closure.arrows_swept_per_schema",
               counters["closure.arrows_swept"] / schemas, "count")
    report.add("closure.components_rebuilt_per_batch",
               counters["closure.components_rebuilt"] / posts, "count")
    report.add("storage.log_bytes_per_schema", replay["log_bytes"] / schemas, "B")
    report.add("storage.open_ms", replay["open_ms"], "ms")
    report.add("storage.load_state_ms", replay["load_state_ms"], "ms")
    report.add("storage.replay_ms", replay["replay_ms"], "ms")
    report.add("storage.replayed_records", replay["replayed_records"], "count")
    report.add("memo.hit_rate", replay["memo_hit_rate"], "ratio")
    report.add("interning.hit_rate", replay["interning_hit_rate"], "ratio")
    report.add("gc.pause_ms_per_1k_ops", replay["gc_pause_ms"] * 1000 / replay["requests"], "ms")
    report.add("trace.unattributed_share", replay["unattributed_share"], "ratio")


def replay_requests(inputs: Inputs, acked: Path) -> Tuple[Path, int]:
    """The replay's request lines: base and warm-up untimed, then the
    timed batches with the hot reads spread between them at the
    reader's rate.  Returns the file and the number of untimed lines."""
    bodies = acked.read_bytes().split(b"\n")
    skip = len(inputs.base) + WARMUP_BATCHES
    lines = [b"p " + body for body in bodies[:skip]]
    per_batch = READS_PER_SECOND / BATCHES_PER_SECOND
    reads = [f"{kind} {cls}".encode() for kind, cls in inputs.reads]
    for index, body in enumerate(bodies[skip:]):
        lines.append(b"p " + body)
        lines += reads[round(index * per_batch):round((index + 1) * per_batch)]
    path = acked.with_name("requests.txt")
    path.write_bytes(b"\n".join(lines))
    return path, skip
