"""merge-offline: the library's §4 merge in a worker process.

The client writes every family as bytes before any worker starts, then
launches ``merge_worker.py`` five times; each launch is timed from
``Popen`` to the worker's first checked answer, and ``setup_s`` is the
median.  The last launch goes on to the timed merges; its set-up merge
is their untimed warm-up.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Any, Dict, List

from inputs import family_lines
from proc import Child
from context import Context
from stats import p50, rate

#: Cold merges per second of ``--seconds`` (≈1 s per views-medium merge).
MERGES_PER_SECOND = 1.1
SETUP_LAUNCHES = 5
#: Layers a family merge never enters: a family is merged straight
#: from its decoded schemas, with no server, cache, storage or encode.
NOT_ENTERED = ("http.", "service.", "snapshots.", "storage.", "json_io.encode_ms")


def worker(ctx: Context, families: str, *extra: str) -> Child:
    argv = [sys.executable, str(ctx.here / "merge_worker.py"), families, *extra]
    return ctx.track(Child(argv, ctx.root, ctx.work / "worker.err"))


def run_pass(ctx: Context, families: str, trace: bool, launches: int) -> Dict[str, Any]:
    """Setup launches, then the last one's timed merges; returns its summary."""
    setups: List[float] = []
    for launch in range(launches):
        last = launch == launches - 1
        extra: List[str] = []
        if not last:
            extra = ["--setup-only"]
        elif trace:
            extra = ["--trace", str(ctx.spans_path)]
        t0 = time.perf_counter()
        child = worker(ctx, families, *extra)
        ready = json.loads(child.readline(timeout=170))
        setups.append(time.perf_counter() - t0)
        ctx.tally.check(ready.get("setup") is True, "set-up merge failed its checks")
        if not last:
            child.reap(sig=None)
    summary = json.loads(child.readline(timeout=170))
    summary["peak_rss_mb"] = child.reap(sig=None)
    summary["setup_s"] = statistics.median(setups)
    ctx.tally.ok(len(summary["times_ms"]) + summary["checks"] - len(summary["failures"]))
    for reason in summary["failures"]:
        ctx.tally.fail(reason)
    return summary


def run(ctx: Context) -> None:
    count = max(5, round(ctx.seconds * MERGES_PER_SECOND))
    families = ctx.work / "families.jsonl"
    families.write_bytes(b"\n".join(family_lines(ctx.seed, 0, 1 + count)))
    # The traced run reports no setup_s, so it launches each worker once.
    launches = 1 if ctx.trace else SETUP_LAUNCHES
    plain = run_pass(ctx, str(families), trace=False, launches=launches)
    report = ctx.report
    if not ctx.trace:
        report.add("setup_s", plain["setup_s"], "s")
        report.add("throughput_per_s", rate(len(plain["times_ms"]), plain["wall_s"]), "1/s")
        report.add("peak_rss_mb", plain["peak_rss_mb"], "MB")
        # Printed, not a metric, as in every workload (NOTES.md); too
        # few merges for a tail.
        report.notes.append(f"merge: n={len(plain['times_ms'])} families "
                            f"p50={p50(plain['times_ms']):.1f}ms")
        return
    traced = run_pass(ctx, str(families), trace=True, launches=1)
    layers = traced["layers"]
    for name in ("json_io.parse_ms", "json_io.decode_ms", "merge.weak_ms",
                 "merge.properize_ms"):
        report.add(name, p50(layers[name]), "ms")
    schemas = traced["schemas"]
    report.add("json_io.body_bytes_per_schema", traced["body_bytes"] / schemas, "B")
    counters = traced["counters"]
    report.add("closure.inserts_per_schema", counters["closure.inserts"] / schemas, "count")
    report.add("closure.arrows_swept_per_schema",
               counters["closure.arrows_swept"] / schemas, "count")
    report.add("closure.components_rebuilt_per_batch",
               counters["closure.components_rebuilt"] / len(traced["times_ms"]), "count")
    report.add("merge.implicit_classes", statistics.mean(traced["implicit_classes"]), "count")
    report.add("memo.hit_rate", traced["memo_hit_rate"], "ratio")
    report.add("interning.hit_rate", traced["interning_hit_rate"], "ratio")
    report.add("gc.pause_ms_per_1k_ops",
               traced["gc_pause_ms"] * 1000 / len(traced["times_ms"]), "ms")
    report.add("trace.unattributed_share", traced["unattributed_share"], "ratio")
    report.add("trace.overhead_ratio",
               p50(traced["times_ms"]) / p50(plain["times_ms"]), "ratio")
