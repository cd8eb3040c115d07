"""merge-offline worker: decode and §4-merge families, one per line.

Run as a child of ``run.py`` with ``PYTHONPATH`` at the checkout's
``src``::

    python mergebench/merge_worker.py FAMILIES [--setup-only]
        [--trace SPANS.jsonl]

Line 0 of FAMILIES is the set-up family: the worker merges it, checks
it, and prints ``{"setup": true}`` — the moment its launch counts as
set up.  That merge is also the untimed warm-up of the process; every
later line is timed, one cold merge each (``json.loads`` +
``schema_from_dict`` + ``upper_merge``).  The last stdout line is a JSON summary with
per-merge times and the outcome of every answer check.

With ``--trace`` the same ``upper_merge`` runs, but parse and decode
are each inside a benchmark span, and the functions ``upper_merge``
calls from ``repro.core.merge`` (``strip_implicits``, ``weak_merge``,
``implicit_sets``, ``properize``) are replaced there by wrappers that
put each call inside a span.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import GcPauses, Recorder  # noqa: E402
from stats import CLOSURE_COUNTERS, hit_rate  # noqa: E402

import repro.core.merge  # noqa: E402
from repro.core.implicit import implicit_classes_of  # noqa: E402
from repro.core.merge import upper_merge  # noqa: E402
from repro.core.ordering import is_upper_bound  # noqa: E402
from repro.core.proper import is_proper  # noqa: E402
from repro.core.schema import Schema  # noqa: E402
from repro.io.json_io import schema_from_dict  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.perf.interning import intern_stats  # noqa: E402
from repro.perf.memo import cache_stats  # noqa: E402

#: Every REVERSE_EVERY-th timed family is merged again in reverse order.
REVERSE_EVERY = 6
#: Span name of each function ``upper_merge`` looks up in its module.
MERGE_STEPS = {"strip_implicits": "strip", "weak_merge": "weak",
               "implicit_sets": "implicit_sets", "properize": "properize"}


def decode(line: bytes) -> List[Schema]:
    return [schema_from_dict(doc) for doc in json.loads(line)]


def trace_merge_steps(rec: Recorder) -> None:
    """Wrap each step ``upper_merge`` calls in a span, in its own module."""
    for attr, span_name in MERGE_STEPS.items():
        def wrapper(*args: Any, _fn: Any = getattr(repro.core.merge, attr),
                    _name: str = span_name, **kwargs: Any) -> Any:
            with rec.span(_name):
                return _fn(*args, **kwargs)
        setattr(repro.core.merge, attr, wrapper)


def traced_merge(rec: Recorder, line: bytes) -> Tuple[List[Schema], Schema]:
    """Parse, decode and ``upper_merge`` one family inside a request span."""
    with rec.request("merge"):
        with rec.span("parse"):
            docs = json.loads(line)
        with rec.span("decode"):
            schemas = [schema_from_dict(doc) for doc in docs]
        result = upper_merge(*schemas)
    return schemas, result


def check(schemas: List[Schema], result: Schema, failures: List[str],
          label: str) -> int:
    """Answer checks on one merge; returns how many were made."""
    if not is_proper(result):
        failures.append(f"{label}: result is not proper")
    if not is_upper_bound(result, schemas):
        failures.append(f"{label}: result is not an upper bound")
    return 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("families")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args()
    lines = Path(args.families).read_bytes().splitlines()

    failures: List[str] = []
    schemas = decode(lines[0])
    checks = check(schemas, upper_merge(*schemas), failures, "setup")
    print(json.dumps({"setup": not failures}), flush=True)
    if args.setup_only:
        return 0

    timed = lines[1:]
    results: List[Tuple[List[Schema], Schema]] = []
    times_ms: List[float] = []
    rec = Recorder()
    if args.trace:
        trace_merge_steps(rec)
    memo_before, intern_before = cache_stats(), intern_stats()
    counters_before = {n: REGISTRY.value(n) for n in CLOSURE_COUNTERS}
    with GcPauses() as gc_pauses:
        wall0 = time.perf_counter()
        for line in timed:
            t0 = time.perf_counter()
            if args.trace:
                schemas, result = traced_merge(rec, line)
            else:
                schemas = decode(line)
                result = upper_merge(*schemas)
            times_ms.append((time.perf_counter() - t0) * 1e3)
            results.append((schemas, result))
        wall_s = time.perf_counter() - wall0
    summary: Dict[str, Any] = {"times_ms": times_ms, "wall_s": wall_s}
    if args.trace:
        summary["layers"] = {
            "json_io.parse_ms": rec.per_request_ms("parse"),
            "json_io.decode_ms": rec.per_request_ms("decode"),
            "merge.weak_ms": rec.per_request_ms("weak"),
            "merge.properize_ms": rec.per_request_ms("properize"),
        }
        summary["implicit_classes"] = [
            len(implicit_classes_of(result)) for _s, result in results
        ]
        summary["schemas"] = sum(len(schemas) for schemas, _r in results)
        summary["body_bytes"] = sum(map(len, timed))
        summary["counters"] = {n: REGISTRY.value(n) - counters_before[n] for n in CLOSURE_COUNTERS}
        summary["memo_hit_rate"] = hit_rate(cache_stats(), memo_before)
        summary["interning_hit_rate"] = hit_rate(intern_stats(), intern_before)
        summary["gc_pause_ms"] = gc_pauses.total_ms
        summary["unattributed_share"] = rec.unattributed_share()
        rec.dump(Path(args.trace))

    for index, (schemas, result) in enumerate(results):
        checks += check(schemas, result, failures, f"family {index}")
        if index % REVERSE_EVERY == 0:
            checks += 1
            if upper_merge(*reversed(schemas)) != result:
                failures.append(f"family {index}: order changed the merge")
    summary["checks"] = checks
    summary["failures"] = failures
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
