"""Benchmark of the schema-merge service: one command, two workloads.

Run from the root of a checkout::

    python3 mergebench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads: ``ingest`` (durable write path over HTTP, with a paced
reader of a cached hot set) and ``merge-offline`` (the library's §4
merge in a worker process).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones (see ``NOTES.md``); every run prints
every metric ``BENCHMARK.json`` names for its mode.  Human-readable
lines go first; the last stdout line is the JSON result.  The run
exits non-zero without a result when the checkout holds no
``src/repro`` to benchmark, or when a workload's metrics do not match
the manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from context import Context  # noqa: E402
from stats import Report  # noqa: E402

WORKLOADS = ("ingest", "merge-offline")


def manifest_units(root: Path, trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run in this mode must print."""
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def complete(report: Report, units: Dict[str, str], not_entered: Tuple[str, ...]) -> List[str]:
    """Fill in layers the workload never enters; return what is still wrong."""
    missing = {n: u for n, u in units.items() if n not in report.metrics}
    report.not_entered({n: u for n, u in missing.items() if n.startswith(not_entered)})
    problems = [f"{n} not reported" for n in units if n not in report.metrics]
    problems += [f"{n} is not in BENCHMARK.json" for n in report.metrics if n not in units]
    problems += [f"{n} in {m['unit']}, BENCHMARK.json says {units[n]}"
                 for n, m in report.metrics.items() if n in units and m["unit"] != units[n]]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "http.py").is_file():
        print(f"error: no src/repro under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    units = manifest_units(root, bool(args.trace))
    work = root / ".mergebench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ctx = Context(root, HERE, work, args.seed, args.seconds, bool(args.trace))
    try:
        if args.workload == "ingest":
            import ingest as workload
        else:
            import merge_offline as workload
        workload.run(ctx)
    finally:
        ctx.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    # A traced run fills the layers its traffic never enters; an
    # untraced run must measure every end-to-end metric itself.
    problems = complete(ctx.report, units, workload.NOT_ENTERED if args.trace else ())
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 3
    for note in ctx.report.notes + [f"failed: {r}" for r in ctx.tally.reasons]:
        print(note)
    print(json.dumps(ctx.report.result(ctx.tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
