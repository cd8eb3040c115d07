"""repro.perf — the high-throughput merge engine layer.

Three cooperating mechanisms make the core algebra fast without
changing its semantics (every one is property-tested against the
preserved cold-path reference implementations in
:mod:`repro.perf.reference`):

* **hash-consed interning** (:mod:`repro.perf.interning`) — class
  names and closed schemas are canonicalized so structurally equal
  values are pointer-equal; equality short-circuits on identity and
  hashes are precomputed, which removes the dominant cost of the
  closure computations (element comparison inside big sets of tuples);
* **incremental closure** (:mod:`repro.perf.closure`) —
  :class:`ClosureBuilder` folds any number of schemas through one
  mutable reach/specialization index and closes arrows once at the
  end, instead of n full re-closures; ``Schema.with_arrows`` /
  ``with_spec`` delta-update in the same spirit;
* **bounded memoization** (:mod:`repro.perf.memo`) — ``is_sub``,
  ``compatible`` and ``annotated_leq`` results are cached keyed on the
  interned operands.  Immutability means there is no invalidation
  protocol, only an LRU memory bound;
* **dense-id bitset kernels** (:mod:`repro.perf.namespace` +
  :mod:`repro.perf.closure`) — each component's interned names map to
  dense integer ids, class sets become Python-int bitmasks, and the
  closure kernels run as bulk word-parallel OR/AND.  The pre-bitset
  set-based engine is preserved verbatim in :mod:`repro.perf.setwise`
  as the benchmark baseline and secondary test oracle.  Properization
  (section 4.2) runs on the same masks (:mod:`repro.perf.proper`).

``engine_stats()`` / ``clear_caches()`` are the operational surface:
benchmarks report the former, tests use the latter to force cold paths.

This ``__init__`` imports only the core-free primitives; the builder
(which imports ``repro.core.schema``) loads lazily via PEP 562 so that
the core modules themselves can import ``repro.perf.interning`` and
``repro.perf.memo`` without a cycle.

>>> from repro.core import ordering  # registers its memo caches
>>> from repro.perf import ClosureBuilder, clear_caches, engine_stats
>>> sorted(engine_stats())
['intern', 'memo']
>>> clear_caches()  # cold-start; never changes any result
>>> engine_stats()["memo"]["ordering.is_sub"]["size"]
0
>>> builder = ClosureBuilder().add_spec_edge("Puppy", "Dog")
>>> builder.is_spec("Puppy", "Dog")
True
"""

from __future__ import annotations

from typing import Any, Dict

from repro.perf.interning import (
    InternTable,
    clear_intern_tables,
    intern_stats,
)
from repro.perf.memo import MemoCache, cache_stats, clear_memo_caches

__all__ = [
    "InternTable",
    "MemoCache",
    "NameSpace",
    "ClosureBuilder",
    "DenseClosure",
    "SetwiseClosureBuilder",
    "intern_stats",
    "cache_stats",
    "engine_stats",
    "clear_caches",
    "clear_intern_tables",
    "clear_memo_caches",
]


def engine_stats() -> Dict[str, Dict[str, Any]]:
    """One merged view of every intern table and memo cache."""
    return {"intern": intern_stats(), "memo": cache_stats()}


def clear_caches() -> None:
    """Reset the whole engine to a cold state.

    Safe at any point: interning and memoization are transparent, so
    clearing only costs the next calls their warm-up.  Used by property
    tests to compare cold and warm paths, and by long-running services
    to shed memory between workloads.
    """
    clear_intern_tables()
    clear_memo_caches()


def __getattr__(attr: str) -> Any:
    if attr in ("ClosureBuilder", "DenseClosure"):
        from repro.perf import closure

        return getattr(closure, attr)
    if attr == "NameSpace":
        from repro.perf.namespace import NameSpace

        return NameSpace
    if attr == "SetwiseClosureBuilder":
        from repro.perf.setwise import SetwiseClosureBuilder

        return SetwiseClosureBuilder
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
