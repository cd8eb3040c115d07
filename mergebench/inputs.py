"""Seeded request bodies for the benchmark — stdlib only, bytes out.

Everything a run sends is built here, before any timer starts, from
the run's ``--seed`` alone: the same seed gives byte-identical bodies,
another seed gives different ones.  The client keeps only the encoded
bytes; it never holds ``repro`` objects while it measures.

Schemas are ``repro.schema/1`` documents.  Every class gets one global
rank, and specialization edges only ever point from a lower to a
higher rank, so the union of any set of generated schemas is acyclic:
every batch is compatible and no register is refused.

A *pod* is a pool of class names whose schemas form one component.
Every generated pod schema carries one class that no earlier schema
mentioned, so no document is ever sent twice.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

SCHEMA_FORMAT = "repro.schema/1"
API_FORMAT = "repro.api/1"

Doc = Dict[str, Any]


def schema_doc(
    classes: Sequence[str],
    arrows: Sequence[Tuple[str, str, str]],
    spec: Sequence[Tuple[str, str]],
) -> Doc:
    """One ``repro.schema/1`` document with deterministic field order."""
    return {
        "format": SCHEMA_FORMAT,
        "classes": sorted(classes),
        "arrows": [list(a) for a in sorted(arrows)],
        "spec": [list(s) for s in sorted(spec)],
    }


def dumps(doc: Any) -> bytes:
    """Compact, key-sorted JSON bytes (the canonical wire form here)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def batch_body(docs: Sequence[Doc]) -> bytes:
    """A ``POST /v1/schemas`` body."""
    return dumps({"format": API_FORMAT, "schemas": list(docs)})


@dataclass
class Pod:
    """A pool of classes with global ranks; its schemas share a component."""

    tag: str
    pool: List[str]
    rank: Dict[str, Tuple[int, int]]
    fresh: int = 0

    def new_class(self) -> str:
        self.fresh += 1
        return f"{self.tag}n{self.fresh}"


class Universe:
    """Deterministic generator of pods and pod schemas for one seed."""

    LABELS = tuple(f"l{i}" for i in range(4))

    def __init__(self, seed: int, prefix: str) -> None:
        self.rng = random.Random(f"{prefix}:{seed}")
        self.prefix = prefix
        self._order = 0

    def _ranked(self, level: int) -> Tuple[int, int]:
        self._order += 1
        return (level, self._order)

    def pod(self, index: int, size: int) -> Pod:
        tag = f"{self.prefix}{index}"
        pool = [f"{tag}c{i}" for i in range(size)]
        rank = {cls: self._ranked(1 + self.rng.randrange(4)) for cls in pool}
        return Pod(tag, pool, rank)

    def _edges(
        self, classes: List[str], rank: Dict[str, Tuple[int, int]],
        spec_p: float, arrow_p: float,
    ) -> Tuple[List[Tuple[str, str, str]], List[Tuple[str, str]]]:
        rng = self.rng
        spec = [
            (a, b)
            for a in classes
            for b in classes
            if rank[a] < rank[b] and rng.random() < spec_p
        ]
        arrows = [
            (a, label, rng.choice(classes))
            for a in classes
            for label in self.LABELS
            if rng.random() < arrow_p
        ]
        return arrows, spec

    def pod_schema(self, pod: Pod, width: int = 5) -> Doc:
        """A never-seen schema over *pod*: *width* pool classes + 1 fresh."""
        rng = self.rng
        picked = rng.sample(pod.pool, min(width, len(pod.pool)))
        fresh = pod.new_class()
        # The fresh class sits below every pool class, so its spec
        # edges (always upward) keep the global order acyclic.
        pod.rank[fresh] = self._ranked(0)
        classes = picked + [fresh]
        arrows, spec = self._edges(classes, pod.rank, 0.15, 0.2)
        spec.append((fresh, rng.choice(picked)))
        return schema_doc(classes, arrows, spec)

    def bridge_schema(self, left: Pod, right: Pod) -> Doc:
        """A never-seen schema joining the components of two pods."""
        rng = self.rng
        a = rng.sample(left.pool, 2)
        b = rng.sample(right.pool, 2)
        fresh = left.new_class()
        left.rank[fresh] = self._ranked(0)
        label = rng.choice(self.LABELS)
        arrows = [(a[0], label, b[0]), (fresh, label, b[1])]
        spec = [(fresh, a[1])]
        return schema_doc(a + b + [fresh], arrows, spec)


# ----------------------------------------------------------------------
# merge-offline: families with the library's ``views-medium`` shape
# ----------------------------------------------------------------------

#: 4 overlapping views, 30 classes each from a 60-class pool, 6 labels,
#: arrow density 0.12, spec density 0.08 (``repro.generators.workloads``).
VIEWS_MEDIUM = dict(n_schemas=4, pool=60, classes=30, labels=6,
                    arrow_p=0.12, spec_p=0.08)


def views_family(seed: int, index: int) -> List[Doc]:
    """Family *index* of the views-medium stream, named for *seed*.

    The structure (which classes, arrows and edges) depends on *index*
    only; *seed* renames every class, so each run's bytes differ and no
    interned name or cached result from another family can serve it.
    Views-medium merge cost spans 0.16–5.7 s between structures, so
    drawing structures from the seed would make every run's median a
    different sample of that spread; fixing them keeps seeds comparable.
    """
    shape = VIEWS_MEDIUM
    rng = random.Random(f"views-medium:{index}")
    pool = [f"f{seed}x{index}c{i:02d}" for i in range(shape["pool"])]
    ranks = {cls: rng.randrange(4) for cls in pool}
    labels = [f"l{i:02d}" for i in range(shape["labels"])]
    family = []
    for _ in range(shape["n_schemas"]):
        classes = rng.sample(pool, shape["classes"])
        spec = [
            (a, b)
            for a in classes
            for b in classes
            if ranks[a] < ranks[b] and rng.random() < shape["spec_p"]
        ]
        arrows = [
            (a, label, rng.choice(classes))
            for a in classes
            for label in labels
            if rng.random() < shape["arrow_p"]
        ]
        family.append(schema_doc(classes, arrows, spec))
    return family


def family_lines(seed: int, start: int, count: int) -> Iterator[bytes]:
    """*count* encoded families, one JSON list per line."""
    for index in range(start, start + count):
        yield dumps(views_family(seed, index))
