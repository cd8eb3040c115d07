"""Answer and durability checks, run in a fresh process after a pass.

Usage (``PYTHONPATH`` at the checkout's ``src``)::

    python mergebench/check.py SPEC.json

SPEC names the acknowledged ``POST /v1/schemas`` bodies (one per line,
in acknowledgement order), the query and view answers the server gave
for a sample of classes and components, and the data directory to
recover.  Checks:

* each sampled answer equals the answer of an in-process
  ``MergeService`` fed the acknowledged schemas of that component;
* on small components, ``reference_join_all`` over the decoded
  schemas equals both the in-process view and the served view;
* recovery (``MergeService.open`` on a directory whose server was
  SIGKILLed): the generation and component count of the last receipt,
  the component partition implied by the acknowledged schemas, every
  acknowledged schema counted, and the sampled answers unchanged.

The last stdout line is ``{"checks": N, "failures": [...]}``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Set

from repro.io.json_io import schema_from_dict, schema_to_dict
from repro.perf.reference import reference_join_all
from repro.service import MergeService

#: Components with at most this many schemas also go through the oracle.
SMALL_COMPONENT = 16


def plain(value: Any) -> Any:
    """The JSON shape of *value* (tuples become lists)."""
    return json.loads(json.dumps(value))


def strip(answer: Dict[str, Any], *keys: str) -> Dict[str, Any]:
    return {k: v for k, v in answer.items() if k not in keys}


class Partition:
    """Union-find over class names: schemas sharing a class share a component."""

    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, cls: str) -> str:
        parent = self.parent
        root = parent.setdefault(cls, cls)
        while root != parent[root]:
            root = parent[root]
        while cls != root:
            parent[cls], cls = root, parent[cls]
        return root

    def union(self, classes: List[str]) -> None:
        first = self.find(classes[0])
        for cls in classes[1:]:
            other = self.find(cls)
            if other != first:
                self.parent[other] = first

    def groups(self) -> Set[FrozenSet[str]]:
        members: Dict[str, Set[str]] = {}
        for cls in self.parent:
            members.setdefault(self.find(cls), set()).add(cls)
        return {frozenset(m) for m in members.values()}


class Checker:
    def __init__(self, docs: List[Dict[str, Any]]) -> None:
        self.docs = docs
        self.partition = Partition()
        for doc in docs:
            self.partition.union(doc["classes"])
        self.by_root: Dict[str, List[Dict[str, Any]]] = {}
        for doc in docs:
            root = self.partition.find(doc["classes"][0])
            self.by_root.setdefault(root, []).append(doc)
        self._reference: Dict[str, MergeService] = {}
        self.checks = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, reason: str) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(reason)

    def reference(self, cls: str) -> MergeService:
        """An in-process service fed the acknowledged schemas of *cls*'s component."""
        root = self.partition.find(cls)
        if root not in self._reference:
            schemas = [schema_from_dict(d) for d in self.by_root[root]]
            service = MergeService(schemas)
            if len(schemas) <= SMALL_COMPONENT:
                self.expect(
                    reference_join_all(schemas) == service.merged_view(cls),
                    f"reference_join_all disagrees on the component of {cls}",
                )
            self._reference[root] = service
        return self._reference[root]

    def answers(self, queries: Dict[str, Any], views: Dict[str, Any]) -> None:
        for cls, answer in queries.items():
            ref = self.reference(cls).query(cls).to_dict()
            self.expect(
                strip(plain(ref), "component") == strip(answer, "format", "component"),
                f"query {cls} differs from the in-process service",
            )
        for sid, answer in views.items():
            served = answer["view"]
            cls = served["classes"][0]
            ref = self.reference(cls).merged_view(cls)
            self.expect(
                schema_to_dict(ref) == served,
                f"view of component {sid} differs from the in-process service",
            )
            root = self.partition.find(cls)
            if len(self.by_root[root]) <= SMALL_COMPONENT:
                self.expect(
                    schema_from_dict(served)
                    == reference_join_all(schema_from_dict(d) for d in self.by_root[root]),
                    f"view of component {sid} differs from reference_join_all",
                )

    def recovery(self, spec: Dict[str, Any], queries: Dict[str, Any],
                 views: Dict[str, Any]) -> None:
        service = MergeService.open(spec["data_dir"])
        try:
            stats = service.service_stats()
            self.expect(stats["generation"] == spec["generation"],
                        f"recovered generation {stats['generation']} != "
                        f"acknowledged {spec['generation']}")
            components = service.components()
            self.expect(len(components) == spec["components"],
                        f"recovered {len(components)} components, last receipt "
                        f"said {spec['components']}")
            self.expect(
                sum(c["schemas"] for c in components.values()) == len(self.docs),
                "recovered schema count differs from the acknowledged count",
            )
            recovered = {
                frozenset(str(c) for c in service.merged_view(sid).classes)
                for sid in components
            }
            self.expect(recovered == self.partition.groups(),
                        "recovered component partition differs")
            for cls, answer in queries.items():
                self.expect(
                    plain(service.query(cls).to_dict()) == strip(answer, "format"),
                    f"query {cls} changed across the restart",
                )
            for sid, answer in views.items():
                self.expect(
                    schema_to_dict(service.merged_view(int(sid))) == answer["view"],
                    f"view of component {sid} changed across the restart",
                )
        finally:
            service.close()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    docs: List[Dict[str, Any]] = []
    for line in Path(spec["acked"]).read_bytes().splitlines():
        docs.extend(json.loads(line)["schemas"])
    checker = Checker(docs)
    checker.answers(spec["queries"], spec["views"])
    checker.recovery(spec["recover"], spec["queries"], spec["views"])
    print(json.dumps({"checks": checker.checks, "failures": checker.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
