"""Properization on dense ids: section 4.2 as bitmask kernels.

The second stage of the paper's merge turns the weak least upper bound
into a proper schema by adding one implicit class below every set of
minimal jointly reachable classes (:mod:`repro.core.implicit` states
the construction).  Every step of it is a set operation over classes,
so it runs on the weak schema's :class:`~repro.perf.closure.DenseClosure`
— class sets are Python-int bitmasks over the component's dense ids:

* ``R(X, a)`` is the OR of the ``a``-rows of ``X``'s members (per-label
  row tables, one list index per member);
* ``MinS(m)`` is ``m`` minus the OR of its members' strict up-sets
  (:func:`repro.core.relations.minimal_bits`);
* ``I∞`` is a worklist over int masks; ``R(X, a) = R(MinS(X), a)`` for
  the up-closed reach sets, so each step ORs only the minimal members;
* the ``S̄`` rules are subset tests, ``m & ~n == 0``.

Implicit classes get ids after the base ids.  With ``with_imp(m) = m |
{X̄ : X ⊆ m}`` the closed result is emitted directly:

* ``succ̄[p] = with_imp(succ[p])`` and ``succ̄[X̄] = with_imp(up(X))``;
* every row ``R(p, a)`` becomes ``with_imp(R(p, a))``, and ``X̄`` gets
  ``with_imp(R(X, a))``.

These rows are already transitive, antisymmetric and W1/W2-closed
(``docs/PERFORMANCE.md`` gives the argument), so the result needs no
re-closure: it is handed to :class:`~repro.core.schema.Schema` in dense
form, the same zero-copy handoff ``join_all`` uses, and its name-level
relations decode lazily.  Only when the input already carries implicit
classes (merging with ``strip_derived=False``) can a new implicit name
coincide with an existing class; that case closes the assembled
relation through a :class:`~repro.perf.closure.ClosureBuilder` seeded
with the weak closure, as the set-based construction closes its output.
The set-based construction itself is preserved as
:func:`repro.perf.reference.reference_properize`, the test oracle.

>>> from repro.core.schema import Schema
>>> weak = Schema.build(arrows=[("C", "a", "B1"), ("C", "a", "B2")])
>>> proper = properize(weak)
>>> sorted(map(str, proper.reach("C", "a")))
['<B1&B2>', 'B1', 'B2']
>>> proper._dense is not None
True
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.core.names import ClassName, ImplicitName, Label
from repro.core.proper import check_proper
from repro.core.relations import iter_bits, minimal_bits
from repro.core.schema import Schema
from repro.perf.closure import ClosureBuilder, DenseClosure, RowTable

__all__ = [
    "ImpState",
    "imp_state",
    "member_sets",
    "properize",
]


class ImpState(NamedTuple):
    """``I∞`` of one weak schema, on masks.

    *tables* holds one row list per label (``tables[a][p]`` is the
    ``R(p, a)`` mask, 0 when empty); *reach_sets* maps every mask of
    ``I∞`` to its ``MinS`` mask.
    """

    dense: DenseClosure
    tables: Dict[Label, List[int]]
    reach_sets: Dict[int, int]

    def implicit_masks(self) -> List[int]:
        """``Imp`` as member masks (``|MinS| > 1``), in ascending order."""
        return sorted({m for m in self.reach_sets.values() if m & (m - 1)})

    def decode(self, mask: int) -> FrozenSet[ClassName]:
        """The class names of *mask*."""
        names = self.dense.names
        return frozenset(names[i] for i in iter_bits(mask))


def imp_state(schema: Schema) -> ImpState:
    """Run the ``I∞`` fixpoint of *schema* as a worklist over int masks.

    ``I1`` is every populated row ``R(p, a)``.  A popped set whose
    ``MinS`` is one class ``q`` reaches only ``R(q, a)``, already in
    ``I1``, so only multi-minimal sets are expanded.

    Engine-built schemas (``join_all`` results) carry their closure in
    dense form already; an eagerly built schema is folded through a
    fresh :class:`~repro.perf.closure.ClosureBuilder` (not cached on the
    schema).
    """
    dense: Optional[DenseClosure] = getattr(schema, "_dense", None)
    if dense is None:
        dense = ClosureBuilder([schema]).dense_state()
    succ = dense.succ
    n = len(dense.names)
    tables: Dict[Label, List[int]] = {}
    for (src, label), tmask in dense.reach.items():
        table = tables.get(label)
        if table is None:
            table = tables[label] = [0] * n
        table[src] = tmask
    rows = list(tables.values())
    seen: Dict[int, int] = {}
    frontier: List[int] = []
    for tmask in dense.reach.values():
        if tmask not in seen:
            mins = seen[tmask] = minimal_bits(tmask, succ)
            if mins & (mins - 1):
                frontier.append(mins)
    while frontier:
        members = list(iter_bits(frontier.pop()))
        for table in rows:
            acc = 0
            for q in members:
                acc |= table[q]
            if acc and acc not in seen:
                mins = seen[acc] = minimal_bits(acc, succ)
                if mins & (mins - 1):
                    frontier.append(mins)
    return ImpState(dense, tables, seen)


def member_sets(state: ImpState) -> Set[FrozenSet[ClassName]]:
    """The paper's ``Imp`` by class name."""
    return {state.decode(m) for m in state.implicit_masks()}


def _close(
    base: DenseClosure,
    names: List[ClassName],
    succ_bar: List[int],
    reach: RowTable,
) -> DenseClosure:
    """Close an assembled relation through a :class:`ClosureBuilder`.

    The fallback for inputs whose implicit classes collide with new
    ones.  The builder starts from the weak closure *base*; every
    specialization and arrow the assembly adds on top of it goes in
    through :meth:`~ClosureBuilder.add_spec_edge` (a cycle raises
    :class:`~repro.exceptions.IncompatibleSchemasError`) and
    :meth:`~ClosureBuilder.add_arrow`, and the builder's sweep closes
    the rows.
    """
    builder = ClosureBuilder.from_dense(base)
    n = len(base.names)
    for cls in names[n:]:
        builder.add_class(cls)
    for i, mask in enumerate(succ_bar):
        old = base.succ[i] if i < n else 1 << i
        for j in iter_bits(mask & ~old):
            builder.add_spec_edge(names[i], names[j])
    for (src, label), tmask in reach.items():
        for t in iter_bits(tmask & ~base.reach.get((src, label), 0)):
            builder.add_arrow(names[src], label, names[t])
    return builder.dense_state()


def properize(schema: Schema, state: Optional[ImpState] = None) -> Schema:
    """The paper's ``G ↦ Ḡ`` on dense ids (see the module docstring).

    *state* is *schema*'s :func:`imp_state` when the caller already has
    it.  With no implicit sets the schema is returned unchanged (after
    the properness check).  Raises
    :class:`~repro.exceptions.NotProperError` when the result is not
    proper, and :class:`~repro.exceptions.IncompatibleSchemasError` when
    the new specializations close a cycle; only inputs that already
    carry implicit classes can cause either.
    """
    if state is None:
        state = imp_state(schema)
    imp = state.implicit_masks()
    if not imp:
        return check_proper(schema)
    dense = state.dense
    succ = dense.succ
    n = len(dense.names)
    # Name each member set.  Flattening may identify member sets (when
    # the input holds implicit classes); keep the minimal classes of
    # their union as the single definition.
    members_of: Dict[ImplicitName, int] = {}
    for mask in imp:
        implicit = ImplicitName(state.decode(mask))
        prev = members_of.get(implicit)
        members_of[implicit] = (
            mask if prev is None else minimal_bits(prev | mask, succ)
        )

    names = list(dense.names)
    classes = schema.classes
    base_ids: Optional[Dict[ClassName, int]] = None
    imp_ids: List[Tuple[int, int]] = []
    for implicit, mask in members_of.items():
        if implicit in classes:
            if base_ids is None:
                base_ids = {cls: i for i, cls in enumerate(dense.names)}
            imp_ids.append((base_ids[implicit], mask))
        else:
            imp_ids.append((len(names), mask))
            names.append(implicit)
    # The emitted rows are closed only for distinct antichains of two or
    # more classes under fresh names; anything else goes through _close.
    masks = [mask for _ident, mask in imp_ids]
    needs_closure = (
        base_ids is not None
        or len(set(masks)) != len(masks)
        or any(not mask & (mask - 1) for mask in masks)
    )

    # with_imp(m) = m | {X̄ : X ⊆ m}, memoised per distinct mask.  Member
    # sets are bucketed by their lowest id, so a mask only tests the
    # sets whose lowest member it contains.
    by_low: Dict[int, List[Tuple[int, int]]] = {}
    lows = 0
    for ident, mask in imp_ids:
        low = mask & -mask
        lows |= low
        by_low.setdefault(low.bit_length() - 1, []).append((mask, 1 << ident))
    memo: Dict[int, int] = {}

    def with_imp(mask: int) -> int:
        out = memo.get(mask)
        if out is None:
            out = mask
            rest = mask & lows
            while rest:
                low = rest & -rest
                rest ^= low
                for members, bit in by_low[low.bit_length() - 1]:
                    if not members & ~mask:
                        out |= bit
            memo[mask] = out
        return out

    succ_bar = [with_imp(mask) for mask in succ]
    succ_bar.extend(1 << i for i in range(n, len(names)))
    replaced = {ident for ident, _mask in imp_ids if ident < n}
    kept: RowTable = {
        key: tmask
        for key, tmask in dense.reach.items()
        if key[0] not in replaced
    }
    reach: RowTable = {key: with_imp(tmask) for key, tmask in kept.items()}
    for ident, mask in imp_ids:
        members = list(iter_bits(mask))
        up = 0
        for q in members:
            up |= succ[q]
        succ_bar[ident] |= with_imp(up)
        for label, table in state.tables.items():
            acc = 0
            for q in members:
                acc |= table[q]
            if acc:
                reach[(ident, label)] = with_imp(acc)

    if needs_closure:
        base = DenseClosure(dense.names, dense.succ, kept)
        result = _close(base, names, succ_bar, reach)
    else:
        result = DenseClosure(tuple(names), tuple(succ_bar), reach)
    return check_proper(
        Schema._from_closed(frozenset(result.names), None, None, dense=result)
    )
