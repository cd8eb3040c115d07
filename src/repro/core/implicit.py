"""Properization: turning a weak schema into a proper one (section 4.2).

The upper merge of two proper schemas is in general only *weak*: a class
may acquire ``a``-arrows to several incomparable targets (Figure 3's
``C`` inherits ``a``-arrows to both ``B1`` and ``B2``).  The paper
repairs this by introducing *implicit classes*, one for each set of
minimal classes jointly reachable along arrows:

.. code-block:: text

    I0   = { {p} | p ∈ C }
    In+1 = { R(X, a) | X ∈ In, a ∈ L }
    I∞   = ⋃ n≥1  In
    Imp  = { MinS(X) | X ∈ I∞, |MinS(X)| > 1 }

For each ``X ∈ Imp`` a fresh class ``X̄`` (here
:class:`~repro.core.names.ImplicitName`) is added below the members of
``X``, arrows are re-targeted at the new classes, and specialization
edges between implicit classes are filled in.  The result ``Ḡ`` is a
proper schema with ``G ⊑ Ḡ``, and — because implicit names record their
origin — repeating the construction across successive merges stays
associative (the Figure 4/5 example).

This module is the construction's public face, plus the helpers the
rest of the library needs: detecting/stripping implicit classes and
computing ``Imp`` on its own (used by the growth benchmarks).  The
construction itself runs on dense-id bitmasks in
:mod:`repro.perf.proper`.
"""

from __future__ import annotations

from typing import FrozenSet, Set

from repro.core.names import ClassName, GenName, ImplicitName
from repro.core.schema import Schema
from repro.perf.proper import imp_state, member_sets
from repro.perf.proper import properize as dense_properize

__all__ = [
    "reachable_sets",
    "implicit_sets",
    "properize",
    "strip_implicits",
    "implicit_classes_of",
    "is_implicit",
]


def is_implicit(cls: ClassName) -> bool:
    """Is *cls* a class invented by (upper or lower) properization?"""
    return isinstance(cls, (ImplicitName, GenName))


def implicit_classes_of(schema: Schema) -> FrozenSet[ClassName]:
    """All invented classes currently present in *schema*."""
    return frozenset(c for c in schema.classes if is_implicit(c))


def strip_implicits(schema: Schema) -> Schema:
    """The restriction of *schema* to its user-supplied classes.

    The paper notes implicit classes "have no additional information
    associated with them"; stripping and re-deriving them is therefore
    lossless, a fact the property tests verify (properize ∘ strip ∘
    properize == properize on merge results).
    """
    return schema.restrict(schema.classes - implicit_classes_of(schema))


def reachable_sets(schema: Schema) -> Set[FrozenSet[ClassName]]:
    """The paper's ``I∞``: every ``R(X, a)`` reachable from a singleton.

    Computed as a worklist fixpoint over dense-id masks
    (:func:`repro.perf.proper.imp_state`).  Only non-empty reach sets
    are kept (empty sets have ``|MinS| = 0`` and can never contribute
    an implicit class, and dropping them keeps the fixpoint small).
    """
    state = imp_state(schema)
    return {state.decode(mask) for mask in state.reach_sets}


def implicit_sets(schema: Schema) -> Set[FrozenSet[ClassName]]:
    """The paper's ``Imp``: minimal-element sets of size > 1 in ``I∞``."""
    return member_sets(imp_state(schema))


def properize(schema: Schema) -> Schema:
    """The paper's ``G ↦ Ḡ``: embed a weak schema into a proper one.

    Follows section 4.2 step by step:

    1. compute ``Imp`` (:func:`implicit_sets`);
    2. ``C̄ = C ∪ {X̄ | X ∈ Imp}``;
    3. ``Ē`` keeps every original arrow, points ``x --a--> X̄``
       whenever ``X ⊆ R(x, a)``, and gives each implicit class the
       arrows of its member set (``R̄(X̄, a) = R(X, a)``);
    4. ``S̄`` adds ``X̄ ==> Ȳ`` when every class of ``Y`` has a
       specialization in ``X``, ``X̄ ==> p`` when some member of ``X``
       specializes ``p``, and ``p ==> X̄`` when ``p`` specializes every
       member of ``X``.

    Every step runs on the weak schema's dense-id bitmasks and the
    closed result is emitted in dense form
    (:func:`repro.perf.proper.properize`); the set-based construction
    survives as :func:`repro.perf.reference.reference_properize`, the
    oracle the property tests compare against.  The result is a proper
    schema with ``schema ⊑ properize(schema)``; properness is checked
    on the emitted rows.  A schema that is already proper and has no
    multi-minimal reach sets is returned unchanged (the construction is
    idempotent).
    """
    return dense_properize(schema)
