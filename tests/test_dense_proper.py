"""Dense properization ≡ the set-based construction it replaced.

``repro.core.implicit.properize`` runs section 4.2 on dense-id bitmasks
(:mod:`repro.perf.proper`) and emits its result without re-closing it;
:func:`repro.perf.reference.reference_properize` is the preserved
set-based construction.  Every test here runs both on the same weak
schema and asserts equal outcomes: the same schema, or the same error
(with the same message for properness failures).
"""

from __future__ import annotations

from typing import Any, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.consistency import ConsistencyRelation
from repro.core.implicit import implicit_sets, properize, reachable_sets
from repro.core.merge import merge_report, upper_merge, weak_merge
from repro.core.names import ImplicitName
from repro.core.ordering import is_sub, join_all
from repro.core.proper import check_proper, is_proper, properness_violations
from repro.core.schema import Schema
from repro.exceptions import (
    IncompatibleSchemasError,
    InconsistentSchemasError,
    NotProperError,
)
from repro.generators.pathological import diamond_chain_schemas, nfa_blowup_pair
from repro.generators.random_schemas import random_schema_family
from repro.perf.reference import (
    reference_implicit_sets,
    reference_join_all,
    reference_properize,
    reference_reachable_sets,
)
from tests.conftest import schemas

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Seeds of views-medium-shaped families (seed 23 is the named
#: ``views-medium`` workload); the set-based side takes 0.3-1 s each.
VIEWS_MEDIUM_SEEDS = [21, 23, 24, 27, 28]


def views_medium(seed: int) -> list:
    return random_schema_family(
        n_schemas=4,
        pool_size=60,
        n_classes=30,
        n_labels=6,
        arrow_density=0.12,
        spec_density=0.08,
        seed=seed,
    )


def outcome(fn: Any, schema: Schema) -> Tuple[str, Any]:
    """``("ok", result)``, or the error type with the properness message."""
    try:
        return "ok", fn(schema)
    except NotProperError as exc:
        return "NotProperError", str(exc)
    except IncompatibleSchemasError:
        # The dense witness is ClosureBuilder's insertion point, the
        # set-based one Schema.build's cycle search.
        return "IncompatibleSchemasError", None


def assert_same_properization(weak: Schema) -> Schema:
    dense = outcome(properize, weak)
    assert dense == outcome(reference_properize, weak)
    if dense[0] == "ok":
        result = dense[1]
        if result is not weak:
            result._dense.validate()
        assert is_sub(weak, result)
        assert is_proper(result)
    return dense[1]


def assert_same_imp(weak: Schema) -> None:
    assert reachable_sets(weak) == reference_reachable_sets(weak)
    assert implicit_sets(weak) == reference_implicit_sets(weak)


class TestAgainstReference:
    @RELAXED
    @given(st.lists(schemas(), min_size=1, max_size=4))
    def test_random_weak_merges(self, family):
        weak = join_all(family)
        assert_same_imp(weak)
        assert_same_properization(weak)

    @RELAXED
    @given(schemas(max_classes=8))
    def test_random_eager_schemas(self, schema):
        assert schema._dense is None
        assert_same_imp(schema)
        assert_same_properization(schema)

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(lambda: diamond_chain_schemas(16), id="diamonds-16"),
            pytest.param(lambda: nfa_blowup_pair(6), id="nfa-6"),
            pytest.param(lambda: nfa_blowup_pair(8), id="nfa-8"),
        ],
    )
    def test_pathological_families(self, family):
        weak = weak_merge(*family())
        assert_same_imp(weak)
        result = assert_same_properization(weak)
        assert len(result.classes) > len(weak.classes)

    @pytest.mark.parametrize("seed", VIEWS_MEDIUM_SEEDS)
    def test_views_medium_families(self, seed):
        weak = weak_merge(*views_medium(seed))
        result = assert_same_properization(weak)
        assert len(result.classes) > 3 * len(weak.classes)

    def test_eager_input_schema(self):
        weak = weak_merge(*views_medium(28))
        eager = Schema(weak.classes, weak.arrows, weak.spec)
        assert eager._dense is None
        assert properize(eager) == properize(weak)
        assert_same_properization(eager)
        # The cold reference join builds its result without the dense slot.
        bare = reference_join_all(views_medium(28))
        assert properize(bare) == properize(weak)
        assert properness_violations(bare) == properness_violations(weak)

    @pytest.mark.parametrize("seed", range(40))
    def test_chained_merges_keeping_implicit_classes(self, seed):
        # With strip_derived=False earlier implicit classes stay in the
        # inputs, so new implicit names can coincide with existing
        # classes or identify several member sets (ImplicitName dedup).
        family = random_schema_family(
            n_schemas=4,
            pool_size=10,
            n_classes=6,
            n_labels=2,
            arrow_density=0.3,
            spec_density=0.15,
            seed=seed,
        )
        acc = family[0]
        for schema in family[1:]:
            weak = weak_merge(acc, schema)
            assert_same_imp(weak)
            kind, result = outcome(properize, weak)
            assert (kind, result) == outcome(reference_properize, weak)
            if kind != "ok":
                return
            result._dense.validate()
            acc = result

    def test_chain_with_an_existing_implicit_class(self):
        # <B1&B2> already exists below B1 and B2; a second source's
        # D --a--> {B1, B2} names the same implicit class again.
        first = upper_merge(
            Schema.build(arrows=[("C", "a", "B1")]),
            Schema.build(arrows=[("C", "a", "B2")]),
        )
        second = Schema.build(arrows=[("D", "a", "B1"), ("D", "a", "B2")])
        weak = weak_merge(first, second)
        result = assert_same_properization(weak)
        shared = ImplicitName(["B1", "B2"])
        assert shared in weak.classes
        assert result.reach("D", "a") >= {shared}


class TestResultShape:
    def test_no_implicit_sets_returns_the_input(self):
        proper = Schema.build(
            arrows=[("Dog", "owner", "Person")], spec=[("Puppy", "Dog")]
        )
        weak = join_all([proper])
        assert implicit_sets(weak) == set()
        assert properize(weak) is weak
        assert properize(proper) is proper

    def test_result_is_dense_and_validates(self):
        weak = weak_merge(*nfa_blowup_pair(6))
        result = properize(weak)
        assert result._dense is not None
        result._dense.validate()
        assert properize(result) is result

    def test_order_independent_on_a_reversed_family(self):
        family = views_medium(24)
        forward = upper_merge(*family)
        backward = upper_merge(*reversed(family))
        assert forward == backward
        assert forward == reference_properize(weak_merge(*family))


class TestDenseProperness:
    def test_violations_match_the_set_path(self):
        for family in (nfa_blowup_pair(6), views_medium(21)):
            weak = weak_merge(*family)
            eager = Schema(weak.classes, weak.arrows, weak.spec)
            assert eager._dense is None
            found = properness_violations(weak)
            assert found
            assert found == properness_violations(eager)
            assert not is_proper(weak)
            with pytest.raises(NotProperError) as dense_error:
                check_proper(weak)
            with pytest.raises(NotProperError) as set_error:
                check_proper(eager)
            assert str(dense_error.value) == str(set_error.value)

    def test_proper_dense_schema_has_no_violations(self):
        result = properize(weak_merge(*diamond_chain_schemas(4)))
        assert properness_violations(result) == []
        assert check_proper(result) is result


class TestMergeReport:
    def test_report_members_match_the_reference(self):
        family = nfa_blowup_pair(6)
        report = merge_report(*family)
        weak = weak_merge(*family)
        assert set(report.implicit_members) == reference_implicit_sets(weak)
        assert report.merged == reference_properize(weak)

    def test_vetting_still_runs_when_a_relation_is_given(self):
        family = diamond_chain_schemas(2)
        with pytest.raises(InconsistentSchemasError):
            upper_merge(*family, consistency=ConsistencyRelation())
        with pytest.raises(InconsistentSchemasError):
            merge_report(*family, consistency=ConsistencyRelation())
