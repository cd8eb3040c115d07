"""Tests for the benchmark's own helpers.

Run from the checkout root::

    python3 -m pytest mergebench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ingest  # noqa: E402
import merge_offline  # noqa: E402
import run  # noqa: E402
from context import Context  # noqa: E402
from inputs import family_lines  # noqa: E402
from stats import Report, Tally, p50, tail  # noqa: E402

# ----------------------------------------------------------------------
# The tail rule
# ----------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    t = tail([float(x) for x in range(1, 101)])
    assert (t.value, t.percentile, t.samples, t.beyond) == (90.0, 90.0, 100, 10)


def test_tail_percentile_depends_only_on_sample_count():
    assert tail([1.0] * 1000).percentile == 99.0
    assert tail(list(range(700, 0, -1))).percentile == pytest.approx(100 * 690 / 700)
    assert tail(list(range(700))).value == 689


def test_tail_refuses_samples_too_few_to_lie_above_the_median():
    with pytest.raises(ValueError):
        tail([1.0] * 20)
    assert tail([float(x) for x in range(21)]).value >= p50(range(21))


def test_latency_pair_prints_both_with_the_sample_count_and_checks_them():
    report, tally = Report(), Tally()
    report.latency_pair(tally, "read", [float(x) for x in range(200)])
    assert report.metrics == {}
    assert report.notes == ["read: n=200 p50=99.500ms tail=p95.00 (10 beyond) 189.000ms"]
    assert tally.failed == 0 and tally.attempted == 1


# ----------------------------------------------------------------------
# Every run prints every metric of the manifest
# ----------------------------------------------------------------------

UNITS = {"http.read_self_ms": "ms", "merge.weak_ms": "ms", "memo.hit_rate": "ratio"}


def test_layers_a_workload_never_enters_read_zero_in_the_manifest_unit():
    report = Report()
    report.add("memo.hit_rate", 0.5, "ratio")
    assert run.complete(report, UNITS, ("http.", "merge.")) == []
    assert report.metrics["http.read_self_ms"] == {"value": 0.0, "unit": "ms"}
    assert report.metrics["merge.weak_ms"] == {"value": 0.0, "unit": "ms"}
    assert "not entered" in report.notes[0]


def test_a_metric_missing_extra_or_in_another_unit_is_refused():
    report = Report()
    report.add("memo.hit_rate", 50.0, "%")
    report.add("merge.weak_ms", 1.0, "ms")
    report.add("schemas_per_s", 1.0, "1/s")
    problems = run.complete(report, UNITS, ("merge.",))
    assert problems == ["http.read_self_ms not reported",
                        "schemas_per_s is not in BENCHMARK.json",
                        "memo.hit_rate in %, BENCHMARK.json says ratio"]


def test_not_entered_prefixes_name_only_layers_of_the_manifest():
    units = run.manifest_units(HERE.parent, trace=True)
    for module in (ingest, merge_offline):
        for prefix in module.NOT_ENTERED:
            assert any(name.startswith(prefix) for name in units), prefix
    end_to_end = run.manifest_units(HERE.parent, trace=False)
    assert not any(name.startswith(p) for name in end_to_end
                   for m in (ingest, merge_offline) for p in m.NOT_ENTERED)


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------


def test_a_failed_check_is_a_failed_operation():
    tally = Tally()
    tally.ok(9)
    assert tally.check(False, "answer differs") is False
    assert (tally.attempted, tally.failed, tally.correct) == (10, 1, False)
    assert tally.reasons == ["answer differs"]
    result = Report().result(tally)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 10, 1)


def test_checker_outcomes_fold_into_the_tally(tmp_path):
    ctx = Context(tmp_path, HERE, tmp_path, seed=1, seconds=1, trace=False)
    ctx.record_checks({"checks": 5, "failures": ["view differs", "generation"]})
    assert (ctx.tally.attempted, ctx.tally.failed) == (5, 2)
    assert not ctx.tally.correct


def test_ingest_receipt_whose_generation_goes_back_fails(tmp_path):
    ctx = Context(tmp_path, HERE, tmp_path, seed=1, seconds=1, trace=False)

    def receipt(generation):
        return 200, json.dumps({"generation": generation}).encode()

    inputs = ingest.Inputs(base=[b"base"], base_schemas=1, hot=[], bodies=[],
                           reads=[], sample=[])
    run_ = ingest.Pass(server=None, data_dir=tmp_path, setup_s=0.0)
    run_.receipts = [receipt(2), receipt(4), receipt(3), (500, b"error")]
    assert ingest.check_receipts(ctx, inputs, run_) == {"generation": 4}
    assert (ctx.tally.attempted, ctx.tally.failed) == (4, 2)


def _schema_doc(classes, arrows=(), spec=()):
    return {"format": "repro.schema/1", "classes": sorted(classes),
            "arrows": [list(a) for a in arrows], "spec": [list(s) for s in spec]}


DOCS = [
    _schema_doc(["Dog", "Person"], arrows=[("Dog", "owner", "Person")]),
    _schema_doc(["Puppy", "Dog"], spec=[("Puppy", "Dog")]),
    _schema_doc(["Cat"]),
]


def _served_query(service, cls):
    answer = json.loads(json.dumps(service.query(cls).to_dict()))
    answer["format"] = "repro.api/1"
    return answer


def test_answer_check_fails_on_a_wrong_answer():
    from check import Checker
    from repro.io.json_io import schema_from_dict
    from repro.service import MergeService

    service = MergeService([schema_from_dict(d) for d in DOCS])
    good = _served_query(service, "Puppy")
    checker = Checker(DOCS)
    checker.answers({"Puppy": good}, {})
    assert checker.failures == [] and checker.checks >= 1

    bad = dict(good, generalizations=[])
    checker = Checker(DOCS)
    checker.answers({"Puppy": bad}, {})
    assert checker.failures == ["query Puppy differs from the in-process service"]


def test_durability_check_fails_when_an_acknowledged_batch_is_missing(tmp_path):
    from check import Checker
    from repro.io.json_io import schema_from_dict
    from repro.service import MergeService

    service = MergeService.open(tmp_path / "data")
    receipt = service.register([schema_from_dict(d) for d in DOCS[:2]])
    service.close()
    spec = {"data_dir": str(tmp_path / "data"),
            "generation": receipt.generation, "components": receipt.components}
    # The directory holds the first batch only; the third schema was
    # "acknowledged" too, so recovery must come up short.
    checker = Checker(DOCS)
    checker.recovery(spec, {}, {})
    assert "recovered component partition differs" in checker.failures
    assert any("schema count" in f for f in checker.failures)

    checker = Checker(DOCS[:2])
    checker.recovery(spec, {}, {})
    assert checker.failures == []


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def _ingest_bytes(seed):
    inputs = ingest.build(seed, seconds=1)
    return inputs.base + inputs.bodies + [f"{k} {c}".encode() for k, c in inputs.reads]


@pytest.mark.parametrize("make", [_ingest_bytes, lambda seed: list(family_lines(seed, 0, 3))])
def test_same_seed_same_bytes_other_seed_other_bytes(make):
    assert make(7) == make(7)
    first, other = make(7), make(8)
    assert len(first) == len(other)
    assert all(a != b for a, b in zip(first[:3], other[:3]))
