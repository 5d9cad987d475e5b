"""Span tracing: IOSpan/SpanLog units plus end-to-end stamping through
the simulated BM-Store datapath (the Fig. 6 stages)."""

import random

import pytest

from repro.obs import STAGES, IOSpan, MetricsRegistry, SpanLog
from repro.obs.spans import STAMP_ORDER
from repro.sim.units import MS
from repro.workloads.fio import FioSpec


# ----------------------------------------------------------------- units
def test_span_completeness_requires_all_seven_stages():
    span = IOSpan("read")
    for i, stage in enumerate(STAGES[:-1]):
        span.stamp(stage, i * 10)
        assert not span.is_complete
    span.stamp(STAGES[-1], 100)
    assert span.is_complete


def test_span_monotonicity_and_deltas():
    span = IOSpan("read")
    span.stamp("submit", 0)
    span.stamp("doorbell", 40)
    span.stamp("fetch", 90)
    assert span.is_monotone
    assert span.stage_deltas() == [("doorbell", 40), ("fetch", 50)]
    assert span.duration_ns("submit", "fetch") == 90
    assert span.duration_ns("submit", "complete") is None
    span.stamp("lba_map", 50)  # earlier than the prior stage
    assert not span.is_monotone


def test_span_restamp_keeps_latest():
    span = IOSpan("write")
    span.stamp("ssd_dma", 10)
    span.stamp("ssd_dma", 30)  # e.g. multi-extent fan-out, last fragment
    assert span.get("ssd_dma") == 30


def _sorted_stamps(span):
    """The stamp order as a key sort: datapath index, then time, with
    unknown stages after every known one (the ordered_stamps contract)."""
    index = {stage: i for i, stage in enumerate(STAMP_ORDER)}
    return sorted(span.stamps.items(),
                  key=lambda kv: (index.get(kv[0], len(STAMP_ORDER)), kv[1]))


def _sorted_deltas(span):
    ordered = _sorted_stamps(span)
    return [(stage, t - ordered[i - 1][1])
            for i, (stage, t) in enumerate(ordered) if i > 0]


def _shuffled_span(seed, extra=()):
    rng = random.Random(seed)
    stamps = [(stage, rng.randrange(0, 500)) for stage in STAMP_ORDER
              if rng.random() < 0.8]
    stamps += list(extra)
    rng.shuffle(stamps)
    span = IOSpan("write")
    for stage, t in stamps:
        span.stamp(stage, t)
    return span


@pytest.mark.parametrize("seed", range(12))
def test_ordered_stamps_match_key_sort_for_any_insertion_order(seed):
    span = _shuffled_span(seed)
    assert span.ordered_stamps() == _sorted_stamps(span)
    assert span.stage_deltas() == _sorted_deltas(span)


def test_ordered_stamps_match_key_sort_after_restamps():
    span = IOSpan("read")
    for t, stage in enumerate(("complete", "submit", "qos", "fetch")):
        span.stamp(stage, 100 + t)
    span.stamp("submit", 400)  # re-stamped: keeps its first insertion slot
    span.stamp("qos", 5)
    assert span.ordered_stamps() == _sorted_stamps(span)
    assert span.ordered_stamps()[0] == ("submit", 400)
    assert span.stage_deltas() == _sorted_deltas(span)


@pytest.mark.parametrize("seed", range(6))
def test_unknown_stages_come_last_by_time_ties_in_stamp_order(seed):
    extra = [("zz_retry", 70), ("aa_probe", 70), ("mid", 10), ("late", 900),
             ("aa_tie", 70)]
    span = _shuffled_span(seed, extra)
    ordered = span.ordered_stamps()
    assert ordered == _sorted_stamps(span)
    assert span.stage_deltas() == _sorted_deltas(span)
    tail = ordered[-len(extra):]
    assert [stage for stage, _ in tail][0] == "mid"
    assert tail[-1] == ("late", 900)
    ties = [stage for stage, t in tail if t == 70]
    assert ties == [stage for stage in span.stamps if stage in
                    ("zz_retry", "aa_probe", "aa_tie")]


def test_span_total_is_submit_to_interrupt():
    span = IOSpan("read")
    span.stamp("submit", 100)
    span.stamp("interrupt", 4100)
    assert span.total_ns() == 4000


def test_spanlog_caps_and_counts_drops():
    log = SpanLog(capacity=2)
    for i in range(5):
        span = IOSpan("read")
        span.stamp("submit", i)
        log.add(span)
    assert len(log) == 2
    assert log.dropped == 3
    assert log[0].get("submit") == 0
    log.clear()
    assert len(log) == 0 and log.dropped == 0


# ----------------------------------------------- end-to-end through the sim
def _small_spec():
    return FioSpec("span-probe", "randread", 4096, iodepth=4, numjobs=1,
                   runtime_ns=2 * MS, ramp_ns=MS // 2)


def test_bmstore_spans_cover_all_stages_and_are_monotone():
    from repro.experiments.common import run_case

    case = run_case("bmstore", _small_spec(), seed=3)
    spans = list(case.obs.spans)
    assert spans, "a bmstore run must record spans"
    for span in spans:
        assert span.is_complete, f"missing stages: {span!r}"
        assert span.is_monotone, f"time went backwards: {span!r}"
    # every canonical inter-stage delta fed its histogram
    hists = case.obs.histograms("span_stage_ns")
    for stage in STAGES[1:]:
        h = hists.get((("stage", stage),))
        assert h is not None and h.count == len(spans), stage


def test_bmstore_run_populates_namespace_counters():
    from repro.experiments.common import run_case

    case = run_case("bmstore", _small_spec(), seed=3)
    ops = case.obs.counters("ns_ops")
    assert ops, "the engine I/O monitor must count per-namespace ops"
    (labels, counter), = ops.items()
    tags = dict(labels)
    assert tags["op"] == "read"
    assert counter.value > 0
    # total latency histogram agrees with the span log
    total = case.obs.histograms("span_total_ns")[()]
    assert total.count == len(case.obs.spans) + case.obs.spans.dropped


def test_native_spans_lack_engine_stages():
    from repro.experiments.common import run_case

    case = run_case("native", _small_spec(), seed=3)
    spans = list(case.obs.spans)
    assert spans, "the native driver still records spans"
    for span in spans:
        assert "submit" in span and "interrupt" in span
        assert "doorbell" not in span  # no BMS-Engine on the native path
        assert not span.is_complete


def test_finish_span_accounts_incomplete_spans_too():
    reg = MetricsRegistry()
    span = IOSpan("read")
    span.stamp("submit", 0)
    span.stamp("interrupt", 500)
    reg.finish_span(span)
    assert len(reg.spans) == 1
    assert reg.spans.complete() == []
    assert reg.histograms("span_total_ns")[()].count == 1
