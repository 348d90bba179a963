"""Tests of the harness's own logic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import math
import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import inputs  # noqa: E402
from harness import SpanRecord  # noqa: E402


# -- the percentile rule ------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    for pct, needed in ((90.0, 100), (95.0, 200), (99.0, 1000)):
        assert not harness.reportable(needed - 1, pct)
        assert harness.reportable(needed, pct)
    assert not harness.reportable(199, 95.0)
    assert harness.reportable(200, 95.0)
    assert harness.samples_beyond(200, 95.0) == 10


def test_highest_reportable_percentile_is_chosen():
    assert harness.tail_percentile(99) is None
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(999) == 95.0
    assert harness.tail_percentile(1000) == 99.0
    assert harness.tail_percentile(10000) == 99.9


def test_too_few_samples_report_the_median_only():
    summary = harness.summarize([5.0, 1.0, 3.0])
    assert summary == {"n": 3, "p50": 3.0, "tail_pct": None, "tail": None}
    with pytest.raises(ValueError):
        harness.percentile(list(range(150)), 95.0)
    assert harness.percentile([4.0], 50.0) == 4.0


def test_nearest_rank_values():
    samples = [float(v) for v in range(1, 201)]
    random.Random(3).shuffle(samples)
    assert harness.percentile(samples, 50.0) == 100.0
    assert harness.percentile(samples, 95.0) == 190.0
    summary = harness.summarize(samples)
    assert (summary["tail_pct"], summary["tail"]) == (95.0, 190.0)


# -- self time ----------------------------------------------------------------


def span(span_id, parent, name, start, end, request=1):
    return SpanRecord(span_id, parent, request, name, start, end)


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        span(1, None, "request", 0.0, 10.0),
        span(2, 1, "db", 1.0, 4.0),
        span(3, 1, "db", 3.0, 6.0),    # overlaps its sibling
        span(4, 1, "engine", 9.0, 12.0),  # runs past its parent
        span(5, 2, "scan", 1.5, 2.0),
    ]
    own = harness.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)
    times = harness.layer_times(spans)
    assert times["db"]["self_s"] == pytest.approx(5.5)
    assert times["db"]["total_s"] == pytest.approx(6.0)
    assert times["request"]["calls"] == 1


def test_nested_spans_of_one_name_count_once_in_the_total():
    spans = [
        span(1, None, "annotator", 0.0, 10.0),
        span(2, 1, "annotator", 2.0, 5.0),
    ]
    times = harness.layer_times(spans)
    assert times["annotator"]["total_s"] == pytest.approx(10.0)
    assert times["annotator"]["self_s"] == pytest.approx(10.0)


def test_recorder_links_parents_and_request_ids():
    ticks = iter(range(100))
    recorder = harness.SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("request") as outer:
        with recorder.span("db"):
            pass
    with recorder.span("request", request_id=42):
        pass

    def worker():
        with recorder.span("graph"):
            pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    db, first, second, graph = recorder.spans
    assert db.parent_id == outer and db.request_id == first.request_id
    assert first.parent_id is None and second.request_id == 42
    assert graph.parent_id is None
    assert len({first.request_id, second.request_id, graph.request_id}) == 3
    assert (db.start, db.end) == (1.0, 2.0)


# -- seeded generation --------------------------------------------------------


def test_exact_mix_has_exact_shares_and_is_seeded():
    weights = {"a": 0.5, "b": 0.3, "c": 0.2}
    one = harness.exact_mix(random.Random(1), weights, 101)
    assert (one.count("a"), one.count("b"), one.count("c")) == (51, 30, 20)
    assert one == harness.exact_mix(random.Random(1), weights, 101)
    assert one != harness.exact_mix(random.Random(2), weights, 101)


def test_zipf_weights_fall_with_rank():
    assert harness.zipf_weights(3, 1.0) == [1.0, 0.5, 1 / 3]


def test_repeat_share():
    assert harness.repeat_share([]) == 0.0
    assert harness.repeat_share(["a", "b", "a", "a"]) == 0.5


def small_pools() -> inputs.Pools:
    return inputs.Pools(
        towers=("Mainframe Services", "Network Services", "Storage",
                "Security Services", "Voice Services", "LAN", "AS400",
                "Help Desk Services"),
        industries=("Banking", "Retail"),
        geographies=("AP, Japan", "EMEA, Germany", "AP, Australia",
                     "Americas, Canada"),
        customers=("Acme", "Globex"),
        names=tuple(f"Person {i}" for i in range(40)),
        roles=("Pricer", "Transition Manager", "Sales Leader", "HR Lead",
               "IT Director", "Contracts Lead"),
        technologies=("LPAR tuning", "MPLS routing", "SAN zoning",
                      "IVR scripting", "AIX administration", "VLAN setup"),
        deal_ids=tuple(f"D{i:03d}" for i in range(60)),
    )


def test_cold_plan_is_seeded_distinct_and_exactly_mixed():
    pools = small_pools()
    plan = inputs.cold_plan(5, pools, 2 * inputs.COLD_BLOCK)
    assert plan == inputs.cold_plan(5, pools, 2 * inputs.COLD_BLOCK)
    assert plan != inputs.cold_plan(6, pools, 2 * inputs.COLD_BLOCK)
    assert harness.repeat_share(plan) == 0.0
    for block in (plan[:inputs.COLD_BLOCK], plan[inputs.COLD_BLOCK:]):
        ops = [request[0] for request in block]
        assert {op: ops.count(op) for op in inputs.OPS} == {
            "search": 40, "graph": 40, "keyword": 10, "synopsis": 10}
        kinds = [request[1] for request in block if request[0] == "search"]
        # 40 searches in the paper's 46:20:43:35 proportions.
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            "mq1": 13, "mq2": 5, "mq3": 12, "mq4": 10}


def test_churn_plan_has_exact_zipf_repeats_in_every_window():
    pools = small_pools()
    windows, window = 4, 40
    plan = inputs.churn_plan(5, pools, windows, window)
    assert len(plan) == windows * window
    assert plan == inputs.churn_plan(5, pools, windows, window)
    assert plan != inputs.churn_plan(6, pools, windows, window)
    hot_sets = []
    for start in range(0, len(plan), window):
        reads = plan[start:start + window]
        ops = [request[0] for request in reads]
        assert {op: ops.count(op) for op in inputs.OPS} == {
            "search": 28, "graph": 4, "keyword": 4, "synopsis": 4}
        searches = [r for r in reads if r[0] in inputs.CACHED_OPS]
        # mq1, mq2 and mq3 asked 12, 5 and 11 times in Zipf counts over
        # up to eight requests each: 19 first asks, 9 repeats.
        counts = {kind: sorted((searches.count(r) for r in set(searches)
                                if r[1] == kind), reverse=True)
                  for kind in ("mq1", "mq2", "mq3")}
        assert counts == {"mq1": [4, 2, 1, 1, 1, 1, 1, 1],
                          "mq2": [2, 1, 1, 1],
                          "mq3": [4, 2, 1, 1, 1, 1, 1]}
        assert len(set(searches)) == inputs.churn_window_misses(window)
        assert harness.repeat_share(searches) == 9 / 28
        hot_sets.append(set(searches))
    # Each window's hot set is new, so no hit outlives a write.
    assert len(set().union(*hot_sets)) == sum(map(len, hot_sets))
    kinds = {request[1] for request in plan if request[0] == "graph"}
    assert kinds == {"worked-with", "team-overlap"}


def test_stratified_deck_balances_bands():
    deck = harness.StratifiedDeck(list(range(40)), 4)
    rng = random.Random(2)
    draws = [deck.draw(rng) for _ in range(40)]
    assert sorted(draws) == list(range(40))
    assert sorted(d // 10 for d in draws[:8]) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_deck_deals_every_item_before_repeating():
    deck = harness.Deck("abcde")
    rng = random.Random(1)
    first = [deck.draw(rng) for _ in range(5)]
    assert sorted(first) == list("abcde")
    assert sorted(deck.draw(rng) for _ in range(5)) == list("abcde")


def test_churn_order_is_seeded():
    books = list(range(10))
    assert inputs.churn_order(3, books) == inputs.churn_order(3, books)
    assert sorted(inputs.churn_order(3, books)) == books


# -- failure accounting -------------------------------------------------------


class Shed(Exception):
    pass


class Late(Exception):
    pass


def test_each_failure_kind_counts_and_misses_any_latency_limit():
    ledger = harness.Ledger()
    ledger.record("search", 0.010)
    statuses = [
        harness.classify_exception(exc, (Shed,), (Late,))
        for exc in (Shed(), Late(), RuntimeError())
    ]
    assert statuses == [harness.SHED, harness.DEADLINE, harness.EXCEPTION]
    for status in statuses:
        ledger.record("search", 0.001, status, "boom")
    wrong = ledger.record("search", 0.002)
    ledger.mark_wrong(wrong, "bad answer")
    assert ledger.attempted == 5
    assert ledger.failed == 4
    assert ledger.by_status() == {"ok": 1, "shed": 1, "deadline": 1,
                                  "exception": 1, "wrong": 1}
    latencies = ledger.latencies("search")
    # A failure misses any latency limit, however long.
    assert sorted(latencies)[:1] == [0.010]
    assert sum(math.isinf(s) for s in latencies) == 4
    assert harness.percentile(latencies, 50.0) == math.inf
    assert len(ledger.errors) == 4


def test_program_errors_classify_as_shed_and_deadline():
    from repro.errors import DeadlineExceededError, ServerOverloadedError

    shed, late = (ServerOverloadedError,), (DeadlineExceededError,)
    assert harness.classify_exception(
        ServerOverloadedError("full"), shed, late) == harness.SHED
    assert harness.classify_exception(
        DeadlineExceededError("late"), shed, late) == harness.DEADLINE
