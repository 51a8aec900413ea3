"""Fault-injection harness: rule matching, firing, and wrapper delegation."""

from __future__ import annotations

import time

import pytest

from repro.resilience.faults import FaultPlan, FaultRule, FaultyWal, FaultyWorker


class Recorder:
    """A stand-in worker recording every expand call."""

    shard_id = 0

    def __init__(self):
        self.calls = []

    def expand(self, seeds, mask, exclude=()):
        self.calls.append((tuple(seeds), mask, tuple(exclude)))
        return "expanded"

    def local_query(self, query):
        return {"answer": True}

    def describe(self):
        return {"shard": self.shard_id}

    def custom_method(self):
        return "delegated"


class TestFaultRule:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultRule("explode")

    def test_matches_start_every_count(self):
        rule = FaultRule("error", start=2, every=2, count=2)
        fired = []
        for n in range(1, 10):
            if rule.matches("expand", n):
                rule._fired += 1  # the injector claims matches like this
                fired.append(n)
        assert fired == [2, 4]  # count=2 caps it

    def test_every_without_count_keeps_firing(self):
        rule = FaultRule("error", start=1, every=3)
        hits = []
        for n in range(1, 10):
            if rule.matches("expand", n):
                rule._fired += 1
                hits.append(n)
        assert hits == [1, 4, 7]

    def test_operation_must_match(self):
        rule = FaultRule("error", operation="reload")
        assert not rule.matches("expand", 1)
        assert rule.matches("reload", 1)
        wildcard = FaultRule("error", operation="*")
        assert wildcard.matches("expand", 1)
        assert wildcard.matches("reload", 1)


class TestFaultyWorker:
    def test_error_rule_raises_runtime_error(self):
        worker = FaultyWorker(Recorder(), [FaultRule("error")])
        with pytest.raises(RuntimeError, match="injected error"):
            worker.expand([1], 0b1)

    def test_drop_and_flap_raise_connection_error(self):
        for kind in ("drop", "flap"):
            worker = FaultyWorker(Recorder(), [FaultRule(kind)], name="w9")
            with pytest.raises(ConnectionError, match=f"injected {kind} on w9"):
                worker.expand([1], 0b1)

    def test_count_limits_the_blast_radius(self):
        inner = Recorder()
        worker = FaultyWorker(inner, [FaultRule("error", count=2)])
        for _ in range(2):
            with pytest.raises(RuntimeError):
                worker.expand([1], 0b1)
        assert worker.expand([1], 0b1) == "expanded"
        assert len(inner.calls) == 1

    def test_slow_rule_delays_then_delegates(self):
        worker = FaultyWorker(
            Recorder(), [FaultRule("slow", duration=0.05)]
        )
        started = time.perf_counter()
        assert worker.expand([1], 0b1) == "expanded"
        assert time.perf_counter() - started >= 0.045

    def test_arguments_pass_through_unharmed(self):
        inner = Recorder()
        worker = FaultyWorker(inner, [])
        worker.expand([3, 4], 0b1, [9])
        assert inner.calls == [((3, 4), 0b1, (9,))]

    def test_local_query_interception(self):
        worker = FaultyWorker(
            Recorder(), [FaultRule("error", operation="local_query")]
        )
        with pytest.raises(RuntimeError):
            worker.local_query({"source": "s"})

    def test_describe_reports_fault_plan(self):
        worker = FaultyWorker(Recorder(), [FaultRule("error", count=1)])
        with pytest.raises(RuntimeError):
            worker.expand([1], 0b1)
        document = worker.describe()
        assert document["shard"] == 0
        faults = document["faults"]
        assert faults["calls"]["expand"] == 1
        assert faults["rules"] == 1

    def test_unwrapped_attributes_delegate(self):
        worker = FaultyWorker(Recorder(), [])
        assert worker.custom_method() == "delegated"
        assert worker.shard_id == 0


class TestFaultyWal:
    class StubWal:
        def __init__(self):
            self.reloads = 0

        def reload(self):
            self.reloads += 1

        def replay_into(self, service):
            return {"applied": 0, "skipped": 0}

    def test_reload_rule_fires(self):
        wal = FaultyWal(
            self.StubWal(), [FaultRule("error", operation="reload")]
        )
        with pytest.raises(RuntimeError):
            wal.reload()

    def test_default_expand_rules_never_touch_the_wal(self):
        inner = self.StubWal()
        wal = FaultyWal(inner, [FaultRule("error")])  # operation="expand"
        wal.reload()
        assert inner.reloads == 1


class TestFaultPlan:
    def test_describe_lists_rules(self):
        plan = FaultPlan({"expand": [FaultRule("hang", duration=0.1)]})
        described = plan.describe()
        assert described["expand"][0]["kind"] == "hang"
        assert described["expand"][0]["duration"] == 0.1
