"""Fault-injection harness: rule matching, firing, and WAL wrapper delegation."""

from __future__ import annotations

import pytest

from tests.faults import FaultRule, FaultyWal


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

    def test_a_rule_for_another_operation_never_touches_reload(self):
        inner = self.StubWal()
        wal = FaultyWal(inner, [FaultRule("error", operation="replay_into")])
        wal.reload()
        assert inner.reloads == 1
        with pytest.raises(RuntimeError):
            wal.replay_into(None)
