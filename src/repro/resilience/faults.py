"""Fault injection for chaos tests and the CI ``chaos`` job.

A :class:`FaultRule` describes one misbehaviour — *hang*, *slow*,
*drop*, *error*, or *flap* — matched against a per-target, per-operation
call counter.  A :class:`FaultPlan` groups rules by target.
:class:`FaultyWorker` wraps a shard worker or its HTTP stub and runs
the matching rules before delegating, so the coordinator under test sees
real timeouts, real connection failures, and real slow responses without
any cooperation from the worker.  :class:`FaultyWal` does the same for a
follower's WAL view (a tailer stuck in I/O).

The injected failure types map onto what the resilience layer must
absorb:

========  =====================================================
kind      behaviour on a matching call
========  =====================================================
hang      sleep ``duration`` seconds (default 10), then proceed
slow      sleep ``duration`` seconds (default 0.05), then proceed
drop      raise :class:`ConnectionError` (connection lost)
error     raise :class:`RuntimeError` (worker-side crash)
flap      raise :class:`ConnectionError`; pairs with ``every=2``
          so the worker alternates failing and working
========  =====================================================

Rules are deterministic (pure counter arithmetic), so a chaos seed fully
determines the failure schedule.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["FaultPlan", "FaultRule", "FaultyWal", "FaultyWorker"]


@dataclass
class FaultRule:
    """One injectable misbehaviour, matched by call number.

    Matches the ``n``-th call (1-based, counted per target and
    operation) when ``n >= start``, ``(n - start) % every == 0``, and
    fewer than ``count`` matches have fired (``count=None`` = forever).
    ``operation`` is the method name to intercept, or ``"*"`` for all
    intercepted methods.
    """

    kind: str
    operation: str = "expand"
    start: int = 1
    every: int = 1
    count: int | None = None
    duration: float | None = None
    _fired: int = field(default=0, repr=False, compare=False)

    KINDS = ("hang", "slow", "drop", "error", "flap")
    _DEFAULT_DURATIONS = {"hang": 10.0, "slow": 0.05}

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.start < 1 or self.every < 1:
            raise ValueError("start and every must be >= 1")
        if self.duration is None:
            self.duration = self._DEFAULT_DURATIONS.get(self.kind, 0.0)

    def matches(self, operation: str, call_number: int) -> bool:
        if self.operation not in ("*", operation):
            return False
        if call_number < self.start:
            return False
        if (call_number - self.start) % self.every != 0:
            return False
        return self.count is None or self._fired < self.count

    def fire(self, target: object, operation: str) -> None:
        """Apply the side effect (sleep and/or raise).

        The match is claimed (``_fired`` incremented) by the injector
        under its lock *before* this runs, so hangs do not serialize
        other calls.
        """
        if self.kind in ("hang", "slow"):
            time.sleep(self.duration)
            return
        message = (
            f"injected {self.kind} on {target}.{operation} "
            f"(match #{self._fired})"
        )
        if self.kind == "error":
            raise RuntimeError(message)
        raise ConnectionError(message)  # drop, flap


class FaultPlan:
    """Rules grouped by target key (shard id, ``"wal"``, ...)."""

    def __init__(self, rules: dict[object, list[FaultRule]] | None = None):
        self._rules: dict[object, list[FaultRule]] = {
            key: list(value) for key, value in (rules or {}).items()
        }

    def add(self, target: object, rule: FaultRule) -> "FaultPlan":
        self._rules.setdefault(target, []).append(rule)
        return self

    def rules_for(self, target: object) -> list[FaultRule]:
        return self._rules.get(target, [])

    def describe(self) -> dict:
        """JSON-ready summary (the CI job logs the active plan)."""
        return {
            str(target): [
                {
                    "kind": rule.kind,
                    "operation": rule.operation,
                    "start": rule.start,
                    "every": rule.every,
                    "count": rule.count,
                    "duration": rule.duration,
                }
                for rule in rules
            ]
            for target, rules in self._rules.items()
        }


class _FaultInjector:
    """Shared call-counting + rule dispatch for the wrappers."""

    def __init__(self, inner, rules: list[FaultRule], name: str):
        self._inner = inner
        self._faults = list(rules)
        self._name = name
        self._calls: dict[str, int] = {}
        self._fault_lock = threading.Lock()

    def _inject(self, operation: str) -> None:
        with self._fault_lock:
            number = self._calls.get(operation, 0) + 1
            self._calls[operation] = number
            matched = [
                rule for rule in self._faults
                if rule.matches(operation, number)
            ]
            for rule in matched:
                rule._fired += 1
        # Fire outside the lock: hangs must not serialize other calls.
        for rule in matched:
            rule.fire(self._name, operation)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class FaultyWorker(_FaultInjector):
    """A shard worker that misbehaves on schedule.

    Wraps any object with the worker call surface (``expand``,
    ``local_query``, ``prepare``, ``describe``); drop it into
    ``coordinator.workers[i]`` to put rule-driven faults on the query
    path, or into ``service.workers[i]`` to refuse an update's prepare.
    Unintercepted attributes delegate to the wrapped worker.
    """

    def __init__(self, worker, rules: list[FaultRule], *, name: str = "worker"):
        super().__init__(worker, rules, name)

    def expand(self, seeds, mask, exclude=()):
        self._inject("expand")
        return self._inner.expand(seeds, mask, exclude)

    def local_query(self, query):
        self._inject("local_query")
        return self._inner.local_query(query)

    def prepare(self, txn, **staged):
        self._inject("prepare")
        return self._inner.prepare(txn, **staged)

    def describe(self) -> dict:
        document = dict(self._inner.describe())
        document["faults"] = {
            "calls": dict(self._calls),
            "rules": len(self._faults),
        }
        return document


class FaultyWal(_FaultInjector):
    """A WAL view whose polling operations misbehave on schedule.

    Wraps a :class:`~repro.wal.log.TenantWal`; intercepts ``reload`` and
    ``replay_into`` (the two calls a follower's tailer thread spends its
    life in) so tests can simulate a tailer stuck in directory I/O.
    """

    def __init__(self, wal, rules: list[FaultRule], *, name: str = "wal"):
        super().__init__(wal, rules, name)

    def reload(self):
        self._inject("reload")
        return self._inner.reload()

    def replay_into(self, service):
        self._inject("replay_into")
        return self._inner.replay_into(service)
