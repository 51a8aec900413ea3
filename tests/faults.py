"""Fault injection for the follower tests.

A :class:`FaultRule` describes one misbehaviour — *hang*, *slow*,
*drop*, *error*, or *flap* — matched against a per-operation call
counter.  :class:`FaultyWal` wraps a follower's WAL view and runs the
matching rules before delegating, so the tailer under test sees a real
hang in directory I/O without any cooperation from the log.

========  =====================================================
kind      behaviour on a matching call
========  =====================================================
hang      sleep ``duration`` seconds (default 10), then proceed
slow      sleep ``duration`` seconds (default 0.05), then proceed
drop      raise :class:`ConnectionError` (connection lost)
error     raise :class:`RuntimeError` (crash)
flap      raise :class:`ConnectionError`; pairs with ``every=2``
          so the call alternates failing and working
========  =====================================================

Rules are deterministic (pure counter arithmetic), so a seed fully
determines the failure schedule.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = ["FaultRule", "FaultyWal"]


@dataclass
class FaultRule:
    """One injectable misbehaviour, matched by call number.

    Matches the ``n``-th call (1-based, counted per operation) when
    ``n >= start``, ``(n - start) % every == 0``, and fewer than
    ``count`` matches have fired (``count=None`` = forever).
    ``operation`` is the method name to intercept, or ``"*"`` for all
    intercepted methods.
    """

    kind: str
    operation: str = "*"
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

        The match is claimed (``_fired`` incremented) by the wrapper
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


class FaultyWal:
    """A WAL view whose polling operations misbehave on schedule.

    Wraps a :class:`~repro.wal.log.TenantWal`; intercepts ``reload`` and
    ``replay_into`` (the two calls a follower's tailer thread spends its
    life in) so tests can simulate a tailer stuck in directory I/O.
    Every other attribute delegates to the wrapped log.
    """

    def __init__(self, wal, rules: list[FaultRule], *, name: str = "wal"):
        self._inner = wal
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

    def reload(self):
        self._inject("reload")
        return self._inner.reload()

    def replay_into(self, service):
        self._inject("replay_into")
        return self._inner.replay_into(service)
