"""End-to-end request deadlines.

A :class:`Deadline` is an absolute expiry on the monotonic clock,
created once per request (``?deadline_ms=`` or ``--default-deadline-ms``)
and carried by the request context (:mod:`repro.context`) beside the
trace — the ROADMAP's "wire deadlines to span clocks rather than
inventing a second timing layer" item: both ride
:func:`time.perf_counter` and one propagation discipline, written down
in that module.

Checkpoints pull the active deadline **once** with
:func:`current_deadline` and then test ``deadline.expired()`` inside
their loops; when no deadline is set the per-iteration cost is a single
``is not None`` test, which keeps the disabled-resilience overhead on
the serving ladder (``benchmarks/ladder``) in the noise.
"""

from __future__ import annotations

from time import perf_counter

from repro.exceptions import DeadlineExceededError
from repro.obs.trace import _REQUEST

__all__ = [
    "Deadline",
    "check_deadline",
    "current_deadline",
]


class Deadline:
    """An absolute expiry on the monotonic clock.

    Immutable after construction; safe to share across the threads a
    single request fans out to (reads only).
    """

    __slots__ = ("budget_ms", "started", "expires_at")

    def __init__(self, budget_ms: float, *, started: float | None = None):
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be positive: {budget_ms}")
        self.budget_ms = float(budget_ms)
        self.started = perf_counter() if started is None else started
        self.expires_at = self.started + self.budget_ms / 1000.0

    @classmethod
    def after_ms(cls, budget_ms: float) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(budget_ms)

    # ------------------------------------------------------------------

    def elapsed_ms(self) -> float:
        return (perf_counter() - self.started) * 1000.0

    def remaining_seconds(self) -> float:
        """Seconds until expiry; zero or negative once expired."""
        return self.expires_at - perf_counter()

    def remaining_ms(self) -> float:
        return self.remaining_seconds() * 1000.0

    def expired(self) -> bool:
        return perf_counter() >= self.expires_at

    def check(self, where: str, **partial) -> None:
        """Raise a structured 504 if this deadline has expired.

        ``partial`` becomes the error's partial-progress accounting
        (rounds completed, vertices passed, ...).
        """
        if perf_counter() >= self.expires_at:
            raise DeadlineExceededError(
                where,
                elapsed_ms=self.elapsed_ms(),
                budget_ms=self.budget_ms,
                partial=partial or None,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Deadline(budget_ms={self.budget_ms:.1f}, "
            f"remaining_ms={self.remaining_ms():.1f})"
        )


def current_deadline() -> Deadline | None:
    """The deadline of the current request, or ``None``.

    One ContextVar read; callers capture the result once and test
    ``is not None`` in their loops.
    """
    context = _REQUEST.get()
    return context.deadline if context is not None else None


def check_deadline(where: str, **partial) -> None:
    """Check the *ambient* deadline; no-op when none is active.

    Convenience for one-shot checkpoints (the service execute seam);
    loops should capture :func:`current_deadline` once instead.
    """
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(where, **partial)
