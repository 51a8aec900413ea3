"""End-to-end request deadlines on a ContextVar.

A :class:`Deadline` is an absolute expiry on the monotonic clock,
created once per request (``?deadline_ms=`` or ``--default-deadline-ms``)
and carried on a ContextVar exactly like the PR 6 trace — the ROADMAP's
"wire deadlines to span clocks rather than inventing a second timing
layer" item: both ride :func:`time.perf_counter` and the same
request-scoped propagation discipline.

Checkpoints pull the active deadline **once** with
:func:`current_deadline` and then test ``deadline.expired()`` inside
their loops; when no deadline is set the per-iteration cost is a single
``is not None`` test, which keeps the disabled-resilience overhead on
the serving ladder (``benchmarks/ladder``) in the noise.  Thread pools do *not* inherit
ContextVars, so fan-out sites (the batch executor, the scatter pool)
re-activate the deadline explicitly with :class:`use_deadline`, the same
pattern :class:`repro.obs.trace.use_trace` uses for spans.
"""

from __future__ import annotations

from contextvars import ContextVar
from time import perf_counter

from repro.exceptions import DeadlineExceededError

__all__ = [
    "Deadline",
    "check_deadline",
    "current_deadline",
    "use_deadline",
]

_ACTIVE_DEADLINE: ContextVar[Deadline | None] = ContextVar(
    "repro_active_deadline", default=None
)


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
    return _ACTIVE_DEADLINE.get()


def check_deadline(where: str, **partial) -> None:
    """Check the *ambient* deadline; no-op when none is active.

    Convenience for one-shot checkpoints (the service execute seam);
    loops should capture :func:`current_deadline` once instead.
    """
    deadline = _ACTIVE_DEADLINE.get()
    if deadline is not None:
        deadline.check(where, **partial)


class use_deadline:
    """Context manager that (de)activates a deadline for a block.

    ``use_deadline(None)`` deactivates — used by pool workers to scope
    the parent request's deadline (or lack of one) onto their thread,
    mirroring :class:`repro.obs.trace.use_trace`.
    """

    __slots__ = ("deadline", "_token")

    def __init__(self, deadline: Deadline | None):
        self.deadline = deadline
        self._token = None

    def __enter__(self) -> Deadline | None:
        self._token = _ACTIVE_DEADLINE.set(self.deadline)
        return self.deadline

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_DEADLINE.reset(self._token)
        self._token = None
