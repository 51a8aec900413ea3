"""The request context: a request's trace and deadline as one value.

Every layer that serves a request reads the same two facts about it —
where its time is being spent (:class:`~repro.obs.trace.Trace`) and when
it must stop (:class:`~repro.resilience.deadline.Deadline`).  They travel
together as a :class:`RequestContext` on **one** context variable, so
"did this hop forward both?" is a property of the type, not of each call
site.

Context propagation rules:

* whoever starts a request arms its context with :class:`activate` — the
  HTTP handler once ``?deadline_ms=`` (or the server default) names a
  budget, the service when it starts a trace.  ``activate`` sets the
  variable and the span cursor and restores both on exit: safe to nest,
  and ``activate(None)`` masks an outer request for the covered region.
  A request with neither a trace nor a deadline arms nothing;
* readers never take the context as a parameter:
  :func:`~repro.obs.trace.span`, :func:`~repro.obs.trace.annotate`,
  :func:`~repro.resilience.deadline.current_deadline` and
  :func:`~repro.resilience.deadline.check_deadline` are accessors of the
  variable, one read each, no-ops when nothing is armed;
* thread pools do **not** inherit context variables, so every thread hop
  (a batch pool member, a scatter-pool expand, the co-located probe)
  submits ``rearm(fn)``: the callable re-arms the submitter's context on
  whatever thread runs it, with the submitter's open span as the cursor,
  so children nest exactly where they would have inline;
* processes share nothing, so every coordinator→worker call adds
  :meth:`RequestContext.to_wire` to its body (the trace id and the
  *remaining* budget) and the worker arms
  :meth:`RequestContext.from_wire` before it does anything else.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.exceptions import BadRequestError, DeadlineExceededError
from repro.obs.trace import _CURRENT_SPAN, _REQUEST, Span, Trace
from repro.resilience.deadline import Deadline

__all__ = ["RequestContext", "activate", "current_context", "rearm"]


class RequestContext:
    """One request's trace and deadline (either may be None).

    Immutable after construction and shared by every thread the request
    fans out to.
    """

    __slots__ = ("trace", "deadline")

    def __init__(
        self, trace: Trace | None = None, deadline: Deadline | None = None
    ) -> None:
        self.trace = trace
        self.deadline = deadline

    def to_wire(self) -> dict:
        """The keys a coordinator→worker body carries for this context:
        ``trace`` (the trace id) and ``deadline_ms`` (the budget *left*),
        each only when set."""
        wire: dict[str, Any] = {}
        if self.trace is not None:
            wire["trace"] = self.trace.trace_id
        if self.deadline is not None:
            wire["deadline_ms"] = self.deadline.remaining_ms()
        return wire

    @classmethod
    def from_wire(cls, payload: object, where: str) -> "RequestContext":
        """The worker-side context for a body built with :meth:`to_wire`.

        The trace continues under the caller's id (rooted at a span
        called ``where``); the deadline restarts from the shipped
        remainder, since the two processes share no clock.  A body that
        is not an object, or malformed keys, are a 400; a budget that is
        already spent is the structured 504 at ``where``, before any
        work starts.
        """
        if not isinstance(payload, dict):
            raise BadRequestError(f"{where}: expected a JSON object")
        trace_id = payload.get("trace")
        if trace_id is not None and not isinstance(trace_id, str):
            raise BadRequestError("'trace' must be a string trace id")
        budget_ms = payload.get("deadline_ms")
        if budget_ms is None:
            deadline = None
        elif (
            isinstance(budget_ms, bool)
            or not isinstance(budget_ms, (int, float))
            or not math.isfinite(budget_ms)
        ):
            raise BadRequestError("'deadline_ms' must be a number")
        elif budget_ms <= 0:
            raise DeadlineExceededError(where, elapsed_ms=0.0, budget_ms=0.0)
        else:
            deadline = Deadline(budget_ms)
        return cls(
            Trace(where, trace_id=trace_id) if trace_id is not None else None,
            deadline,
        )


#: What :func:`current_context` answers when nothing is armed.
_EMPTY = RequestContext()


def current_context() -> RequestContext:
    """The armed context (an empty one when nothing is armed)."""
    return _REQUEST.get() or _EMPTY


class activate:
    """Context manager arming ``context`` for the covered region.

    ``parent`` is the span new children open under (None = the trace
    root): the cursor never leaks in from whatever the arming thread had
    open.  ``activate(None)`` disarms — no trace, no deadline — for
    layers that must not leak a request into unrelated work.
    """

    __slots__ = ("_context", "_parent", "_tokens")

    def __init__(
        self, context: RequestContext | None, parent: Span | None = None
    ) -> None:
        self._context = context
        self._parent = parent

    def __enter__(self) -> RequestContext | None:
        self._tokens = (
            _REQUEST.set(self._context),
            _CURRENT_SPAN.set(self._parent),
        )
        return self._context

    def __exit__(self, *exc: object) -> bool:
        request_token, span_token = self._tokens
        _CURRENT_SPAN.reset(span_token)
        _REQUEST.reset(request_token)
        return False


def rearm(fn: Callable) -> Callable:
    """``fn``, bound to the caller's context for a run on another thread.

    Captures the armed context and the open span *now*; the returned
    callable re-arms both around ``fn`` wherever it runs.  With nothing
    armed it is ``fn`` itself — the untraced, unbounded request pays
    nothing per hop.
    """
    context = _REQUEST.get()
    if context is None:
        return fn
    parent = _CURRENT_SPAN.get()

    def rearmed(*args: Any, **kwargs: Any) -> Any:
        with activate(context, parent):
            return fn(*args, **kwargs)

    return rearmed
