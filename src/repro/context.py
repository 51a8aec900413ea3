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
* a request is served in one thread, start to finish — a batch's
  members included — so the context never has to cross a thread or a
  process.
"""

from __future__ import annotations

from repro.obs.trace import _CURRENT_SPAN, _REQUEST, Trace
from repro.resilience.deadline import Deadline

__all__ = ["RequestContext", "activate"]


class RequestContext:
    """One request's trace and deadline (either may be None), immutable
    after construction."""

    __slots__ = ("trace", "deadline")

    def __init__(
        self, trace: Trace | None = None, deadline: Deadline | None = None
    ) -> None:
        self.trace = trace
        self.deadline = deadline


class activate:
    """Context manager arming ``context`` for the covered region.

    New spans open under the trace root: the cursor never leaks in from
    whatever span the arming thread had open.  ``activate(None)``
    disarms — no trace, no deadline — for layers that must not leak a
    request into unrelated work.
    """

    __slots__ = ("_context", "_tokens")

    def __init__(self, context: RequestContext | None) -> None:
        self._context = context

    def __enter__(self) -> RequestContext | None:
        self._tokens = (
            _REQUEST.set(self._context),
            _CURRENT_SPAN.set(None),
        )
        return self._context

    def __exit__(self, *exc: object) -> bool:
        request_token, span_token = self._tokens
        _CURRENT_SPAN.reset(span_token)
        _REQUEST.reset(request_token)
        return False
