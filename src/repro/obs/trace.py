"""Request-scoped tracing: cheap spans carried by a context variable.

A :class:`Trace` is one request's tree of timed :class:`Span`\\ s.  The
design constraint, set by the hot-path benchmark gate, is that tracing
must cost *nothing measurable when off*: every instrumentation point in
the serving stack calls :func:`span`, which reads one
:class:`contextvars.ContextVar` and returns a shared no-op singleton
when no trace is active — no allocation, no branching downstream, no
signature changes for the evaluators in between.  Only requests that
asked for a trace (``?trace=1``), or were sampled server-side
(:class:`TraceSampler`), pay for real span objects.

The trace rides the request context (:mod:`repro.context` — how it is
armed is written down there, once, for the trace and the deadline
together).
Here: :func:`span` opens a child of the *current* span (the trace root
when none is open) and makes it current for the ``with`` body, so
nesting falls out of lexical structure.  Child-list appends are plain
``list.append`` calls, atomic under the GIL, so concurrent children from
a fan-out are safe without a lock.

Spans serialise to JSON-ready dicts (``to_dict``): name, start offset
relative to the trace start, duration, attributes, children.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextvars import ContextVar
from typing import Any

__all__ = [
    "Span",
    "SpanHandle",
    "Trace",
    "TraceSampler",
    "annotate",
    "current_span",
    "current_trace",
    "new_trace_id",
    "span",
]

#: The active :class:`repro.context.RequestContext` (None = no trace and
#: no deadline, the default).  Declared here, at the bottom of the import
#: graph, so this module's accessors and
#: :mod:`repro.resilience.deadline`'s read the same variable.
_REQUEST: ContextVar[Any] = ContextVar("repro_request", default=None)
#: The innermost open span of the active trace (the root right after
#: activation).  Kept separate from the context so :func:`span` nesting
#: is one ContextVar get + set, no tree walk.
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_span", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, collision-unlikely)."""
    return os.urandom(8).hex()


class Span:
    """One timed operation inside a trace.

    ``started`` is the offset in seconds from the owning trace's start
    (so a serialised tree is self-contained); ``seconds`` is the
    duration, set when the span closes (-1.0 while open).  ``children``
    holds the nested :class:`Span` objects.
    """

    __slots__ = ("name", "started", "seconds", "attrs", "children")

    def __init__(self, name: str, started: float = 0.0) -> None:
        self.name = name
        self.started = started
        self.seconds = -1.0
        self.attrs: dict[str, Any] = {}
        self.children: list[Span] = []

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, seconds={self.seconds:.6f}, "
            f"children={len(self.children)})"
        )

    def to_dict(self) -> dict:
        """JSON-ready rendering of this span's subtree."""
        return {
            "name": self.name,
            "started": self.started,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }


class Trace:
    """One request's tree of spans plus its identity.

    ``sampled`` distinguishes server-side sampled traces (recorded to
    the flight recorder but not echoed to the client) from
    client-requested ones.  ``finish`` closes the root; ``to_dict``
    before ``finish`` reports the elapsed time so far, so partially
    complete traces (a batch member's flight-recorder entry) still
    serialise sensibly.
    """

    __slots__ = (
        "trace_id",
        "root",
        "sampled",
        "started_at",
        "_started_perf",
    )

    def __init__(self, name: str, *, sampled: bool = False) -> None:
        self.trace_id = new_trace_id()
        self.sampled = sampled
        self.started_at = time.time()
        self._started_perf = time.perf_counter()
        self.root = Span(name, 0.0)

    def __repr__(self) -> str:
        return f"Trace({self.trace_id!r}, root={self.root.name!r})"

    @property
    def elapsed(self) -> float:
        """Seconds since the trace started (live, monotonic)."""
        return time.perf_counter() - self._started_perf

    def finish(self) -> "Trace":
        """Close the root span at the current elapsed time."""
        self.root.seconds = self.elapsed
        return self

    def to_dict(self) -> dict:
        """JSON-ready rendering of the whole trace."""
        document = self.root.to_dict()
        if document["seconds"] < 0.0:
            document["seconds"] = self.elapsed
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "started_at": self.started_at,
            **document,
        }


class _NoopHandle:
    """The shared do-nothing span handle returned when tracing is off.

    Every method returns ``self`` (or a harmless constant), so
    instrumentation points never branch on "is tracing on" themselves.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopHandle":
        return self


_NOOP = _NoopHandle()


class SpanHandle:
    """A live span opened by :func:`span` — the ``with`` target.

    ``set(**attrs)`` records attributes."""

    __slots__ = ("_span", "_trace", "_token")

    def __init__(self, span_obj: Span, trace: Trace) -> None:
        self._span = span_obj
        self._trace = trace
        self._token = None

    def __enter__(self) -> "SpanHandle":
        self._token = _CURRENT_SPAN.set(self._span)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._span.seconds = self._trace.elapsed - self._span.started
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        return False

    def set(self, **attrs: Any) -> "SpanHandle":
        self._span.attrs.update(attrs)
        return self


def current_trace() -> Trace | None:
    """The active trace, or None when tracing is off."""
    context = _REQUEST.get()
    return context.trace if context is not None else None


def current_span() -> Span | None:
    """The innermost open span of the active trace (None when off)."""
    return _CURRENT_SPAN.get()


def span(name: str, **attrs: Any) -> SpanHandle | _NoopHandle:
    """Open a child span of the current one (no-op when tracing is off).

    The disabled path is the hot one: a single ContextVar read returning
    the shared no-op handle.  With a trace active, the new span is
    appended under the current span (the root when none is open) and
    becomes current for the ``with`` body.
    """
    context = _REQUEST.get()
    if context is None:
        return _NOOP
    trace = context.trace
    if trace is None:
        return _NOOP
    parent = _CURRENT_SPAN.get()
    if parent is None:
        parent = trace.root
    child = Span(name, trace.elapsed)
    if attrs:
        child.attrs.update(attrs)
    parent.children.append(child)
    return SpanHandle(child, trace)


def annotate(**attrs: Any) -> None:
    """Set attributes on the current span, if any (no-op when off)."""
    trace = current_trace()
    if trace is not None:
        (_CURRENT_SPAN.get() or trace.root).attrs.update(attrs)


class TraceSampler:
    """Server-side probabilistic trace sampling at a fixed rate.

    ``rate`` is the fraction of requests traced without being asked
    (0.0 = never, the default; 1.0 = always).  The zero-rate fast path
    is branch-only — no rng draw — so an unconfigured service pays one
    float compare per request.  Draws are serialised by a lock;
    sampling happens at most once per request, never in a hot loop.
    """

    __slots__ = ("rate", "_rng", "_lock")

    def __init__(self, rate: float = 0.0, seed: int | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"TraceSampler(rate={self.rate})"

    def sample(self) -> bool:
        """True when this request should be traced server-side."""
        rate = self.rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        with self._lock:
            return self._rng.random() < rate
