"""Observability: request tracing, Prometheus metrics, slow-query log.

Three pieces, all stdlib-only:

* :mod:`repro.obs.trace` — context-var-carried ``Trace``/``Span``
  recording, free when no trace is active;
* :mod:`repro.obs.prometheus` — the ``GET /metrics`` text formatter
  (and the strict parser the tests and CI use to validate it);
* :mod:`repro.obs.flight` — the bounded worst-N slow-query flight
  recorder behind ``GET /debug/slow``.
"""

from repro.obs.flight import (
    DEFAULT_SLOW_LOG_SIZE,
    DEFAULT_SLOW_MS,
    FlightRecorder,
)
from repro.obs.prometheus import parse_prometheus_text, render_metrics
from repro.obs.trace import (
    Span,
    SpanHandle,
    Trace,
    TraceSampler,
    annotate,
    current_span,
    current_trace,
    new_trace_id,
    span,
)

__all__ = [
    "DEFAULT_SLOW_LOG_SIZE",
    "DEFAULT_SLOW_MS",
    "FlightRecorder",
    "Span",
    "SpanHandle",
    "Trace",
    "TraceSampler",
    "annotate",
    "current_span",
    "current_trace",
    "new_trace_id",
    "parse_prometheus_text",
    "render_metrics",
    "span",
]
