"""Fault tolerance for the serving stack (:mod:`repro.resilience`).

Five cooperating pieces, each usable on its own:

* :mod:`~repro.resilience.deadline` — an end-to-end per-request time
  budget carried by the request context (:mod:`repro.context`) beside
  the request trace, checked in the service execute seam, the evaluator
  hot loops, each scatter-gather round, and shard workers (the remaining
  budget rides the ``/shard/<id>/expand`` and ``/shard/<id>/query``
  wire).
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, capped
  exponential backoff with decorrelated jitter for idempotent shard
  calls, budget-aware so retries never outlive the request deadline.
* :mod:`~repro.resilience.breaker` — :class:`CircuitBreaker`, a
  per-worker closed/open/half-open state machine on consecutive-failure
  and rolling-error-rate thresholds.
* :mod:`~repro.resilience.admission` — :class:`AdmissionController`,
  per-tenant concurrent-request and queue-depth caps that shed overload
  as structured 429s instead of piling onto server threads.
* :mod:`~repro.resilience.faults` — the fault-injection harness
  (:class:`FaultPlan`, :class:`FaultyWorker`, :class:`FaultyWal`) used
  by the chaos suite and the CI ``chaos`` job.

The soundness contract for degraded answers comes from edge-subset
monotonicity of the two-phase LSCR evaluation: evaluating over a subset
of the edges (the surviving shards) can prove *reachable* but never
*unreachable*, so a degraded answer is ``reachable`` or ``unknown`` —
never wrong.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    FaultyWal,
    FaultyWorker,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultRule",
    "FaultyWal",
    "FaultyWorker",
    "RetryPolicy",
    "check_deadline",
    "current_deadline",
]
