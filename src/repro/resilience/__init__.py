"""Overload protection for the serving stack (:mod:`repro.resilience`).

Two cooperating pieces, each usable on its own:

* :mod:`~repro.resilience.deadline` — an end-to-end per-request time
  budget carried by the request context (:mod:`repro.context`) beside
  the request trace, checked in the service execute seam and the
  evaluator hot loops.
* :mod:`~repro.resilience.admission` — :class:`AdmissionController`,
  per-tenant concurrent-request and queue-depth caps that shed overload
  as structured 429s instead of piling onto server threads.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
)

__all__ = [
    "AdmissionController",
    "Deadline",
    "check_deadline",
    "current_deadline",
]
