"""`repro.approx` — sound short-circuit routing with exact fallback.

Sound short-circuit filters ahead of the two-phase LSCR evaluation,
grounded in *Approximate Evaluation of Label-Constrained Reachability
Queries* (Dumbrava et al.) with upper-bound index choices from the
Zhang/Bonifati/Özsu reachability-indexing survey:

* :mod:`repro.approx.bounds` — a label-blind reachability upper bound
  (SCC condensation + exact bitset closure or GRAIL-style randomized
  intervals) bundled into every :class:`~repro.service.epoch.GraphEpoch`:
  built for epoch 0 and a replaced graph, derived from the parent's
  across an update.
* :mod:`repro.approx.witness` — an epoch-surviving bounded cache of
  verified witness paths, the definite-Yes lower bound.
* :mod:`repro.approx.router` — the `_execute`-seam router gluing both
  into definite-No / definite-Yes routing; the uncertain rest falls
  through to the exact evaluators, so every answer is exact.
"""

from repro.approx.bounds import BoundsIndex, build_bounds
from repro.approx.router import (
    BOUNDS_ALGORITHM,
    SHORT_CIRCUIT_ALGORITHMS,
    WITNESS_ALGORITHM,
    ApproxRouter,
    RouteDecision,
)
from repro.approx.witness import WitnessCache

__all__ = [
    "BOUNDS_ALGORITHM",
    "SHORT_CIRCUIT_ALGORITHMS",
    "WITNESS_ALGORITHM",
    "ApproxRouter",
    "BoundsIndex",
    "RouteDecision",
    "WitnessCache",
    "build_bounds",
]
