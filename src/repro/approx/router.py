"""Short-circuit router: sound bounds ahead of the exact evaluators.

The router sits in the :meth:`QueryService._execute` seam — after the
planner (so trivial and forced plans never reach it) and after the
result cache — and tries to settle the query without an evaluator:

* **definite-No** — if the source has no out-edge under the query's
  label mask, the target no in-edge (O(1) bitmask tests, ``s != t``
  only — the empty-frontier case of the default kernel,
  :mod:`repro.core.meet`, answered before it starts), or the
  label-blind :class:`~repro.approx.bounds.BoundsIndex`
  says ``t`` is unreachable from ``s``, the answer is False.  Sound
  because every LSCR witness path is in particular an ``s -> t`` path
  under ``L``.
* **uncertain** — everything else falls through to the exact
  evaluators.

The only query the No path refuses to touch is ``s == t``: label-blind
self-reachability is trivially true, yet the LSCR answer hinges on a
cycle through a satisfying vertex, so no sound No exists there (the
planner makes the same call for its trivial cases).

Everything here is exact bookkeeping around sound inferences: a routed
answer is always the answer the exact evaluators would give.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.core.result import QueryResult

__all__ = [
    "BOUNDS_ALGORITHM",
    "SHORT_CIRCUIT_ALGORITHMS",
    "ApproxRouter",
    "RouteDecision",
]

#: Algorithm tags stamped on router-settled (exact) results.
BOUNDS_ALGORITHM = "bounds"
SHORT_CIRCUIT_ALGORITHMS = (BOUNDS_ALGORITHM,)


@dataclass(frozen=True)
class RouteDecision:
    """A settled short-circuit: the result plus why it was sound."""

    result: QueryResult
    verdict: str  # "no-mask" | "no-bounds"


class ApproxRouter:
    """Per-service routing accounting.

    One router serves every epoch of its service — the bounds index
    rides the epoch (it describes one snapshot), while the counters
    live here so they survive epoch swaps.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._routed = 0
        self._no_mask = 0
        self._no_bounds = 0
        self._fallthrough = 0

    # ------------------------------------------------------------------
    # the routing decision
    # ------------------------------------------------------------------

    def decide(self, plan: Any, epoch: Any) -> RouteDecision | None:
        """Try to settle ``plan`` soundly; None means uncertain band.

        A returned No is backed by a reachability upper bound of the
        current epoch's graph.
        """
        started = time.perf_counter()
        with self._lock:
            self._routed += 1
        query = plan.query
        if query.source == query.target:
            return None
        graph = epoch.graph
        s = graph.vid(query.source)
        t = graph.vid(query.target)
        mask = query.labels.mask_for(graph)
        # O(1) label-aware degree tests: no out-edge from s (or in-edge
        # to t) under L means no path under L at all.
        if not graph.out_label_mask(s) & mask or not graph.in_label_mask(t) & mask:
            verdict = "no-mask"
        elif not epoch.bounds.maybe_reachable(s, t):
            verdict = "no-bounds"
        else:
            return None
        with self._lock:
            if verdict == "no-mask":
                self._no_mask += 1
            else:
                self._no_bounds += 1
        result = QueryResult(
            answer=False,
            algorithm=BOUNDS_ALGORITHM,
            seconds=time.perf_counter() - started,
            passed_vertices=0,
        )
        return RouteDecision(result, verdict)

    # ------------------------------------------------------------------
    # uncertain band
    # ------------------------------------------------------------------

    def record_fallthrough(self) -> None:
        with self._lock:
            self._fallthrough += 1

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` ``approx`` section (minus the bounds shape)."""
        with self._lock:
            routed = self._routed
            no_mask = self._no_mask
            no_bounds = self._no_bounds
            fallthrough = self._fallthrough
        short_circuit = no_mask + no_bounds
        return {
            "enabled": True,
            "routed": routed,
            "short_circuit_no": short_circuit,
            "short_circuit_no_mask": no_mask,
            "short_circuit_no_bounds": no_bounds,
            "short_circuit_rate": short_circuit / routed if routed else 0.0,
            "exact_fallthrough": fallthrough,
        }
