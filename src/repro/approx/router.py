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
* **definite-Yes** — a remembered witness path for the same canonical
  query that still verifies against the *current* graph and constraint
  (:class:`~repro.approx.witness.WitnessCache`).
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
from repro.core.witness import WitnessPath, verify_witness
from repro.approx.witness import WitnessCache

__all__ = [
    "BOUNDS_ALGORITHM",
    "SHORT_CIRCUIT_ALGORITHMS",
    "WITNESS_ALGORITHM",
    "ApproxRouter",
    "RouteDecision",
]

#: Algorithm tags stamped on router-settled (exact) results.
BOUNDS_ALGORITHM = "bounds"
WITNESS_ALGORITHM = "witness"
SHORT_CIRCUIT_ALGORITHMS = (BOUNDS_ALGORITHM, WITNESS_ALGORITHM)


@dataclass(frozen=True)
class RouteDecision:
    """A settled short-circuit: the result plus why it was sound."""

    result: QueryResult
    verdict: str  # "no-mask" | "no-bounds" | "yes-witness"


class ApproxRouter:
    """Per-service routing state: witness cache and accounting.

    One router serves every epoch of its service — the bounds index
    rides the epoch (it describes one snapshot), while the witness
    cache and counters live here so they survive epoch swaps.
    """

    def __init__(self, *, witness_cache_size: int = 1024) -> None:
        self.witnesses = WitnessCache(max_size=witness_cache_size)
        self._lock = threading.Lock()
        self._routed = 0
        self._no_mask = 0
        self._no_bounds = 0
        self._yes_witness = 0
        self._fallthrough = 0
        self._stored = 0

    # ------------------------------------------------------------------
    # the routing decision
    # ------------------------------------------------------------------

    def decide(self, plan: Any, epoch: Any) -> RouteDecision | None:
        """Try to settle ``plan`` soundly; None means uncertain band.

        Sound in both directions: a returned No is backed by a
        reachability upper bound, a returned Yes by a witness path that
        verified against the current epoch's graph and constraint.
        """
        started = time.perf_counter()
        with self._lock:
            self._routed += 1
        query = plan.query
        graph = epoch.graph
        if query.source != query.target:
            s = graph.vid(query.source)
            t = graph.vid(query.target)
            mask = query.labels.mask_for(graph)
            # O(1) label-aware degree tests: no out-edge from s (or
            # in-edge to t) under L means no path under L at all.
            if not graph.out_label_mask(s) & mask or not graph.in_label_mask(t) & mask:
                with self._lock:
                    self._no_mask += 1
                # A proven No makes any remembered witness stale.
                self.witnesses.invalidate(plan.key)
                return RouteDecision(
                    self._settled(False, BOUNDS_ALGORITHM, started), "no-mask"
                )
            if not epoch.bounds.maybe_reachable(s, t):
                with self._lock:
                    self._no_bounds += 1
                self.witnesses.invalidate(plan.key)
                return RouteDecision(
                    self._settled(False, BOUNDS_ALGORITHM, started), "no-bounds"
                )
        witness = self.witnesses.get(plan.key)
        if witness is not None:
            if self._verify(graph, query, witness):
                with self._lock:
                    self._yes_witness += 1
                result = QueryResult(
                    answer=True,
                    algorithm=WITNESS_ALGORITHM,
                    seconds=time.perf_counter() - started,
                    passed_vertices=len(witness.vertices()),
                )
                return RouteDecision(result, "yes-witness")
            self.witnesses.invalidate(plan.key)
        return None

    @staticmethod
    def _settled(answer: bool, algorithm: str, started: float) -> QueryResult:
        return QueryResult(
            answer=answer,
            algorithm=algorithm,
            seconds=time.perf_counter() - started,
            passed_vertices=0,
        )

    @staticmethod
    def _verify(graph: Any, query: Any, witness: WitnessPath) -> bool:
        """Exception-safe re-verification against the current graph."""
        try:
            return verify_witness(graph, query, witness)
        except (KeyError, ValueError):
            # An update removed a vertex/label the witness mentions.
            return False

    # ------------------------------------------------------------------
    # uncertain band
    # ------------------------------------------------------------------

    def record_fallthrough(self) -> None:
        with self._lock:
            self._fallthrough += 1

    # ------------------------------------------------------------------
    # witness population
    # ------------------------------------------------------------------

    def remember_witness(self, plan: Any, result: QueryResult) -> bool:
        """After an exact True answer, cache the path its search walked.

        ``result.witness`` is stored as is; a producer that returned
        none (the scatter-gather coordinator) stores nothing — there is
        no second search to fill the gap.  Returns whether a witness
        was stored.
        """
        if result.witness is None or self.witnesses.max_size == 0:
            return False
        self.witnesses.put(plan.key, result.witness)
        with self._lock:
            self._stored += 1
        return True

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``/stats`` ``approx`` section (minus the bounds shape)."""
        with self._lock:
            routed = self._routed
            no_mask = self._no_mask
            no_bounds = self._no_bounds
            yes_witness = self._yes_witness
            fallthrough = self._fallthrough
            stored = self._stored
        short_circuit = no_mask + no_bounds + yes_witness
        return {
            "enabled": True,
            "routed": routed,
            "short_circuit_no": no_mask + no_bounds,
            "short_circuit_no_mask": no_mask,
            "short_circuit_no_bounds": no_bounds,
            "short_circuit_yes": yes_witness,
            "short_circuit_rate": short_circuit / routed if routed else 0.0,
            "exact_fallthrough": fallthrough,
            "witness_cache": {
                **self.witnesses.stats(),
                "stored_from_search": stored,
            },
        }
