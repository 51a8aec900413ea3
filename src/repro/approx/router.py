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
  evaluators; in ``mode=approximate`` the router instead answers True
  from the upper bound alone (one-sided error) and samples exact
  re-checks at ``recheck_rate`` to account the observed false rate.

The only query the No path refuses to touch is ``s == t``: label-blind
self-reachability is trivially true, yet the LSCR answer hinges on a
cycle through a satisfying vertex, so no sound No exists there (the
planner makes the same call for its trivial cases).

Everything here is exact bookkeeping around sound inferences — the
*only* place an answer can differ from the exact service is the opt-in
approximate mode, and that difference is measured, not guessed:
``false_rate`` in :meth:`stats` is mismatches over sampled re-checks.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.core.result import QueryResult
from repro.core.witness import WitnessPath, verify_witness
from repro.approx.witness import WitnessCache

__all__ = [
    "APPROX_ALGORITHM",
    "BOUNDS_ALGORITHM",
    "MODES",
    "SHORT_CIRCUIT_ALGORITHMS",
    "WITNESS_ALGORITHM",
    "ApproxRouter",
    "RouteDecision",
]

#: Algorithm tags stamped on router-settled results.  ``bounds`` and
#: ``witness`` answers are exact; ``approx`` answers are best-effort.
BOUNDS_ALGORITHM = "bounds"
WITNESS_ALGORITHM = "witness"
APPROX_ALGORITHM = "approx"
SHORT_CIRCUIT_ALGORITHMS = (BOUNDS_ALGORITHM, WITNESS_ALGORITHM)

#: Valid per-request answer modes.
MODES = ("exact", "approximate")


@dataclass(frozen=True)
class RouteDecision:
    """A settled short-circuit: the result plus why it was sound."""

    result: QueryResult
    verdict: str  # "no-mask" | "no-bounds" | "yes-witness"


class ApproxRouter:
    """Per-service routing state: witness cache, mode default, accounting.

    One router serves every epoch of its service — the bounds index
    rides the epoch (it describes one snapshot), while the witness
    cache and counters live here so they survive epoch swaps.
    """

    def __init__(
        self,
        *,
        approx_default: bool = False,
        recheck_rate: float = 0.05,
        witness_cache_size: int = 1024,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= recheck_rate <= 1.0:
            raise ValueError(
                f"recheck_rate must be within [0, 1], got {recheck_rate}"
            )
        self.default_mode = "approximate" if approx_default else "exact"
        self.recheck_rate = recheck_rate
        self.witnesses = WitnessCache(max_size=witness_cache_size)
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._routed = 0
        self._no_mask = 0
        self._no_bounds = 0
        self._yes_witness = 0
        self._fallthrough = 0
        self._approximate_answers = 0
        self._rechecks = 0
        self._recheck_mismatches = 0
        self._stored = 0

    # ------------------------------------------------------------------
    # mode resolution
    # ------------------------------------------------------------------

    def resolve_mode(self, mode: str | None) -> str:
        """The effective mode for one request (None -> service default)."""
        if mode is None:
            return self.default_mode
        if mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {mode!r}"
            )
        return mode

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
            bounds = epoch.bounds
            if bounds is not None and not bounds.maybe_reachable(s, t):
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

    def approximate_result(self) -> QueryResult:
        """The uncertain-band guess in ``mode=approximate``: True.

        The upper bound already said a path may exist; answering True
        makes the error one-sided (only false positives, when the label
        or substructure constraint prunes every path).
        """
        with self._lock:
            self._approximate_answers += 1
        return QueryResult(
            answer=True,
            algorithm=APPROX_ALGORITHM,
            seconds=0.0,
            passed_vertices=0,
        )

    def should_recheck(self) -> bool:
        """Sample one approximate answer for an exact re-check."""
        if self.recheck_rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.recheck_rate

    def record_recheck(self, mismatch: bool) -> None:
        with self._lock:
            self._rechecks += 1
            if mismatch:
                self._recheck_mismatches += 1

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
            approximate = self._approximate_answers
            rechecks = self._rechecks
            mismatches = self._recheck_mismatches
            stored = self._stored
        short_circuit = no_mask + no_bounds + yes_witness
        return {
            "enabled": True,
            "default_mode": self.default_mode,
            "recheck_rate": self.recheck_rate,
            "routed": routed,
            "short_circuit_no": no_mask + no_bounds,
            "short_circuit_no_mask": no_mask,
            "short_circuit_no_bounds": no_bounds,
            "short_circuit_yes": yes_witness,
            "short_circuit_rate": short_circuit / routed if routed else 0.0,
            "exact_fallthrough": fallthrough,
            "approximate_answers": approximate,
            "rechecks": rechecks,
            "recheck_mismatches": mismatches,
            "false_rate": mismatches / rechecks if rechecks else 0.0,
            "witness_cache": {
                **self.witnesses.stats(),
                "stored_from_search": stored,
            },
        }
