"""Definite-Yes lower bound: a bounded cache of verified witness paths.

When the exact evaluators answer True, the router remembers the witness
path here, keyed by the planner's canonical query key — the path the
search walked (``QueryResult.witness``; a producer that returned none
stores nothing).  A later repeat of the same query re-validates the
remembered path against the *current* graph — edge existence, labels
within ``L``, the satisfying vertex still satisfying ``S`` — which
costs a handful of dictionary probes plus one single-vertex
substructure match, orders of magnitude below a search.

Because every hit re-verifies against the live snapshot, the cache is
deliberately **not** epoch-scoped: it survives epoch swaps, and entries
invalidated by an update simply fail verification and are dropped.  That
is what makes the witness tier worth having under live updates — the
result cache belongs to the epoch and a changed graph starts an empty
one, while a witness whose edges survived the update keeps answering.
"""

from __future__ import annotations

from repro.service.cache import BoundedStore

__all__ = ["WitnessCache"]


class WitnessCache(BoundedStore):
    """Canonical key -> :class:`~repro.core.witness.WitnessPath`, on the
    service caches' one store: insertion-order eviction, lock-free hits.
    A witness that failed re-verification is :meth:`invalidate`\\ d, and
    counted."""

    TALLIES = BoundedStore.TALLIES + ("invalidations",)

    def invalidate(self, key: tuple) -> bool:
        """Drop ``key`` after its witness failed re-verification (or a
        No was proven); a dropped entry counts one invalidation."""
        dropped = super().invalidate(key)
        if dropped:
            self._tallies["invalidations"].bump()
        return dropped

    def stats(self) -> dict:
        counts = self._read()
        return {
            "size": counts["size"],
            "max_size": self.max_size,
            "hits": counts["hits"],
            "misses": counts["misses"],
            "invalidations": counts["invalidations"],
            "evictions": counts["evictions"],
        }
