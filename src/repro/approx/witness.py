"""Definite-Yes lower bound: an LRU cache of verified witness paths.

When the exact evaluators answer True, the router remembers the witness
path here, keyed by the planner's canonical query key — the path the
search walked (``QueryResult.witness``; a producer that returned none
stores nothing).  A later repeat of the same query re-validates the remembered path against the *current* graph
— edge existence, labels within ``L``, the satisfying vertex still
satisfying ``S`` — which costs a handful of dictionary probes plus one
single-vertex substructure match, orders of magnitude below a search.

Because every hit re-verifies against the live snapshot, the cache is
deliberately **not** epoch-scoped: it survives epoch swaps, and entries
invalidated by an update simply fail verification and are dropped.  That
is what makes the witness tier worth having under live updates — the
result cache belongs to the epoch and a changed graph starts an empty
one, while a witness whose edges survived the update keeps answering.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.witness import WitnessPath

__all__ = ["WitnessCache"]


class WitnessCache:
    """Thread-safe LRU of canonical-key -> :class:`WitnessPath`."""

    def __init__(self, max_size: int = 1024) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self.max_size = max_size
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, WitnessPath] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0
        self._evictions = 0

    def get(self, key: tuple) -> WitnessPath | None:
        """The cached witness for ``key``, or None (counts hit/miss)."""
        with self._lock:
            witness = self._entries.get(key)
            if witness is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return witness

    def put(self, key: tuple, witness: WitnessPath) -> None:
        """Remember ``witness`` for ``key``, evicting LRU on overflow."""
        if self.max_size == 0:
            return
        with self._lock:
            self._entries[key] = witness
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate(self, key: tuple) -> None:
        """Drop ``key`` after its witness failed re-verification."""
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self._invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "max_size": self.max_size,
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
                "evictions": self._evictions,
            }
