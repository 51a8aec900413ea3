"""Shared caches of the query service.

Three caches make repeated traffic cheap, mirroring the three costs a
one-shot ``LSCRSession.ask`` pays on every call:

* :class:`ResultCache` — an LRU cache over *answered* queries, keyed
  on the planner's canonical query key, so the second arrival of an
  equivalent query skips the search entirely;
* :class:`ConstraintCache` — parsed :class:`SubstructureConstraint`
  objects keyed on their SPARQL text, shared across every session and
  worker thread, so each distinct constraint is parsed exactly once per
  process (the paper's Table 3 workloads reuse five constraint texts
  across thousands of queries);
* :class:`CandidateCache` — computed ``V(S, G)`` satisfying-vertex
  tuples keyed on the constraint's canonical SPARQL, so the evaluators
  stop re-running the SPARQL engine — and rebuilding a membership set —
  for every query that reuses a constraint with different endpoints or
  labels — on workload-shaped traffic that is almost all of them.

All are thread-safe and expose hit/miss counters for ``GET /stats``.
What takes a lock is what writes: a store, an eviction, a counted and
promoting :meth:`ResultCache.get` or :meth:`CandidateCache.get`, and
the constraint cache's one-time parse — each an O(1) dict/OrderedDict
critical section apart from that parse.  Two reads take none: a
constraint-cache hit (one dict read plus a lock-free count, so it does
not promote) and :meth:`ResultCache.__contains__`, the service's
uncounted probe ahead of planning.  A single dict read is atomic under
the GIL, so neither can see an entry half-stored.  A cached answer
therefore takes one cache lock — its counted ``get`` — between the JSON
door and its reply.

The result and candidate caches hold answers about *one graph version*,
so each :class:`~repro.service.epoch.GraphEpoch` owns its own: entries
die with their epoch — nothing to namespace, nothing to purge — and only
the accounting lives on: a new graph version starts with the old
cache's :meth:`~ResultCache.heir`, empty but counting on from there —
except that ``V(S, G)`` after a known edge change is carried by
:meth:`CandidateCache.derive` instead of re-evaluated.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Any

from repro.constraints.substructure import EdgeIds, SubstructureConstraint
from repro.obs.trace import span

__all__ = [
    "CacheStats",
    "ResultCache",
    "ConstraintCache",
    "CandidateCache",
    "Candidates",
    "DEFAULT_CACHE_SIZE",
]

#: Entries a result or candidate cache keeps unless told otherwise — also
#: the serving ``cache_size`` option's default (``serve --cache-size``).
DEFAULT_CACHE_SIZE = 1024


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready rendering for the ``/stats`` endpoint."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "max_size": self.max_size,
            "hit_rate": self.hit_rate,
        }


class _Counters:
    """Hit/miss/eviction counts plus the lock that guards them (and the
    entries of every cache counting here); a candidate cache also counts
    what its :meth:`~CandidateCache.derive` carried."""

    __slots__ = ("lock", "hits", "misses", "evictions", "carried", "rechecks")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0
        self.carried = self.rechecks = 0


class _EpochCache:
    """What the two per-epoch caches share: LRU entries bounded by
    ``max_size``, and counters that outlive them (:meth:`_inherit`)."""

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self.max_size = max_size
        self._counts = _Counters()
        self._lock = self._counts.lock
        #: Insertion order is recency order (move_to_end on hit).
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def _inherit(self, parent: "_EpochCache") -> "_EpochCache":
        """Count on where ``parent`` stands; returns ``self``.  One
        counter set and one lock serve a cache and all its heirs, so
        ``/stats`` and ``/metrics`` counters never step back at an epoch
        swap; the entries ``parent`` keeps and ``self`` does not are out
        of the next epoch's reach and count as evictions."""
        self._counts = counts = parent._counts
        self._lock = counts.lock
        with counts.lock:
            counts.evictions += max(0, len(parent._entries) - len(self._entries))
        return self

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Snapshot of the counters — this cache's and its ancestors'
        (``heir``) — and of this cache's own size."""
        counts = self._counts
        with self._lock:
            return CacheStats(
                hits=counts.hits,
                misses=counts.misses,
                evictions=counts.evictions,
                size=len(self._entries),
                max_size=self.max_size,
            )


class ResultCache(_EpochCache):
    """Thread-safe LRU cache for answered queries.

    ``max_size=0`` disables storage (every lookup misses), which lets
    the service keep one code path for cached and uncached modes.  An
    entry never expires: it is an answer about its epoch's graph, and
    dies with that epoch.
    """

    def heir(self) -> "ResultCache":
        """An empty cache of this one's size for the next graph version,
        counting on where this one stands."""
        return ResultCache(self.max_size)._inherit(self)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or None on a miss (counted)."""
        counts = self._counts
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                counts.misses += 1
                return None
            self._entries.move_to_end(key)
            counts.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh ``key``, evicting least-recently-used overflow."""
        if self.max_size == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._counts.evictions += 1

    def export_entries(self) -> list[tuple[Hashable, Any]]:
        """``(key, value)`` pairs, least-recently-used first.

        The persistence half of cache warming
        (:meth:`~repro.service.app.QueryService.save_snapshot`): LRU
        order is preserved so re-importing through :meth:`import_entries`
        reconstructs the same eviction order.  Counters are untouched.
        """
        with self._lock:
            return list(self._entries.items())

    def import_entries(self, entries: Iterable[tuple[Hashable, Any]]) -> int:
        """Insert ``(key, value)`` pairs via :meth:`put`; returns how many
        the cache actually grew by.

        The return value is the cache's size delta, not the input length: a
        disabled (``max_size=0``) or too-small cache retains fewer than
        it was offered, and "warmed N results" reports must not lie.
        """
        before = len(self)
        for key, value in entries:
            self.put(key, value)
        return len(self) - before

    def __contains__(self, key: Hashable) -> bool:
        """Non-promoting, non-counting, lock-free membership test.

        The service's probe ahead of planning
        (:meth:`~repro.service.app.QueryService._plan`): a held key needs
        no plan, and the counted :meth:`get` that follows is the hit's
        one lock.  One dict read, atomic under the GIL; an entry evicted
        between the probe and :meth:`get` is a counted miss there.
        """
        return key in self._entries


class _Tally:
    """A count any thread may bump without a lock: :attr:`bump` is
    ``next`` on an :func:`itertools.count`, one C call, atomic under the
    GIL.  Reads consume a number too, so :meth:`value` subtracts the
    reads before it; callers serialise their reads."""

    __slots__ = ("bump", "_reads")

    def __init__(self) -> None:
        self.bump = itertools.count().__next__
        self._reads = 0

    def value(self) -> int:
        """Bumps so far (call under the owner's lock)."""
        value = self.bump() - self._reads
        self._reads += 1
        return value


class ConstraintCache:
    """Parse-once cache of substructure constraints, shared across sessions.

    Keys are the raw SPARQL texts *and* their canonical re-rendering
    (:meth:`SubstructureConstraint.to_sparql`), so differently formatted
    spellings of one constraint share a single parsed object after the
    first encounter of each spelling.

    A hit takes no lock: one dict read and a lock-free count.  So a hit
    does not promote, and the bound evicts in insertion order — the
    spellings parsed longest ago go first, however often they are read.
    (A Table 3 workload holds a few texts, far under the bound.)  A miss
    parses and stores under the lock, which deliberately serialises the
    first parse of a constraint arriving on many threads at once —
    exactly the "parse once per batch" amortisation the batch executor
    relies on; a thread that waited there and finds the text parsed
    counts a hit.  Every call counts exactly one hit or one miss.
    """

    def __init__(self, max_size: int = 4096) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self._lock = threading.Lock()
        #: Insertion order is eviction order (a hit does not promote).
        self._entries: OrderedDict[str, SubstructureConstraint] = OrderedDict()
        self._hits = _Tally()
        self._misses = 0
        self._evictions = 0

    def get(self, text: str) -> SubstructureConstraint:
        """The parsed constraint for ``text`` (parsing on first use).

        Raises whatever :meth:`SubstructureConstraint.from_sparql`
        raises on invalid text (nothing is cached in that case).
        """
        cached = self._entries.get(text)
        if cached is not None:
            self._hits.bump()
            return cached
        with self._lock:
            cached = self._entries.get(text)
            if cached is not None:
                self._hits.bump()
                return cached
            self._misses += 1
            constraint = SubstructureConstraint.from_sparql(text)
            canonical = constraint.to_sparql()
            # Prefer an already-cached equivalent object so equal
            # constraints stay identical (`is`) across spellings.
            existing = self._entries.get(canonical)
            if existing is not None:
                constraint = existing
            self._entries[canonical] = constraint
            self._entries[text] = constraint
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                self._evictions += 1
            return constraint

    def __getitem__(self, text: str) -> SubstructureConstraint:
        """An already-cached constraint; KeyError when absent (no parse)."""
        with self._lock:
            return self._entries[text]

    def __contains__(self, text: str) -> bool:
        with self._lock:
            return text in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """Snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits.value(),
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self.max_size,
            )


class Candidates(tuple):
    """One ``V(S, G)``: the vertex ids in the SPARQL engine's order, and
    the same ids as :attr:`members` for O(1) membership tests — built
    here, once per cached entry, so that no query builds a set."""

    members: frozenset[int]

    def __new__(cls, vertices: Iterable[int]) -> "Candidates":
        self = super().__new__(cls, vertices)
        self.members = frozenset(self)
        return self


class CandidateCache(_EpochCache):
    """Compute-once LRU cache of ``V(S, G)`` as :class:`Candidates`.

    Keyed on the constraint's canonical SPARQL rendering (the same
    canonicalisation the planner's result-cache key uses), so formatting
    variants of one constraint share an entry.  Values are immutable —
    UIS*/INS copy to a list before shuffling, and both the tuple and its
    ``members`` are safe to hand to any number of threads.

    Unlike the constraint cache's one-time parse, a ``V(S, G)``
    evaluation can take real time, so a miss computes *outside* the
    lock: the first thread to miss a key becomes its leader and
    evaluates; concurrent requesters of the *same* key wait on the
    leader's event (no duplicated SPARQL work), while lookups for other
    keys — hits and misses alike — proceed unblocked.

    ``max_size=0`` disables storage entirely (every lookup evaluates and
    nothing is retained), mirroring :class:`ResultCache` so one
    ``cache_size`` knob can switch the whole service to uncached mode.

    A cache instance is tied to one graph snapshot, its epoch's; a
    graph changed by a known set of edges starts from its :meth:`derive`,
    any other graph from its :meth:`heir`.
    """

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        # canonical SPARQL -> (constraint, its Candidates)
        super().__init__(max_size)
        #: key -> (event, [value or None]) for computations in flight.
        self._pending: dict[str, tuple[threading.Event, list]] = {}

    def heir(self) -> "CandidateCache":
        """An empty cache of this one's size for a graph about which
        nothing is known, counting on where this one stands.  In-flight
        computations stay behind: they read the old graph."""
        return CandidateCache(self.max_size)._inherit(self)

    def derive(
        self,
        old: Any,
        new: Any,
        added: Iterable[EdgeIds],
        removed: Iterable[EdgeIds],
    ) -> tuple["CandidateCache", dict[str, int]]:
        """The cache of ``new`` — ``old``, this cache's graph, after the
        net change ``added`` / ``removed`` (id triples) — plus the
        ``candidates_carried`` / ``scck_rechecks`` fields of an update
        summary.  Every entry is carried by
        :meth:`SubstructureConstraint.carried_vertices`, in LRU order,
        and counts on where this cache stands; this cache is left as is.
        In-flight computations stay behind, as with :meth:`heir`."""
        added, removed = tuple(added), tuple(removed)
        entries = self.entries()
        derived = CandidateCache(self.max_size)
        rechecks = 0
        for constraint, candidates in entries:
            vertices, checked = constraint.carried_vertices(
                candidates, old, new, added, removed
            )
            if checked:
                candidates = Candidates(vertices)
            derived._entries[constraint.to_sparql()] = (constraint, candidates)
            rechecks += checked
        derived._inherit(self)
        counts = self._counts
        with counts.lock:
            counts.carried += len(entries)
            counts.rechecks += rechecks
        return derived, {
            "candidates_carried": len(entries),
            "scck_rechecks": rechecks,
        }

    def entries(self) -> list[tuple[SubstructureConstraint, Candidates]]:
        """``(constraint, V(S, G))`` pairs, least-recently-used first;
        counters and recency are untouched."""
        with self._lock:
            return list(self._entries.values())

    def carry_stats(self) -> dict[str, int]:
        """Entries every :meth:`derive` so far carried and the ``SCck``
        re-checks that took — service-lifetime, like the other counters."""
        counts = self._counts
        with self._lock:
            return {
                "candidates_carried": counts.carried,
                "scck_rechecks": counts.rechecks,
            }

    def get(self, constraint: SubstructureConstraint, graph: Any) -> Candidates:
        """The satisfying vertices of ``constraint`` on ``graph``.

        When a trace is active the lookup appears as a
        ``candidate-cache`` span reporting hit/miss and ``|V(S, G)|`` —
        a miss here is where a slow query spends its SPARQL time.
        """
        with span("candidate-cache") as handle:
            candidates, hit = self._lookup(constraint, graph)
            handle.set(hit=hit, candidates=len(candidates))
            return candidates

    def _lookup(
        self, constraint: SubstructureConstraint, graph: Any
    ) -> tuple[Candidates, bool]:
        counts = self._counts
        if self.max_size == 0:
            with self._lock:
                counts.misses += 1
            return Candidates(constraint.satisfying_vertices(graph)), False
        key = constraint.to_sparql()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                counts.hits += 1
                return cached[1], True
            counts.misses += 1
            pending = self._pending.get(key)
            if pending is None:
                pending = self._pending[key] = (threading.Event(), [None])
                leader = True
            else:
                leader = False
        event, slot = pending
        if not leader:
            event.wait()
            if slot[0] is not None:
                return slot[0], False
            # Leader failed; evaluate independently (rare error path).
            return Candidates(constraint.satisfying_vertices(graph)), False
        try:
            candidates = Candidates(constraint.satisfying_vertices(graph))
        except BaseException:
            with self._lock:
                self._pending.pop(key, None)
            event.set()  # wake followers onto their fallback path
            raise
        slot[0] = candidates
        with self._lock:
            self._entries[key] = (constraint, candidates)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                counts.evictions += 1
            self._pending.pop(key, None)
        event.set()
        return candidates, False

    def __contains__(self, constraint: object) -> bool:
        key = (
            constraint.to_sparql()
            if isinstance(constraint, SubstructureConstraint)
            else constraint
        )
        with self._lock:
            return key in self._entries
