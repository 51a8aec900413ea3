"""Shared caches of the query service, and the one store they are.

Three caches make repeated traffic cheap, mirroring the three costs a
one-shot ``LSCRSession.ask`` pays on every call:

* :class:`ResultCache` — *answered* queries, keyed on the planner's
  canonical query key, so the second arrival of an equivalent query
  skips the search entirely;
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

All three are one :class:`BoundedStore`, with one rule:

* the bound evicts the oldest *insertion* first — a hit does not
  promote, and re-storing a held key keeps its place;
* a hit is one unlocked dict read plus a lock-free count
  (``next`` on an :func:`itertools.count`), as is a miss of a store
  that computes nothing;
* the lock is taken by what writes — a store, an eviction, the
  constraint cache's one-time parse, the candidate cache's
  leader/follower miss — and by the counter reads of
  :meth:`~BoundedStore.stats`.

A single dict read is atomic under the GIL, so a reader never sees an
entry half-stored.  A cached answer therefore takes no cache lock
between the JSON door and its reply.

The result and candidate caches hold answers about *one graph version*,
so each :class:`~repro.service.epoch.GraphEpoch` owns its own: entries
die with their epoch — nothing to namespace, nothing to purge — and only
the accounting lives on: a new graph version starts with the old
cache's :meth:`~BoundedStore.heir`, empty but counting on from there —
except that ``V(S, G)`` after a known edge change is carried by
:meth:`CandidateCache.derive` instead of re-evaluated.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Any, Self

from repro.constraints.substructure import EdgeIds, SubstructureConstraint
from repro.obs.trace import span

__all__ = [
    "BoundedStore",
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


class _Tally:
    """A count any thread may bump without a lock: :attr:`bump` is
    ``next`` on an :func:`itertools.count`, one C call, atomic under the
    GIL.  A read consumes a number too, so the tally keeps an offset —
    the reads so far, less what :meth:`add` added — and its owner
    serialises :meth:`value` and :meth:`add` under its lock."""

    __slots__ = ("bump", "_offset")

    def __init__(self) -> None:
        self.bump = itertools.count().__next__
        self._offset = 0

    def add(self, count: int) -> None:
        """Count ``count`` more at once (under the owner's lock)."""
        self._offset -= count

    def value(self) -> int:
        """The count so far (under the owner's lock)."""
        value = self.bump() - self._offset
        self._offset += 1
        return value


class BoundedStore:
    """Entries bounded by ``max_size`` in insertion order, and tallies
    that outlive them (:meth:`heir`).

    ``max_size=0`` disables storage (every lookup misses), which lets
    the service keep one code path for cached and uncached modes.
    """

    #: The tallies :meth:`stats` reads; a subclass may count more.
    TALLIES: tuple[str, ...] = ("hits", "misses", "evictions")

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self.max_size = max_size
        #: Insertion order is eviction order.
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._share(threading.Lock(), {name: _Tally() for name in self.TALLIES})

    def _share(self, lock: Any, tallies: dict[str, _Tally]) -> None:
        self._lock = lock
        self._tallies = tallies
        self._hit = tallies["hits"].bump
        self._miss = tallies["misses"].bump

    def heir(self) -> Self:
        """An empty store of this one's kind and size for the next graph
        version, counting on where this one stands."""
        return type(self)(self.max_size)._inherit(self)

    def _inherit(self, parent: "BoundedStore") -> Self:
        """Count on where ``parent`` stands; returns ``self``.  One lock
        and one set of tallies serve a store and all its heirs, so
        ``/stats`` and ``/metrics`` counters never step back at an epoch
        swap; the entries ``parent`` keeps and ``self`` does not are out
        of the next epoch's reach and count as evictions."""
        self._share(parent._lock, parent._tallies)
        with self._lock:
            self._tallies["evictions"].add(
                max(0, len(parent._entries) - len(self._entries))
            )
        return self

    def get(self, key: Hashable) -> Any | None:
        """The stored value, or None on a miss (counted)."""
        value = self._entries.get(key)
        if value is None:
            self._miss()
            return None
        self._hit()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the oldest overflow."""
        with self._lock:
            self._store(key, value)

    def _store(self, key: Hashable, value: Any) -> None:
        """:meth:`put` under the lock already held."""
        if not self.max_size:
            return
        entries = self._entries
        entries[key] = value
        while len(entries) > self.max_size:
            entries.popitem(last=False)
            self._tallies["evictions"].bump()

    def export_entries(self) -> list[tuple[Hashable, Any]]:
        """``(key, value)`` pairs, oldest insertion — the next to be
        evicted — first; counters are untouched.

        The persistence half of cache warming
        (:meth:`~repro.service.app.QueryService.save_snapshot`):
        re-importing through :meth:`ResultCache.import_entries`
        reconstructs the same eviction order.
        """
        with self._lock:
            return list(self._entries.items())

    def __contains__(self, key: Hashable) -> bool:
        """Uncounted, lock-free membership test: one dict read.

        The service's probe ahead of planning
        (:meth:`~repro.service.app.QueryService._plan`): a held key needs
        no plan, and the counted :meth:`get` that follows is the hit.  An
        entry evicted between the probe and :meth:`get` is a counted miss
        there.
        """
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def _read(self) -> dict[str, int]:
        """Every tally — this store's and its ancestors' (:meth:`heir`)
        — and this store's own ``size``."""
        with self._lock:
            counts = {name: tally.value() for name, tally in self._tallies.items()}
            counts["size"] = len(self._entries)
        return counts

    def stats(self) -> CacheStats:
        """Snapshot of the counters."""
        counts = self._read()
        return CacheStats(
            hits=counts["hits"],
            misses=counts["misses"],
            evictions=counts["evictions"],
            size=counts["size"],
            max_size=self.max_size,
        )


class ResultCache(BoundedStore):
    """Answered queries, keyed on the planner's canonical query key.

    An entry never expires: it is an answer about its epoch's graph, and
    dies with that epoch.
    """

    # Bound on this class, not inherited: ``benchmarks/ladder/spans.py``
    # times these two from ``ResultCache.__dict__`` alone.
    get = BoundedStore.get
    put = BoundedStore.put

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


class ConstraintCache(BoundedStore):
    """Parse-once cache of substructure constraints, shared across sessions.

    Keys are the raw SPARQL texts *and* their canonical re-rendering
    (:meth:`SubstructureConstraint.to_sparql`), so differently formatted
    spellings of one constraint share a single parsed object after the
    first encounter of each spelling.  (A Table 3 workload holds a few
    texts, far under the bound.)

    A miss parses and stores under the lock, which deliberately
    serialises the first parse of a constraint arriving on many threads
    at once — exactly the "parse once per batch" amortisation the batch
    executor relies on; a thread that waited there and finds the text
    parsed counts a hit.  Every call counts exactly one hit or one miss.
    """

    def __init__(self, max_size: int = 4096) -> None:
        super().__init__(max_size)

    def get(self, text: str) -> SubstructureConstraint:
        """The parsed constraint for ``text`` (parsing on first use).

        Raises whatever :meth:`SubstructureConstraint.from_sparql`
        raises on invalid text (nothing is cached in that case).
        """
        cached = self._entries.get(text)
        if cached is not None:
            self._hit()
            return cached
        with self._lock:
            cached = self._entries.get(text)
            if cached is not None:
                self._hit()
                return cached
            self._miss()
            constraint = SubstructureConstraint.from_sparql(text)
            canonical = constraint.to_sparql()
            # Prefer an already-cached equivalent object so equal
            # constraints stay identical (`is`) across spellings.
            constraint = self._entries.get(canonical, constraint)
            self._store(canonical, constraint)
            self._store(text, constraint)
            return constraint


class Candidates(tuple):
    """One ``V(S, G)``: the vertex ids in the SPARQL engine's order, and
    the same ids as :attr:`members` for O(1) membership tests — built
    here, once per cached entry, so that no query builds a set."""

    members: frozenset[int]

    def __new__(cls, vertices: Iterable[int]) -> "Candidates":
        self = super().__new__(cls, vertices)
        self.members = frozenset(self)
        return self


class CandidateCache(BoundedStore):
    """Compute-once cache of ``V(S, G)`` as :class:`Candidates`.

    Keyed on the constraint's canonical SPARQL rendering (the same
    canonicalisation the planner's result-cache key uses), so formatting
    variants of one constraint share an entry.  Values are
    ``(constraint, Candidates)`` pairs and immutable — UIS*/INS copy to a
    list before shuffling, and both the tuple and its ``members`` are
    safe to hand to any number of threads.

    Unlike the constraint cache's one-time parse, a ``V(S, G)``
    evaluation can take real time, so a miss computes *outside* the
    lock: the first thread to miss a key becomes its leader and
    evaluates; concurrent requesters of the *same* key wait on the
    leader's event (no duplicated SPARQL work), while lookups for other
    keys — hits and misses alike — proceed unblocked.  With
    ``max_size=0`` nothing is retained, so every lookup evaluates (or
    waits for an evaluation in flight) and one ``cache_size`` knob
    switches the whole service to uncached mode.

    A cache instance is tied to one graph snapshot, its epoch's; a
    graph changed by a known set of edges starts from its :meth:`derive`,
    any other graph from its :meth:`heir` — in-flight computations stay
    behind in both cases: they read the old graph.
    """

    TALLIES = BoundedStore.TALLIES + ("carried", "rechecks")

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        super().__init__(max_size)
        #: key -> (event, [value or None]) for computations in flight.
        self._pending: dict[str, tuple[threading.Event, list]] = {}

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
        :meth:`SubstructureConstraint.carried_vertices`, in eviction
        order, and counts on where this cache stands; this cache is left
        as is."""
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
        with self._lock:
            self._tallies["carried"].add(len(entries))
            self._tallies["rechecks"].add(rechecks)
        return derived, {
            "candidates_carried": len(entries),
            "scck_rechecks": rechecks,
        }

    def entries(self) -> list[tuple[SubstructureConstraint, Candidates]]:
        """``(constraint, V(S, G))`` pairs, oldest insertion first."""
        return [value for _, value in self.export_entries()]

    def carry_stats(self) -> dict[str, int]:
        """Entries every :meth:`derive` so far carried and the ``SCck``
        re-checks that took — service-lifetime, like the other counters."""
        counts = self._read()
        return {
            "candidates_carried": counts["carried"],
            "scck_rechecks": counts["rechecks"],
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
        key = constraint.to_sparql()
        cached = self._entries.get(key)
        if cached is not None:
            self._hit()
            return cached[1], True
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hit()
                return cached[1], True
            self._miss()
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
            self._store(key, (constraint, candidates))
            self._pending.pop(key, None)
        event.set()
        return candidates, False
