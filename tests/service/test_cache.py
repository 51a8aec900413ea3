"""Tests for the service caches and the one bounded store they are."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.approx.witness import WitnessCache
from repro.constraints.substructure import SubstructureConstraint
from repro.exceptions import SparqlSyntaxError
from repro.service.cache import (
    CacheStats,
    CandidateCache,
    Candidates,
    ConstraintCache,
    ResultCache,
)
from tests.helpers import graph_from_edges

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S0_REFORMATTED = "SELECT ?x WHERE {  ?x <friendOf> v3 .\n\tv3 <likes> ?y . }"


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(max_size=4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_evicts_the_oldest_insertion(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # a hit does not promote
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_of_a_held_key_keeps_its_place(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)                  # new value, no growth, same place
        cache.put("c", 3)                   # evicts a, the oldest insertion
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_membership_neither_counts_nor_promotes(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "zzz" not in cache
        cache.put("c", 3)                   # "a" is still the oldest: evicted
        assert "a" not in cache
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 1)

    def test_size_zero_disables_storage(self):
        cache = ResultCache(max_size=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="max_size"):
            ResultCache(max_size=-1)

    def test_hit_rate(self):
        cache = ResultCache(max_size=4)
        assert cache.stats().hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert cache.stats().hit_rate == pytest.approx(0.5)


class TestResultCacheThreading:
    def test_concurrent_mixed_access(self):
        cache = ResultCache(max_size=64)

        def worker(offset):
            for i in range(300):
                key = (offset + i) % 100
                cache.put(key, key)
                got = cache.get(key)
                assert got is None or got == key

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64


class TestConstraintCache:
    def test_parse_once_identity(self):
        cache = ConstraintCache()
        first = cache.get(S0)
        second = cache.get(S0)
        assert first is second
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_reformatted_text_shares_object(self):
        cache = ConstraintCache()
        # Both spellings canonicalise to the same SPARQL, so after the
        # first parse the second spelling resolves to the same object.
        first = cache.get(S0)
        assert cache.get(first.to_sparql()) is first
        assert cache.get(S0_REFORMATTED) is first
        assert S0 in cache and S0_REFORMATTED in cache

    def test_invalid_text_not_cached(self):
        cache = ConstraintCache()
        with pytest.raises(SparqlSyntaxError):
            cache.get("SELECT nonsense")
        assert "SELECT nonsense" not in cache

    def test_lru_bound(self):
        cache = ConstraintCache(max_size=4)
        texts = [
            f"SELECT ?x WHERE {{ ?x <p{i}> ?y . }}" for i in range(6)
        ]
        for text in texts:
            cache.get(text)
        assert len(cache) <= 4
        assert cache.stats().evictions > 0


# ----------------------------------------------------------------------
# The four caches against one model
# ----------------------------------------------------------------------

#: Canonical spellings (``to_sparql`` returns them as they are), so each
#: text is one constraint-cache entry.
TEXTS = [f"SELECT DISTINCT ?x WHERE {{ ?x <p{n}> ?y . }}" for n in range(7)]
PARSED = [SubstructureConstraint.from_sparql(text) for text in TEXTS]
#: Built per example: a graph the module held would stay alive all
#: session, and ``test_updates`` counts every graph alive.
EDGES = [(f"v{n}", f"p{m}", "w") for n in range(7) for m in range(n, 7, 2)]


class Model:
    """A plain dict bounded by insertion order: what each cache must be."""

    def __init__(self, max_size: int) -> None:
        self.max_size = max_size
        self.entries: dict = {}
        self.hits = self.misses = self.evictions = 0

    def get(self, key, computed=None):
        if key in self.entries:
            self.hits += 1
            return self.entries[key]
        self.misses += 1
        if computed is not None:
            self.put(key, computed)
        return computed

    def put(self, key, value) -> None:
        if self.max_size == 0:
            return
        self.entries[key] = value
        if len(self.entries) > self.max_size:
            del self.entries[next(iter(self.entries))]
            self.evictions += 1

    def invalidate(self, key) -> None:
        self.entries.pop(key, None)

    def heir(self) -> None:
        self.evictions += len(self.entries)
        self.entries = {}


class Answers:
    """The result cache as the service calls it; entries are compared
    as they are."""

    make = ResultCache
    computes = False

    def __init__(self, graph) -> None:
        self.graph = graph

    def key(self, n: int):
        return ("query", n)

    def get(self, cache, n: int):
        return cache.get(self.key(n))

    def put(self, cache, n: int, token: int):
        cache.put(self.key(n), ("answer", token))
        return ("answer", token)

    def view(self, value):
        return value


class Witnesses(Answers):
    make = WitnessCache


class Constraints(Answers):
    """The constraint cache: a miss parses and stores; an entry is
    compared by its canonical text."""

    make = ConstraintCache
    computes = True

    def key(self, n: int):
        return TEXTS[n]

    def get(self, cache, n: int):
        return cache.get(TEXTS[n]).to_sparql()

    def put(self, cache, n: int, token: int):
        cache.put(TEXTS[n], PARSED[n])
        return TEXTS[n]

    def computed(self, n: int):
        return TEXTS[n]

    def view(self, value):
        return value.to_sparql()


class CandidateSets(Constraints):
    """The ``V(S, G)`` cache: a miss evaluates and stores; an entry is
    compared by its vertices."""

    make = CandidateCache

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self.vertices = [tuple(parsed.satisfying_vertices(graph)) for parsed in PARSED]

    def get(self, cache, n: int):
        return tuple(cache.get(PARSED[n], self.graph))

    def put(self, cache, n: int, token: int):
        cache.put(TEXTS[n], (PARSED[n], Candidates(self.vertices[n])))
        return self.vertices[n]

    def computed(self, n: int):
        return self.vertices[n]

    def view(self, value):
        constraint, candidates = value
        assert isinstance(candidates, Candidates)
        return tuple(candidates)


def _counts(cache) -> dict:
    stats = cache.stats()
    if isinstance(stats, CacheStats):
        stats = stats.as_dict()
    return {name: stats[name] for name in ("size", "hits", "misses", "evictions")}


_steps = st.lists(
    st.tuples(
        st.sampled_from(["get", "get", "put", "put", "invalidate", "heir"]),
        st.integers(0, len(TEXTS) - 1),
        st.integers(0, 3),
    ),
    max_size=30,
)


@pytest.mark.parametrize(
    "kind", [Answers, Witnesses, Constraints, CandidateSets],
    ids=["result", "witness", "constraint", "candidate"],
)
@given(max_size=st.sampled_from([0, 1, 2, 5]), steps=_steps)
def test_every_cache_is_a_dict_bounded_by_insertion_order(kind, max_size, steps):
    """Entries, their order, ``size`` and the hit / miss / eviction
    counts equal the model's after every step — whichever cache, so all
    four evict the oldest insertion and none promotes on a hit."""
    kind = kind(graph_from_edges(EDGES))
    cache, model = kind.make(max_size), Model(max_size)
    for op, n, token in steps:
        key = kind.key(n)
        if op == "get":
            expected = model.get(key, kind.computed(n) if kind.computes else None)
            assert kind.get(cache, n) == expected
        elif op == "put":
            model.put(key, kind.put(cache, n, token))
        elif op == "invalidate":
            model.invalidate(key)
            cache.invalidate(key)
        else:
            model.heir()
            cache = cache.heir()
            assert type(cache) is kind.make and cache.max_size == max_size
        assert [
            (key, kind.view(value)) for key, value in cache.export_entries()
        ] == list(model.entries.items())
        assert len(cache) == len(model.entries)
        assert _counts(cache) == {
            "size": len(model.entries),
            "hits": model.hits,
            "misses": model.misses,
            "evictions": model.evictions,
        }
