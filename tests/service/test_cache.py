"""Tests for the service caches (LRU result cache, constraint cache)."""

import threading

import pytest

from repro.exceptions import SparqlSyntaxError
from repro.service.cache import ConstraintCache, ResultCache

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S0_REFORMATTED = "SELECT ?x WHERE {  ?x <friendOf> v3 .\n\tv3 <likes> ?y . }"


class TestResultCacheLRU:
    def test_miss_then_hit(self):
        cache = ResultCache(max_size=4)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh a; b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)                  # refresh, no growth
        cache.put("c", 3)                   # evicts b, not a
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_membership_neither_counts_nor_promotes(self):
        cache = ResultCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache and "zzz" not in cache
        cache.put("c", 3)                   # "a" is still LRU: evicted
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

    def test_clear_keeps_counters(self):
        cache = ResultCache(max_size=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

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

    def test_getitem_never_parses(self):
        cache = ConstraintCache()
        with pytest.raises(KeyError):
            cache[S0]
        parsed = cache.get(S0)
        assert cache[S0] is parsed
        assert S0 in cache

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
