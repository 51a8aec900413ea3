"""Result-cache + stats persistence: save_snapshot / load_snapshot."""

from __future__ import annotations

import json

import pytest

from repro.core.result import QueryResult
from repro.exceptions import ServiceConfigError
from repro.service.app import QueryService
from repro.service.cache import ResultCache
from tests.helpers import graph_from_edges


def make_graph(name="snap"):
    return graph_from_edges(
        [("a", "l", "b"), ("b", "l", "c"), ("b", "m", "b")], name=name
    )


CONSTRAINT = "SELECT ?x WHERE { ?x <m> ?y . }"


class TestResultCacheExport:
    def test_export_import_preserves_values_and_eviction_order(self):
        cache = ResultCache(max_size=8)
        for position in range(3):
            cache.put(("k", position), position * 10)
        cache.get(("k", 0))  # a hit does not promote: 0 stays oldest
        exported = cache.export_entries()
        assert [key for key, _ in exported] == [("k", 0), ("k", 1), ("k", 2)]
        warmed = ResultCache(max_size=8)
        assert warmed.import_entries(exported) == 3
        assert warmed.export_entries() == exported

    def test_import_reports_actual_retention_not_input_length(self):
        disabled = ResultCache(max_size=0)
        assert disabled.import_entries([("a", 1), ("b", 2)]) == 0
        tiny = ResultCache(max_size=2)
        assert tiny.import_entries([("a", 1), ("b", 2), ("c", 3)]) == 2


class TestServiceSnapshot:
    def test_roundtrip_warms_cache_and_stats(self, tmp_path):
        path = tmp_path / "service.snapshot.json"
        first = QueryService(make_graph(), seed=0)
        try:
            result, meta = first.query("a", "c", ["l"], CONSTRAINT)
            assert result.answer is True and not meta["cached"]
            first.query("a", "a", ["zzz"], CONSTRAINT)  # trivial: not cached
            size = first.save_snapshot(path)
            assert size > 0
        finally:
            first.close()

        second = QueryService(make_graph(), seed=0)
        try:
            warmed = second.load_snapshot(path)
            assert warmed["results"] == 1
            result, meta = second.query("a", "c", ["l"], CONSTRAINT)
            assert result.answer is True
            assert meta["cached"]  # no search ran
            snapshot = second.stats.snapshot()
            # 2 restored + 1 cached-hit just answered.
            assert snapshot["queries"]["total"] == 3
            assert snapshot["queries"]["cached"] == 1
        finally:
            second.close()

    @pytest.mark.parametrize("member", ["degraded", "witness"])
    def test_a_file_whose_results_carry_a_retired_member_still_warms(
        self, tmp_path, member
    ):
        # Written before answers lost their "degraded" or "witness"
        # member: every stored entry held it as null.
        path = tmp_path / "older.json"
        first = QueryService(make_graph(), seed=0)
        try:
            first.query("a", "c", ["l"], CONSTRAINT)
            first.save_snapshot(path)
        finally:
            first.close()
        document = json.loads(path.read_text())
        for item in document["results"]:
            item["result"][member] = None
        path.write_text(json.dumps(document))
        second = QueryService(make_graph(), seed=0)
        try:
            assert second.load_snapshot(path)["results"] == 1
            _, meta = second.query("a", "c", ["l"], CONSTRAINT)
            assert meta["cached"]
        finally:
            second.close()

    def test_snapshot_file_is_valid_json_with_graph_identity(self, tmp_path):
        path = tmp_path / "snap.json"
        service = QueryService(make_graph(), seed=0)
        try:
            service.query("a", "b", ["l"], CONSTRAINT)
            service.save_snapshot(path)
        finally:
            service.close()
        document = json.loads(path.read_text())
        assert document["format_version"] == 2
        assert document["graph"]["name"] == "snap"
        assert document["graph"]["vertices"] == 3
        assert document["graph"]["epoch"] == 0
        assert isinstance(document["graph"]["fingerprint"], str)
        entry = document["results"][0]
        assert entry["key"][0] == "a"
        restored = QueryResult(**entry["result"])
        assert restored.answer is True

    def test_mismatched_graph_refused(self, tmp_path):
        path = tmp_path / "snap.json"
        service = QueryService(make_graph(), seed=0)
        try:
            service.query("a", "b", ["l"], CONSTRAINT)
            service.save_snapshot(path)
        finally:
            service.close()
        other = QueryService(
            graph_from_edges([("x", "l", "y")], name="other"), seed=0
        )
        try:
            with pytest.raises(ServiceConfigError):
                other.load_snapshot(path)
        finally:
            other.close()

    def test_same_size_different_graph_refused(self, tmp_path):
        # The staleness regression: identical name and (|V|, |E|) but a
        # different adjacency.  The size-only identity check accepted
        # this file and silently served the other graph's answers; the
        # content fingerprint must refuse it.
        path = tmp_path / "snap.json"
        service = QueryService(make_graph(), seed=0)
        try:
            service.query("a", "b", ["l"], CONSTRAINT)
            service.save_snapshot(path)
        finally:
            service.close()
        imposter = graph_from_edges(
            [("a", "l", "b"), ("b", "l", "c"), ("a", "m", "a")], name="snap"
        )
        other = QueryService(imposter, seed=0)
        try:
            ours, theirs = other.graph, service.graph
            assert (ours.name, ours.num_vertices, ours.num_edges) == (
                theirs.name, theirs.num_vertices, theirs.num_edges
            )
            with pytest.raises(ServiceConfigError):
                other.load_snapshot(path)
        finally:
            other.close()

    def test_verified_ancestor_snapshot_restores_stats_only(self, tmp_path):
        # The warm-cache / WAL ordering bug: a snapshot saved at epoch N
        # used to be refused outright after a restart replayed the WAL
        # to epoch M > N — or worse, before the fingerprint identity
        # check existed, warmed with stale pre-tip entries.  With the
        # log's epoch→fingerprint history the load now recognises the
        # file as a *verified ancestor*: stats carry over, every result
        # entry is dropped as pre-tip.
        path = tmp_path / "snap.json"
        first = QueryService(make_graph(), seed=0)
        try:
            first.query("a", "c", ["l"], CONSTRAINT)
            history = {0: first.epoch.fingerprint}
            first.save_snapshot(path)  # saved at epoch 0
        finally:
            first.close()
        replayed = QueryService(make_graph(), seed=0)
        try:
            replayed.apply_updates([("c", "l", "d")])  # now at epoch 1
            history[1] = replayed.epoch.fingerprint
            warmed = replayed.load_snapshot(path, epoch_fingerprints=history)
            assert warmed == {"results": 0, "stale_results": 1}
            _, meta = replayed.query("a", "c", ["l"], CONSTRAINT)
            assert not meta["cached"]  # the stale entry was not warmed
            assert replayed.stats.snapshot()["queries"]["total"] >= 2
        finally:
            replayed.close()

    def test_unrecognised_ancestor_still_refused(self, tmp_path):
        # Same shape of mismatch, but the fingerprint history does not
        # vouch for the file (e.g. a snapshot from a different lineage).
        path = tmp_path / "snap.json"
        first = QueryService(make_graph(), seed=0)
        try:
            first.query("a", "c", ["l"], CONSTRAINT)
            first.save_snapshot(path)
        finally:
            first.close()
        replayed = QueryService(make_graph(), seed=0)
        try:
            replayed.apply_updates([("c", "l", "d")])
            history = {0: "0" * 16, 1: replayed.epoch.fingerprint}
            with pytest.raises(ServiceConfigError):
                replayed.load_snapshot(path, epoch_fingerprints=history)
            with pytest.raises(ServiceConfigError):
                replayed.load_snapshot(path)  # no history at all
        finally:
            replayed.close()

    def test_missing_or_corrupt_file_refused(self, tmp_path):
        service = QueryService(make_graph(), seed=0)
        try:
            with pytest.raises(ServiceConfigError):
                service.load_snapshot(tmp_path / "nope.json")
            bad = tmp_path / "bad.json"
            bad.write_text("{not json")
            with pytest.raises(ServiceConfigError):
                service.load_snapshot(bad)
            wrong_version = tmp_path / "v9.json"
            wrong_version.write_text(json.dumps({"format_version": 9}))
            with pytest.raises(ServiceConfigError):
                service.load_snapshot(wrong_version)
        finally:
            service.close()


class TestServeWarmCacheFlag:
    def test_serve_parser_accepts_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--graph", "g.tsv", "--warm-cache", "warm.json"]
        )
        assert args.warm_cache == "warm.json"
