"""Tests for QueryService (dict-level API, caching, batching, warm start)."""

import json
import threading

import pytest

from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError, ServiceConfigError
from repro.graph.io import dump_tsv, load_tsv
from repro.index.local_index import build_local_index
from repro.index.storage import save_local_index
from repro.service.app import QueryService
from repro.session import LSCRSession

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S0_REFORMATTED = "SELECT ?x WHERE {   ?x <friendOf> v3 . v3 <likes> ?y .   }"
LABELS = ["likes", "follows"]


@pytest.fixture()
def graph():
    return figure3_graph()


@pytest.fixture()
def service(graph):
    return QueryService(graph, build_local_index(graph, k=2, rng=0), seed=0)


@pytest.fixture()
def plain_service(graph):
    return QueryService(graph, seed=0)


class TestQuery:
    def test_basic_true_false(self, service):
        result, meta = service.query("v0", "v4", LABELS, S0)
        assert result.answer is True
        assert result.algorithm == "Meet"      # a loaded index does not change the default
        assert meta == {
            "cached": False,
            "trivial": False,
            "reason": "meet is the measured-cheapest evaluator; "
                      "request 'ins' to use the index",
            "epoch": 0,
            "source": "evaluated",
            "tier": "exact",
        }
        result, _ = service.query("v0", "v3", LABELS, S0)
        assert result.answer is False

    def test_repeat_query_hits_cache(self, service):
        first, meta1 = service.query("v0", "v4", LABELS, S0)
        second, meta2 = service.query("v0", "v4", LABELS, S0)
        assert not meta1["cached"] and meta2["cached"]
        assert second is first                      # the very object
        assert service.results.stats().hits == 1

    def test_reformatted_query_hits_cache(self, service):
        service.query("v0", "v4", ["likes", "follows"], S0)
        _, meta = service.query("v0", "v4", ["follows", "likes"], S0_REFORMATTED)
        assert meta["cached"]

    def test_use_cache_false_bypasses(self, service):
        service.query("v0", "v4", LABELS, S0, use_cache=False)
        _, meta = service.query("v0", "v4", LABELS, S0, use_cache=False)
        assert not meta["cached"]
        assert len(service.results) == 0

    def test_trivial_not_cached(self, service):
        _, meta = service.query("v0", "missing", LABELS, S0)
        assert meta["trivial"]
        assert len(service.results) == 0

    def test_fallback_without_index(self, plain_service):
        result, _ = plain_service.query("v0", "v4", LABELS, S0)
        assert result.algorithm == "Meet"

    def test_algorithm_override(self, service):
        result, meta = service.query("v0", "v4", LABELS, S0, algorithm="uis")
        assert result.algorithm == "UIS"
        assert "requested" in meta["reason"]

    def test_sessions_share_index_and_constraints(self, service):
        service.query("v0", "v4", LABELS, S0)
        session = service.epoch.session("ins")
        assert session.index is service.index
        assert session._constraint_cache is service.constraints


class TestBatch:
    def test_order_preserved_and_matches_serial(self, service):
        pairs = [("v0", "v4"), ("v0", "v3"), ("v3", "v4"), ("v0", "v0")] * 16
        specs = [
            {"source": s, "target": t, "labels": LABELS, "constraint": S0}
            for s, t in pairs
        ]
        session = LSCRSession(service.graph, algorithm="ins", index=service.index, seed=0)
        serial = [
            session.answer(session.make_query(s, t, LABELS, S0)).answer
            for s, t in pairs
        ]
        answered = service.query_batch(specs, use_cache=False)
        assert [result.answer for result, _ in answered] == serial

    def test_batch_counts_in_stats(self, service):
        specs = [
            {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}
        ] * 3
        service.query_batch(specs)
        snapshot = service.stats.snapshot()
        assert snapshot["batches"]["requests"] == 1
        assert snapshot["batches"]["queries"] == 3

    def test_per_spec_use_cache_override(self, service):
        base = {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}
        service.query_batch([base])                          # populate the cache
        answered = service.query_batch([base, {**base, "use_cache": False}])
        metas = [meta for _, meta in answered]
        assert metas[0]["cached"] is True
        assert metas[1]["cached"] is False

    def test_members_run_in_the_request_thread(self, graph, monkeypatch):
        """The evaluators never wait, so the members that need one run
        in the request thread: no pool, no thread is started."""
        service = QueryService(graph, seed=0)
        threads = []
        answer = LSCRSession.answer

        def observed(session, query):
            threads.append(threading.current_thread().name)
            return answer(session, query)

        monkeypatch.setattr(LSCRSession, "answer", observed)
        specs = [
            {"source": s, "target": t, "labels": LABELS, "constraint": S0,
             "algorithm": "naive"}
            for s, t in [("v0", "v4"), ("v0", "v3"), ("v3", "v4"), ("v4", "v0")]
        ]
        before = set(threading.enumerate())
        try:
            service.query_batch(specs, use_cache=False)
            started = set(threading.enumerate()) - before
        finally:
            service.close()
        assert len(threads) == len(specs)
        assert not started
        assert set(threads) == {threading.current_thread().name}

    def test_oversized_batch_rejected(self, graph):
        small = QueryService(graph, max_batch=2, seed=0)
        specs = [
            {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}
        ] * 3
        with pytest.raises(BadRequestError, match="exceeds the limit"):
            small.query_batch(specs)


class TestJsonApi:
    def test_handle_query_round_trip(self, service):
        payload = {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}
        document = json.loads(service.handle_query(payload))
        assert document["answer"] is True
        assert document["algorithm"] == "Meet"
        assert document["cached"] is False

    def test_handle_query_accepts_comma_labels(self, service):
        payload = {
            "source": "v0", "target": "v4",
            "labels": "likes,follows", "constraint": S0,
        }
        assert json.loads(service.handle_query(payload))["answer"] is True

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "expected a JSON object"),
            ({}, "missing field"),
            ({"source": 1, "target": "v4", "labels": LABELS, "constraint": S0},
             "must be strings"),
            ({"source": "v0", "target": "v4", "labels": [], "constraint": S0},
             "labels"),
            ({"source": "v0", "target": "v4", "labels": [1], "constraint": S0},
             "labels"),
            ({"source": "v0", "target": "v4", "labels": LABELS, "constraint": ""},
             "constraint"),
            ({"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0,
              "use_cache": "yes"}, "use_cache"),
        ],
    )
    def test_handle_query_validation(self, service, payload, match):
        with pytest.raises(BadRequestError, match=match):
            service.handle_query(payload)

    def test_handle_query_bad_sparql_is_bad_request(self, service):
        payload = {
            "source": "v0", "target": "v4",
            "labels": LABELS, "constraint": "SELECT garbage",
        }
        with pytest.raises(BadRequestError, match="invalid query"):
            service.handle_query(payload)

    def test_empty_algorithm_is_refused_at_both_doors(self, service):
        # One spelling of "no algorithm named" — ``is None`` — so the
        # empty string is an unknown algorithm to /query and /batch alike.
        payload = {
            "source": "v0", "target": "v4",
            "labels": LABELS, "constraint": S0, "algorithm": "",
        }
        with pytest.raises(BadRequestError, match="unknown algorithm ''"):
            service.handle_query(payload)
        with pytest.raises(BadRequestError, match="unknown algorithm ''"):
            service.handle_batch({"queries": [payload]})
        assert service.stats.snapshot()["queries"]["total"] == 0

    def test_handle_batch_round_trip(self, service):
        payload = {
            "queries": [
                {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0},
                {"source": "v0", "target": "v3", "labels": LABELS, "constraint": S0},
            ]
        }
        document = json.loads(service.handle_batch(payload))
        assert document["count"] == 2
        assert [entry["answer"] for entry in document["results"]] == [True, False]

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "'queries' array"),
            ({"queries": []}, "non-empty"),
            ({"queries": "nope"}, "non-empty"),
            ({"queries": [{}]}, r"queries\[0\]"),
            ({"queries": [{"source": "v0", "target": "v4", "labels": LABELS,
                           "constraint": S0}], "use_cache": 1}, "use_cache"),
        ],
    )
    def test_handle_batch_validation(self, service, payload, match):
        with pytest.raises(BadRequestError, match=match):
            service.handle_batch(payload)

    def test_health(self, service):
        document = service.health()
        assert document["status"] == "ok"
        assert document["vertices"] == 5
        assert document["index_loaded"] is True

    def test_stats_snapshot_shape(self, service):
        service.query("v0", "v4", LABELS, S0)
        service.query("v0", "v4", LABELS, S0)
        document = service.stats_snapshot()
        assert document["service"]["queries"]["total"] == 2
        assert document["result_cache"]["hits"] == 1
        assert document["constraint_cache"]["misses"] == 1
        assert document["index"]["loaded"] is True
        assert document["config"]["default_algorithm"] == "meet"


class TestFromFiles:
    def test_warm_start_builds_then_loads(self, tmp_path, graph):
        graph_path = tmp_path / "g0.tsv"
        index_path = tmp_path / "g0.index.json"
        dump_tsv(graph, graph_path)

        cold = QueryService.from_files(graph_path, index_path, seed=0)
        assert not index_path.exists()              # nothing read at start
        query = ("v0", "v4", LABELS, S0)
        cold_result, _ = cold.query(*query, algorithm="ins")
        assert index_path.is_file()                 # built and persisted
        warm = QueryService.from_files(graph_path, index_path, seed=0)
        warm_result, _ = warm.query(*query, algorithm="ins")
        assert cold_result.answer == warm_result.answer
        assert (
            warm.index.partition.landmarks == cold.index.partition.landmarks
        )

    def test_prebuilt_index_loaded(self, tmp_path, graph):
        graph_path = tmp_path / "g0.tsv"
        index_path = tmp_path / "g0.index.json"
        dump_tsv(graph, graph_path)
        # Indexed as the file loads: the TSV numbers v2/v3 the other way.
        served = load_tsv(graph_path)
        save_local_index(build_local_index(served, k=2, rng=0), index_path)
        service = QueryService.from_files(graph_path, index_path, seed=0)
        assert service.index is not None
        assert service.default_algorithm == "meet"
        # ... and the loaded index is what a per-request 'ins' runs on.
        result, _ = service.query("v0", "v4", LABELS, S0, algorithm="ins")
        assert result.algorithm == "INS" and result.answer is True

    def test_no_index_path_serves_index_free(self, tmp_path, graph):
        graph_path = tmp_path / "g0.tsv"
        dump_tsv(graph, graph_path)
        service = QueryService.from_files(graph_path, seed=0)
        assert service.index is None
        assert service.default_algorithm == "meet"

    def test_index_path_that_cannot_hold_a_file_rejected(self, tmp_path, graph):
        # Refused at start: no INS request would ever get an index there.
        graph_path = tmp_path / "g0.tsv"
        dump_tsv(graph, graph_path)
        for index_path in (tmp_path, tmp_path / "missing" / "g0.index.json"):
            with pytest.raises(ServiceConfigError, match="cannot hold"):
                QueryService.from_files(graph_path, index_path)

    def test_missing_graph_rejected(self, tmp_path):
        with pytest.raises(ServiceConfigError, match="graph file not found"):
            QueryService.from_files(tmp_path / "missing.tsv")

    def test_bad_config_rejected(self, graph):
        with pytest.raises(ServiceConfigError, match="max_batch"):
            QueryService(graph, max_batch=0)
