"""Service-layer tracing: span trees, sampling, the flight recorder."""

from __future__ import annotations

import json

import pytest

from repro.datasets.toy import figure3_graph
from repro.index.local_index import build_local_index
from repro.obs.trace import current_trace
from repro.service.app import QueryService

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
LABELS = ["likes", "follows"]
SPEC = {"source": "v0", "target": "v4", "labels": LABELS, "constraint": S0}


@pytest.fixture()
def graph():
    return figure3_graph()


@pytest.fixture()
def service(graph):
    return QueryService(
        graph, build_local_index(graph, k=2, rng=0), seed=0, slow_ms=0.0
    )


def _names(node: dict) -> list[str]:
    return [child["name"] for child in node["children"]]


def _child(node: dict, name: str) -> dict:
    for child in node["children"]:
        if child["name"] == name:
            return child
    raise AssertionError(f"no {name!r} span under {node['name']!r}")


class TestQueryTrace:
    def test_trace_echoed_when_requested(self, service):
        document = json.loads(service.handle_query(SPEC, trace=True))
        trace = document["trace"]
        assert trace["name"] == "query"
        assert trace["sampled"] is False
        assert trace["seconds"] >= 0.0
        assert _names(trace) == ["plan", "result-cache", "execute"]
        plan = _child(trace, "plan")
        assert plan["attrs"]["algorithm"] == "meet"
        assert plan["attrs"]["trivial"] is False
        assert _child(trace, "result-cache")["attrs"] == {"hit": False}
        execute = _child(trace, "execute")
        assert execute["attrs"]["answer"] is True
        assert execute["attrs"]["passed_vertices"] >= 1
        # The candidate cache probe happens inside the evaluation.
        cache = _child(execute, "candidate-cache")
        assert cache["attrs"]["hit"] is False
        assert cache["attrs"]["candidates"] >= 1

    def test_no_trace_key_by_default(self, service):
        assert "trace" not in json.loads(service.handle_query(SPEC))

    def test_source_field(self, service):
        first = json.loads(service.handle_query(SPEC))
        assert first["source"] == "evaluated"
        second = json.loads(service.handle_query(SPEC))
        assert second["source"] == "result-cache"
        trivial = json.loads(service.handle_query({**SPEC, "target": "missing"}))
        assert trivial["source"] == "planner"

    def test_cache_hit_trace_has_no_execute_span(self, service):
        service.handle_query(SPEC)
        document = json.loads(service.handle_query(SPEC, trace=True))
        trace = document["trace"]
        assert _names(trace) == ["plan", "result-cache"]
        assert _child(trace, "result-cache")["attrs"] == {"hit": True}
        assert trace["attrs"]["source"] == "result-cache"

    def test_tracing_leaves_no_active_context(self, service):
        service.handle_query(SPEC, trace=True)
        assert current_trace() is None


class TestBatchTrace:
    def test_batch_trace_has_per_query_spans(self, service):
        payload = {"queries": [SPEC, {**SPEC, "target": "v3"}]}
        document = json.loads(service.handle_batch(payload, trace=True))
        trace = document["trace"]
        assert trace["name"] == "batch"
        assert "plan-batch" in _names(trace)
        query_spans = [c for c in trace["children"] if c["name"] == "query"]
        assert len(query_spans) == 2
        assert sorted(span["attrs"]["index"] for span in query_spans) == [0, 1]
        for span in query_spans:
            assert "execute" in [c["name"] for c in span["children"]]
        executor = _child(trace, "executor")
        assert executor["attrs"]["items"] == 2

    def test_untraced_batch_unchanged(self, service):
        document = json.loads(service.handle_batch({"queries": [SPEC]}))
        assert "trace" not in document
        assert document["results"][0]["source"] == "evaluated"


class TestUpdateTrace:
    def test_update_trace_stages(self, graph):
        service = QueryService(
            graph, build_local_index(graph, k=2, rng=0), seed=0
        )
        payload = {"edges": [
            {"source": "v0", "label": "likes", "target": "new-vertex"},
        ]}
        summary = service.handle_updates(payload, trace=True)
        trace = summary["trace"]
        assert trace["name"] == "updates"
        names = _names(trace)
        for stage in ("copy", "apply", "freeze", "candidate-carry", "publish"):
            assert stage in names, stage
        # The index is built by its first reader, not by the swap.
        assert "index-read" not in names
        assert summary["index"] == "deferred"
        apply_span = _child(trace, "apply")
        assert apply_span["attrs"]["added"] == 1
        assert apply_span["attrs"]["vertices_added"] == 1
        # "Did this swap share?": v0's out-row and the new vertex's row
        # in each direction were cut, everything else is the old epoch's.
        freeze_span = _child(trace, "freeze")
        assert freeze_span["attrs"]["rows_recut"] == summary["rows_recut"] == 3
        assert freeze_span["attrs"]["rows_shared"] == (
            2 * service.graph.num_vertices - 3
        )
        assert service.stats.snapshot()["updates"]["rows_recut"] == 3
        publish = _child(trace, "publish")
        assert publish["attrs"]["epoch"] == summary["epoch"]


class TestSampling:
    def test_sampled_trace_feeds_flight_recorder_not_client(self, graph):
        service = QueryService(
            graph, seed=0, trace_sample=1.0, slow_ms=0.0
        )
        document = json.loads(service.handle_query(SPEC))
        assert "trace" not in document          # sampled, never echoed
        entries = service.flight.snapshot()
        assert len(entries) == 1
        assert entries[0]["trace"] is not None
        assert entries[0]["trace_id"]
        assert entries[0]["trace"]["sampled"] is True

    def test_zero_rate_never_traces(self, graph):
        service = QueryService(graph, seed=0, trace_sample=0.0, slow_ms=0.0)
        for _ in range(5):
            service.handle_query(SPEC)
        assert all(
            entry["trace"] is None for entry in service.flight.snapshot()
        )


class TestFlightRecorderIntegration:
    def test_untraced_slow_query_recorded_without_tree(self, service):
        service.handle_query(SPEC)
        entries = service.flight.snapshot()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["query"]["source"] == "v0"
        assert entry["query"]["target"] == "v4"
        assert entry["algorithm"] == "Meet"
        assert entry["answer"] is True
        assert entry["trace"] is None and entry["trace_id"] is None
        assert entry["meta"]["source"] == "evaluated"

    def test_threshold_filters(self, graph):
        service = QueryService(graph, seed=0, slow_ms=1e6)
        service.handle_query(SPEC)
        assert service.flight.snapshot() == []
        # `interested` pre-filters before the entry dict is even built,
        # so sub-threshold traffic never reaches the recorder's lock.
        assert service.flight.summary()["seen"] == 0

    def test_entries_survive_epoch_swap(self, graph):
        service = QueryService(graph, seed=0, slow_ms=0.0)
        service.handle_query(SPEC)
        before = service.flight.snapshot()
        assert len(before) == 1
        epoch_before = service.epoch.epoch_id
        service.handle_updates({"edges": [
            {"source": "v0", "label": "likes", "target": "vZ"},
        ]})
        assert service.epoch.epoch_id == epoch_before + 1
        after = service.flight.snapshot()
        assert after == before                  # the swap kept every entry
        assert after[0]["meta"]["epoch"] == epoch_before

    def test_summary_in_stats_snapshot(self, service):
        service.handle_query(SPEC)
        document = service.stats_snapshot()
        slow = document["slow_queries"]
        assert slow["kept"] == 1
        assert slow["seen"] == 1
        assert document["config"]["slow_ms"] == 0.0
        assert document["config"]["slow_log_size"] == 16
        assert document["config"]["trace_sample"] == 0.0


class TestHealthBuildInfo:
    def test_health_carries_version_and_uptime(self, service):
        from repro._version import __version__

        document = service.health()
        assert document["version"] == __version__
        assert document["started_at"] > 0
        assert document["uptime_seconds"] >= 0.0
