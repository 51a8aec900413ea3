"""Live updates: apply_updates semantics, POST /edges, and the gates.

Covers the epoch-swap mechanics the randomized agreement suite
(``test_update_agreement.py``) then hammers statistically:

* :meth:`QueryService.apply_updates` — epoch bump, duplicate counting,
  vertex/label interning, the index deferred to its first read, the
  old epoch staying intact for in-flight readers;
* per-epoch result caches — a pre-update cached answer must never be
  served for the post-update graph (the headline staleness bug);
* ``POST /edges`` over real HTTP — default tenant and ``/t/<tenant>``
  routes, structured validation errors and the ``--allow-updates`` gate
  (403 when off).
"""

from __future__ import annotations

import gc
import json
import urllib.error
import urllib.request

import pytest

from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.exceptions import (
    BadRequestError,
    ServiceConfigError,
)
from repro.graph import FrozenGraph, KnowledgeGraph
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.service.registry import TenantRegistry
from tests.helpers import graph_from_edges, running_server

CONSTRAINT = "SELECT ?x WHERE { ?x <mark> ?y . }"


def make_graph(name="live"):
    return graph_from_edges(
        [("s", "go", "m"), ("m", "mark", "m"), ("x", "go", "y")], name=name
    )


def make_service(indexed=False, **kwargs):
    graph = make_graph()
    index = build_local_index(graph, k=2, rng=0) if indexed else None
    return QueryService(graph, index, seed=0, **kwargs)


def assert_ins_matches_the_oracle(service):
    """Forced, uncached INS agrees with the naive procedure on the
    serving graph for every ordered pair of its vertices."""
    graph = service.graph
    oracle = NaiveTwoProcedure(graph)
    constraint = SubstructureConstraint.from_sparql(CONSTRAINT)
    for source in graph.vertex_names():
        for target in graph.vertex_names():
            result, _ = service.query(
                source, target, ["go"], CONSTRAINT,
                algorithm="ins", use_cache=False,
            )
            expected = oracle.decide(
                LSCRQuery.create(source, target, ["go"], constraint)
            )
            assert result.answer is expected, (source, target)


class TestApplyUpdates:
    @pytest.mark.parametrize("indexed", [False, True])
    def test_new_edge_flips_the_answer(self, indexed):
        service = make_service(indexed)
        try:
            result, meta = service.query("s", "t2", ["go"], CONSTRAINT)
            assert meta["epoch"] == 0
            assert result.answer is False  # t2 not in the graph yet
            summary = service.apply_updates([("m", "go", "t2")])
            assert summary["epoch"] == 1
            assert summary["edges_added"] == 1
            assert summary["vertices_added"] == 1
            result, meta = service.query("s", "t2", ["go"], CONSTRAINT)
            assert result.answer is True
            assert meta["epoch"] == 1
        finally:
            service.close()

    def test_cached_pre_update_answer_is_not_served_after_swap(self):
        # The headline staleness regression: an *executed* False answer
        # cached at epoch 0 must not satisfy the same query once an
        # update makes the true answer True.  Before cached answers were
        # tied to the epoch this returned the stale cached False.
        service = make_service()
        try:
            first, meta = service.query("s", "y", ["go"], CONSTRAINT)
            assert first.answer is False and not meta["trivial"]
            again, meta = service.query("s", "y", ["go"], CONSTRAINT)
            assert meta["cached"]  # epoch-0 entry is live
            service.apply_updates([("m", "go", "y")])
            fresh, meta = service.query("s", "y", ["go"], CONSTRAINT)
            assert fresh.answer is True
            assert not meta["cached"]
            assert meta["epoch"] == 1
        finally:
            service.close()

    def test_executed_cache_entry_does_not_cross_epochs(self):
        service = make_service()
        try:
            executed, meta = service.query("s", "m", ["go"], CONSTRAINT)
            assert executed.answer is True and not meta["trivial"]
            cached, meta = service.query("s", "m", ["go"], CONSTRAINT)
            assert meta["cached"]
            service.apply_updates([("y", "go", "s")])
            after, meta = service.query("s", "m", ["go"], CONSTRAINT)
            assert after.answer is True
            assert not meta["cached"]  # epoch-1 cache starts cold
            assert meta["epoch"] == 1
        finally:
            service.close()

    def test_all_duplicate_batch_is_a_no_op(self):
        # No epoch bump, no graph copy: a batch of already-present
        # triples must leave the published epoch (and therefore the
        # warm-cache identity and every cache entry) untouched.
        service = make_service()
        try:
            before = service.epoch
            executed, _ = service.query("s", "m", ["go"], CONSTRAINT)
            summary = service.apply_updates(
                [("s", "go", "m"), ("m", "mark", "m")]
            )
            assert summary["epoch"] == 0
            assert summary["edges_added"] == 0
            assert summary["edges_duplicate"] == 2
            assert service.epoch is before
            again, meta = service.query("s", "m", ["go"], CONSTRAINT)
            assert meta["cached"]  # the epoch-0 entry survived
        finally:
            service.close()

    def test_duplicates_and_new_labels_counted(self):
        service = make_service()
        try:
            summary = service.apply_updates(
                [("s", "go", "m"), ("s", "new-label", "m")]
            )
            assert summary["edges_duplicate"] == 1
            assert summary["edges_added"] == 1
            assert "new-label" in service.graph.labels
        finally:
            service.close()

    def test_old_epoch_object_keeps_serving(self):
        service = make_service()
        try:
            old_epoch = service.epoch
            old_graph = old_epoch.graph
            edges_before = old_graph.num_edges
            service.apply_updates([("a1", "go", "a2")])
            assert service.epoch is not old_epoch
            assert old_graph.num_edges == edges_before
            assert not old_graph.has_vertex("a1")
            assert isinstance(service.graph, FrozenGraph)
            assert service.graph.has_vertex("a1")
        finally:
            service.close()

    def test_an_add_swap_defers_the_index_to_a_build_on_first_read(self):
        service = make_service(indexed=True)
        try:
            assert service.index is not None  # epoch 0's index was read
            summary = service.apply_updates(
                [("s", "go", "s2"), ("m", "go", "m3")]
            )
            assert summary["index"] == "deferred"
            assert not service.epoch.describe_index()["loaded"]
            assert_ins_matches_the_oracle(service)
            assert service.epoch.describe_index()["loaded"]
        finally:
            service.close()

    def test_retired_snapshots_die_without_a_full_collection(self):
        """Neither a retired snapshot nor an index read on an old epoch
        may keep an old graph alive: with the cyclic collector off, a chain of
        updates leaves only the current snapshot — no mutable graph
        beside it."""
        service = make_service(indexed=True)
        gc.collect()
        gc.disable()
        try:
            for target in ("s2", "s3", "s4"):
                service.apply_updates([("s", "go", target)])
            alive = {id(o) for o in gc.get_objects() if isinstance(o, KnowledgeGraph)}
            assert alive == {id(service.graph)}
        finally:
            gc.enable()
            service.close()

    def test_empty_batch_rejected(self):
        service = make_service()
        try:
            with pytest.raises(BadRequestError):
                service.apply_updates([])
        finally:
            service.close()

    def test_handle_updates_validation(self):
        service = make_service()
        try:
            for payload in (
                "nope",
                {},
                {"edges": []},
                {"edges": "x"},
                {"edges": [{"source": "a", "label": "l"}]},
                {"edges": [["a", "l"]]},
                {"edges": [["a", 3, "b"]]},
                {"edges": [{"source": "", "label": "l", "target": "b"}]},
            ):
                with pytest.raises(BadRequestError):
                    service.handle_updates(payload)
            # Valid object and array forms both apply.
            summary = service.handle_updates(
                {"edges": [{"source": "p", "label": "go", "target": "q"},
                           ["q", "go", "r"]]}
            )
            assert summary["edges_added"] == 2
        finally:
            service.close()

    def test_stats_and_health_carry_the_epoch(self):
        service = make_service()
        try:
            service.apply_updates([("s", "go", "w")])
            health = service.health()
            assert health["epoch"] == 1
            stats = service.stats_snapshot()
            assert stats["epoch"]["epoch_id"] == 1
            assert isinstance(stats["epoch"]["fingerprint"], str)
            updates = stats["service"]["updates"]
            assert updates["batches"] == 1
            assert updates["edges_added"] == 1
            assert "updates" in stats["service"]["latency"]
        finally:
            service.close()


class TestEdgeRetraction:
    """``op: "remove"`` end to end — the bug was a silently dropped op:
    removals validated fine and then never reached the graph."""

    @pytest.mark.parametrize("indexed", [False, True])
    def test_removal_flips_the_answer_back(self, indexed):
        service = make_service(indexed)
        try:
            result, _ = service.query("s", "m", ["go"], CONSTRAINT)
            assert result.answer is True
            summary = service.apply_updates([("s", "go", "m", "remove")])
            assert summary["epoch"] == 1
            assert summary["edges_removed"] == 1
            assert summary["edges_added"] == 0
            result, meta = service.query("s", "m", ["go"], CONSTRAINT)
            assert result.answer is False
            assert meta["epoch"] == 1
            # Vertices stay (ids must remain dense); only the edge went.
            assert service.graph.has_vertex("s")
            assert not service.graph.has_edge_named("s", "go", "m")
        finally:
            service.close()

    def test_removing_an_absent_edge_is_counted_not_fatal(self):
        service = make_service()
        try:
            summary = service.apply_updates(
                [("s", "go", "nowhere", "remove"), ("a1", "go", "a2")]
            )
            assert summary["edges_missing"] == 1
            assert summary["edges_removed"] == 0
            assert summary["edges_added"] == 1
            assert summary["epoch"] == 1
        finally:
            service.close()

    def test_all_noop_mixed_batch_keeps_the_epoch(self):
        # Duplicate adds and absent removes together: nothing changes,
        # so nothing may be published (and a WAL would not be appended).
        service = make_service()
        try:
            before = service.epoch
            summary = service.apply_updates(
                [("s", "go", "m"), ("ghost", "go", "m", "remove")]
            )
            assert summary["epoch"] == 0
            assert summary["edges_duplicate"] == 1
            assert summary["edges_missing"] == 1
            assert service.epoch is before
        finally:
            service.close()

    def test_add_then_remove_same_edge_in_one_batch(self):
        # Ops apply in order: the batch is *not* a no-op — it bumps the
        # epoch and leaves the edge absent again.
        service = make_service()
        try:
            summary = service.apply_updates(
                [("p", "go", "q"), ("p", "go", "q", "remove")]
            )
            assert summary["epoch"] == 1
            assert summary["edges_added"] == 1
            assert summary["edges_removed"] == 1
            assert not service.graph.has_edge_named("p", "go", "q")
        finally:
            service.close()

    def test_a_remove_swap_defers_the_index_to_a_build_on_first_read(self):
        service = make_service(indexed=True)
        try:
            service.apply_updates([("m", "go", "far")])
            assert_ins_matches_the_oracle(service)
            summary = service.apply_updates([("m", "go", "far", "remove")])
            assert summary["index"] == "deferred"
            assert_ins_matches_the_oracle(service)
            result, _ = service.query(
                "s", "far", ["go"], CONSTRAINT, algorithm="ins"
            )
            assert result.answer is False
        finally:
            service.close()

    def test_stats_count_removals(self):
        service = make_service()
        try:
            service.apply_updates(
                [("s", "go", "m", "remove"), ("zz", "go", "s", "remove")]
            )
            updates = service.stats_snapshot()["service"]["updates"]
            assert updates["edges_removed"] == 1
            assert updates["edges_missing"] == 1
        finally:
            service.close()

    def test_op_validation(self):
        service = make_service()
        try:
            for payload in (
                {"edges": [["a", "l", "b", "drop"]]},       # unknown op
                {"edges": [["a", "l", "b", ""]]},
                {"edges": [["a", "l", "b", "add", "x"]]},   # 5 columns
                {"edges": [{"source": "a", "label": "l", "target": "b",
                            "op": "upsert"}]},
                {"edges": [{"source": "a", "label": "l", "target": "b",
                            "op": 3}]},
            ):
                with pytest.raises(BadRequestError) as excinfo:
                    service.handle_updates(payload)
                assert "edges[0]" in str(excinfo.value)
            # Every valid spelling of the same retraction.
            service.apply_updates([("a", "go", "b"), ("c", "go", "d")])
            summary = service.handle_updates(
                {"edges": [
                    ["a", "go", "b", "remove"],
                    {"source": "c", "label": "go", "target": "d",
                     "op": "remove"},
                ]}
            )
            assert summary["edges_removed"] == 2
        finally:
            service.close()


class TestReadOnlyFollowerGate:
    def test_read_only_service_refuses_http_writes(self):
        from repro.exceptions import ReadOnlyServiceError

        service = make_service()
        service.read_only = True
        try:
            with pytest.raises(ReadOnlyServiceError) as excinfo:
                service.handle_updates({"edges": [["a", "go", "b"]]})
            assert excinfo.value.status == 403
            assert excinfo.value.detail == {"role": "follower"}
            # apply_updates itself stays open — the WAL tailer uses it.
            summary = service.apply_updates([("a", "go", "b")])
            assert summary["epoch"] == 1
        finally:
            service.close()


def http_post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture()
def update_server():
    registry = TenantRegistry(default_tenant="default")
    registry.add("default", make_service())
    registry.add("beta", make_service())
    with running_server(registry, allow_updates=True) as url:
        yield url, registry


class TestHttpEdges:
    def test_post_edges_then_query_sees_the_new_graph(self, update_server):
        base_url, _ = update_server
        query = {"source": "s", "target": "fresh", "labels": ["go"],
                 "constraint": CONSTRAINT}
        status, before = http_post(f"{base_url}/query", query)
        assert status == 200 and before["answer"] is False
        status, summary = http_post(
            f"{base_url}/edges", {"edges": [["m", "go", "fresh"]]}
        )
        assert status == 200
        assert summary["epoch"] == 1 and summary["edges_added"] == 1
        status, after = http_post(f"{base_url}/query", query)
        assert status == 200 and after["answer"] is True
        assert after["epoch"] == 1

    def test_per_tenant_route_updates_only_that_tenant(self, update_server):
        base_url, registry = update_server
        status, summary = http_post(
            f"{base_url}/t/beta/edges", {"edges": [["m", "go", "beta-only"]]}
        )
        assert status == 200 and summary["epoch"] == 1
        assert registry.get("beta").graph.has_vertex("beta-only")
        assert not registry.get("default").graph.has_vertex("beta-only")
        assert registry.get("default").epoch.epoch_id == 0

    def test_validation_errors_are_structured_400s(self, update_server):
        base_url, _ = update_server
        status, body = http_post(f"{base_url}/edges", {"edges": [["a"]]})
        assert status == 400
        assert body["error"]["type"] == "bad-request"
        assert "edges[0]" in body["error"]["message"]

    def test_unknown_tenant_404(self, update_server):
        base_url, _ = update_server
        status, body = http_post(
            f"{base_url}/t/ghost/edges", {"edges": [["a", "l", "b"]]}
        )
        assert status == 404
        assert body["error"]["type"] == "unknown-tenant"

    def test_disabled_by_default_gives_403(self):
        with running_server(make_service()) as base_url:
            status, body = http_post(
                f"{base_url}/edges", {"edges": [["a", "go", "b"]]}
            )
            assert status == 403
            assert body["error"]["type"] == "updates-disabled"
            assert "--allow-updates" in body["error"]["message"]

class TestSnapshotEpochIdentity:
    def test_post_update_snapshot_refused_by_fresh_service(self, tmp_path):
        path = tmp_path / "snap.json"
        first = make_service()
        try:
            first.apply_updates([("s", "go", "later")])
            first.query("s", "later", ["go"], CONSTRAINT)
            first.save_snapshot(path)
        finally:
            first.close()
        fresh = make_service()  # same TSV-equivalent graph, epoch 0
        try:
            with pytest.raises(ServiceConfigError):
                fresh.load_snapshot(path)
        finally:
            fresh.close()

    def test_serve_parser_accepts_allow_updates(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--graph", "g.tsv", "--allow-updates"]
        )
        assert args.allow_updates is True
        args = build_parser().parse_args(["serve", "--graph", "g.tsv"])
        assert args.allow_updates is False
