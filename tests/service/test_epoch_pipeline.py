"""One derivation: every construction route yields the same shape.

``GraphEpoch.first`` / ``GraphEpoch.derive`` are the only places a
serving epoch is assembled, ``QueryService._publish_epoch`` the only one
it is stored.  Whatever route produced the current epoch — warm start,
``from_files``, an update (add, remove, no-op), ``reset_epoch``,
``replace_graph``, WAL recovery from a snapshot or from the base TSV —
the invariants below must hold, because the derivation owns them.
"""

from __future__ import annotations

import json
import random
from contextlib import ExitStack

import pytest

from repro.approx import build_bounds
from repro.graph.csr import FrozenGraph
from repro.graph.io import dump_tsv
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.wal import TenantWal, graph_from_snapshot, recover_service, snapshot_document
from tests.helpers import graph_from_edges
from tests.service import test_update_agreement as agreement

EDGES = [
    ("s", "go", "m"),
    ("m", "go", "t"),
    ("m", "mark", "m"),
    ("t", "go", "u"),
    ("u", "mark", "s"),
    ("u", "go", "v"),
]
QUERY = dict(
    source="s",
    target="t",
    labels=["go"],
    constraint="SELECT ?x WHERE { ?x <mark> ?y . }",
)


def make_graph():
    return graph_from_edges(EDGES, name="pipeline")


def indexed(graph):
    return build_local_index(graph, k=2, rng=0)


def warm_start(tmp_path, stack):
    graph = make_graph()
    return QueryService(graph, indexed(graph), seed=0)


def from_files(tmp_path, stack):
    path = tmp_path / "pipeline.tsv"
    dump_tsv(make_graph(), path)
    return QueryService.from_files(path, tmp_path / "pipeline.index.json", seed=0)


def update_add(tmp_path, stack):
    service = warm_start(tmp_path, stack)
    service.query(**QUERY)  # an old-epoch cached answer that must stay behind
    assert service.apply_updates([("v", "go", "w")])["epoch"] == 1
    return service


def update_remove(tmp_path, stack):
    service = warm_start(tmp_path, stack)
    service.query(**QUERY)
    assert service.apply_updates([("u", "go", "v", "remove")])["epoch"] == 1
    return service


def update_noop(tmp_path, stack):
    service = warm_start(tmp_path, stack)
    service.query(**QUERY)
    assert service.apply_updates([("s", "go", "m")])["epoch"] == 0
    return service


def reset_epoch(tmp_path, stack):
    service = warm_start(tmp_path, stack)
    service.query(**QUERY)
    service.reset_epoch(7, expected_fingerprint=service.epoch.fingerprint)
    return service


def replace_graph(tmp_path, stack):
    service = warm_start(tmp_path, stack)
    service.query(**QUERY)
    replacement = graph_from_edges(EDGES + [("v", "go", "w")], name="pipeline")
    service.replace_graph(replacement, 5)
    return service


def _logged_leader(tmp_path, compact_every):
    path = tmp_path / "pipeline.tsv"
    dump_tsv(make_graph(), path)
    wal = TenantWal(tmp_path / "wal", "default", compact_every=compact_every)
    leader = QueryService.from_files(path, seed=0)
    leader.attach_wal(wal)
    leader.apply_updates([("v", "go", "w")])
    leader.apply_updates([("u", "go", "v", "remove")])
    leader.close()
    wal.close()
    return path, TenantWal(tmp_path / "wal", "default", compact_every=compact_every)


def recover_from_snapshot(tmp_path, stack):
    path, wal = _logged_leader(tmp_path, compact_every=2)
    assert wal.snapshot_epoch == 2
    service, replay = recover_service(
        wal, graph_path=path, index_path=tmp_path / "i.json", seed=0
    )
    assert replay["epoch"] == 2
    return service


def recover_from_base_tsv(tmp_path, stack):
    path, wal = _logged_leader(tmp_path, compact_every=100)
    assert wal.snapshot_epoch is None
    service, replay = recover_service(wal, graph_path=path, seed=0)
    assert replay["applied"] == 2
    return service


ROUTES = [
    warm_start,
    from_files,
    update_add,
    update_remove,
    update_noop,
    reset_epoch,
    replace_graph,
    recover_from_snapshot,
    recover_from_base_tsv,
]


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.__name__)
def test_every_route_publishes_the_same_epoch_shape(route, tmp_path):
    with ExitStack() as stack:
        service = route(tmp_path, stack)
        stack.callback(service.close)
        epoch = service.epoch
        graph = epoch.graph
        assert isinstance(graph, FrozenGraph)
        # Everything derived binds to exactly the snapshot being served.
        assert epoch.planner.graph is graph
        assert service.planner is epoch.planner
        assert service.candidates is epoch.candidates
        assert epoch.planner.has_index == (epoch.index is not None)
        if epoch.index is not None:
            # A graph and its snapshot share ids and count as one graph
            # (the same identity INS checks its index against).
            assert epoch.index.graph.shares_interning(graph)
        # Bounds describe this snapshot (reset_epoch carries the same
        # snapshot's bounds over, which is the same claim).
        fresh = build_bounds(graph, seed=0)
        vertices = range(graph.num_vertices)
        assert epoch.bounds.vertex_count == graph.num_vertices
        assert all(
            epoch.bounds.maybe_reachable(s, t) == fresh.maybe_reachable(s, t)
            for s in vertices
            for t in vertices
        )
        # Sessions — what evaluators actually traverse — bind to it too.
        assert epoch.session("uis*").graph is graph
        # The content fingerprint matches the content.
        assert epoch.fingerprint == graph.content_fingerprint()
        assert service.health()["fingerprint"] == epoch.fingerprint
        # Cached answers live in the epoch that computed them, under
        # the plan's own key; another graph's epoch starts without them
        # (every route warmed QUERY before its swap, if it had one).
        assert service.results is epoch.results
        same_snapshot = route in (update_noop, reset_epoch)
        assert len(epoch.results) == (1 if same_snapshot else 0)
        service.query(**QUERY)
        keys = [key for key, _ in epoch.results.export_entries()]
        assert keys == [epoch.planner.plan(**QUERY).key]


def test_fifty_chained_swaps_keep_content_identity_and_answers():
    """Row-shared copies, patched snapshots and the running fingerprint,
    chained 50 deep through ``apply_updates`` (adds, removes, misses,
    new vertices): every answer matches the naive evaluator on an
    independently mutated mirror, and the tip's fingerprint is the one a
    cold rebuild of the dumped graph computes from scratch.  The dump is
    the WAL snapshot document — the id-preserving form; a TSV edge list
    re-interns by first appearance, and the fingerprint is over ids."""
    seed = 11
    graph = agreement.make_graph(seed)
    mirror = graph_from_edges(graph.edges_named(), vertices=graph.vertex_names())
    service = QueryService(graph, build_local_index(graph, k=3, rng=seed), seed=seed)
    rng = random.Random(seed)
    parsed: dict = {}
    rows_recut = 0
    try:
        for round_number in range(1, 51):
            batch = agreement.random_mixed_batch(rng, round_number, mirror)
            before = service.epoch.epoch_id
            summary = service.apply_updates(batch)
            agreement.apply_mixed_to_oracle(mirror, batch)
            if summary["epoch"] != before:
                assert 0 < summary["rows_recut"] <= 2 * (
                    len(batch) + summary["vertices_added"]
                )
            rows_recut += summary["rows_recut"]
            for source, target, labels, text in agreement.random_specs(rng, mirror):
                expected = agreement.naive_answer(
                    mirror, source, target, labels, text, parsed
                )
                result, _meta = service.query(source, target, labels, text)
                assert result.answer == expected, (round_number, source, target)
        epoch = service.epoch
        assert epoch.epoch_id >= 40
        assert service.stats.snapshot()["updates"]["rows_recut"] == rows_recut
        dumped = json.dumps(
            snapshot_document(
                epoch.graph,
                tenant="default",
                epoch=epoch.epoch_id,
                fingerprint=epoch.fingerprint,
            )
        )
        cold = graph_from_snapshot(json.loads(dumped))
        assert epoch.fingerprint == cold.content_fingerprint()
        assert epoch.fingerprint == service.audit_fingerprint()
        assert sorted(epoch.graph.edges()) == sorted(cold.freeze().edges())
        assert sorted(epoch.graph.edges_named()) == sorted(mirror.edges_named())
    finally:
        service.close()
