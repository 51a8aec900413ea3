"""The served graph is one form: an update never touches a mutable graph.

An update batch derives the next snapshot from the serving one
(``FrozenGraph.derive``), so while ``apply_updates`` runs nothing may
copy a ``KnowledgeGraph`` or write one edge by edge — whether the batch
comes from a caller, from WAL replay at recovery or from a follower
catching up.  Boot and compaction-snapshot loads stream their triples
through ``KnowledgeGraph.from_triples``, which cuts each row as it is
finished and writes none edge by edge; they run outside the watched
span, and the watch must see them there (else it watches nothing).
"""

from __future__ import annotations

import pytest

from repro.graph.io import dump_tsv
from repro.graph.labeled_graph import KnowledgeGraph
from repro.service.app import QueryService
from repro.wal import TenantWal, WalFollower, recover_service
from tests.helpers import graph_from_edges

BASE = [("s", "go", "m"), ("m", "mark", "m"), ("x", "go", "y")]
BATCHES = [
    [("m", "go", "t2"), ("x", "go", "y", "remove")],
    [("t2", "likes", "t3"), ("ghost", "go", "s", "remove"), ("s", "go", "m")],
    [("x", "go", "y"), ("t3", "go", "s"), ("t3", "go", "s", "remove")],
    [("m", "mark", "m", "remove"), ("q", "new", "s")],
]


@pytest.fixture()
def watch(monkeypatch):
    """Calls of the mutable graph's copy / edge-write methods, split by
    whether an ``apply_updates`` was running."""
    calls = {"inside": [], "outside": []}
    running = []
    apply_updates = QueryService.apply_updates

    def watched_apply(self, edges):
        running.append(True)
        try:
            return apply_updates(self, edges)
        finally:
            running.pop()

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            calls["inside" if running else "outside"].append(name)
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(QueryService, "apply_updates", watched_apply)
    for name in ("copy", "add_edge_ids", "remove_edge_ids"):
        monkeypatch.setattr(
            KnowledgeGraph, name, counted(name, getattr(KnowledgeGraph, name))
        )
    from_triples = KnowledgeGraph.__dict__["from_triples"].__func__
    monkeypatch.setattr(
        KnowledgeGraph, "from_triples", classmethod(counted("from_triples", from_triples))
    )
    return calls


def oracle_fingerprint(batches) -> str:
    graph = graph_from_edges(BASE)
    for batch in batches:
        for source, label, target, *op in batch:
            if op == ["remove"]:
                graph.remove_edge(source, label, target)
            else:
                graph.add_edge(source, label, target)
    return graph.content_fingerprint()


def test_a_direct_update_touches_no_mutable_graph(watch):
    service = QueryService(graph_from_edges(BASE), seed=0)
    try:
        for batch in BATCHES:
            service.apply_updates(batch)
        assert watch["inside"] == []
        assert service.epoch.fingerprint == oracle_fingerprint(BATCHES)
        assert not hasattr(service.graph, "_out")
    finally:
        service.close()


def test_recovery_and_follower_catch_up_touch_no_mutable_graph(watch, tmp_path):
    dump_tsv(graph_from_edges(BASE, name="base"), tmp_path / "base.tsv")
    leader = QueryService.from_files(tmp_path / "base.tsv", seed=0)
    leader.attach_wal(TenantWal(tmp_path, "default", compact_every=3))
    replica = QueryService.from_files(tmp_path / "base.tsv", seed=0)
    follower = WalFollower(replica, TenantWal(tmp_path, "default", compact_every=3))
    recovered = None
    try:
        for batch in BATCHES[:2]:
            leader.apply_updates(batch)
        assert follower.poll_once()["applied"] == 2  # catch-up by replay
        for batch in BATCHES[2:]:
            leader.apply_updates(batch)  # the third record compacts the log
        watch["outside"].clear()
        report = follower.poll_once()  # resync from the snapshot, then replay
        assert report["resynced"] and report["applied"] == 1
        recovered, replay = recover_service(
            TenantWal(tmp_path, "default", compact_every=3),
            graph_path=tmp_path / "base.tsv",
            seed=0,
        )
        assert replay["applied"] == 1
        # The snapshot loads ran outside apply_updates, through the
        # one streaming loader: the follower's resync and the recovery.
        assert watch["outside"] == ["from_triples", "from_triples"]
        assert watch["inside"] == []
        expected = oracle_fingerprint(BATCHES)
        assert leader.epoch.fingerprint == expected
        assert replica.epoch.fingerprint == expected
        assert recovered.epoch.fingerprint == expected
    finally:
        leader.close()
        replica.close()
        if recovered is not None:
            recovered.close()
