"""Unit tests for the write-ahead log: segments, snapshots, replay.

The durability contract under test:

* every acknowledged batch is one fsynced JSONL record stamped with the
  epoch it produced and that epoch's content fingerprint;
* replay over the same base state reproduces those epochs *and proves*
  it, record by record, via the fingerprint;
* compaction (snapshot-then-delete) and a torn final append are the two
  legal kinds of on-disk untidiness — replay absorbs both; anything
  else is corruption and refuses loudly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WalCorruptionError, WalReplayError
from repro.graph import FrozenGraph, KnowledgeGraph, freeze_graph
from repro.service.app import QueryService
from repro.wal import (
    TenantWal,
    UpdateWal,
    graph_from_snapshot,
    recover_service,
    snapshot_document,
)
from tests.helpers import graph_from_edges

CONSTRAINT = "SELECT ?x WHERE { ?x <mark> ?y . }"


def make_graph(name="wal-base"):
    return graph_from_edges(
        [("s", "go", "m"), ("m", "mark", "m"), ("x", "go", "y")], name=name
    )


def make_leader(wal, graph=None):
    service = QueryService(graph or make_graph(), seed=0)
    service.attach_wal(wal)
    return service


def segment_names(wal):
    return sorted(p.name for p in wal._segment_paths())


class TestSnapshotRoundtrip:
    def test_graph_from_snapshot_preserves_ids_and_fingerprint(self):
        graph = make_graph()
        graph.add_edge("y", "later", "z")  # interning order matters
        document = snapshot_document(
            graph, tenant="t", epoch=3, fingerprint=graph.content_fingerprint()
        )
        rebuilt = graph_from_snapshot(document)
        assert rebuilt.content_fingerprint() == graph.content_fingerprint()
        assert rebuilt.vid("z") == graph.vid("z")
        assert rebuilt.label_id("later") == graph.label_id("later")

    def test_malformed_snapshot_document_is_corruption(self):
        with pytest.raises(WalCorruptionError):
            graph_from_snapshot({"graph": {"name": "x"}})  # missing keys


def rebuilt_edge_by_edge(document: dict) -> FrozenGraph:
    """The snapshot's graph as recovery once built it: a dict graph,
    every vertex, every label, then each edge by ids — then frozen."""
    info = document["graph"]
    graph = KnowledgeGraph(name=info["name"])
    for name in info["vertices"]:
        graph.add_vertex(name)
    for label in info["labels"]:
        graph.labels.intern(label)
    for s_id, label_id, t_id in info["edges"]:
        graph.add_edge_ids(s_id, label_id, t_id)
    return freeze_graph(graph)


def served_state(graph: FrozenGraph) -> dict:
    return {
        "vertices": list(graph.vertex_names()),
        "labels": list(graph.labels.names()),
        "rows": [
            (direction.masks, direction.all_targets, direction.bounds)
            for direction in (graph._csr_out, graph._csr_in)
        ],
        "degrees": (graph._out_degree, graph._in_degree),
        "counts": graph._label_edge_count,
        "mutations": graph.mutation_count,
        "fingerprint": graph.content_fingerprint(),
        "scanned": graph.scan_fingerprint(),
    }


#: Removals leave vertices without edges and labels on no edge behind.
SNAPSHOT_OPS = st.lists(
    st.tuples(
        st.sampled_from(["n0", "n1", "n2", 3, 4]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["n0", "n1", "n2", 3, 4]),
        st.sampled_from(["add", "add", "remove"]),
    ),
    max_size=40,
)


class TestSnapshotBoot:
    @settings(deadline=None)
    @given(ops=SNAPSHOT_OPS)
    def test_recovery_boots_the_frozen_edge_by_edge_rebuild(self, ops):
        graph = KnowledgeGraph("wal")
        for source, label, target, op in ops:
            if op == "add":
                graph.add_edge(source, label, target)
            else:
                graph.remove_edge(source, label, target)
        document = json.loads(json.dumps(snapshot_document(
            graph, tenant="t", epoch=1, fingerprint=graph.content_fingerprint()
        )))
        booted = graph_from_snapshot(document)
        assert isinstance(booted, FrozenGraph)
        assert served_state(booted) == served_state(rebuilt_edge_by_edge(document))
        assert booted.content_fingerprint() == graph.content_fingerprint()


class TestAppendAndReplay:
    def test_records_step_epochs_by_one_and_replay_reconverges(self, tmp_path):
        wal = TenantWal(tmp_path, "default", compact_every=100)
        leader = make_leader(wal)
        try:
            leader.apply_updates([("m", "go", "t2")])
            leader.apply_updates([("t2", "go", "t3"), ("s", "go", "m")])
            leader.apply_updates(
                [("x", "go", "y", "remove"), ("ghost", "go", "s", "remove")]
            )
            tip_epoch = leader.epoch.epoch_id
            tip_fingerprint = leader.epoch.fingerprint
            assert tip_epoch == 3
        finally:
            leader.close()
        records = list(wal.read_records())
        assert [r.epoch for r in records] == [1, 2, 3]
        assert [r.seq for r in records] == [1, 2, 3]
        assert records[2].edges == (("x", "go", "y", "remove"),
                                    ("ghost", "go", "s", "remove"))

        replica = QueryService(make_graph(), seed=0)
        try:
            replay = TenantWal(tmp_path, "default").replay_into(replica)
            assert replay == {
                "applied": 3,
                "skipped": 0,
                "epoch": tip_epoch,
                "truncated_tail": False,
            }
            assert replica.epoch.fingerprint == tip_fingerprint
            assert not replica.graph.has_edge_named("x", "go", "y")
        finally:
            replica.close()

    def test_noop_batches_are_never_appended(self, tmp_path):
        wal = TenantWal(tmp_path, "default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("s", "go", "m")])  # duplicate add
            leader.apply_updates([("s", "nope", "m", "remove")])  # absent
            assert leader.epoch.epoch_id == 0
            assert list(wal.read_records()) == []
            leader.apply_updates([("s", "go", "w")])
            assert [r.epoch for r in wal.read_records()] == [1]
        finally:
            leader.close()

    def test_epoch_gap_refuses_replay(self, tmp_path):
        wal = TenantWal(tmp_path, "default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a1", "go", "a2")])
            leader.apply_updates([("a2", "go", "a3")])
        finally:
            leader.close()
        # Lose the first record: replay must refuse, not silently skip.
        segment = wal._segment_paths()[0]
        lines = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(b"".join(lines[1:]))
        replica = QueryService(make_graph(), seed=0)
        try:
            with pytest.raises(WalReplayError, match="epoch gap"):
                TenantWal(tmp_path, "default").replay_into(replica)
        finally:
            replica.close()

    def test_fingerprint_mismatch_refuses_replay(self, tmp_path):
        wal = TenantWal(tmp_path, "default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a1", "go", "a2")])
        finally:
            leader.close()
        segment = wal._segment_paths()[0]
        record = json.loads(segment.read_bytes())
        record["fingerprint"] = "0" * 16
        segment.write_bytes(json.dumps(record).encode() + b"\n")
        replica = QueryService(make_graph(), seed=0)
        try:
            with pytest.raises(WalReplayError, match="fingerprint mismatch"):
                TenantWal(tmp_path, "default").replay_into(replica)
        finally:
            replica.close()

    def test_replay_against_wrong_base_graph_refuses(self, tmp_path):
        wal = TenantWal(tmp_path, "default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a1", "go", "a2")])
        finally:
            leader.close()
        wrong = graph_from_edges([("other", "go", "base")], name="wrong")
        replica = QueryService(wrong, seed=0)
        try:
            with pytest.raises(WalReplayError):
                TenantWal(tmp_path, "default").replay_into(replica)
        finally:
            replica.close()


class TestTornTail:
    def test_torn_final_line_is_tolerated_and_repaired(self, tmp_path):
        wal = TenantWal(tmp_path, "default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a1", "go", "a2")])
            leader.apply_updates([("a2", "go", "a3")])
        finally:
            leader.close()
        segment = wal._segment_paths()[-1]
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-10])  # power loss mid-append

        reopened = TenantWal(tmp_path, "default")
        assert reopened.truncated_tail
        assert reopened.last_epoch == 1
        replica = QueryService(make_graph(), seed=0)
        try:
            replay = reopened.replay_into(replica)
            assert replay["applied"] == 1
            assert replay["truncated_tail"] is True
            # The repaired log accepts new appends cleanly.
            replica.attach_wal(reopened)
            replica.apply_updates([("fresh", "go", "start")])
            assert [r.epoch for r in reopened.read_records()] == [1, 2]
            assert not reopened.truncated_tail
        finally:
            replica.close()

    def test_torn_line_in_older_segment_is_corruption(self, tmp_path):
        wal = TenantWal(tmp_path, "default", compact_every=100)
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a1", "go", "a2")])
        finally:
            leader.close()
        first = wal._segment_paths()[0]
        first.write_bytes(first.read_bytes()[:-3])
        # A second, newer segment makes the torn one non-final.
        (tmp_path / "default" / "wal-000000000099.log").write_bytes(b"")
        with pytest.raises(WalCorruptionError, match="torn line"):
            list(TenantWal(tmp_path, "default").read_records())

    def test_garbage_mid_segment_is_corruption(self, tmp_path):
        wal = TenantWal(tmp_path, "default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a1", "go", "a2")])
        finally:
            leader.close()
        segment = wal._segment_paths()[0]
        segment.write_bytes(b"not json\n" + segment.read_bytes())
        with pytest.raises(WalCorruptionError, match="malformed record"):
            list(TenantWal(tmp_path, "default").read_records())


class TestCompaction:
    def test_compaction_snapshots_and_drops_covered_segments(self, tmp_path):
        wal = TenantWal(tmp_path, "default", compact_every=2)
        leader = make_leader(wal)
        try:
            for i in range(5):
                leader.apply_updates([(f"c{i}", "go", f"c{i + 1}")])
            assert wal.snapshot_epoch == 4  # compacted at 2 and 4
            loaded = wal.load_snapshot()
            assert loaded is not None
            graph, epoch, fingerprint = loaded
            assert epoch == 4
            assert graph.content_fingerprint() == fingerprint
            # Only the post-snapshot segment survives.
            assert segment_names(wal) == ["wal-000000000005.log"]
        finally:
            leader.close()

    def test_recovery_from_snapshot_plus_tail(self, tmp_path):
        wal = TenantWal(tmp_path, "default", compact_every=2)
        leader = make_leader(wal)
        try:
            for i in range(5):
                leader.apply_updates([(f"c{i}", "go", f"c{i + 1}")])
            tip = (leader.epoch.epoch_id, leader.epoch.fingerprint)
        finally:
            leader.close()
        recovering = TenantWal(tmp_path, "default", compact_every=2)
        graph, epoch, fingerprint = recovering.load_snapshot()
        from repro.graph.csr import freeze_graph

        replica = QueryService(freeze_graph(graph), seed=0)
        try:
            replica.reset_epoch(epoch, expected_fingerprint=fingerprint)
            replay = recovering.replay_into(replica)
            assert replay["applied"] == 1 and replay["skipped"] == 0
            assert (replica.epoch.epoch_id, replica.epoch.fingerprint) == tip
        finally:
            replica.close()

    def test_crash_between_snapshot_and_segment_delete(self, tmp_path):
        # Simulate dying after the snapshot landed but before the old
        # segments were unlinked: replay must skip the covered records.
        wal = TenantWal(tmp_path, "default", compact_every=100)
        leader = make_leader(wal)
        try:
            for i in range(3):
                leader.apply_updates([(f"c{i}", "go", f"c{i + 1}")])
            base = leader.epoch.graph
            wal._write_snapshot(
                base, epoch=leader.epoch.epoch_id,
                fingerprint=leader.epoch.fingerprint,
            )  # no _drop_obsolete_segments: the "crash"
            leader.apply_updates([("tail", "go", "c0")])
            tip = (leader.epoch.epoch_id, leader.epoch.fingerprint)
        finally:
            leader.close()
        recovering = TenantWal(tmp_path, "default")
        assert recovering.snapshot_epoch == 3
        graph, epoch, fingerprint = recovering.load_snapshot()
        from repro.graph.csr import freeze_graph

        replica = QueryService(freeze_graph(graph), seed=0)
        try:
            replica.reset_epoch(epoch, expected_fingerprint=fingerprint)
            replay = recovering.replay_into(replica)
            assert replay["skipped"] == 3  # the pre-snapshot leftovers
            assert replay["applied"] == 1
            assert (replica.epoch.epoch_id, replica.epoch.fingerprint) == tip
        finally:
            replica.close()


class TestRecoverService:
    def test_recover_from_base_tsv_and_from_snapshot(self, tmp_path):
        from repro.graph.io import dump_tsv

        graph = make_graph()
        tsv = tmp_path / "base.tsv"
        dump_tsv(graph, tsv)
        wal = TenantWal(tmp_path / "wal", "default", compact_every=3)
        leader = make_leader(wal, graph.copy())
        try:
            for i in range(2):  # below compact_every: no snapshot yet
                leader.apply_updates([(f"c{i}", "go", f"c{i + 1}")])
            tip = (leader.epoch.epoch_id, leader.epoch.fingerprint)
        finally:
            leader.close()
        service, replay = recover_service(
            TenantWal(tmp_path / "wal", "default", compact_every=3),
            graph_path=tsv,
        )
        try:
            assert replay["applied"] == 2
            assert (service.epoch.epoch_id, service.epoch.fingerprint) == tip
            # attach=True by default: the recovered leader keeps logging.
            service.apply_updates([("after", "go", "crash")])
            assert service._wal is not None
        finally:
            service.close()
        # Push past compact_every so the next recovery starts from the
        # snapshot instead of the TSV.
        wal2 = TenantWal(tmp_path / "wal", "default", compact_every=3)
        assert wal2.snapshot_epoch == 3
        follower, replay = recover_service(
            wal2, graph_path=tsv, attach=False
        )
        try:
            assert follower.epoch.epoch_id == 3
            assert follower._wal is None  # attach=False: read-only use
        finally:
            follower.close()

    def test_describe_shape(self, tmp_path):
        root = UpdateWal(tmp_path, compact_every=7)
        wal = root.tenant("default")
        leader = make_leader(wal)
        try:
            leader.apply_updates([("a", "go", "b")])
            document = wal.describe()
            assert document["records"] == 1
            assert document["epoch"] == 1
            assert document["snapshot_epoch"] is None
            assert document["segments"] == 1
            assert document["compact_every"] == 7
        finally:
            leader.close()
            root.close()

    def test_removing_a_tenant_closes_its_segment(self, tmp_path):
        # DELETE /t/<name> on a ``serve --wal`` server: the removed
        # service lets go of its open segment, and the tenant registered
        # in its place appends on to the same log.
        from repro.graph.io import dump_tsv
        from repro.service.registry import TenantRegistry

        graph = make_graph()
        tsv = tmp_path / "base.tsv"
        dump_tsv(graph, tsv)
        root = UpdateWal(tmp_path / "wal")
        wal = root.tenant("default")
        registry = TenantRegistry()
        registry.add("default", make_leader(wal, graph.copy()))
        registry.get().apply_updates([("a", "go", "b")])
        segment = wal._handle
        assert segment is not None and not segment.closed
        registry.remove("default")
        assert segment.closed and wal._handle is None

        successor, replay = recover_service(root.tenant("default"), graph_path=tsv)
        registry.add("default", successor)
        assert replay["applied"] == 1
        successor.apply_updates([("b", "go", "c")])
        assert [r.epoch for r in wal.read_records()] == [1, 2]
        assert [r.seq for r in wal.read_records()] == [1, 2]
        registry.remove("default")
        assert wal._handle is None

    def test_a_logged_tenant_cannot_come_back_from_its_base_graph(self, tmp_path):
        # Registered from the TSV alone, the tenant would serve epoch 0
        # without the logged edge, and with no log attached.
        from repro.exceptions import TenantLoggedError
        from repro.graph.io import dump_tsv
        from repro.service.registry import TenantRegistry

        tsv = tmp_path / "base.tsv"
        dump_tsv(make_graph(), tsv)
        root = UpdateWal(tmp_path / "wal")
        service, _ = recover_service(root.tenant("default"), graph_path=tsv)
        registry = TenantRegistry()
        registry.add("default", service)
        registry.get().apply_updates([("a", "go", "b")])
        registry.remove("default")
        with pytest.raises(TenantLoggedError) as info:
            registry.register_files("default", tsv)
        assert info.value.status == 409 and "serve --wal" in str(info.value)
        assert "default" not in registry
        # A tenant without a log is free to come back from files.
        registry.add("plain", QueryService(make_graph(), seed=0))
        registry.remove("plain")
        registry.register_files("plain", tsv)
        assert registry.get("plain").epoch.epoch_id == 0
        # Recovery is the way back, with the logged edge.
        successor, replay = recover_service(root.tenant("default"), graph_path=tsv)
        registry.add("default", successor)
        assert replay["applied"] == 1 and successor.graph.has_edge_named("a", "go", "b")
        registry.remove("default")
        root.close()

    def test_compact_every_must_be_positive(self, tmp_path):
        with pytest.raises(WalCorruptionError):
            TenantWal(tmp_path, "default", compact_every=0)
