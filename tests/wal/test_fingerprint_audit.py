"""The fingerprint stays a check on content, not on bookkeeping.

Epoch fingerprints are served from an accumulator the graph maintains
edge by edge.  A defect in that maintenance would be deterministic — a
leader and its replicas would drift *identically*, and every per-record
comparison of running values would keep passing.  So each place that
already reads every edge rescans and compares: the end of WAL replay, a
follower catch-up or resync, a compaction snapshot, ``save_snapshot``.
The tests make an accumulator drift (the same way on every side that
compares running values) and require each of those paths to refuse.
"""

from __future__ import annotations

import pytest

from repro.exceptions import WalReplayError
from repro.graph.io import dump_tsv
from repro.service.app import QueryService
from repro.wal import TenantWal, WalFollower, recover_service
from tests.helpers import graph_from_edges

EDGES = [("s", "go", "m"), ("m", "mark", "m"), ("x", "go", "y")]
DRIFT = 0x5EED


def drift(service: QueryService) -> None:
    """Corrupt the live graph's running accumulator; the content and
    the already stamped epoch are untouched, every later epoch inherits
    the error."""
    graph = service.epoch.graph
    graph.content_fingerprint()  # make sure the running value exists
    graph._edge_acc += DRIFT


class DriftingService(QueryService):
    """A replica with the same defect as the leader that wrote the log."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        drift(self)


def drifted_leader(tmp_path, *, compact_every=100):
    path = tmp_path / "graph.tsv"
    dump_tsv(graph_from_edges(EDGES, name="audit"), path)
    wal = TenantWal(tmp_path / "wal", "default", compact_every=compact_every)
    leader = QueryService.from_files(path, seed=0)
    leader.attach_wal(wal)
    drift(leader)
    return path, wal, leader


class TestEveryFullScanPathRefuses:
    def test_save_snapshot(self, tmp_path):
        service = QueryService(graph_from_edges(EDGES), seed=0)
        try:
            assert service.save_snapshot(tmp_path / "ok.json") > 0
            drift(service)
            with pytest.raises(WalReplayError, match="rescanned"):
                service.save_snapshot(tmp_path / "drifted.json")
            # ... and still after the drift moved into a stamped epoch.
            service.apply_updates([("y", "go", "z")])
            assert service.epoch.fingerprint != service.graph.scan_fingerprint()
            with pytest.raises(WalReplayError, match="rescanned"):
                service.save_snapshot(tmp_path / "drifted.json")
            assert not (tmp_path / "drifted.json").exists()
        finally:
            service.close()

    def test_compaction_snapshot(self, tmp_path):
        _path, wal, leader = drifted_leader(tmp_path, compact_every=2)
        try:
            leader.apply_updates([("y", "go", "z")])
            with pytest.raises(WalReplayError, match="refusing to snapshot"):
                leader.apply_updates([("z", "go", "w")])
            assert not wal.snapshot_path.exists()
        finally:
            leader.close()
            wal.close()

    def test_end_of_wal_replay(self, tmp_path):
        path, wal, leader = drifted_leader(tmp_path)
        leader.apply_updates([("y", "go", "z")])
        leader.apply_updates([("x", "go", "y", "remove")])
        leader.close()
        wal.close()
        # An honest process refuses at the first record: the logged
        # fingerprints never described the content.
        with pytest.raises(WalReplayError, match="fingerprint mismatch"):
            recover_service(
                TenantWal(tmp_path / "wal", "default"), graph_path=path, seed=0
            )
        # A process with the same defect agrees record by record; only
        # the rescan at the end of replay can tell.
        with pytest.raises(WalReplayError, match="rescanned"):
            recover_service(
                TenantWal(tmp_path / "wal", "default"),
                graph_path=path,
                seed=0,
                service_cls=DriftingService,
            )

    def test_follower_catch_up(self, tmp_path):
        _path, wal, leader = drifted_leader(tmp_path)
        replica = DriftingService(graph_from_edges(EDGES, name="audit"), seed=0)
        follower = WalFollower(replica, TenantWal(tmp_path / "wal", "default"))
        try:
            leader.apply_updates([("y", "go", "z")])
            with pytest.raises(WalReplayError, match="rescanned"):
                follower.poll_once()
        finally:
            leader.close()
            replica.close()
            wal.close()

    def test_follower_resync(self, tmp_path, monkeypatch):
        path = tmp_path / "graph.tsv"
        dump_tsv(graph_from_edges(EDGES, name="audit"), path)
        wal = TenantWal(tmp_path / "wal", "default", compact_every=2)
        leader = QueryService.from_files(path, seed=0)
        leader.attach_wal(wal)
        replica = QueryService(graph_from_edges(EDGES, name="audit"), seed=0)
        follower = WalFollower(
            replica, TenantWal(tmp_path / "wal", "default", compact_every=2)
        )
        try:
            leader.apply_updates([("y", "go", "z")])
            leader.apply_updates([("z", "go", "w")])  # compacts at epoch 2
            load_snapshot = follower.wal.load_snapshot

            def drifted_snapshot():
                # A snapshot graph arriving with a running value that
                # matches the identity it is adopted under, not its edges.
                graph, epoch, _fingerprint = load_snapshot()
                graph.content_fingerprint()
                graph._edge_acc += DRIFT
                return graph, epoch, graph.content_fingerprint()

            monkeypatch.setattr(follower.wal, "load_snapshot", drifted_snapshot)
            with pytest.raises(WalReplayError, match="rescanned"):
                follower.poll_once()
        finally:
            leader.close()
            replica.close()
            wal.close()
