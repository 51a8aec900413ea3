"""Follower mode: the WAL as a replication carrier.

A follower is just another reader of the leader's log directory: it
republishes the same epochs (same ids, same fingerprints — checked per
record), serves them read-only through the unchanged routes, and wears
its lag on ``/healthz`` and ``/metrics``.  These tests drive
``poll_once`` synchronously (the polling thread is a timer around it);
one test exercises the thread itself end-to-end over HTTP.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ReadOnlyServiceError
from repro.index.local_index import build_local_index
from repro.obs.prometheus import parse_prometheus_text, render_metrics
from repro.service.app import QueryService
from repro.wal import TenantWal, WalFollower
from tests.helpers import graph_from_edges, running_server

CONSTRAINT = "SELECT ?x WHERE { ?x <mark> ?y . }"


def make_graph(name="repl"):
    return graph_from_edges(
        [("s", "go", "m"), ("m", "mark", "m"), ("x", "go", "y")], name=name
    )


def make_pair(tmp_path, *, compact_every=100, indexed=False):
    """A leader (WAL attached) and a follower tailing the same directory."""
    wal = TenantWal(tmp_path, "default", compact_every=compact_every)
    graph = make_graph()
    index = build_local_index(graph, k=2, rng=0) if indexed else None
    leader = QueryService(graph, index, seed=0)
    leader.attach_wal(wal)
    replica_graph = make_graph()
    replica_index = build_local_index(replica_graph, k=2, rng=0) if indexed else None
    replica = QueryService(replica_graph, replica_index, seed=0)
    replica.read_only = True
    follower = WalFollower(
        replica, TenantWal(tmp_path, "default", compact_every=compact_every)
    )
    replica.replication = follower
    return leader, replica, follower


class TestPollOnce:
    @pytest.mark.parametrize("indexed", [False, True])
    def test_follower_republishes_the_leaders_epochs(self, tmp_path, indexed):
        leader, replica, follower = make_pair(tmp_path, indexed=indexed)
        try:
            leader.apply_updates([("m", "go", "t2")])
            leader.apply_updates(
                [("t2", "go", "t3"), ("x", "go", "y", "remove")]
            )
            report = follower.poll_once()
            assert report["applied"] == 2 and not report["resynced"]
            assert replica.epoch.epoch_id == leader.epoch.epoch_id
            assert replica.epoch.fingerprint == leader.epoch.fingerprint
            for spec in (("s", "t3", ["go"], CONSTRAINT),
                         ("x", "y", ["go"], CONSTRAINT)):
                mine, _ = replica.query(*spec)
                theirs, _ = leader.query(*spec)
                assert mine.answer == theirs.answer
        finally:
            leader.close()
            replica.close()

    def test_lag_is_zero_when_caught_up_and_counts_when_behind(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        try:
            follower.poll_once()
            assert follower.describe()["lag_epochs"] == 0
            leader.apply_updates([("a1", "go", "a2")])
            leader.apply_updates([("a2", "go", "a3")])
            # Reload the view without applying: the lag a stalled poll
            # loop would report.
            follower.wal.reload()
            follower._lag_epochs = max(
                0, follower.wal.last_epoch - replica.epoch.epoch_id
            )
            assert follower._lag_epochs == 2
            report = follower.poll_once()
            assert report["lag_epochs"] == 0
            document = follower.describe()
            assert document["role"] == "follower"
            assert document["epoch"] == 2
            assert document["records_applied"] == 2
            assert document["lag_seconds"] == 0.0
        finally:
            leader.close()
            replica.close()

    def test_resync_after_leader_compacts_past_the_follower(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path, compact_every=2)
        try:
            # 4 epochs with compact_every=2: snapshot at 4, segments for
            # 1-4 dropped — the records the follower needed are gone.
            for i in range(4):
                leader.apply_updates([(f"c{i}", "go", f"c{i + 1}")])
            report = follower.poll_once()
            assert report["resynced"] is True
            assert replica.epoch.epoch_id == 4
            assert replica.epoch.fingerprint == leader.epoch.fingerprint
            # Subsequent records replay incrementally again.
            leader.apply_updates([("tail", "go", "c0")])
            report = follower.poll_once()
            assert report["resynced"] is False and report["applied"] == 1
            assert replica.epoch.fingerprint == leader.epoch.fingerprint
        finally:
            leader.close()
            replica.close()

    def test_health_and_metrics_carry_replication_state(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        try:
            leader.apply_updates([("a1", "go", "a2")])
            follower.poll_once()
            health = replica.health()
            assert health["replication"]["role"] == "follower"
            assert health["replication"]["lag_epochs"] == 0
            assert health["replication"]["wal_epoch"] == 1
            leader_health = leader.health()
            assert leader_health["wal"]["records"] == 1
            samples = parse_prometheus_text(
                render_metrics({"default": replica.stats_snapshot()},
                               version="test")
            )
            names = {key[0] for key in samples}
            assert {
                "repro_follower_lag_epochs",
                "repro_follower_lag_seconds",
                "repro_follower_wal_epoch",
                "repro_follower_records_applied_total",
            } <= names
            leader_samples = parse_prometheus_text(
                render_metrics({"default": leader.stats_snapshot()},
                               version="test")
            )
            leader_names = {key[0] for key in leader_samples}
            assert {
                "repro_wal_records_total",
                "repro_wal_segments",
                "repro_wal_epoch",
            } <= leader_names
        finally:
            leader.close()
            replica.close()


class TestReadOnlyGate:
    def test_handle_updates_raises_structured_403(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        try:
            with pytest.raises(ReadOnlyServiceError) as excinfo:
                replica.handle_updates({"edges": [["a", "go", "b"]]})
            assert excinfo.value.status == 403
            assert excinfo.value.detail == {"role": "follower"}
            # The tailer itself sits below the gate: polling still works.
            leader.apply_updates([("a", "go", "b")])
            assert follower.poll_once()["applied"] == 1
        finally:
            leader.close()
            replica.close()

    def test_post_edges_to_follower_is_403_over_http(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        try:
            with running_server(replica, allow_updates=True) as base:
                request = urllib.request.Request(
                    f"{base}/edges",
                    data=json.dumps({"edges": [["a", "go", "b"]]}).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                assert excinfo.value.code == 403
                body = json.loads(excinfo.value.read())
                assert body["error"]["type"] == "read-only"
                assert body["error"]["detail"] == {"role": "follower"}
        finally:
            leader.close()
            replica.close()


class TestPollingThread:
    def test_started_follower_converges_and_stops_cleanly(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        follower.interval = 0.05
        try:
            follower.start()
            follower.start()  # idempotent
            for i in range(3):
                leader.apply_updates([(f"t{i}", "go", f"t{i + 1}")])
            deadline = time.time() + 10
            while time.time() < deadline:
                if replica.epoch.epoch_id == leader.epoch.epoch_id:
                    break
                time.sleep(0.02)
            assert replica.epoch.epoch_id == leader.epoch.epoch_id
            assert replica.epoch.fingerprint == leader.epoch.fingerprint
            assert follower.last_error is None
        finally:
            follower.stop()
            leader.close()
            replica.close()
        assert follower._thread is None

    def test_wal_errors_surface_without_killing_the_thread(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        try:
            leader.apply_updates([("a1", "go", "a2")])
            segment = sorted((tmp_path / "default").glob("wal-*.log"))[0]
            record = json.loads(segment.read_bytes())
            record["fingerprint"] = "f" * 16
            segment.write_bytes(json.dumps(record).encode() + b"\n")
            follower.interval = 0.05
            follower.start()
            deadline = time.time() + 10
            while time.time() < deadline and follower.last_error is None:
                time.sleep(0.02)
            assert follower.last_error is not None
            assert "fingerprint" in follower.last_error
            assert "error" in follower.describe()
            # Reads keep serving; the stall is visible, not fatal.
            result, _ = replica.query("s", "m", ["go"], CONSTRAINT)
            assert result.answer is True
        finally:
            follower.stop()
            leader.close()
            replica.close()


class TestStuckShutdown:
    def test_wedged_poll_is_abandoned_loudly(self, tmp_path):
        from tests.faults import FaultRule, FaultyWal

        leader, replica, follower = make_pair(tmp_path)
        leader.apply_updates([("a1", "go", "a2")])
        # First reload wedges for 1s — a dead NFS mount in miniature.
        faulty = FaultyWal(
            follower.wal,
            [FaultRule("hang", operation="reload", count=1, duration=1.0)],
        )
        follower.wal = faulty
        follower.interval = 30.0  # one poll is all this test needs
        try:
            follower.start()
            deadline = time.time() + 5
            while time.time() < deadline:
                if faulty._calls.get("reload", 0) >= 1:
                    break  # the poll has entered the hang
                time.sleep(0.005)
            assert faulty._calls.get("reload", 0) >= 1
            stopped = follower.stop(timeout=0.2)
            assert stopped is False
            assert follower.stuck is True
            assert "failed to stop" in follower.last_error
            described = follower.describe()
            assert described["stuck"] is True
            assert described["error"] == follower.last_error
            samples = parse_prometheus_text(
                render_metrics({"default": replica.stats_snapshot()},
                               version="test")
            )
            stuck_values = [
                value for (name, _labels), value in samples.items()
                if name == "repro_follower_stuck"
            ]
            assert stuck_values == [1.0]
        finally:
            # Let the wedged poll drain so close() tears down cleanly.
            thread = follower._thread
            if thread is not None:
                thread.join(timeout=5)
            leader.close()
            replica.close()

    def test_clean_stop_reports_not_stuck(self, tmp_path):
        leader, replica, follower = make_pair(tmp_path)
        try:
            follower.interval = 0.05
            follower.start()
            assert follower.stop() is True
            assert follower.stuck is False
            assert follower.describe()["stuck"] is False
        finally:
            leader.close()
            replica.close()
