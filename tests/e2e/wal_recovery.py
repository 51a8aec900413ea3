"""WAL durability as a black box (the CI ``wal-recovery`` job's scenario).

Boot a WAL-backed leader, stream mixed insert/remove batches at it,
SIGKILL it mid-stream (no shutdown hooks run), restart on the same
directory and require the exact pre-kill epoch and content fingerprint
back, and the recovered leader to keep appending.  Then point a
read-only follower at the same directory: it must republish the
leader's epochs with its lag visible, refuse writes with a structured
403, and expose a strictly parsed ``/metrics`` — as the leader does.

Run from anywhere: ``PYTHONPATH=src python tests/e2e/wal_recovery.py``.
The exit code is the verdict.
"""

from __future__ import annotations

import json
import signal
import subprocess
import tempfile
import time
import urllib.error
from pathlib import Path

from contract import ENV, boot, get, post, repro_cli

from repro.obs.prometheus import parse_prometheus_text


def main(scratch: Path) -> None:
    graph_file = str(scratch / "wal-base.tsv")
    wal_dir = str(scratch / "walDir")
    subprocess.run(
        repro_cli("generate", "--random", "50", "3", "4", "--seed", "0",
                  "--output", graph_file),
        check=True, env=ENV)

    leader_args = ("--graph", graph_file, "--wal", wal_dir,
                   "--allow-updates", "--compact-every", "4")
    leader, base = boot(*leader_args)
    # Mixed stream: adds, a removal of a just-added edge, and a removal
    # of an edge that never existed (counted, not fatal).
    for i in range(5):
        post(base, "/edges", {"edges": [
            {"source": f"w{i}", "label": "l0", "target": f"w{i + 1}"},
            {"source": f"w{i}", "label": "l1", "target": "hub"},
        ]})
    removed = post(base, "/edges", {"edges": [
        ["w0", "l1", "hub", "remove"],
        ["w0", "l2", "never-there", "remove"],
    ]})
    assert removed["edges_removed"] == 1, removed
    assert removed["edges_missing"] == 1, removed
    health = json.loads(get(base, "/healthz"))
    tip_epoch, tip_fingerprint = health["epoch"], health["fingerprint"]
    assert tip_epoch == 6, health
    assert health["wal"]["snapshot_epoch"] is not None, health["wal"]

    # kill -9: no finally blocks, no flushes beyond the per-append fsync
    # the durability contract is built on.
    leader.send_signal(signal.SIGKILL)
    leader.wait(timeout=30)

    leader2, base2 = boot(*leader_args)
    try:
        health = json.loads(get(base2, "/healthz"))
        assert health["epoch"] == tip_epoch, health
        assert health["fingerprint"] == tip_fingerprint, health
        # The recovered leader keeps accepting and logging writes.
        resumed = post(base2, "/edges",
                       {"edges": [["hub", "l0", "post-crash"]]})
        assert resumed["epoch"] == tip_epoch + 1, resumed
        leader_samples = parse_prometheus_text(get(base2, "/metrics"))
        leader_names = {name for name, _ in leader_samples}
        for family in ("repro_wal_records_total", "repro_wal_segments",
                       "repro_wal_epoch", "repro_update_edges_removed_total"):
            assert family in leader_names, f"missing {family}"

        follower, base3 = boot("--graph", graph_file, "--follow", wal_dir,
                               "--follow-interval", "0.2")
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                health = json.loads(get(base3, "/healthz"))
                if (health["replication"]["lag_epochs"] == 0
                        and health["epoch"] == tip_epoch + 1):
                    break
                time.sleep(0.2)
            assert health["epoch"] == tip_epoch + 1, health
            assert health["fingerprint"] == json.loads(
                get(base2, "/healthz"))["fingerprint"]
            replication = health["replication"]
            assert replication["role"] == "follower"
            for field in ("lag_epochs", "lag_seconds", "wal_epoch",
                          "records_applied"):
                assert field in replication, replication

            try:
                post(base3, "/edges", {"edges": [["a", "l0", "b"]]})
                raise AssertionError("follower accepted a write")
            except urllib.error.HTTPError as error:
                assert error.code == 403, error.code
                body = json.loads(error.read())
                assert body["error"]["type"] == "read-only", body
                assert body["error"]["detail"] == {"role": "follower"}

            samples = parse_prometheus_text(get(base3, "/metrics"))
            names = {name for name, _ in samples}
            for family in ("repro_follower_lag_epochs",
                           "repro_follower_lag_seconds",
                           "repro_follower_wal_epoch",
                           "repro_follower_records_applied_total"):
                assert family in names, f"missing {family}"
            default = (("tenant", "default"),)
            assert samples[("repro_follower_lag_epochs", default)] == 0
            print("wal-recovery OK: epoch", tip_epoch + 1,
                  "continuity + follower lag visible")
        finally:
            follower.terminate()
            follower.wait(timeout=10)
    finally:
        leader2.terminate()
        leader2.wait(timeout=10)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch_dir:
        main(Path(scratch_dir))
