"""The WAL and the content fingerprints outlive the update path.

An update derives the next snapshot from the serving one; it used to
copy a mutable graph, mutate the copy and re-freeze it.  Neither the
record format, the snapshot format nor a single epoch fingerprint may
tell the two apart.  ``data/copy_refreeze_log`` is a log directory the
copy-and-refreeze path wrote for :data:`CHAIN` (``compact_every=3``: a
compaction snapshot at epoch 6 and the records of epochs 7 and 8), and
:data:`FINGERPRINTS` are the epochs it stamped.  Only the order of the
edges inside a compaction snapshot may differ: a snapshot lists a frozen
graph's edges row by row, label-major.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.graph.io import dump_tsv
from repro.service.app import QueryService
from repro.wal import TenantWal, WalFollower, recover_service
from tests.helpers import graph_from_edges

DATA = Path(__file__).parent / "data" / "copy_refreeze_log"

BASE = [
    ("s", "go", "m"), ("m", "mark", "m"), ("x", "go", "y"),
    ("y", "go", "s"), ("m", "go", "x"),
]
CHAIN = [
    [("m", "go", "t2")],
    [("t2", "go", "t3"), ("x", "go", "y", "remove")],
    [("x", "go", "y"), ("ghost", "go", "s", "remove")],
    [("s", "likes", "x"), ("s", "likes", "x", "remove")],
    [("s", "go", "m")],  # a no-op: no epoch, no record
    [("t3", "mark", "t3"), ("s", "go", "m", "remove"), ("s", "go", "m")],
    [("n1", "rel", "n2"), ("n2", "rel", "s")],
    [("m", "mark", "m", "remove"), ("y", "go", "s", "remove")],
    [("x", "go", "y", "remove"), ("q", "go", "m"), ("m", "rel", "q")],
]
#: Epoch 0, then ``(epoch, fingerprint)`` after each batch of CHAIN.
FINGERPRINTS = [
    "224c5901f24b3401",
    (1, "c9efdf445d1a89fd"), (2, "2c166453e4b0bacd"),
    (3, "890945a8e2cbdde7"), (4, "86e613b1a939ffa6"),
    (4, "86e613b1a939ffa6"), (5, "7a64f68d55bd5380"),
    (6, "12810806bd3f3c86"), (7, "a8e8a90cac221093"),
    (8, "ab8b069e77dd2568"),
]


def snapshot_graph(directory: Path) -> dict:
    return json.loads((directory / "default" / "snapshot.json").read_text())


def records(directory: Path) -> list[dict]:
    """Every record on disk, its wall-clock stamp blanked."""
    return [
        {**json.loads(line), "ts": None}
        for path in sorted((directory / "default").glob("wal-*.log"))
        for line in path.read_text().splitlines()
    ]


def test_the_chain_stamps_the_same_epochs_and_compacts_the_same_graph(tmp_path):
    dump_tsv(graph_from_edges(BASE, name="base"), tmp_path / "base.tsv")
    leader = QueryService.from_files(tmp_path / "base.tsv", seed=0)
    leader.attach_wal(TenantWal(tmp_path, "default", compact_every=3))
    try:
        stamped = [leader.epoch.fingerprint]
        for batch in CHAIN:
            summary = leader.apply_updates(batch)
            stamped.append((summary["epoch"], leader.epoch.fingerprint))
    finally:
        leader.close()
    assert stamped == FINGERPRINTS
    ours, theirs = snapshot_graph(tmp_path), snapshot_graph(DATA)
    assert {**ours, "graph": None} == {**theirs, "graph": None}
    assert ours["graph"]["vertices"] == theirs["graph"]["vertices"]
    assert ours["graph"]["labels"] == theirs["graph"]["labels"]
    assert sorted(ours["graph"]["edges"]) == sorted(theirs["graph"]["edges"])
    assert records(tmp_path) == records(DATA)


def test_a_log_written_by_the_copy_refreeze_path_recovers(tmp_path):
    shutil.copytree(DATA, tmp_path / "log")
    wal = TenantWal(tmp_path / "log", "default", compact_every=3)
    service, replay = recover_service(
        wal, graph_path=tmp_path / "log" / "base.tsv", seed=0
    )
    replica = QueryService.from_files(tmp_path / "log" / "base.tsv", seed=0)
    try:
        assert replay["applied"] == 2
        tip = (service.epoch.epoch_id, service.epoch.fingerprint)
        assert tip == FINGERPRINTS[-1]
        follower = WalFollower(
            replica, TenantWal(tmp_path / "log", "default", compact_every=3)
        )
        report = follower.poll_once()
        assert report["resynced"] and report["applied"] == 2
        assert replica.epoch.fingerprint == service.epoch.fingerprint
        # The recovered leader keeps appending on top of the old log
        # (this append also compacts it) and the replica follows.
        service.apply_updates([("z", "go", "s")])
        assert follower.poll_once()["epoch"] == service.epoch.epoch_id == 9
        assert replica.epoch.fingerprint == service.epoch.fingerprint
    finally:
        service.close()
        replica.close()
