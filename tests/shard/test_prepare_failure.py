"""A refused prepare publishes nothing; wrapped workers take one protocol.

The sharded update is derive → prepare → publish: the coordinator's next
epoch is derived but not stored while every worker prepares, so one
worker refusing must leave the whole deployment — epoch, fingerprint,
slice epoch, every worker, the result cache, the ``/stats`` update
ledger and the WAL — exactly where it was, answer a structured 503, and
let a retry of the same batch succeed as epoch N+1.

The refusal is injected through :class:`FaultyWorker`, so the same test
proves a wrapped worker stub speaks the one ``prepare`` protocol;
``rebalance()`` over wrapped workers proves ``crossings_by_peer`` too.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.exceptions import ShardUnavailableError
from repro.resilience.faults import FaultRule, FaultyWorker
from repro.wal import TenantWal
from tests.helpers import graph_from_edges, sharded_fleet

SHARDS = 3
QUERY = dict(
    source="n0",
    target="n5",
    labels=["l"],
    constraint="SELECT ?x WHERE { ?x <l> ?y . }",
)
BATCH = [("n0", "l", "n7"), ("n3", "l", "fresh")]


def make_service():
    graph = graph_from_edges(
        [(f"n{i}", "l", f"n{i + 1}") for i in range(12)], name="refusal"
    )
    return sharded_fleet(graph, seed=0, shards=SHARDS)


def wrap_workers(service, rules_for):
    for shard_id, worker in enumerate(list(service.workers)):
        # One list backs both ``service.workers`` and the coordinator's.
        service.workers[shard_id] = FaultyWorker(
            worker, rules_for(shard_id), name=f"shard{shard_id}"
        )
    assert service.coordinator.workers is service.workers


def observable_state(service, wal):
    stats = service.stats_snapshot()
    return {
        "epoch": service.epoch.epoch_id,
        "fingerprint": service.epoch.fingerprint,
        "health": {
            key: service.health()[key]
            for key in ("epoch", "fingerprint", "slice_epoch")
        },
        "slice_epoch": service.slice_epoch,
        "topology_epoch": service.epoch.topology.slice_epoch,
        "plan": service.shard_plan,
        "workers": [
            (served["epoch"], served["fingerprint"], served["plan_hash"])
            for served in (worker.probe() for worker in service.workers)
        ],
        "cache_keys": sorted(key for key, _ in service.results.export_entries()),
        "updates": stats["service"]["updates"],
        "update_latency": stats["service"]["latency"]["updates"],
        "wal": wal.describe(),
        "wal_records": [record.epoch for record in wal.read_records()],
    }


def test_refused_prepare_publishes_nothing_and_a_retry_succeeds(tmp_path):
    with make_service() as service, closing(TenantWal(tmp_path, "default")) as wal:
        service.attach_wal(wal)
        service.apply_updates([("n1", "l", "n9")])  # a real epoch 1 to stay at
        result, meta = service.query(**QUERY)
        assert result.answer is True and meta["epoch"] == 1
        # Shard 1 refuses its first prepare, after shard 0 already staged.
        wrap_workers(
            service,
            lambda shard_id: (
                [FaultRule("error", operation="prepare", count=1)]
                if shard_id == 1
                else []
            ),
        )
        before = observable_state(service, wal)
        assert before["epoch"] == before["slice_epoch"] == 1
        assert before["cache_keys"] and before["wal_records"] == [1]

        with pytest.raises(ShardUnavailableError) as excinfo:
            service.apply_updates(BATCH)
        assert excinfo.value.status == 503
        assert excinfo.value.detail["epoch"] == 1
        assert observable_state(service, wal) == before
        # Nothing is left staged on the worker that did prepare.
        assert service.workers[0].probe()["updates_aborted"] == 1
        _, meta = service.query(**QUERY)
        assert meta["cached"] is True and meta["epoch"] == 1

        summary = service.apply_updates(BATCH)
        assert summary["epoch"] == summary["slice_epoch"] == 2
        assert summary["edges_added"] == 2
        assert "shards_unpublished" not in summary
        assert [worker.probe()["epoch"] for worker in service.workers] == [2] * SHARDS
        assert [record.epoch for record in wal.read_records()] == [1, 2]
        assert service.stats_snapshot()["service"]["updates"]["batches"] == 2
        result, meta = service.query("n0", "fresh", ["l"], QUERY["constraint"])
        assert result.answer is True and meta["epoch"] == 2


def test_rebalance_reads_crossings_through_wrapped_workers():
    with make_service() as service:
        wrap_workers(service, lambda shard_id: [])
        service.query(**QUERY, use_cache=False)
        document = service.rebalance()
        assert "rebalanced" in document
        assert document["slice_epoch"] == service.slice_epoch
        if not document["rebalanced"]:
            assert set(document["crossings"]) == {
                str(shard_id) for shard_id in range(SHARDS)
            }
        result, _ = service.query(**QUERY, use_cache=False)
        assert result.answer is True
