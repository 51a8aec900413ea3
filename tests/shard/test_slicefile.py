"""Slice files: deterministic roundtrip and defensive loading.

The serialization contract ``serve --worker`` boots on: ``dump → load →
dump`` is byte-identical (a slice file is a content-addressable
artifact), the deployment metadata (epoch, fingerprint, plan hash)
survives the roundtrip, and every way a file can lie — truncation,
version skew, tampered plan, tampered adjacency or border table —
raises :class:`SliceFileError` instead of booting a worker on garbage.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import SliceFileError
from repro.graph.io import dump_tsv
from repro.index.landmarks import (
    bfs_traverse,
    select_landmarks,
    structural_correlations,
)
from repro.service.registry import TenantRegistry
from repro.shard import (
    ShardedQueryService,
    ShardWorker,
    build_shard_plan,
)
from repro.shard.partitioner import border_table
from repro.shard.slicefile import (
    SLICE_FORMAT_VERSION,
    dump_slice,
    load_slice,
    plan_fingerprint,
    slice_document,
    slice_from_document,
)
from tests.helpers import running_server

SHARDS = 3


@pytest.fixture(scope="module")
def deployment():
    graph = random_labeled_graph(120, 4.0, 6, rng=3, name="slicefile")
    frozen = graph.freeze()
    landmarks = select_landmarks(frozen, rng=3)
    partition = bfs_traverse(frozen, landmarks)
    correlations = structural_correlations(frozen, partition)
    plan = build_shard_plan(frozen, partition, SHARDS, correlations)
    return frozen, plan


class TestRoundtrip:
    def test_dump_load_dump_is_byte_identical(self, deployment, tmp_path):
        frozen, plan = deployment
        fingerprint = frozen.content_fingerprint()
        for shard_id in range(SHARDS):
            first = tmp_path / f"first-{shard_id}.json"
            second = tmp_path / f"second-{shard_id}.json"
            dump_slice(slice_document(frozen, plan, shard_id, epoch=7,
                                      fingerprint=fingerprint), first)
            loaded = load_slice(first)
            dump_slice(loaded.document(), second)
            assert first.read_bytes() == second.read_bytes()

    def test_metadata_survives(self, deployment, tmp_path):
        frozen, plan = deployment
        fingerprint = frozen.content_fingerprint()
        path = tmp_path / "slice.json"
        dump_slice(slice_document(frozen, plan, 1, epoch=42,
                                  fingerprint=fingerprint), path)
        loaded = load_slice(path)
        assert loaded.shard_id == 1
        assert loaded.epoch == 42
        assert loaded.fingerprint == fingerprint
        assert loaded.plan_hash == plan_fingerprint(plan)
        assert loaded.plan.shard_of == plan.shard_of
        assert loaded.path == path

    def test_rebuilt_slice_matches_the_original(self, deployment, tmp_path):
        frozen, plan = deployment
        fingerprint = frozen.content_fingerprint()
        owned = plan.owned_by(0)
        path = tmp_path / "slice.json"
        dump_slice(slice_document(frozen, plan, 0, epoch=0,
                                  fingerprint=fingerprint), path)
        rebuilt = load_slice(path).slice
        original = [
            (vid, label, target)
            for vid in owned
            for label, target in frozen.out_edges(vid)
        ]
        assert rebuilt.num_edges == len(original)
        assert (rebuilt.border_targets, rebuilt.peer_shards) == border_table(
            frozen, plan.shard_of, 0, owned
        )
        assert sorted(rebuilt.graph.edges()) == sorted(original)

    def test_document_roundtrip_without_a_file(self, deployment):
        frozen, plan = deployment
        fingerprint = frozen.content_fingerprint()
        document = slice_document(frozen, plan, 2, epoch=3,
                                  fingerprint=fingerprint)
        loaded = slice_from_document(json.loads(json.dumps(document)))
        assert loaded.document() == document


class TestOneGraphPerSlice:
    def test_a_loaded_worker_holds_one_graph(self, deployment):
        # Expand and the co-located probe search the graph the document
        # load built, at boot and after a pushed slice alike.
        frozen, plan = deployment
        loaded = slice_from_document(
            slice_document(frozen, plan, 1, epoch=0, fingerprint="f0")
        )
        worker = ShardWorker(loaded)
        state = worker._state
        assert state.slice is loaded.slice
        assert state.session.graph is state.slice.graph
        worker.handle_update({
            "phase": "prepare", "txn": "t1", "epoch": 1, "fingerprint": "f1",
            "slice": slice_document(frozen, plan, 1, epoch=1, fingerprint="f1"),
        })
        worker.publish_update("t1")
        state = worker._state
        assert (state.epoch, state.fingerprint) == (1, "f1")
        assert state.session.graph is state.slice.graph


class TestDefensiveLoading:
    def _document(self, deployment):
        frozen, plan = deployment
        return slice_document(
            frozen, plan, 0, epoch=0,
            fingerprint=frozen.content_fingerprint(),
        )

    def _dump(self, deployment, tmp_path, mutate):
        document = self._document(deployment)
        mutate(document)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(SliceFileError, match="cannot read"):
            load_slice(tmp_path / "nope.json")

    def test_truncated_file(self, deployment, tmp_path):
        path = self._dump(deployment, tmp_path, lambda d: None)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SliceFileError, match="corrupt or truncated"):
            load_slice(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SliceFileError, match="not a JSON object"):
            load_slice(path)

    def test_version_mismatch(self, deployment, tmp_path):
        path = self._dump(
            deployment, tmp_path,
            lambda d: d.update(format_version=SLICE_FORMAT_VERSION + 1),
        )
        with pytest.raises(SliceFileError, match="not supported"):
            load_slice(path)

    def test_wrong_kind(self, deployment, tmp_path):
        path = self._dump(
            deployment, tmp_path, lambda d: d.update(kind="wal-snapshot")
        )
        with pytest.raises(SliceFileError, match="kind"):
            load_slice(path)

    def test_shard_id_outside_plan(self, deployment, tmp_path):
        path = self._dump(
            deployment, tmp_path, lambda d: d.update(shard_id=SHARDS)
        )
        with pytest.raises(SliceFileError, match="outside plan"):
            load_slice(path)

    def test_tampered_plan_fails_the_hash(self, deployment, tmp_path):
        def flip_owner(document):
            shard_of = document["plan"]["shard_of"]
            shard_of[0] = (shard_of[0] + 1) % SHARDS

        path = self._dump(deployment, tmp_path, flip_owner)
        with pytest.raises(SliceFileError, match="plan_hash"):
            load_slice(path)

    def test_tampered_adjacency_fails_the_border_check(
        self, deployment, tmp_path
    ):
        def drop_row(document):
            # Empty one owned vertex's adjacency: edge/border bookkeeping
            # no longer matches the declared tables.
            for row in document["adjacency"]:
                if row:
                    del row[:]
                    break

        path = self._dump(deployment, tmp_path, drop_row)
        with pytest.raises(SliceFileError):
            load_slice(path)

    def test_tampered_edge_count(self, deployment, tmp_path):
        path = self._dump(
            deployment, tmp_path,
            lambda d: d.update(num_edges=d["num_edges"] + 1),
        )
        with pytest.raises(SliceFileError, match="edges"):
            load_slice(path)


class TestCutMatchesCoordinator:
    """``repro cut`` and the coordinator share one plan derivation
    (:func:`repro.shard.partitioner.derive_shard_plan`): same
    graph/seed/landmark count, same plan hash — with or without an index
    loaded on the coordinator — so workers booted from cut files
    handshake without a resync."""

    @pytest.mark.parametrize(
        "with_index, k", [(False, None), (True, None), (False, 5)]
    )
    def test_same_plan_hash_and_zero_resyncs(self, with_index, k, tmp_path):
        graph_path = tmp_path / "cut.tsv"
        dump_tsv(random_labeled_graph(80, 3.0, 5, rng=11, name="cut"), graph_path)
        index_path = None
        cut_args = []
        if with_index:
            # For the coordinator only: `cut` takes no index.
            index_path = str(tmp_path / "cut.index.json")
            assert main(["index", str(graph_path), "--output", index_path]) == 0
        if k is not None:
            cut_args = ["--k", str(k)]
        out = tmp_path / "slices"
        assert main(
            ["cut", str(graph_path), "--shards", str(SHARDS), "--out", str(out),
             "--seed", "11", *cut_args]
        ) == 0
        files = [load_slice(out / f"shard-{i}.slice.json") for i in range(SHARDS)]
        workers = {str(loaded.shard_id): ShardWorker(loaded) for loaded in files}
        with running_server(TenantRegistry(), shard_workers=workers) as base:
            coordinator = ShardedQueryService.from_files(
                graph_path, index_path, seed=11, shards=SHARDS,
                landmark_count=k, worker_urls=[base] * SHARDS, probe_interval=0,
            )
            try:
                assert (coordinator.index is not None) is with_index
                plan_hash = plan_fingerprint(coordinator.shard_plan)
                assert {loaded.plan_hash for loaded in files} == {plan_hash}
                stats = coordinator.stats_snapshot()["shards"]
                for entry in stats["workers"]:
                    assert entry["health"].get("resyncs", 0) == 0
                    assert entry["health"]["plan_hash"] == plan_hash
                for worker in workers.values():
                    assert worker.describe()["updates_prepared"] == 0
            finally:
                coordinator.close()
                for worker in workers.values():
                    worker.close()
