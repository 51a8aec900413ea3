"""Randomized crash recovery: kill -9 semantics vs a never-crashed oracle.

The acceptance criterion for the WAL, stated as a property: over ~30
seeded graphs, interleave mixed insert/remove batches with queries,
then "crash" (drop every in-memory structure on the floor — the
process-level analogue of SIGKILL, since nothing below the fsynced log
survives either way) and recover with :func:`repro.wal.recover_service`
from the base TSV plus the log.  The recovered service must

* resume at exactly the pre-crash epoch with the pre-crash content
  fingerprint (continuity, proven per replayed record), and
* answer every query identically to a :class:`NaiveTwoProcedure` oracle
  running on an independently mutated mirror graph — the oracle shares
  no code with the WAL or the epoch machinery.

Fault injections ride the same machinery: a truncated final append
(recover to tip-1, agree with *that* epoch's oracle) and a crash
between compaction's snapshot and segment deletion (replay skips the
covered records and still reconverges).
"""

from __future__ import annotations

import random

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.graph.io import dump_tsv, load_tsv
from repro.service.app import QueryService
from repro.wal import TenantWal, recover_service

SEEDS = list(range(30))
UPDATE_ROUNDS = 3
QUERIES_PER_ROUND = 5
NUM_LABELS = 3
NUM_VERTICES = 9
COMPACT_EVERY = 3  # small enough that half the seeds cross a snapshot


def write_base_tsv(seed, tmp_path):
    """Materialise the seed graph as the deployment's base TSV.

    Both the leader and every recovery load the *same file*, so vertex
    and label interning order — which the fingerprint chain depends on
    — is identical by construction.
    """
    graph = random_labeled_graph(
        NUM_VERTICES, 1.6, NUM_LABELS, rng=seed, name=f"crash-{seed}"
    )
    path = tmp_path / f"crash-{seed}.tsv"
    dump_tsv(graph, path)
    return path


def make_leader(tsv, wal, seed):
    """A leader with the WAL attached."""
    service = QueryService(load_tsv(tsv, name=tsv.stem), seed=seed)
    service.attach_wal(wal)
    return service


def random_mixed_batch(rng, round_number, oracle):
    """2-5 operations: additions, removals of real edges, and the
    occasional removal of an edge that does not exist."""
    known = [str(name) for name in oracle.vertex_names()]
    fresh = [f"u{round_number}_{i}" for i in range(2)]
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    batch = []
    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.30 and oracle.num_edges:
            edge = rng.choice(sorted(oracle.edges()))
            batch.append(
                (
                    oracle.name_of(edge[0]),
                    oracle.label_name(edge[1]),
                    oracle.name_of(edge[2]),
                    "remove",
                )
            )
        elif roll < 0.38:
            batch.append(
                (rng.choice(known), rng.choice(labels), "no-such-vertex",
                 "remove")
            )
        else:
            source = rng.choice(known if roll < 0.85 else known + fresh)
            target = rng.choice(known if rng.random() < 0.85 else known + fresh)
            batch.append((source, rng.choice(labels), target, "add"))
    return batch


def apply_to_oracle(oracle, batch):
    """Mutate the mirror graph; returns (added, removed, missing)."""
    added = removed = missing = 0
    for source, label, target, op in batch:
        if op == "add":
            added += bool(oracle.add_edge(source, label, target))
        elif oracle.remove_edge(source, label, target):
            removed += 1
        else:
            missing += 1
    return added, removed, missing


def random_specs(rng, oracle, count=QUERIES_PER_ROUND):
    vertices = [str(name) for name in oracle.vertex_names()]
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    label = f"l{rng.randrange(NUM_LABELS)}"
    return [
        (
            rng.choice(vertices),
            rng.choice(vertices),
            rng.sample(labels, rng.randint(1, NUM_LABELS)),
            f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}",
        )
        for _ in range(count)
    ]


def naive_answer(graph, source, target, labels, constraint_text, cache):
    if not graph.has_vertex(source) or not graph.has_vertex(target):
        return False
    if constraint_text not in cache:
        cache[constraint_text] = SubstructureConstraint.from_sparql(
            constraint_text
        )
    query = LSCRQuery(
        source=source,
        target=target,
        labels=LabelConstraint(labels),
        constraint=cache[constraint_text],
    )
    return NaiveTwoProcedure(graph).decide(query)


def assert_agreement(service, oracle, rng, parsed, context):
    for source, target, labels, text in random_specs(rng, oracle):
        expected = naive_answer(oracle, source, target, labels, text, parsed)
        result, meta = service.query(source, target, labels, text)
        assert result.answer == expected, (
            f"{context}: {source}->{target} L={labels} S={text!r}: "
            f"service={result.answer} naive={expected} ({meta['reason']})"
        )


class TestCrashRecoveryAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kill_mid_stream_then_recover(self, seed, tmp_path):
        tsv = write_base_tsv(seed, tmp_path)
        oracle = load_tsv(tsv, name=tsv.stem)
        wal_dir = tmp_path / "wal"
        wal = TenantWal(wal_dir, "default", compact_every=COMPACT_EVERY)
        leader = make_leader(tsv, wal, seed)
        rng = random.Random(seed * 52361 + 11)
        parsed = {}
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_mixed_batch(rng, round_number, oracle)
                summary = leader.apply_updates(batch)
                added, removed, missing = apply_to_oracle(oracle, batch)
                assert summary["edges_added"] == added
                assert summary["edges_removed"] == removed
                assert summary["edges_missing"] == missing
                assert leader.graph.num_edges == oracle.num_edges
                assert_agreement(
                    leader, oracle, rng, parsed,
                    f"seed={seed} round={round_number} pre-crash",
                )
            tip = (leader.epoch.epoch_id, leader.epoch.fingerprint)
        finally:
            leader.close()
            wal.close()
        # The crash: every in-memory structure is gone; only the fsynced
        # directory remains.  Recovery must reconverge, provably.
        recovered, replay = recover_service(
            TenantWal(wal_dir, "default", compact_every=COMPACT_EVERY),
            graph_path=tsv,
        )
        try:
            assert (recovered.epoch.epoch_id, recovered.epoch.fingerprint) == tip
            assert replay["epoch"] == tip[0]
            assert_agreement(
                recovered, oracle, rng, parsed, f"seed={seed} post-recovery"
            )
            # The recovered leader is attached: it keeps logging, and a
            # second crash-recover cycle lands on the new tip.
            batch = random_mixed_batch(rng, UPDATE_ROUNDS + 1, oracle)
            recovered.apply_updates(batch)
            apply_to_oracle(oracle, batch)
            second_tip = (
                recovered.epoch.epoch_id, recovered.epoch.fingerprint,
            )
            assert_agreement(
                recovered, oracle, rng, parsed, f"seed={seed} post-restart"
            )
        finally:
            recovered.close()
        again, _ = recover_service(
            TenantWal(wal_dir, "default", compact_every=COMPACT_EVERY),
            graph_path=tsv,
        )
        try:
            assert (again.epoch.epoch_id, again.epoch.fingerprint) == second_tip
        finally:
            again.close()

    @pytest.mark.parametrize("seed", SEEDS[::3])
    def test_truncated_tail_recovers_to_previous_epoch(self, seed, tmp_path):
        tsv = write_base_tsv(seed, tmp_path)
        oracle = load_tsv(tsv, name=tsv.stem)
        # Per-epoch oracle states: losing the tail record must land the
        # recovery on the *previous* epoch's graph, not a hybrid.
        states = {0: oracle.copy()}
        wal_dir = tmp_path / "wal"
        # compact_every high: the torn record must not be snapshot-covered.
        wal = TenantWal(wal_dir, "default", compact_every=10_000)
        leader = make_leader(tsv, wal, seed)
        rng = random.Random(seed * 977 + 5)
        parsed = {}
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_mixed_batch(rng, round_number, oracle)
                leader.apply_updates(batch)
                apply_to_oracle(oracle, batch)
                states[leader.epoch.epoch_id] = oracle.copy()
            tip_epoch = leader.epoch.epoch_id
        finally:
            leader.close()
            wal.close()
        if tip_epoch == 0:
            pytest.skip("every batch happened to be a no-op")
        segments = sorted(wal_dir.glob("default/wal-*.log"))
        newest = segments[-1]
        newest.write_bytes(newest.read_bytes()[:-7])  # torn final append
        recovered, replay = recover_service(
            TenantWal(wal_dir, "default", compact_every=10_000),
            graph_path=tsv,
        )
        try:
            assert replay["truncated_tail"] is True
            assert recovered.epoch.epoch_id == tip_epoch - 1
            previous = states[tip_epoch - 1]
            assert (
                recovered.epoch.fingerprint == previous.content_fingerprint()
            )
            assert_agreement(
                recovered, previous, rng, parsed,
                f"seed={seed} post-truncation",
            )
        finally:
            recovered.close()

    @pytest.mark.parametrize("seed", SEEDS[1::3])
    def test_kill_between_snapshot_and_segment_delete(self, seed, tmp_path):
        tsv = write_base_tsv(seed, tmp_path)
        oracle = load_tsv(tsv, name=tsv.stem)
        wal_dir = tmp_path / "wal"
        wal = TenantWal(wal_dir, "default", compact_every=10_000)
        leader = make_leader(tsv, wal, seed)
        rng = random.Random(seed * 31 + 2)
        parsed = {}
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_mixed_batch(rng, round_number, oracle)
                leader.apply_updates(batch)
                apply_to_oracle(oracle, batch)
            # Compaction's first half lands, then the process dies before
            # _drop_obsolete_segments: every record is now also covered
            # by the snapshot.
            wal._write_snapshot(
                leader.epoch.graph,
                epoch=leader.epoch.epoch_id,
                fingerprint=leader.epoch.fingerprint,
            )
            tip = (leader.epoch.epoch_id, leader.epoch.fingerprint)
        finally:
            leader.close()
            wal.close()
        recovered, replay = recover_service(
            TenantWal(wal_dir, "default", compact_every=10_000),
            graph_path=tsv,
        )
        try:
            assert replay["applied"] == 0  # snapshot already covers the log
            assert replay["skipped"] >= (1 if tip[0] else 0)
            assert (recovered.epoch.epoch_id, recovered.epoch.fingerprint) == tip
            assert_agreement(
                recovered, oracle, rng, parsed,
                f"seed={seed} post-compaction-crash",
            )
        finally:
            recovered.close()
