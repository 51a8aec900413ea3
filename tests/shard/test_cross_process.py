"""Cross-process agreement: real ``serve --worker`` processes vs oracle.

``test_agreement_shard.py`` pins the wire protocol with in-thread HTTP
servers; this suite goes the rest of the way — slices are cut to files,
each one boots an actual ``python -m repro serve --worker`` subprocess
on an ephemeral port, and a coordinator attaches them by URL exactly as
``serve --shards N --worker-url ...`` would (handshake included).  Over
five seeded graphs the deployment must answer bit-identically to an
unsharded :class:`QueryService` oracle through three phases per seed —
fresh boot, after a ``POST /edges``-shaped insert batch (including a
brand-new source vertex), and after a mixed insert/remove batch — for
200 seed/query comparisons, each batch mirrored on the oracle and
pushed to the worker processes over the two-phase slice-update wire.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.index.landmarks import (
    bfs_traverse,
    select_landmarks,
    structural_correlations,
)
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.shard import ShardedQueryService, build_shard_plan
from repro.shard.slicefile import dump_slice, slice_document

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SEEDS = [0, 1, 2, 3, 4]
SHARDS = 2
NUM_VERTICES = 24
NUM_LABELS = 4
QUERIES_PER_PHASE = 10

READY = re.compile(r"listening on (http://\S+)")


def make_graph(seed):
    return random_labeled_graph(
        NUM_VERTICES, 2.0, NUM_LABELS, rng=seed, name=f"xproc-{seed}"
    )


def make_index(graph, seed):
    """Even seeds load an index on the coordinator, odd seeds run
    index-free; the shard plan is the same either way."""
    return build_local_index(graph, k=3, rng=seed) if seed % 2 == 0 else None


def build_plan(frozen, seed):
    """The exact plan ShardedQueryService will build — hash must match."""
    landmarks = select_landmarks(frozen, rng=seed)
    partition = bfs_traverse(frozen, landmarks)
    correlations = structural_correlations(frozen, partition)
    return build_shard_plan(frozen, partition, SHARDS, correlations)


def boot_worker(slice_path):
    """Start one worker process; returns ``(proc, url)`` once it's ready."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--worker", str(slice_path),
         "--host", "127.0.0.1", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    for line in proc.stdout:
        match = READY.search(line)
        if match:
            return proc, match.group(1)
    proc.wait(timeout=5)
    raise AssertionError(
        f"worker for {slice_path} exited (rc={proc.returncode}) before "
        "printing its ready line"
    )


def stop_workers(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def random_specs(rng, count=QUERIES_PER_PHASE, extra_vertices=()):
    vertices = [f"n{i}" for i in range(NUM_VERTICES)] + list(extra_vertices)
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    specs = []
    for _ in range(count):
        label = rng.choice(labels)
        anchor = rng.choice(vertices)
        constraint = rng.choice(
            [
                f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}",
                f"SELECT ?x WHERE {{ ?x <{label}> {anchor} . }}",
                f"SELECT ?x WHERE {{ {anchor} <{label}> ?x . }}",
                f"SELECT ?x WHERE {{ ?x <{label}> ?y . ?y <l0> ?z . }}",
            ]
        )
        specs.append(
            (
                rng.choice(vertices),
                rng.choice(vertices),
                rng.sample(labels, rng.randint(1, NUM_LABELS - 1)),
                constraint,
            )
        )
    return specs


def assert_agreement(sharded, oracle, specs, *, seed, phase):
    for source, target, labels, text in specs:
        expected, _ = oracle.query(source, target, labels, text,
                                   use_cache=False)
        actual, meta = sharded.query(source, target, labels, text,
                                     use_cache=False)
        assert actual.answer == expected.answer, (
            f"seed={seed} phase={phase} {source}->{target} L={labels} "
            f"S={text!r}: remote={actual.answer} oracle={expected.answer} "
            f"({meta.get('reason')})"
        )


class TestCrossProcessAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_worker_processes_agree_with_oracle_across_updates(
        self, seed, tmp_path
    ):
        graph = make_graph(seed)
        index = make_index(graph, seed)
        frozen = graph.freeze()
        plan = build_plan(frozen, seed)
        fingerprint = frozen.content_fingerprint()
        procs, urls = [], []
        sharded = oracle = None
        try:
            for shard_id in range(plan.num_shards):
                path = tmp_path / f"shard-{shard_id}.slice.json"
                dump_slice(slice_document(frozen, plan, shard_id, epoch=0,
                                          fingerprint=fingerprint), path)
                proc, url = boot_worker(path)
                procs.append(proc)
                urls.append(url)
            sharded = ShardedQueryService(
                graph, index, seed=seed, shards=SHARDS, worker_urls=urls,
                probe_interval=0,
            )
            # The handshake accepted both workers without a resync: the
            # files were cut from the same plan the coordinator built.
            assert sharded.slice_epoch == 0
            oracle = QueryService(graph.copy(), seed=seed)
            rng = random.Random(seed * 7919 + 17)

            assert_agreement(sharded, oracle, random_specs(rng),
                             seed=seed, phase="boot")

            # Insert batch, POST /edges-shaped: existing vertices plus a
            # brand-new source vertex, mirrored on the oracle and pushed
            # to both worker processes over the slice-update wire.
            inserts = [
                [f"n{rng.randrange(NUM_VERTICES)}",
                 f"l{rng.randrange(NUM_LABELS)}",
                 f"n{rng.randrange(NUM_VERTICES)}"]
                for _ in range(4)
            ] + [["fresh", "l0", f"n{rng.randrange(NUM_VERTICES)}"]]
            summary = sharded.handle_updates({"edges": inserts})
            oracle.apply_updates([tuple(edge) for edge in inserts])
            assert summary["slice_epoch"] == sharded.slice_epoch > 0
            assert "shards_unpublished" not in summary
            for worker in sharded.workers:
                assert worker.probe()["epoch"] == sharded.slice_epoch

            specs = random_specs(rng, extra_vertices=["fresh"])
            specs.append(("fresh", inserts[-1][2], ["l0"],
                          "SELECT ?x WHERE { ?x <l0> ?y . }"))
            assert_agreement(sharded, oracle, specs,
                             seed=seed, phase="post-insert")

            # Mixed batch: remove one edge just added, insert two more.
            mixed = [tuple(inserts[0]) + ("remove",)] + [
                (f"n{rng.randrange(NUM_VERTICES)}",
                 f"l{rng.randrange(NUM_LABELS)}",
                 "fresh")
                for _ in range(2)
            ]
            before = sharded.slice_epoch
            sharded.apply_updates(mixed)
            oracle.apply_updates(mixed)
            assert sharded.slice_epoch > before
            assert_agreement(
                sharded, oracle, random_specs(rng, extra_vertices=["fresh"]),
                seed=seed, phase="post-mixed",
            )
        finally:
            if sharded is not None:
                sharded.close()
            if oracle is not None:
                oracle.close()
            stop_workers(procs)
