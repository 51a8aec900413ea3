"""repro.shard — region-sharded scatter-gather query serving.

Horizontal partitioning for the query service: the landmark regions the
paper's local index already computes become the unit of placement, a
shard's slice is one frozen graph (every vertex, only the owned
vertices' edges) plus its border table, and the serving stack gains a
second execution topology next to the single-process one.  The pieces
compose in one direction:

========================  =============================================
:mod:`~.partitioner`      ``D``-guided region → shard placement,
                          :class:`ShardPlan` vertex ownership,
                          :class:`GraphSlice` — one slice graph plus
                          its border table
:mod:`~.slicefile`        deterministic slice serialization — the file
                          a worker process boots from, stamped with
                          slice epoch, content fingerprint and plan
                          hash (:func:`slice_document` written from any
                          graph holding the owned rows,
                          :func:`dump_slice` / :func:`load_slice`)
:mod:`~.worker`           :class:`ShardWorker` — slice-local closure
                          expansion and the co-located fast path (the
                          serving kernel), both over the one slice
                          graph, and the
                          two-phase prepare/publish slice swap;
                          :class:`HttpShardWorker` drives a remote one
                          over pooled keep-alive connections
:mod:`~.coordinator`      :class:`ShardCoordinator` — multi-round
                          scatter-gather closures, exact two-phase LSCR
                          evaluation, early stop, slice-epoch skew
                          detection, round telemetry
:mod:`~.rebalance`        :func:`propose_rebalance` — D-guided re-cut
                          of the shard plan from live border-crossing
                          counters
:mod:`~.service`          :class:`ShardedQueryService` — a drop-in
                          tenant whose executor is the coordinator,
                          with per-slice update propagation, remote
                          worker handshake/health and rebalancing
========================  =============================================

Deploy one in processes: ``python -m repro cut g.tsv --shards 2 --out
slices/`` serializes the slices, each ``serve --worker
slices/shard-<id>.slice.json`` process serves one, and ``serve --graph
g.tsv --shards 2 --worker-url ...`` attaches them by URL; or embed the
coordinator::

    from repro.shard import ShardedQueryService

    service = ShardedQueryService.from_files(
        "g.tsv", shards=2, worker_urls=["http://w0:9000", "http://w1:9000"]
    )
    answer, meta = service.query("a", "b", ["l0"], "SELECT ?x WHERE { ... }")

Sharded and unsharded services answer identically on every query — the
randomized agreement suites (``tests/shard/``) hold them to that over
worker servers in a thread and in separate processes.
"""

from repro.shard.coordinator import ShardCoordinator
from repro.shard.partitioner import (
    GraphSlice,
    ShardPlan,
    assign_regions,
    build_shard_plan,
    derive_shard_plan,
)
from repro.shard.rebalance import propose_rebalance
from repro.shard.service import ShardedQueryService
from repro.shard.slicefile import (
    SliceFile,
    dump_slice,
    load_slice,
    plan_fingerprint,
    slice_document,
    slice_from_document,
)
from repro.shard.worker import ExpandResult, HttpShardWorker, ShardWorker

__all__ = [
    "ExpandResult",
    "GraphSlice",
    "HttpShardWorker",
    "ShardCoordinator",
    "ShardPlan",
    "ShardWorker",
    "ShardedQueryService",
    "SliceFile",
    "assign_regions",
    "build_shard_plan",
    "derive_shard_plan",
    "dump_slice",
    "load_slice",
    "plan_fingerprint",
    "propose_rebalance",
    "slice_document",
    "slice_from_document",
]
