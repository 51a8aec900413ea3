"""Frozen sizes, workload definitions and metric names of the ladder.

Everything ``BENCHMARK.json`` states is derived from (and tested
against) this module; the sizes below were calibrated once on the seed
commit and are constants, not options.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``generate_lubm(DEPARTMENTS)``: ~7.7k vertices, ~45k edges, 17 labels.
DEPARTMENTS = 64
#: Members of one ``POST /batch``.
BATCH_SIZE = 8
#: Length of the Zipf(1.0) request stream over the light pool; replayed
#: cyclically if a run outlasts it (repeats are the point of that stream).
ZIPF_REQUESTS = 96000
HARD_FACTOR = 10
#: ``read_write``: one ``POST /edges`` batch falls due every so many
#: completed reader requests (about one a second on the seed commit).
UPDATE_EVERY = 1500
#: Batches scheduled per second of run: three times what the seed commit
#: reaches, so that a faster reader does not run out of them.
UPDATES_PER_SECOND = 3
UPDATE_ADDS = 7
UPDATE_REMOVES = 3
#: ``read_write``: (query, epoch) pairs re-checked on the rebuilt graphs.
EPOCH_CHECKS = 240
#: Server set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Kernel rung: pool queries answered in-process by INS and UIS*.
KERNEL_QUERIES = 50
#: ``run_seconds`` of ``BENCHMARK.json``.
RUN_SECONDS = 30
SHARDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "hard": the source's label-feasible forward closure holds at least
    #: ``HARD_FACTOR * log2|V|`` vertices (the paper's search-tree-size
    #: filter); "light": it holds fewer.
    pool: str
    #: Distinct queries in the pool.  A hard pool is sent at most once per
    #: run and is sized to outlast ``RUN_SECONDS`` on the seed commit; the
    #: light pool fits the server's 1024-entry result cache.
    pool_size: int
    #: Every ``batch_every``-th request is a ``POST /batch``, the others
    #: are ``POST /query``.
    batch_every: int = 4
    zipf: bool = False  # Zipf stream with an untimed warm-up pass
    updates: bool = False  # the reader + the writer
    sharded: bool = False  # cut + 2 worker processes + coordinator


WORKLOADS = (
    Workload(
        "search",
        "distinct search-heavy queries on a fresh server: no cache can hit, "
        "so the evaluators and the planner's INS-vs-UIS* choice do the work",
        pool="hard",
        pool_size=2600,
        batch_every=16,
    ),
    Workload(
        "hot_mix",
        "Zipf stream over a warmed 512-query pool: every answer is a "
        "result-cache hit, so HTTP, JSON, planner and cache do the work and "
        "core does none",
        pool="light",
        pool_size=512,
        zipf=True,
    ),
    Workload(
        "read_write",
        "the hot_mix stream while a writer posts an edge batch every 1500 "
        "requests: each epoch swap purges the caches, rebuilds bounds, "
        "repairs the index and holds the GIL",
        pool="light",
        pool_size=512,
        zipf=True,
        updates=True,
    ),
)

#: Runs from the same command but is not in ``BENCHMARK.json``: it cannot
#: be made steady enough for a bound (README "The workload that is not
#: registered").
AD_HOC = (
    Workload(
        "sharded_batch",
        "the search queries through a coordinator and two worker "
        "processes: scatter rounds, the pooled HTTP wire and worker expand "
        "dominate",
        pool="hard",
        pool_size=770,
        sharded=True,
    ),
)

WORKLOAD_BY_NAME = {workload.name: workload for workload in WORKLOADS + AD_HOC}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    what: str
    bound: float | None = None  # end-to-end only
    moves: str = ""  # per-layer only


#: Bounds: the share of the parent's median by which a metric may worsen.
#: Each is at least three times the widest interquartile spread (as a
#: share of the median) any workload showed over ten seeds on the seed
#: commit — see README "Bounds, and what did not repeat".  "Normalised"
#: times are divided by the machine's slow-down factor during the same
#: phase (``client.Calibrator``).
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "first server process launched -> the front server's 'listening on' "
           "line (cut, worker boot and handshake included when sharded), "
           "normalised; median of 3 set-ups per run", 0.25),
    Metric("qps", "1/s", "higher",
           "query answers that agree with the oracle per normalised wall "
           "second of the measured phase (a batch member counts as one)", 0.25),
    Metric("query_p50_ms", "ms", "lower",
           "client-side POST /query latency, median, normalised", 0.25),
    Metric("server_cpu_ms_per_query", "ms", "lower",
           "user+sys CPU of all server processes (/proc/<pid>/stat) over the "
           "measured phase / query answers received, normalised", 0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "sum of VmHWM over all server processes at the end of the run", 0.15),
)

_MS = ("ms", "lower")
_S = ("s", "lower")
_SETUP = "setup_s (all)"

#: ``moves``: the end-to-end metric each layer metric should move, and on
#: which workload — written down before measuring (README "How they
#: interact").
PER_LAYER = (
    Metric("bench.prep_s", *_S, "graph + pools + oracle: the benchmark's own cost",
           moves="nothing in the system"),
    Metric("client.self_ms_per_request", *_MS,
           "client latency - server do_POST span: sockets, the server's request "
           "parsing ahead of do_POST, the client",
           moves="query_p50_ms (hot_mix), partly the benchmark itself"),
    Metric("bench.machine_slowdown", "ratio", "lower",
           "mean CPU time of the calibration kernel during the untraced half / "
           "its nominal 0.1 ms: how slow the core ran; the end-to-end times "
           "are divided by it, the per-layer times are not",
           moves="nothing in the system"),
    Metric("client.query_p90_ms", *_MS,
           "client-side POST /query latency, p90 (untraced half, as measured); "
           "a disturbed core stretches the tail more than the mean, so no bound",
           moves="what a caller sees in the tail"),
    Metric("client.batch_p50_ms", *_MS,
           "client-side POST /batch (8 queries) latency, median (untraced "
           "half, as measured); search sends too few batches for a bound",
           moves="what a batch caller sees"),
    Metric("client.batch_p90_ms", *_MS,
           "client-side POST /batch latency, p90 (untraced half, as measured)",
           moves="what a batch caller sees in the tail"),
    Metric("client.cpu_utilization", "ratio", "lower",
           "CPU seconds of the benchmark process (load generator + "
           "calibration) / wall seconds of the phase: its share of the core "
           "it takes turns on with the front server; above 0.5 the benchmark "
           "is measuring itself (warning printed)",
           moves="qps (hot_mix), but nothing in the system"),
    Metric("http.self_ms_per_request", *_MS, "do_POST minus the app handler",
           moves="qps, query_p50_ms (hot_mix)"),
    Metric("http.query_p99_ms", *_MS, "p99 of the do_POST span on /query",
           moves="client.query_p90_ms (hot_mix)"),
    Metric("http.keepalive_stall_ms", *_MS,
           "extra latency per kept-alive request for a default client "
           "(delayed ACK against the two-segment reply)",
           moves="qps (sharded_batch); every default client"),
    Metric("app.self_ms_per_query", *_MS,
           "handle_query/handle_batch/query/batch member minus children, per query",
           moves="qps (hot_mix)"),
    Metric("planner.ms_per_plan", *_MS, "QueryPlanner.plan", moves="qps (hot_mix)"),
    Metric("result_cache.ms_per_lookup", *_MS, "ResultCache.get",
           moves="qps (hot_mix)"),
    Metric("result_cache.hit_ratio", "ratio", "higher", "/stats hits / lookups",
           moves="qps (hot_mix, read_write)"),
    Metric("result_cache.evictions", "count", "lower",
           "/stats delta (purges at epoch swaps included)",
           moves="client.query_p90_ms (read_write)"),
    Metric("executor.self_ms_per_batch", *_MS,
           "BatchExecutor.map wall not covered by any member",
           moves="client.batch_p50_ms (hot_mix)"),
    Metric("approx.ms_per_decide", *_MS, "ApproxRouter.decide (warm-up included)",
           moves="qps (search)"),
    Metric("approx.short_circuit_ratio", "ratio", "higher",
           "/stats short-circuits / routed",
           moves="qps (search, read_write)"),
    Metric("candidate_cache.hit_ratio", "ratio", "higher", "/stats hits / lookups",
           moves="qps (read_write, search)"),
    Metric("constraints.vsg_ms_per_miss", *_MS,
           "SubstructureConstraint.satisfying_vertices under a cache miss "
           "(warm-up and shard workers included)",
           moves="client.query_p90_ms (read_write)"),
    Metric("core.ms_per_evaluation", *_MS,
           "LSCRSession.answer (whole call; warm-up and shard workers included)",
           moves="qps, query_p50_ms, server_cpu_ms_per_query (search)"),
    Metric("core.evaluations", "count", "lower", "/stats evaluator runs",
           moves="qps (search); must stay 0 on hot_mix"),
    Metric("core.passed_vertices_per_evaluation", "count", "lower",
           "/stats mean passed vertices", moves="core.ms_per_evaluation (search)"),
    Metric("core.time_share", "ratio", "lower",
           "self time of LSCRSession.answer + find_witness / all server self time",
           moves="shows each workload stresses its layer"),
    Metric("core.ins.ms_per_query", *_MS,
           "kernel rung: INS.answer on the first 50 pool queries, in the "
           "benchmark process", moves="the planner crossover; qps (search)"),
    Metric("core.uis_star.ms_per_query", *_MS,
           "kernel rung: UISStar.answer on the same queries",
           moves="the planner crossover; qps (search)"),
    Metric("updates.time_share", "ratio", "lower",
           "updates.* self time / server self time of the /edges requests",
           moves="shows each workload stresses its layer"),
    Metric("graph.load_s", *_S, "load_tsv at boot", moves=_SETUP),
    Metric("graph.freeze_s", *_S, "freeze_graph at boot", moves=_SETUP),
    Metric("index.build_s", *_S, "build_local_index at boot", moves=_SETUP),
    Metric("approx.bounds_build_s", *_S, "build_bounds at boot", moves=_SETUP),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "untraced qps / traced qps on the same requests",
           moves="how far the traced times overstate"),
)

#: What some workloads never produce (updates outside ``read_write``,
#: everything about shards outside ``sharded_batch``, witness stores where
#: every true answer short-circuits).  The traced run prints them under
#: the per-layer table, but they are not in ``BENCHMARK.json``: its metric
#: list is shared by all workloads, and a time that reads 0 on every run
#: of a workload is what the driver takes for a value that was never
#: measured.
DIAGNOSTICS = (
    Metric("approx.witness_ms_per_store", *_MS,
           "ApproxRouter.remember_witness (whole call; warm-up included)",
           moves="qps, server_cpu_ms_per_query (search)"),
    Metric("updates.ack_p50_ms", *_MS,
           "POST /edges ack latency from when it fell due, median",
           moves="what a writer sees (read_write)"),
    Metric("updates.late_max_ms", *_MS, "how long after it fell due an update was sent, worst",
           moves="backlog: grows once an update outlasts the reads between two"),
    Metric("updates.ms_per_batch", *_MS, "QueryService.apply_updates (whole call)",
           moves="qps, server_cpu_ms_per_query (read_write)"),
    Metric("graph.copy_ms_per_update", *_MS, "KnowledgeGraph.copy in an update",
           moves="updates.ms_per_batch"),
    Metric("graph.freeze_ms_per_update", *_MS, "freeze_graph in an update",
           moves="updates.ms_per_batch"),
    Metric("index.repair_ms_per_update", *_MS, "LocalIndex.refresh_regions",
           moves="updates.ms_per_batch"),
    Metric("approx.bounds_build_ms_per_update", *_MS, "build_bounds in an update",
           moves="updates.ms_per_batch"),
    Metric("shard.rounds_per_query", "count", "lower", "coordinator /stats",
           moves="query_p50_ms (sharded_batch)"),
    Metric("shard.expand_calls_per_query", "count", "lower", "coordinator /stats",
           moves="server_cpu_ms_per_query (sharded_batch)"),
    Metric("shard.crossings_per_query", "count", "lower", "coordinator /stats",
           moves="shard.wire_ms_per_call"),
    Metric("shard.fast_path_ratio", "ratio", "higher", "co-located hits / queries",
           moves="qps (sharded_batch)"),
    Metric("shard.conn_reuse_ratio", "ratio", "higher",
           "pooled connection reuses / acquisitions",
           moves="shard.wire_ms_per_call"),
    Metric("shard.time_share", "ratio", "lower",
           "self time of ShardCoordinator.answer + expand / all server self time",
           moves="shows each workload stresses its layer"),
    Metric("shard.cut_s", *_S, "the 'repro cut' subprocess",
           moves="setup_s (sharded_batch)"),
    Metric("shard.worker_boot_s", *_S, "worker processes launched -> all listening",
           moves="setup_s (sharded_batch)"),
    Metric("shard.expand_ms_per_call", *_MS,
           "coordinator-side HttpShardWorker.expand (whole call)",
           moves="qps, query_p50_ms (sharded_batch)"),
    Metric("shard.worker_busy_ms_per_call", *_MS, "worker-side handle_expand",
           moves="shard.expand_ms_per_call"),
    Metric("shard.wire_ms_per_call", *_MS, "their difference",
           moves="shard.expand_ms_per_call"),
)


def benchmark_document() -> dict:
    """What the root ``BENCHMARK.json`` must contain."""
    return {
        "command": ["python3", "benchmarks/ladder/run.py"],
        "paths": ["benchmarks/ladder"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why} for workload in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
