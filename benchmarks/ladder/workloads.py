"""Running one workload: prepare inputs, set the servers up, drive the
measured phase, verify every reply, and turn the logs into metrics.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.datasets.lubm import ALL_CONSTRAINTS, generate_lubm
from repro.graph.io import dump_tsv
from repro.graph.labeled_graph import KnowledgeGraph
from repro.utils.persist import atomic_write_json

from ladder import client, layers, procs, spec, streams
from ladder.oracle import Oracle
from ladder.report import percentile

#: Warm-up pass of the Zipf workloads: the whole pool, in batches of this.
_WARMUP_BATCH = 32
_STALL_PROBES = 15


@dataclass
class Inputs:
    workload: spec.Workload
    seed: int
    graph: KnowledgeGraph
    graph_path: Path
    pool: list[streams.PoolQuery]
    requests: list[streams.Request]
    schedule: list[streams.EdgeBatch]
    prep_s: float


@dataclass
class Verdict:
    """The correctness gate's account of one run."""

    attempted: int = 0
    failed: int = 0
    correct_answers: int = 0  # query answers that agree with the oracle
    answered: int = 0  # query answers received at all (for CPU per query)
    epoch_checks: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def _pool(
    workload: spec.Workload, seed: int, graph: KnowledgeGraph, cache_dir: Path | None
) -> list[streams.PoolQuery]:
    """The workload's pool, from ``cache_dir`` when this seed's is there.

    Building a hard pool (the oracle on ~6000 draws) is the costliest
    part of a run and is the same for every run of a seed, so it is kept
    on disk, keyed by everything that decides it.
    """
    cached = None
    if cache_dir is not None:
        cached = cache_dir / (
            f"pool-v{streams.POOL_VERSION}-{workload.pool}-{workload.pool_size}-"
            f"seed{seed}-{graph.content_fingerprint()}.json"
        )
        try:
            return streams.load_pool(json.loads(cached.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError):
            pass  # absent or unreadable: build it
    pool = streams.build_pool(
        Oracle(graph, ALL_CONSTRAINTS), seed, workload.pool, workload.pool_size
    )
    if cached is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(streams.pool_document(pool), cached)
    return pool


def prepare(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    departments: int,
    run_dir: Path,
    cache_dir: Path | None,
) -> Inputs:
    """Graph, pool with oracle answers, request stream, update schedule."""
    started = time.perf_counter()
    graph = generate_lubm(departments, rng=seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    graph_path = run_dir / "graph.tsv"
    dump_tsv(graph, graph_path)
    pool = _pool(workload, seed, graph, cache_dir)
    if workload.zipf:
        requests = streams.zipf_stream(
            seed, len(pool), spec.ZIPF_REQUESTS, workload.batch_every
        )
    else:
        requests = streams.once_stream(len(pool), workload.batch_every)
    schedule = []
    if workload.updates:
        schedule = streams.update_schedule(
            seed, graph, math.ceil(seconds * spec.UPDATES_PER_SECOND)
        )
    return Inputs(
        workload, seed, graph, graph_path, pool, requests, schedule,
        prep_s=time.perf_counter() - started,
    )


def warm_up(topology: procs.Topology, inputs: Inputs) -> None:
    """One untimed pass over the whole pool, so every later request of a
    Zipf workload finds its answer in the result cache."""
    connection = client.Connection(topology.address)
    try:
        for start in range(0, len(inputs.pool), _WARMUP_BATCH):
            request = tuple(range(start, min(start + _WARMUP_BATCH, len(inputs.pool))))
            path, body = streams.request_body(inputs.pool, request)
            status, _ = connection.post(path, body)
            if status != 200:
                raise procs.ServerDied(f"warm-up {path} answered {status}")
    finally:
        connection.close()


def measured_phase(
    topology: procs.Topology,
    inputs: Inputs,
    *,
    seconds: float | None,
    limit: int | None = None,
    traced: bool = False,
) -> tuple[client.RunLog, dict]:
    """Warm up if the workload does, then drive; returns the log and the
    server-side account (``/stats`` before and after, CPU, memory)."""
    workload = inputs.workload
    if workload.zipf:
        warm_up(topology, inputs)
    before = topology.get_json("/t/default/stats")
    cpu_before = topology.cpu_seconds()
    own_cpu_before = time.process_time()
    log = client.drive(
        topology.address, inputs.pool, inputs.requests,
        seconds=seconds, limit=limit, cycle=workload.zipf, traced=traced,
        schedule=inputs.schedule, update_every=spec.UPDATE_EVERY,
    )
    server = {
        "before": before, "after": None, "cpu_s": 0.0, "peak_rss_mb": 0.0,
        "client_cpu_s": time.process_time() - own_cpu_before,
    }
    try:
        server["cpu_s"] = topology.cpu_seconds() - cpu_before
        server["peak_rss_mb"] = topology.peak_rss_mb()
        server["after"] = topology.get_json("/t/default/stats")
    except (OSError, ValueError):
        pass  # a server died; the failed operations in the log report it
    return log, server


def keepalive_stall_ms(topology: procs.Topology, inputs: Inputs) -> float:
    """What a default keep-alive client waits per request on top of ours:
    median latency of a cached query without ``TCP_QUICKACK`` minus with."""
    connection = client.Connection(topology.address)
    body = inputs.pool[0].body

    def median_ms(quick_ack: bool) -> float:
        latencies = []
        for _ in range(_STALL_PROBES):
            started = time.perf_counter()
            connection.post("/query", body, quick_ack=quick_ack)
            latencies.append(time.perf_counter() - started)
        return statistics.median(latencies) * 1000.0

    try:
        return median_ms(False) - median_ms(True)
    finally:
        connection.close()


# ----------------------------------------------------------------------
# the correctness gate
# ----------------------------------------------------------------------


def _answers(sample: client.Sample) -> list[dict] | None:
    """The per-query result documents of one 200 reply (None if malformed)."""
    document = client.parse_reply(sample.body)
    if not isinstance(document, dict):
        return None
    results = [document] if sample.path == "/query" else document.get("results")
    if not isinstance(results, list) or len(results) != len(sample.request):
        return None
    if not all(isinstance(r, dict) and isinstance(r.get("answer"), bool) for r in results):
        return None
    return results


def verify(inputs: Inputs, log: client.RunLog) -> Verdict:
    """Compare every reply with the oracle; see README "Correctness gate"."""
    verdict = Verdict()
    pool = inputs.pool
    # (pool index, epoch) -> [(sample number, observed answer)]
    observed: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    wrong_samples: set[int] = set()
    for number, sample in enumerate(log.samples):
        verdict.attempted += 1
        results = _answers(sample) if sample.status == 200 else None
        if results is None:
            verdict.fail(f"{sample.path} answered status {sample.status}")
            continue
        verdict.answered += len(results)
        for index, result in zip(sample.request, results):
            key = (index, result.get("epoch", 0))
            observed.setdefault(key, []).append((number, result["answer"]))

    expected = {key: pool[key[0]].expected for key in observed}
    if inputs.schedule:
        expected.update(_replay_epochs(inputs, observed, verdict))
    wrong_answers = 0
    for key, sightings in observed.items():
        for number, answer in sightings:
            if answer != expected[key]:
                wrong_answers += 1
                if number not in wrong_samples:
                    wrong_samples.add(number)
                    verdict.fail(
                        f"query {key[0]} at epoch {key[1]}: server said {answer}, "
                        f"oracle says {expected[key]}"
                    )
    verdict.correct_answers = verdict.answered - wrong_answers

    for update in log.updates:
        verdict.attempted += 1
        batch = inputs.schedule[update.batch]
        adds = sum(1 for edge in batch if edge[3] == "add")
        want = {
            "epoch": update.batch + 1,
            "edges_added": adds,
            "edges_removed": len(batch) - adds,
            "edges_duplicate": 0,
            "edges_missing": 0,
        }
        document = client.parse_reply(update.body)
        if not isinstance(document, dict):
            document = {}
        got = {name: document.get(name) for name in want}
        if update.status != 200 or got != want:
            verdict.fail(
                f"update {update.batch}: status {update.status}, ack {got}, want {want}"
            )
    if inputs.schedule:
        every = spec.UPDATE_EVERY
        due = min((len(log.samples) + every - every // 2) // every, len(inputs.schedule))
        verdict.attempted += due - len(log.updates)
        for _ in range(due - len(log.updates)):
            verdict.fail("an update fell due and was never sent (the writer lost its server)")
    return verdict


def _replay_epochs(
    inputs: Inputs,
    observed: dict[tuple[int, int], list[tuple[int, bool]]],
    verdict: Verdict,
) -> dict[tuple[int, int], bool]:
    """Oracle answers on the graphs the update schedule produces.

    Re-checked exactly: every (query, epoch) whose reply differs from
    the epoch-0 truth — an update flipped it, or the server is wrong —
    plus a seeded sample of the others, spread over all epochs, up to
    ``EPOCH_CHECKS`` pairs.  Pairs not re-checked keep the epoch-0 truth.
    """
    pool = inputs.pool
    flipped = {
        key for key, sightings in observed.items()
        if any(answer != pool[key[0]].expected for _, answer in sightings)
    }
    others = sorted(key for key in observed if key not in flipped and key[1] > 0)
    rng = random.Random(f"ladder:{inputs.seed}:epoch-checks")
    sampled = rng.sample(others, min(len(others), max(0, spec.EPOCH_CHECKS - len(flipped))))
    to_check = sorted(flipped | set(sampled), key=lambda key: key[1])
    oracle = Oracle(inputs.graph.copy(), ALL_CONSTRAINTS)
    epoch = 0
    truths: dict[tuple[int, int], bool] = {}
    for key in to_check:
        while epoch < key[1] and epoch < len(inputs.schedule):
            oracle.apply(inputs.schedule[epoch])
            epoch += 1
        if key[1] != epoch:
            # An epoch the schedule never produced: leave the epoch-0
            # truth in place so the reply is judged against something.
            continue
        truths[key] = oracle.answer(pool[key[0]].spec)
    verdict.epoch_checks = len(truths)
    return truths


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    verdict: Verdict
    metrics: dict[str, float]
    samples: dict[str, int]  # sample count behind each timing metric
    warnings: list[str] = field(default_factory=list)
    #: The normalised metrics as the clock gave them, and the factor.
    measured: dict[str, float] = field(default_factory=dict)
    slowdown: float = 1.0


def end_to_end_metrics(
    log: client.RunLog,
    server: dict,
    verdict: Verdict,
    setup_s: float,
    slowdown: float,
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Every ``spec.END_TO_END`` metric, the sample count behind each, and
    the time-based ones as measured, before they were divided by
    ``slowdown`` (``setup_s`` comes in normalised already)."""
    queries = [
        sample.latency_ms for sample in log.samples
        if sample.status == 200 and sample.path == "/query"
    ]
    measured = {
        "qps": verdict.correct_answers / log.wall_s if log.wall_s > 0 else 0.0,
        "query_p50_ms": percentile(queries, 50),
        "server_cpu_ms_per_query": (
            server["cpu_s"] * 1000.0 / verdict.answered if verdict.answered else 0.0
        ),
    }
    metrics = {
        "setup_s": setup_s,
        "qps": measured["qps"] * slowdown,
        "query_p50_ms": measured["query_p50_ms"] / slowdown,
        "server_cpu_ms_per_query": measured["server_cpu_ms_per_query"] / slowdown,
        "peak_rss_mb": server["peak_rss_mb"],
    }
    samples = {
        "setup_s": spec.SETUP_REPEATS,
        "qps": verdict.correct_answers,
        "query_p50_ms": len(queries),
        "server_cpu_ms_per_query": verdict.answered,
    }
    return metrics, samples, measured


def run_untraced(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    departments: int,
    run_dir: Path,
    cache_dir: Path | None,
) -> Outcome:
    """The end-to-end run: ``SETUP_REPEATS`` set-ups, the last one serves."""
    procs.pin_client()
    inputs = prepare(workload, seed, seconds, departments, run_dir, cache_dir)
    calibrator = client.Calibrator()
    calibrator.start()

    def slowdown(since: float, until: float) -> float:
        # A sharded run waits on timers, not on this core (README "The
        # workload that is not registered"): its times stay as measured.
        return 1.0 if workload.sharded else calibrator.slowdown(since, until)

    setups = []
    topology = None
    try:
        for attempt in range(spec.SETUP_REPEATS):
            if topology is not None:
                topology.stop()
            began = time.perf_counter()
            topology = procs.launch(
                workload, inputs.graph_path, run_dir / f"setup{attempt}"
            )
            setups.append(topology.setup_s / slowdown(began, time.perf_counter()))
        log, server = measured_phase(topology, inputs, seconds=seconds)
    finally:
        calibrator.stop()
        if topology is not None:
            topology.stop()
    verdict = verify(inputs, log)
    phase = slowdown(log.started, log.started + log.wall_s)
    metrics, samples, measured = end_to_end_metrics(
        log, server, verdict, statistics.median(setups), phase
    )
    outcome = Outcome(verdict, metrics, samples, measured=measured, slowdown=phase)
    if server["after"] is None:
        outcome.warnings.append("a server process died during the measured phase")
    return outcome


def run_traced(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    departments: int,
    run_dir: Path,
    cache_dir: Path | None,
) -> Outcome:
    """The per-layer run: half the time untraced (exact counts from
    ``/stats`` deltas), then the same requests replayed on traced servers."""
    procs.pin_client()
    inputs = prepare(workload, seed, seconds / 2, departments, run_dir, cache_dir)
    topology = procs.launch(workload, inputs.graph_path, run_dir / "plain")
    calibrator = client.Calibrator()
    calibrator.start()
    try:
        plain_log, plain_server = measured_phase(topology, inputs, seconds=seconds / 2)
        stall_ms = keepalive_stall_ms(topology, inputs)
    finally:
        calibrator.stop()
        topology.stop()
    verdict = verify(inputs, plain_log)
    traced_topology = procs.launch(
        workload, inputs.graph_path, run_dir / "traced", traced=True
    )
    try:
        traced_log, _ = measured_phase(
            traced_topology, inputs, seconds=None, limit=len(plain_log.samples),
            traced=True,
        )
    finally:
        traced_topology.stop()
    traced_verdict = verify(inputs, traced_log)
    verdict.attempted += traced_verdict.attempted
    verdict.failed += traced_verdict.failed
    verdict.problems += traced_verdict.problems
    tables = {
        process.name: layers.load_spans(process)
        for process in traced_topology.processes
    }
    metrics, samples, warnings = layers.per_layer_metrics(
        inputs=inputs,
        plain_log=plain_log,
        plain_server=plain_server,
        plain_topology=topology,
        plain_answers=verdict.correct_answers,
        traced_log=traced_log,
        traced_answers=traced_verdict.correct_answers,
        tables=tables,
    )
    metrics["bench.machine_slowdown"] = calibrator.slowdown(
        plain_log.started, plain_log.started + plain_log.wall_s
    )
    metrics["http.keepalive_stall_ms"] = stall_ms
    samples["http.keepalive_stall_ms"] = _STALL_PROBES
    return Outcome(verdict, metrics, samples, warnings)
