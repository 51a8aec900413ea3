"""The scatter-gather coordinator: exact LSCR answers over shard slices.

The coordinator composes shard-local closures into the global answer
with the naive two-procedure decomposition (Section 3), which is the
obviously-correct frame for a distributed search:

1. **Phase one** — the label-constrained closure of the source, computed
   by rounds of scatter-gather: the frontier is scattered to the shards
   owning its vertices, each shard returns its local closure plus its
   border crossings, and crossings seed the next round.  Because every
   edge lives in exactly one slice (keyed by its source's owner), the
   fixpoint of this loop *is* ``{v : s ⇝_L v}`` — queries whose
   traversal never crosses a border are answered entirely by the
   source's shard, which is the "expand to correlated regions only when
   border crossings are possible" routing rule falling out of the
   algorithm rather than being bolted on;
2. **Intersect** with ``V(S, G)`` (computed once, coordinator-side,
   through the epoch's :class:`~repro.service.cache.CandidateCache`);
3. **Phase two** — a second scatter-gather closure seeded by every
   satisfying vertex reached, stopping the moment the target appears.

Before any of that, a **co-located fast path**: when source and target
live on the same shard, the serving kernel over that shard's slice gets
first crack — a true answer from a slice is globally true (edge-subset
monotonicity), and on region-partitioned graphs most traffic is
intra-region.

**An answer is computed from one epoch.**  The coordinator keeps only
what is about the *fleet* — workers, breakers, retry policy, scatter
pool, counters — and nothing graph-bound: :meth:`ShardCoordinator.answer`
is handed the :class:`~repro.service.epoch.GraphEpoch` the request read
at entry and takes the graph, the ``V(S, G)`` cache, the shard plan and
the slice epoch it expects workers to echo from that one object
(:attr:`~repro.service.epoch.GraphEpoch.topology`), so ``V(S, G)``, both
closures and every slice they scatter over describe the same ``G``.
**A slice epoch names content**: a worker echoes the slice epoch of the
slice it searched on *both* calls — ``expand`` and the co-located probe
— and only ever advances it over content the coordinator vouched for
(see :meth:`ShardWorker.prepare <repro.shard.worker.ShardWorker.prepare>`),
so an echo that differs from the expected one is either a miss (probe)
or a skew that re-runs the query once on the service's current epoch
(expand), never a silently mixed answer.

Every worker call — each expand of a round and the co-located probe —
follows one rule (:meth:`ShardCoordinator._dispatch`): the round's only
call runs inline when nothing bounds it; every other call runs on a
small pool and is waited for at most ``scatter_timeout`` or the
request's remaining budget.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from concurrent.futures import wait as futures_wait
from functools import partial
from time import perf_counter

from repro.context import rearm
from repro.core.query import LSCRQuery
from repro.core.result import QueryResult
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ShardUnavailableError,
)
from repro.obs.trace import span
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import check_deadline, current_deadline
from repro.resilience.retry import RetryPolicy
from repro.service.epoch import GraphEpoch
from repro.service.executor import BatchExecutor
from repro.shard.partitioner import ShardTopology

__all__ = ["ShardCoordinator"]

#: Algorithm name stamped on coordinator-answered results.
SHARDED_ALGORITHM = "sharded"

#: Slack added to deadline-derived waits on worker futures, so a worker
#: that checks its own deadline gets to answer with a structured 504
#: before the coordinator abandons the call.  This is the "one round's
#: grace" by which a query may overshoot its budget.
ROUND_GRACE_SECONDS = 0.05


class _EpochSkew(Exception):
    """A worker answered an expand at a different slice epoch (internal).

    Raised from :meth:`ShardCoordinator.closure` when an echoed epoch
    disagrees with the topology of the epoch the query runs on — a
    slice swap landed mid-scatter.  Mixing rounds from two epochs could
    answer wrongly under *both*, so the whole query re-runs once on the
    service's current epoch; the coordinator converts a second skew into
    a structured 503 rather than loop.
    """

    def __init__(self, shard: int, saw: int, expected: int):
        super().__init__(
            f"shard {shard} answered at slice epoch {saw}, expected {expected}"
        )
        self.shard = shard
        self.saw = saw
        self.expected = expected


class ShardCoordinator:
    """Scatter-gather execution over a fixed set of shard workers.

    ``workers[i]`` must serve shard ``i`` of every epoch's plan and
    expose the :class:`~repro.shard.worker.ShardWorker` surface
    (``expand``, ``local_query``); a sharded service hands it
    :class:`~repro.shard.worker.HttpShardWorker` stubs.
    Thread-safe: per-query state is local to each :meth:`answer` call,
    and everything graph-bound arrives with the epoch it is handed.
    """

    def __init__(
        self,
        workers: list,
        *,
        local_fast_path: bool = True,
        retry_policy: RetryPolicy | None = None,
        breakers: list[CircuitBreaker] | None = None,
        degraded_answers: bool = False,
        scatter_timeout: float | None = None,
    ) -> None:
        self.workers = workers
        self.local_fast_path = local_fast_path
        #: Retries for idempotent expand calls (injectable for tests).
        self.retry = retry_policy if retry_policy is not None else RetryPolicy()
        #: One breaker per worker; injectable to tune thresholds/clock.
        self.breakers = (
            breakers
            if breakers is not None
            else [CircuitBreaker() for _ in workers]
        )
        if len(self.breakers) != len(workers):
            raise ValueError(
                f"{len(workers)} workers need as many breakers, "
                f"got {len(self.breakers)}"
            )
        #: Degrade (answer over surviving shards, verdict "unknown" when
        #: False) instead of failing fast with a structured 503.
        self.degraded_answers = degraded_answers
        #: Per-call wall-clock bound on every worker call, the probe
        #: included, even without a request deadline
        #: (``serve --shard-timeout``).
        self.scatter_timeout = scatter_timeout
        #: The pool behind :meth:`_dispatch`: one thread per worker, at
        #: most 8, built on first use.
        self._executor = BatchExecutor(max_workers=min(len(workers), 8))
        self._lock = threading.Lock()
        self._queries = 0
        self._rounds = 0
        self._expand_calls = 0
        self._crossings = 0
        self._fast_path_hits = 0
        # Resilience counters (all monotone, surfaced in /stats and
        # /metrics as repro_resilience_* series).
        self._retries = 0
        self._worker_failures = 0
        self._breaker_rejections = 0
        self._degraded_answers = 0
        self._deadline_exceeded = 0
        self._fast_path_errors = 0
        self._epoch_skew_retries = 0

    def __repr__(self) -> str:
        return f"ShardCoordinator(shards={len(self.workers)})"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def answer(
        self,
        query: LSCRQuery,
        epoch: GraphEpoch,
        current: Callable[[], GraphEpoch] | None = None,
    ) -> QueryResult:
        """Answer one prepared query on ``epoch``; exact, with telemetry.

        Graph, ``V(S, G)`` cache, plan and expected slice epoch all come
        from ``epoch``.  ``current`` re-reads the owning service's
        serving epoch for the one re-run after a slice-epoch skew (a
        swap landed mid-scatter, so ``epoch`` may no longer be what the
        fleet serves); without it the re-run stays on ``epoch``.

        Traced requests see the whole scatter-gather as a
        ``coordinator`` span: the fast-path probe, the ``V(S, G)``
        lookup, and one ``round`` span per frontier exchange (phase,
        frontier size, shards hit, crossings) with each worker's own
        ``expand`` span — local or shipped back over the wire — stitched
        underneath.
        """
        with span("coordinator", shards=len(self.workers)) as handle:
            try:
                try:
                    return self._answer(query, epoch, handle)
                except _EpochSkew:
                    # A slice swap landed mid-scatter: every visited
                    # vertex so far was proven against another epoch's
                    # slices, so the only sound move is to re-run the
                    # whole query — graph, V(S, G) and topology — on the
                    # epoch now being served.  Once — a second skew
                    # means swaps are outpacing queries or a worker
                    # missed its publish; refuse structurally (503,
                    # retryable) rather than loop.
                    with self._lock:
                        self._epoch_skew_retries += 1
                    handle.set(epoch_skew_retry=True)
                if current is not None:
                    epoch = current()
                try:
                    return self._answer(query, epoch, handle)
                except _EpochSkew as again:
                    raise ShardUnavailableError(
                        again.shard,
                        "slice epoch changed mid-query twice",
                        detail={
                            "saw_epoch": again.saw,
                            "expected_epoch": again.expected,
                        },
                    ) from None
            except DeadlineExceededError:
                # Every 504 this coordinator lets out — its own round
                # and wait checks, a worker's, the probe's — is counted
                # here, once.
                with self._lock:
                    self._deadline_exceeded += 1
                raise

    def _answer(self, query: LSCRQuery, epoch: GraphEpoch, handle) -> QueryResult:
        started = perf_counter()
        topology = epoch.topology
        if topology is None or topology.plan.num_shards != len(self.workers):
            # Unreachable through ShardedQueryService (every epoch it
            # stores went through its prepare seam); a refusal, not an
            # AttributeError, for anything else.
            raise ShardUnavailableError(
                -1,
                f"epoch {epoch.epoch_id} carries no shard topology for "
                f"this {len(self.workers)}-worker fleet",
            )
        graph = epoch.graph
        source = graph.vid(query.source)
        target = graph.vid(query.target)
        mask = query.labels.mask_for(graph)

        shard_of = topology.plan.shard_of
        #: Shards that stayed down past the retry budget this query
        #: (shared across both phases; only populated under
        #: ``degraded_answers`` — fail-fast raises instead).
        missing: set[int] = set()
        fast_hit = False
        verdict: bool | None = None
        passed = 0
        vsg_size = -1  # QueryResult's "not computed" convention
        vsg_seconds = 0.0
        telemetry = {"rounds": 0, "expand_calls": 0, "crossings": 0}

        if self.local_fast_path and shard_of[source] == shard_of[target]:
            fast_hit = self._probe(
                shard_of[source], query, topology.slice_epoch
            )
            if fast_hit:
                verdict = True
                handle.set(source="co-located")
        if verdict is None:
            # The global V(S, G) is only needed when the fast path did
            # not decide — computing it first would charge every
            # co-located hit for a whole-graph SPARQL evaluation.
            vsg_started = perf_counter()
            candidates = epoch.candidates.get(query.constraint, graph)
            vsg_seconds = perf_counter() - vsg_started
            vsg_size = len(candidates)
            candidate_set = candidates.members
        if verdict is None and not candidate_set:
            verdict = False  # no satisfying vertex anywhere: skip both phases
        if verdict is None:
            reachable, phase_one = self.closure(
                {source}, mask, topology, phase="phase1", missing=missing
            )
            for key in telemetry:
                telemetry[key] += phase_one[key]
            passed = len(reachable)
            satisfying = reachable & candidate_set
            if not satisfying or target not in reachable:
                # No reached candidate, or the target is unreachable
                # outright (closure(satisfying) ⊆ closure(source), so
                # phase two could never find it).
                verdict = False
            elif target in satisfying:
                # The satisfying vertex may be the target itself (the
                # trivial tail path), or any reached candidate when the
                # target is among them.
                verdict = True
            else:
                second, phase_two = self.closure(
                    satisfying, mask, topology, stop=target,
                    phase="phase2", missing=missing,
                )
                for key in telemetry:
                    telemetry[key] += phase_two[key]
                # Phase two revisits no new vertex: closure(satisfying)
                # ⊆ closure(source), so the distinct passed count (the
                # paper's metric) is the phase-one closure alone.
                verdict = target in second

        # Degradation marker: any shard dropped mid-closure means the
        # answer was computed over an edge subset.  True is still proven
        # (every visited vertex was genuinely reached); False only means
        # the surviving slices hold no witness — "unknown".
        degraded: dict | None = None
        if missing:
            degraded = {
                "missing_shards": sorted(missing),
                "verdict": "reachable" if verdict else "unknown",
            }
        handle.set(
            answer=verdict,
            rounds=telemetry["rounds"],
            expand_calls=telemetry["expand_calls"],
            crossings=telemetry["crossings"],
            vsg_size=vsg_size,
        )
        if degraded is not None:
            handle.set(degraded=degraded)

        with self._lock:
            self._queries += 1
            self._rounds += telemetry["rounds"]
            self._expand_calls += telemetry["expand_calls"]
            self._crossings += telemetry["crossings"]
            if fast_hit:
                self._fast_path_hits += 1
            if degraded is not None:
                self._degraded_answers += 1
        return QueryResult(
            answer=verdict,
            algorithm=SHARDED_ALGORITHM,
            seconds=perf_counter() - started,
            passed_vertices=passed,
            vsg_size=vsg_size,
            vsg_seconds=vsg_seconds,
            degraded=degraded,
        )

    # ------------------------------------------------------------------
    # the distributed closure
    # ------------------------------------------------------------------

    def closure(
        self,
        seeds: set[int],
        mask: int,
        topology: ShardTopology,
        stop: int | None = None,
        phase: str = "closure",
        missing: set[int] | None = None,
    ) -> tuple[set[int], dict[str, int]]:
        """All vertices reachable from ``seeds`` under ``mask``.

        Multi-round frontier exchange; with ``stop`` set the loop exits
        as soon as that vertex is reached (the returned set is then a
        prefix of the closure that provably contains ``stop``).

        The request deadline bounds every round (checked at the top of
        the loop, and each worker wait derives from the remaining
        budget); ``missing`` collects shards that stayed down past the
        retry budget — their frontier seeds are dropped, which is what
        makes the result a closure over the *surviving* slices.  Without
        ``degraded_answers`` a down shard raises
        :class:`~repro.exceptions.ShardUnavailableError` instead.

        Soundness of the degraded set: a vertex enters ``visited`` only
        as a seed or as a reported reach/crossing of an executed expand,
        so every member is genuinely reachable even when some expansions
        were dropped — the set is a *subset* of the true closure.

        When a trace is active, each round becomes a ``round`` span
        labelled with ``phase`` and its frontier size, parenting the
        workers' ``expand`` spans — which the workers build by value,
        because a remote process has no span tree to hang them on.

        ``topology`` is the one riding the epoch the enclosing query
        runs on; any worker echoing a *different* slice epoch aborts the
        closure with :class:`_EpochSkew`, because a closure mixing two
        epochs can be wrong under both.
        """
        shard_of = topology.plan.shard_of
        expected_epoch = topology.slice_epoch
        if missing is None:
            missing = set()
        visited: set[int] = set()
        frontier: dict[int, list[int]] = {}
        for vid in seeds:
            if vid in visited:
                continue
            visited.add(vid)
            frontier.setdefault(shard_of[vid], []).append(vid)
        expanded_by_shard: dict[int, set[int]] = {}
        telemetry = {"rounds": 0, "expand_calls": 0, "crossings": 0}
        deadline = current_deadline()
        while frontier:
            if deadline is not None:
                deadline.check(
                    "coordinator-round",
                    phase=phase,
                    rounds=telemetry["rounds"],
                    visited=len(visited),
                )
            if missing:
                # Seeds owned by shards already declared dead cannot be
                # expanded; drop them (their membership in `visited` is
                # still sound — reaching them was proven upstream).
                for shard_id in list(frontier):
                    if shard_id in missing:
                        del frontier[shard_id]
                if not frontier:
                    break
            telemetry["rounds"] += 1
            telemetry["expand_calls"] += len(frontier)
            with span(
                "round",
                phase=phase,
                index=telemetry["rounds"],
                frontier_size=sum(len(seeds) for seeds in frontier.values()),
                shards=len(frontier),
            ) as round_span:
                results, failures = self._scatter(
                    frontier, mask, expanded_by_shard
                )
                for shard_id, reason in failures:
                    if not self.degraded_answers:
                        raise ShardUnavailableError(
                            shard_id,
                            reason,
                            detail={
                                "phase": phase,
                                "breaker": self.breakers[shard_id].stats()[
                                    "state"
                                ],
                            },
                        )
                    missing.add(shard_id)
                if failures:
                    round_span.set(
                        failed_shards=sorted(shard for shard, _ in failures)
                    )
                next_frontier: dict[int, list[int]] = {}
                round_crossings = 0
                for shard_id, result in results:
                    if result.epoch != expected_epoch:
                        raise _EpochSkew(shard_id, result.epoch, expected_epoch)
                    round_span.attach(result.span)
                    expanded_by_shard.setdefault(shard_id, set()).update(
                        result.reached
                    )
                    visited.update(result.reached)
                    for owner, targets in result.crossings.items():
                        for vid in targets:
                            if vid not in visited:
                                visited.add(vid)
                                next_frontier.setdefault(owner, []).append(vid)
                                round_crossings += 1
                telemetry["crossings"] += round_crossings
                round_span.set(crossings=round_crossings)
            if stop is not None and stop in visited:
                break
            frontier = next_frontier
        return visited, telemetry

    def _scatter(
        self,
        frontier: dict[int, list[int]],
        mask: int,
        expanded_by_shard: dict[int, set[int]],
    ):
        """One round's expand calls, started by :meth:`_dispatch`.

        Returns ``(results, failures)`` in shard order: per-shard
        :class:`~repro.shard.worker.ExpandResult` objects (each carrying
        its worker's span), plus the shards whose call failed past the
        retry budget (exhausted retries, breaker-open rejection, or a
        hang abandoned at the deadline/``scatter_timeout``) with a
        human-readable reason.  Deadline expiry is *not* a shard failure
        — it raises :class:`~repro.exceptions.DeadlineExceededError`
        directly.
        """
        calls = []
        for shard_id, seeds in sorted(frontier.items()):
            exclude = tuple(expanded_by_shard.get(shard_id, ()))
            flag = {"abandoned": False}
            calls.append((
                shard_id,
                partial(self._guarded_expand, shard_id, seeds, mask, exclude, flag),
                flag,
            ))
        results: list[tuple[int, object]] = []
        failures: list[tuple[int, str]] = []
        gathers = self._dispatch(calls, "scatter-wait")
        for (shard_id, _call, _flag), gather in zip(calls, gathers):
            try:
                result = gather()
            except CircuitOpenError as error:
                failures.append((shard_id, str(error)))
            except DeadlineExceededError:
                raise
            except Exception as error:
                with self._lock:
                    self._worker_failures += 1
                failures.append(
                    (shard_id, f"{type(error).__name__}: {error}")
                )
            else:
                results.append((shard_id, result))
        return results, failures

    def _dispatch(
        self, calls: list[tuple[int, Callable[[], object], dict]], where: str
    ) -> list[Callable[[], object]]:
        """Start worker calls ``(shard, fn, flag)``; one gather per call.

        The one rule for calling a worker, an expand or the probe alike:
        a call runs inline — its gather *is* the call — only when it is
        the round's only call and nothing bounds it (no request deadline
        and no ``scatter_timeout``).  Every other call is submitted
        re-armed (:func:`repro.context.rearm`) to the pool, so the
        worker finds the request's trace id and deadline where an inline
        call would, and its gather waits :meth:`_scatter_wait` for it.
        A hung call cannot be interrupted in-process, so at that bound
        the gather abandons it — ``flag["abandoned"]`` mutes its late
        breaker updates — and records one breaker failure (the breaker
        keeps abandoned threads from piling up); a spent deadline is
        then a 504 at ``where``, anything else a :class:`TimeoutError`.
        """
        deadline = current_deadline()
        if len(calls) == 1 and deadline is None and self.scatter_timeout is None:
            return [fn for _shard, fn, _flag in calls]

        def gather(shard: int, future, flag: dict):
            wait = self._scatter_wait(deadline)
            if not futures_wait((future,), timeout=wait).done:
                flag["abandoned"] = True
                self.breakers[shard].record_failure()
                if deadline is not None:
                    deadline.check(where, shard=shard)
                raise TimeoutError(f"no response within {wait:.3f}s")
            return future.result()

        return [
            partial(gather, shard, self._executor.submit(rearm(fn)), flag)
            for shard, fn, flag in calls
        ]

    # ------------------------------------------------------------------
    # guarded worker calls (retry + breaker + deadline)
    # ------------------------------------------------------------------

    def _scatter_wait(self, deadline) -> float | None:
        """Wall-clock bound for one worker future, or None (unbounded)."""
        waits = []
        if deadline is not None:
            waits.append(
                max(0.0, deadline.remaining_seconds()) + ROUND_GRACE_SECONDS
            )
        if self.scatter_timeout is not None:
            waits.append(self.scatter_timeout)
        return min(waits) if waits else None

    def _guarded_expand(self, shard_id, seeds, mask, exclude, flag):
        """One shard call behind its breaker and the retry policy.

        Runs on a pool thread (re-armed) or inline, as :meth:`_dispatch`
        decides; either way the request context is the ambient one.
        ``flag["abandoned"]`` is set by the gather when it stops
        waiting, muting this call's late breaker updates.
        """
        breaker = self.breakers[shard_id]
        if not breaker.allow():
            with self._lock:
                self._breaker_rejections += 1
            raise CircuitOpenError(shard_id, breaker.state)

        def record_attempt_failure(error: BaseException) -> None:
            if not flag["abandoned"]:
                breaker.record_failure()

        try:
            result = self.retry.call(
                lambda: self._expand_once(shard_id, seeds, mask, exclude),
                deadline=current_deadline(),
                on_retry=self._note_retry,
                on_failure=record_attempt_failure,
            )
        except DeadlineExceededError:
            # The worker answered (with a structured 504) or the budget
            # died before the call: the worker itself is responsive.
            if not flag["abandoned"]:
                breaker.record_success()
            raise
        else:
            if not flag["abandoned"]:
                breaker.record_success()
            return result

    def _expand_once(self, shard_id, seeds, mask, exclude):
        """One bare expand call, unless the budget is already gone."""
        check_deadline("scatter", shard=shard_id)
        return self.workers[shard_id].expand(seeds, mask, exclude)

    def _note_retry(self, attempt: int, error: BaseException) -> None:
        with self._lock:
            self._retries += 1

    def _probe(self, shard: int, query: LSCRQuery, expected_epoch: int) -> bool:
        """The co-located fast path on ``shard``; True is conclusive.

        A hit counts only when the worker echoes ``expected_epoch`` —
        the slice it searched is then this epoch's content; a missing or
        different echo is a miss, and the scatter that follows meets the
        ordinary skew rule.

        An open breaker skips the probe, and a probe is never retried.
        It is called under :meth:`_dispatch`'s rule, so a hang is
        abandoned at ``scatter_timeout`` or the deadline like an
        expand's.  A spent deadline is a structured 504 — the worker's
        own, when its search stopped itself on the budget it was sent;
        any other failure is just a miss: scatter-gather, with its own
        retry/breaker guards, decides.
        """
        breaker = self.breakers[shard]
        if not breaker.allow():
            return False
        with span("co-located", shard=shard) as probe:
            flag = {"abandoned": False}  # set by an abandoning gather
            call = partial(self.workers[shard].local_query, query)
            (gather,) = self._dispatch([(shard, call, flag)], "co-located-probe")
            try:
                hit, echoed = gather()
            except DeadlineExceededError:
                # The worker stopped itself on the request's budget: it
                # is responsive, as for expand.
                if not flag["abandoned"]:
                    breaker.record_success()
                raise
            except Exception:
                if not flag["abandoned"]:
                    breaker.record_failure()
                check_deadline("co-located-probe", shard=shard)
                with self._lock:
                    self._fast_path_errors += 1
                hit = False
            else:
                breaker.record_success()
                hit = hit and echoed == expected_epoch
            probe.set(hit=hit)
        return hit

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready coordinator counters for ``/stats``."""
        with self._lock:
            queries = self._queries
            document = {
                "queries": queries,
                "fast_path_hits": self._fast_path_hits,
                "rounds_total": self._rounds,
                "expand_calls_total": self._expand_calls,
                "crossings_total": self._crossings,
                "mean_rounds": self._rounds / queries if queries else 0.0,
                "epoch_skew_retries": self._epoch_skew_retries,
            }
            resilience = {
                "retries": self._retries,
                "worker_failures": self._worker_failures,
                "breaker_rejections": self._breaker_rejections,
                "degraded_answers": self._degraded_answers,
                "deadline_exceeded": self._deadline_exceeded,
                "fast_path_errors": self._fast_path_errors,
                "degraded_mode": self.degraded_answers,
                "scatter_timeout": self.scatter_timeout,
            }
        resilience["breakers"] = {
            str(shard_id): breaker.stats()
            for shard_id, breaker in enumerate(self.breakers)
        }
        document["resilience"] = resilience
        return document

    def close(self) -> None:
        """Shut the call pool down (idempotent); a straggler query
        still finishes, on a fresh pool."""
        self._executor.shutdown()
