"""`ShardedQueryService` — a tenant whose execution engine is a fleet.

Subclasses :class:`~repro.service.app.QueryService`, so everything a
tenant needs — planner, canonical cache keys, result/constraint/
candidate caches, stats ledger, JSON handlers, snapshot persistence —
is inherited unchanged, and a sharded service registers in a
:class:`~repro.service.registry.TenantRegistry` exactly like a plain
one.  Only the execution seam differs: non-trivial, non-cached plans go
to the :class:`~repro.shard.coordinator.ShardCoordinator` instead of a
pooled session, unless the request *explicitly* named an algorithm
(``plan.forced``), in which case the classic single-process path runs —
the escape hatch that keeps every paper algorithm reachable on a
sharded deployment.

Construction: the plan is :func:`~repro.shard.partitioner
.derive_shard_plan`'s — a fresh landmark partition and its structural
correlation table, as ``repro cut`` derives it; a loaded local index
serves forced INS requests on the coordinator and never shapes the cut.
Every shard is served by a ``serve --worker SLICE_FILE`` process (one
slice ``repro cut`` wrote), which the coordinator reaches through an
:class:`~repro.shard.worker.HttpShardWorker` stub attached by URL
(``worker_urls=[...]``, ``serve --worker-url``).  Attachment starts
with a **handshake** — the worker's ``GET /shard/<id>`` descriptor
must agree on wire version and shard id (plan, epoch or fingerprint
drift is healed by pushing the coordinator's current slice) — and,
with ``probe_interval > 0``, continues with **periodic health probes**
that feed the per-worker circuit breakers and re-push slices to
workers that restarted from stale files.  The last descriptor each one
returned is what ``/stats`` reports for that worker.

**One serving reference.**  The shard plan and the slice epoch the
fleet serves an epoch at ride the epoch itself
(:attr:`GraphEpoch.topology <repro.service.epoch.GraphEpoch.topology>`),
so the inherited ``self._epoch`` is the only "current version" a sharded
answer is computed from: :meth:`_evaluate` hands the coordinator the
epoch the request read at entry, and ``shard_plan`` / ``slice_epoch``
are read-only views of it.  Every topology change — an update batch,
:meth:`reset_epoch`, :meth:`replace_graph`, :meth:`rebalance` — goes
through the inherited two seams (derive → prepare → publish) under the
one writer lock: once the next :class:`GraphEpoch` is derived,
:meth:`_prepare_epoch` attaches its topology, re-cuts the slices
of every shard the change touched and *prepares* every worker — a
refusal raises before anything was published, counted or logged — and
right after the epoch store :meth:`_publish_prepared` publishes the
workers.  **A slice epoch names content**: every expand *and* every
co-located probe echoes the slice epoch of the slice it searched, an
untouched worker only bumps its epoch from the one the bump names (a
straggler is shipped its slice instead), so a scatter that straddles the
swap detects the skew and re-runs on the service's current epoch.  The
per-tenant WAL composes unchanged: the base class appends the batch
after the publish, i.e. only after every slice acknowledged its prepare,
making the log the slice-epoch carrier replay re-cuts from.
"""

from __future__ import annotations

import threading
import time
from typing import Any, NamedTuple

from repro.exceptions import (
    BadRequestError,
    RemoteShardError,
    ServiceConfigError,
    ShardHandshakeError,
    ShardUnavailableError,
)
from repro.index.local_index import LocalIndex
from repro.service.app import QueryService
from repro.service.epoch import GraphEpoch, IndexSource
from repro.service.options import ServiceOptions, resolve_options
from repro.service.planner import QueryPlan
from repro.core.result import QueryResult
from repro.graph.labeled_graph import KnowledgeGraph
from repro.shard.coordinator import SHARDED_ALGORITHM, ShardCoordinator
from repro.shard.partitioner import ShardPlan, ShardTopology, derive_shard_plan
from repro.shard.rebalance import propose_rebalance
from repro.shard.slicefile import (
    SLICE_WIRE_VERSION,
    plan_fingerprint,
    slice_document,
)
from repro.shard.worker import HttpShardWorker

__all__ = ["ShardedQueryService"]


def _slice_identity(epoch: GraphEpoch) -> dict:
    """What a worker serving ``epoch``'s slice echoes in its descriptor."""
    plan, slice_epoch = epoch.topology
    return {
        "epoch": slice_epoch,
        "fingerprint": epoch.fingerprint,
        "plan_hash": plan_fingerprint(plan),
    }


def _slice_document(epoch: GraphEpoch, shard_id: int) -> dict:
    """Shard ``shard_id``'s slice of ``epoch``, as the document a worker
    loads: written straight from the epoch's graph."""
    plan, slice_epoch = epoch.topology
    return slice_document(
        epoch.graph, plan, shard_id, epoch=slice_epoch, fingerprint=epoch.fingerprint
    )


def _drifted(descriptor: dict, identity: dict) -> bool:
    """The one drift rule, for the handshake and the health sweep alike:
    a worker whose descriptor differs from ``identity`` in any field
    serves another slice and gets the current one re-pushed."""
    return any(descriptor.get(key) != value for key, value in identity.items())


class _StagedSwap(NamedTuple):
    """What every worker holds staged between prepare and publish."""

    txn: str
    slice_epoch: int
    plan_hash: str
    #: Shards that received a re-cut slice rather than a bare bump.
    touched: set[int]


class ShardedQueryService(QueryService):
    """One tenant, ``shards`` region-sharded slices, exact answers.

    Reads the sharding rows of the options table (``shards``,
    ``worker_urls``, ``probe_interval``, ``scatter_timeout``,
    ``degraded_answers``) next to the per-service ones; the other
    keywords are embedding/test seams, not serving options.
    """

    sharded = True

    def __init__(
        self,
        graph: KnowledgeGraph,
        index: LocalIndex | IndexSource | None = None,
        *,
        local_fast_path: bool = True,
        retry_policy=None,
        options: ServiceOptions | None = None,
        **keywords: Any,
    ) -> None:
        options = resolve_options(options, keywords, sharding=True)
        if options.shards < 1:
            raise ServiceConfigError(f"shards must be >= 1, got {options.shards}")
        super().__init__(graph, index, options=options)
        first = self._epoch
        #: Partition and correlations are retained for D-guided
        #: rebalancing: live crossing counters are folded into the
        #: correlation table to re-place regions.  The plan uses the same
        #: ``landmark_count`` and ``seed`` as ``cut``, so slice files cut
        #: offline match it hash for hash.
        self._partition, self._correlations, plan = derive_shard_plan(
            first.graph,
            options.shards,
            landmark_count=options.landmark_count,
            seed=options.seed,
        )
        # The base constructor stored epoch 0 before a plan could exist;
        # no request can read it until this constructor returns, and
        # every later epoch gets its topology in _prepare_epoch.
        first.topology = ShardTopology(plan, first.epoch_id)
        self._health_lock = threading.Lock()
        self._worker_health: dict[int, dict] = {}
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self.workers: list = [
            HttpShardWorker(url, shard_id)
            for shard_id, url in enumerate(options.worker_urls)
        ]
        self.coordinator = ShardCoordinator(
            self.workers,
            local_fast_path=local_fast_path,
            degraded_answers=options.degraded_answers,
            scatter_timeout=options.scatter_timeout,
            retry_policy=retry_policy,
        )
        try:
            for shard_id, worker in enumerate(self.workers):
                self._handshake(shard_id, worker)
        except Exception:
            self.close()
            raise
        if options.probe_interval:
            self._probe_thread = threading.Thread(
                target=self._probe_loop,
                args=(options.probe_interval,),
                name="repro-shard-probe",
                daemon=True,
            )
            self._probe_thread.start()

    def __repr__(self) -> str:
        return (
            f"ShardedQueryService({self.graph.name!r}, "
            f"shards={self.shard_plan.num_shards}, "
            f"index={'loaded' if self._epoch.has_index else 'none'})"
        )

    @property
    def default_algorithm(self) -> str:
        """``"sharded"``: a request that names no algorithm scatters."""
        return SHARDED_ALGORITHM

    @property
    def shard_plan(self) -> ShardPlan:
        """The plan the current epoch is served under."""
        return self._epoch.topology.plan

    @property
    def slice_epoch(self) -> int:
        """The slice epoch the fleet serves the current epoch at."""
        return self._epoch.topology.slice_epoch

    # ------------------------------------------------------------------

    def _evaluate(self, plan: QueryPlan, epoch: GraphEpoch) -> QueryResult:
        """Scatter-gather by default; forced plans run the named session.

        This overrides the *exact* half of the execute seam only: the
        base class's ``_execute`` router consults the coordinator-local
        bounds first, so definite-No/definite-Yes queries are settled
        here on the coordinator and never scatter to the workers.
        The coordinator computes on ``epoch`` — the one the request read
        at entry — and re-reads ``self._epoch`` only for its skew re-run.
        """
        if plan.forced:
            return super()._evaluate(plan, epoch)
        assert plan.query is not None
        return self.coordinator.answer(plan.query, epoch, lambda: self._epoch)

    # ------------------------------------------------------------------
    # worker attachment: handshake + health probes + resync
    # ------------------------------------------------------------------

    def _handshake(self, shard_id: int, worker: HttpShardWorker) -> None:
        """Verify a remote worker serves this deployment's shard.

        Wire-version or shard-identity disagreement is a structured
        refusal (:class:`~repro.exceptions.ShardHandshakeError`); plan
        or epoch drift — a worker booted from a stale slice file — is
        healed by pushing the coordinator's current slice.
        """
        try:
            descriptor = worker.probe()
        except Exception as error:
            raise ShardHandshakeError(
                f"worker {worker.base_url} for shard {shard_id} did not "
                f"answer its descriptor probe: {error}",
                detail={"shard": shard_id, "url": worker.base_url},
            ) from error
        if descriptor.get("shard") != shard_id:
            raise ShardHandshakeError(
                f"worker {worker.base_url} serves shard "
                f"{descriptor.get('shard')!r}, expected {shard_id}",
                detail={"shard": shard_id, "descriptor": descriptor},
            )
        wire = descriptor.get("wire_version")
        if wire != SLICE_WIRE_VERSION:
            raise ShardHandshakeError(
                f"worker {worker.base_url} speaks shard wire version "
                f"{wire!r}, this coordinator speaks {SLICE_WIRE_VERSION}",
                detail={
                    "shard": shard_id,
                    "worker_wire_version": wire,
                    "coordinator_wire_version": SLICE_WIRE_VERSION,
                },
            )
        expected = _slice_identity(self._epoch)
        if _drifted(descriptor, expected):
            try:
                # The ledger then holds what the healed worker serves.
                self._resync_worker(shard_id, worker)
            except Exception as error:
                raise ShardHandshakeError(
                    f"worker {worker.base_url} disagrees on plan/epoch and "
                    f"could not be resynced: {error}",
                    detail={
                        "shard": shard_id,
                        "descriptor": {
                            key: descriptor.get(key) for key in expected
                        },
                        "expected": expected,
                    },
                ) from error
        else:
            self._note_health(
                shard_id,
                epoch=expected["epoch"],
                plan_hash=expected["plan_hash"],
                descriptor=descriptor,
            )

    def _resync_worker(self, shard_id: int, worker) -> dict:
        """Push the current epoch's slice to one drifted worker; returns
        the descriptor its publish replied with.

        Under the writer lock, like every slice push: a resync must not
        interleave with a half-published swap.
        """
        with self._update_lock:
            epoch = self._epoch
            plan, slice_epoch = epoch.topology
            txn = f"resync-{slice_epoch}-{shard_id}"
            plan_hash = plan_fingerprint(plan)
            worker.prepare(
                txn,
                epoch=slice_epoch,
                fingerprint=epoch.fingerprint,
                plan_hash=plan_hash,
                document=_slice_document(epoch, shard_id),
            )
            descriptor = worker.publish_update(txn)
            self._note_health(
                shard_id, epoch=slice_epoch, plan_hash=plan_hash, descriptor=descriptor
            )
            with self._health_lock:
                entry = self._worker_health[shard_id]
                entry["resyncs"] = entry.get("resyncs", 0) + 1
        return descriptor

    def _note_health(self, shard_id: int, **fields: Any) -> None:
        with self._health_lock:
            entry = self._worker_health.setdefault(
                shard_id, {"consecutive_failures": 0}
            )
            entry["last_seen"] = time.time()
            entry["consecutive_failures"] = 0
            entry.pop("last_error", None)
            entry.update(fields)

    def _note_unhealthy(self, shard_id: int, error: BaseException) -> None:
        with self._health_lock:
            entry = self._worker_health.setdefault(
                shard_id, {"consecutive_failures": 0}
            )
            entry["consecutive_failures"] = (
                entry.get("consecutive_failures", 0) + 1
            )
            entry["last_error"] = f"{type(error).__name__}: {error}"

    def _probe_loop(self, interval: float) -> None:
        while not self._probe_stop.wait(interval):
            try:
                self._probe_workers(timeout=max(0.5, min(interval, 5.0)))
            except Exception:  # pragma: no cover - probe loop never dies
                pass

    def _probe_workers(self, timeout: float = 5.0) -> None:
        """One health sweep: probe every worker, heal drift.

        Probe outcomes feed the coordinator's per-worker circuit
        breakers — a responsive descriptor closes a half-open breaker
        without waiting for query traffic, and a dead worker keeps its
        breaker open between queries.  A drifted worker — a stale slice
        epoch, plan hash or content fingerprint (it restarted from an old
        slice file) — gets the current slice re-pushed.
        """
        for shard_id, worker in enumerate(self.workers):
            try:
                descriptor = worker.probe(timeout=timeout)
            except Exception as error:
                self.coordinator.breakers[shard_id].record_failure()
                self._note_unhealthy(shard_id, error)
                continue
            self.coordinator.breakers[shard_id].record_success()
            self._note_health(
                shard_id,
                epoch=descriptor.get("epoch"),
                plan_hash=descriptor.get("plan_hash"),
                descriptor=descriptor,
            )
            if _drifted(descriptor, _slice_identity(self._epoch)):
                try:
                    self._resync_worker(shard_id, worker)
                except Exception as error:
                    self._note_unhealthy(shard_id, error)

    # ------------------------------------------------------------------
    # slice-epoch propagation: the two-phase push
    # ------------------------------------------------------------------

    @staticmethod
    def _extended_plan(plan: ShardPlan, graph: KnowledgeGraph) -> ShardPlan:
        """``plan`` sized to ``graph``'s vertices.

        Vertices interned since have no landmark region, so they take
        the same round-robin owners :func:`build_shard_plan` gives
        unreached vertices — deterministic and balanced, no re-placement
        of existing vertices.  (A replacement graph may also be smaller;
        ownership of the ids it keeps is unchanged.)
        """
        count = graph.num_vertices
        if count == plan.num_vertices:
            return plan
        shard_of = plan.shard_of[:count] + tuple(
            vid % plan.num_shards for vid in range(plan.num_vertices, count)
        )
        return ShardPlan(
            num_shards=plan.num_shards,
            shard_of=shard_of,
            regions_by_shard=plan.regions_by_shard,
            region_shard=plan.region_shard,
        )

    def _prepare_workers(
        self, epoch: GraphEpoch, touched: set[int], extends: int
    ) -> _StagedSwap:
        """Phase one: stage ``epoch``'s topology on every worker.

        Touched shards receive their re-cut slice — all the rebuild cost
        lands here, off the serving path — untouched shards a bare bump
        from slice epoch ``extends``; one that refuses it (409: it is
        not serving ``extends``, so its content is not the fleet's) is
        shipped its slice like a touched one.  Any other failure aborts
        all staged state and re-raises before anything served changes.
        Caller holds the writer lock.
        """
        plan, slice_epoch = epoch.topology
        plan_hash = plan_fingerprint(plan)
        txn = f"swap-{slice_epoch}"
        stamp = {
            "epoch": slice_epoch,
            "fingerprint": epoch.fingerprint,
            "plan_hash": plan_hash,
        }
        prepared: list = []
        try:
            for shard_id, worker in enumerate(self.workers):
                if shard_id not in touched:
                    try:
                        worker.prepare(txn, **stamp, extends=extends)
                    except (BadRequestError, RemoteShardError) as refusal:
                        if refusal.status != 409:
                            raise
                        touched.add(shard_id)
                if shard_id in touched:
                    worker.prepare(
                        txn, **stamp, document=_slice_document(epoch, shard_id)
                    )
                prepared.append(worker)
        except Exception:
            for worker in prepared:
                try:
                    worker.abort_update(txn)
                except Exception:
                    pass
            raise
        return _StagedSwap(txn, slice_epoch, plan_hash, touched)

    def _touched_shards(
        self, updates: list, graph: KnowledgeGraph, plan: ShardPlan
    ) -> set[int]:
        """Owners (under ``plan``) of every updated edge's source vertex.

        An edge lives in exactly one slice — its source's — so these are
        the only slices whose content an applied batch can change.  A
        brand-new vertex that only ever appears as a target needs no
        slice re-cut: no slice stores out-edges for it yet, and the
        coordinator counts crossed-to vertices as visited without asking
        their owner to expand them.
        """
        touched: set[int] = set()
        for source, _label, _target, _op in updates:
            if graph.has_vertex(source):
                touched.add(plan.shard_of[graph.vid(source)])
        return touched

    def _prepare_epoch(
        self,
        epoch: GraphEpoch,
        updates: list | None,
        plan: ShardPlan | None = None,
    ) -> _StagedSwap:
        """Attach ``epoch``'s topology and prepare every worker for it.

        The inherited first seam: ``epoch`` is derived but not stored,
        and the caller holds the writer lock (so no other swap,
        rebalance or resync interleaves before :meth:`_publish_prepared`
        ran).  The plan is ``plan`` (:meth:`rebalance`'s proposal) or
        the current one sized to the new graph; the slice epoch moves
        past both the epoch id and the one being served.  With
        ``updates`` only the slices the batch touched are re-cut;
        ``updates=None`` (:meth:`reset_epoch`, :meth:`replace_graph`,
        :meth:`rebalance`) ships every slice.  A worker refusing its
        prepare fails the whole swap with a structured 503 while the
        deployment stays consistent at the previous epoch.
        """
        serving = self._epoch.topology
        if plan is None:
            plan = self._extended_plan(serving.plan, epoch.graph)
        touched = (
            set(range(plan.num_shards))
            if updates is None
            else self._touched_shards(updates, epoch.graph, plan)
        )
        epoch.topology = ShardTopology(
            plan, max(epoch.epoch_id, serving.slice_epoch + 1)
        )
        try:
            return self._prepare_workers(epoch, touched, serving.slice_epoch)
        except Exception as error:
            raise ShardUnavailableError(
                getattr(error, "shard", -1),
                f"slice push could not prepare: {error}",
                detail={"epoch": self._epoch.epoch_id},
            ) from error

    def _publish_prepared(self, staged: _StagedSwap) -> dict:
        """The second seam: the epoch — topology included — is stored;
        publish the workers and report the summary fields.

        Every worker holds the staged state, so this is past the point
        of no return: publish stragglers are reported (not raised)
        because the swap is already committed — they keep echoing a
        stale slice epoch, so their probes are misses and their expands
        a structured refusal, until the next prepare or health sweep
        ships them their slice.
        """
        failures = []
        for shard_id, worker in enumerate(self.workers):
            try:
                descriptor = worker.publish_update(staged.txn)
            except Exception as error:
                self._note_unhealthy(shard_id, error)
                failures.append(
                    {"shard": shard_id, "error": f"{type(error).__name__}: {error}"}
                )
            else:
                self._note_health(
                    shard_id,
                    epoch=staged.slice_epoch,
                    plan_hash=staged.plan_hash,
                    descriptor=descriptor,
                )
        fields: dict = {
            "slice_epoch": staged.slice_epoch,
            "shards_updated": sorted(staged.touched),
        }
        if failures:
            fields["shards_unpublished"] = failures
        return fields

    # ------------------------------------------------------------------
    # D-guided rebalancing
    # ------------------------------------------------------------------

    def rebalance(self) -> dict:
        """Re-cut the shard plan from live border-crossing counters.

        Folds each worker's per-peer crossing counts into the structural
        correlation table (:func:`~repro.shard.rebalance
        .propose_rebalance` is the pure half) and — when the proposal
        actually moves a region — publishes it the way every topology
        change is: as an epoch over the serving snapshot (same id,
        everything graph-derived shared, new topology) through prepare →
        publish, every slice re-cut, at a bumped slice epoch.
        """
        with self._update_lock:
            old = self._epoch
            plan, slice_epoch = old.topology
            crossings: dict[int, dict[int, int]] = {}
            for shard_id, worker in enumerate(self.workers):
                try:
                    crossings[shard_id] = worker.crossings_by_peer()
                except Exception as error:
                    raise ShardUnavailableError(
                        shard_id, f"cannot read crossing counters: {error}"
                    ) from error
            proposal = propose_rebalance(
                self._partition,
                plan,
                self._correlations,
                crossings,
                num_vertices=old.graph.num_vertices,
            )
            if proposal is None:
                return {
                    "rebalanced": False,
                    "reason": "current placement already minimises observed "
                    "crossings (or there is nothing to move)",
                    "slice_epoch": slice_epoch,
                    "crossings": {
                        str(shard): {str(p): c for p, c in peers.items()}
                        for shard, peers in sorted(crossings.items())
                    },
                }
            moved = sum(
                1
                for landmark, shard in proposal.region_shard.items()
                if plan.region_shard.get(landmark) != shard
            )
            new_epoch = old.derive(old.graph, old.epoch_id)
            fields = self._publish_epoch(
                new_epoch, self._prepare_epoch(new_epoch, None, proposal)
            )
            document = {
                "rebalanced": True,
                "slice_epoch": fields["slice_epoch"],
                "regions_moved": moved,
                "plan": proposal.describe(),
            }
            if "shards_unpublished" in fields:
                document["shards_unpublished"] = fields["shards_unpublished"]
            return document

    # ------------------------------------------------------------------

    def health(self) -> dict:
        document = super().health()
        plan, slice_epoch = self._epoch.topology
        document["shards"] = plan.num_shards
        document["slice_epoch"] = slice_epoch
        return document

    def stats_snapshot(self) -> dict:
        """The inherited document plus a ``shards`` section.

        Each worker entry is the descriptor the worker returned at its
        last handshake, probe or slice publish (slice sizes, traffic and
        update counters, slice epoch) merged with its stub's
        connection-pool counters, plus the coordinator-side health
        ledger (``last_seen`` age, consecutive probe failures, last slice
        epoch it reported or was published).
        """
        document = super().stats_snapshot()
        plan, slice_epoch = self._epoch.topology
        now = time.time()
        with self._health_lock:
            health = {
                shard_id: dict(entry)
                for shard_id, entry in self._worker_health.items()
            }
        workers = []
        for shard_id, worker in enumerate(self.workers):
            ledger = health.get(shard_id, {})
            entry = {**ledger.pop("descriptor", {}), **worker.describe()}
            last_seen = ledger.pop("last_seen", None)
            if last_seen is not None:
                ledger["last_seen_age_seconds"] = max(0.0, now - last_seen)
            entry["health"] = ledger
            workers.append(entry)
        document["shards"] = {
            "plan": plan.describe(),
            "plan_hash": plan_fingerprint(plan),
            "slice_epoch": slice_epoch,
            "coordinator": {
                **self.coordinator.stats(), "slice_epoch": slice_epoch
            },
            "workers": workers,
        }
        return document

    def close(self) -> None:
        """Stop probing, release the coordinator pool and every worker."""
        self._probe_stop.set()
        thread = self._probe_thread
        if thread is not None:
            thread.join(timeout=2.0)
            self._probe_thread = None
        self.coordinator.close()
        for worker in self.workers:
            worker.close()
        super().close()
