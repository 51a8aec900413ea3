"""Durable updates and read replication for the query service.

The missing piece between PR 5's epoch-swapped live updates and an
operable deployment: updates lived only in memory, so a restart lost
every acknowledged ``POST /edges`` batch.  This package adds

* :class:`~repro.wal.log.UpdateWal` / :class:`~repro.wal.log.TenantWal`
  — a per-tenant write-ahead log of validated update batches (inserts
  *and* removals), JSONL segments with fsynced appends plus atomic
  compaction snapshots, every record stamped with the epoch id and
  content fingerprint it produced;
* :func:`recover_service` — replay-on-startup (``serve --wal DIR``):
  rebuild the pre-crash service from the newest snapshot plus the log
  tail, *proving* reconvergence by checking each replayed epoch's
  fingerprint;
* :class:`~repro.wal.follower.WalFollower` — the same log as a
  replication carrier (``serve --follow DIR``): a read-only replica
  tails the directory, republishes the leader's epochs, and exposes its
  lag through ``/healthz`` and ``/metrics``.

See :mod:`repro.wal.log` for the on-disk layout and the ordering
contract that makes an acknowledged batch durable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.graph.csr import freeze_graph
from repro.service.app import QueryService
from repro.service.epoch import IndexSource
from repro.service.options import ServiceOptions, resolve_options
from repro.wal.follower import DEFAULT_POLL_INTERVAL, WalFollower
from repro.wal.log import (
    DEFAULT_COMPACT_EVERY,
    TenantWal,
    UpdateWal,
    WalRecord,
    graph_from_snapshot,
    snapshot_document,
)

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "DEFAULT_POLL_INTERVAL",
    "TenantWal",
    "UpdateWal",
    "WalFollower",
    "WalRecord",
    "graph_from_snapshot",
    "recover_service",
    "snapshot_document",
]


def recover_service(
    wal: TenantWal,
    *,
    graph_path: str | Path,
    index_path: str | Path | None = None,
    attach: bool = True,
    service_cls: type[QueryService] = QueryService,
    options: ServiceOptions | None = None,
    **keywords: Any,
) -> tuple[QueryService, dict]:
    """Rebuild a service to the WAL's tip; returns ``(service, replay)``.

    The base state is the newest compaction snapshot when one exists —
    its graph preserves vertex/label ids, so the service adopts its
    epoch id and fingerprint via :meth:`QueryService.reset_epoch` — and
    otherwise the deployment's base TSV at epoch 0, exactly the state
    the log's first record was written against.  Remaining records then
    replay through the ordinary :meth:`~QueryService.apply_updates`
    path, each one verified against its logged epoch and fingerprint
    (:meth:`TenantWal.replay_into`).  Those per-record fingerprints are
    the graph's running ones; the tip is audited once against a rescan
    of every edge (:meth:`QueryService.audit_fingerprint`) before the
    service is handed back.

    Recovery does no index work: when serving indexed (``index_path``
    given) the first request naming ``ins`` reads the index.  Only an
    epoch 0 over the base TSV reads the file at ``index_path``; every
    other epoch — the snapshot's, and each one a replayed record
    derives — builds its own in memory on that first read, since the
    file describes the base TSV, not the log's epoch-N graph
    (:class:`~repro.service.epoch.IndexSource`).

    ``attach=True`` (the default) attaches the log to the recovered
    service so subsequent updates append — a leader.  Followers recover
    with ``attach=False`` and tail instead.

    The ``replay`` dict reports ``applied`` / ``skipped`` record counts,
    the final ``epoch`` and whether a ``truncated_tail`` (torn final
    append) was tolerated.

    ``service_cls`` chooses the topology the log replays into —
    :class:`~repro.shard.service.ShardedQueryService` makes recovery
    *sharded*: the snapshot adoption (:meth:`~QueryService.reset_epoch`)
    and every replayed batch re-cut and re-push worker slices, so the
    fleet converges to the logged epoch right along with the
    coordinator.  The serving options (``seed=...``, ``shards=...``) are
    keywords or one ``options=`` value, as for the constructor.
    """
    options = resolve_options(options, keywords, sharding=service_cls.sharded)
    loaded = wal.load_snapshot()
    if loaded is None:
        service = service_cls.from_files(graph_path, index_path, options=options)
    else:
        graph, epoch, fingerprint = loaded
        source = None
        if index_path is not None:
            source = IndexSource(None, options.landmark_count, options.seed)
        service = service_cls(freeze_graph(graph), source, options=options)
        service.reset_epoch(epoch, expected_fingerprint=fingerprint)
    replay = wal.replay_into(service)
    service.audit_fingerprint()
    if attach:
        service.attach_wal(wal)
    return service, replay
