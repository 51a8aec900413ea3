"""Read replication: a follower tails a leader's WAL directory.

The log doubles as the replication carrier: every record already names
the epoch it produced and the content fingerprint that proves it, so a
follower that re-applies records in order republishes *the same epochs*
— same ids, same fingerprints — and serves them through the unchanged
tenant routes.  No second protocol, no leader-side awareness: the
follower is just another reader of the directory (shared disk, NFS, or
a file-sync channel), and the fingerprint check turns any divergence
into a hard error instead of silently stale answers.

:class:`WalFollower` wraps one read-only service and one
:class:`~repro.wal.log.TenantWal` view of the leader's directory.
``poll_once`` re-scans the directory, resyncs from the compaction
snapshot when the leader compacted past the records this replica still
needed (:meth:`QueryService.replace_graph`), then replays the remaining
records exactly like crash recovery does and, when that moved the
replica, audits the tip's fingerprint against a rescan of its edges.  ``start`` runs that on a
daemon thread at a fixed interval; ``describe`` exposes the cached lag —
epochs behind the log tip, and seconds since the oldest unapplied
record was written — which :meth:`QueryService.health` folds into
``/healthz`` and the Prometheus renderer into
``repro_follower_lag_epochs`` / ``repro_follower_lag_seconds``.

Writes are refused upstream: the CLI sets ``service.read_only = True``
so ``POST /edges`` answers a structured 403
(:class:`~repro.exceptions.ReadOnlyServiceError`) while this tailer —
which calls :meth:`apply_updates` directly, below the HTTP gate — keeps
republishing.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.exceptions import WalError
from repro.wal.log import TenantWal

_LOG = logging.getLogger("repro.wal.follower")

__all__ = ["DEFAULT_POLL_INTERVAL", "WalFollower"]

#: Seconds between directory polls; sub-second by default so follower
#: lag stays bounded by I/O, not by the timer.
DEFAULT_POLL_INTERVAL = 0.5


class WalFollower:
    """Tail one tenant's WAL into one read-only service."""

    def __init__(
        self,
        service,
        wal: TenantWal,
        *,
        interval: float = DEFAULT_POLL_INTERVAL,
    ) -> None:
        self.service = service
        self.wal = wal
        self.interval = interval
        self.records_applied = 0
        self.last_poll_at: float | None = None
        self.last_error: str | None = None
        #: Set when :meth:`stop` could not join the polling thread — the
        #: poll is wedged in I/O (dead NFS mount, hung snapshot read).
        #: Surfaced in :meth:`describe` and the ``repro_follower_stuck``
        #: gauge so operators see the zombie instead of a silent leak.
        self.stuck = False
        self._lag_epochs = 0
        self._lag_seconds = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    def poll_once(self) -> dict:
        """One tailing step: rescan, maybe resync, replay, measure lag.

        Deterministic and synchronous — the tests drive it directly; the
        background thread just calls it on a timer.  Raises
        :class:`~repro.exceptions.WalError` subclasses on divergence or
        corruption (the thread records those in :attr:`last_error`
        instead of dying silently).
        """
        self.wal.reload()
        service = self.service
        resynced = False
        snapshot_epoch = self.wal.snapshot_epoch
        if (
            snapshot_epoch is not None
            and snapshot_epoch > service.epoch.epoch_id
            and not self._records_reach(service.epoch.epoch_id + 1)
        ):
            # The leader compacted past what we still needed: the only
            # way forward is to adopt the snapshot wholesale.
            loaded = self.wal.load_snapshot()
            assert loaded is not None  # snapshot_epoch came from it
            graph, epoch, fingerprint = loaded
            service.replace_graph(
                graph, epoch, expected_fingerprint=fingerprint
            )
            resynced = True
        replayed = self.wal.replay_into(service)
        if resynced or replayed["applied"]:
            # Once per catch-up, not per record: the replayed epochs
            # were checked by their running fingerprints.
            service.audit_fingerprint()
        self.records_applied += replayed["applied"]
        self._lag_epochs = max(0, self.wal.last_epoch - service.epoch.epoch_id)
        self._lag_seconds = self._pending_age() if self._lag_epochs else 0.0
        self.last_poll_at = time.time()
        self.last_error = None
        return {
            "applied": replayed["applied"],
            "skipped": replayed["skipped"],
            "resynced": resynced,
            "epoch": service.epoch.epoch_id,
            "lag_epochs": self._lag_epochs,
        }

    def _records_reach(self, epoch: int) -> bool:
        """Whether the on-disk *records* include ``epoch``.

        Deliberately not :attr:`TenantWal.fingerprints` — that map also
        holds the snapshot's epoch, which would make a freshly compacted
        log (snapshot at exactly ``epoch``, segments dropped) look
        replayable when the only way forward is adopting the snapshot.
        """
        return epoch in self.wal.record_epochs

    def _pending_age(self) -> float:
        """Age of the oldest record this replica has not applied yet."""
        current = self.service.epoch.epoch_id
        oldest: float | None = None
        for record in self.wal.read_records():
            if record.epoch > current:
                oldest = record.ts
                break
        if oldest is None:
            return 0.0
        return max(0.0, time.time() - oldest)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the polling thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="wal-follower", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the polling thread (idempotent); True when it exited.

        A poll wedged in I/O cannot be interrupted from Python, so a
        join past ``timeout`` abandons the (daemon) thread rather than
        hanging shutdown forever — but loudly: :attr:`stuck` flips,
        :attr:`last_error` names the condition, and a warning is logged.
        The old code returned silently here, leaking the thread with no
        trace anywhere.
        """
        self._stop.set()
        thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        if thread.is_alive():
            self.stuck = True
            self.last_error = (
                f"follower thread failed to stop within {timeout:.1f}s; "
                f"a poll is wedged (stale filesystem?) and the daemon "
                f"thread was abandoned"
            )
            _LOG.warning(
                "wal follower for %s stuck: poll did not finish within "
                "%.1fs of stop(); abandoning daemon thread",
                self.wal.directory,
                timeout,
            )
            return False
        self._thread = None
        return True

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except WalError as error:
                # Keep serving (reads are still consistent at the last
                # applied epoch) but surface the stall through /healthz.
                self.last_error = str(error)
                self.last_poll_at = time.time()
            self._stop.wait(self.interval)

    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready replication status (cached from the last poll)."""
        document = {
            "role": "follower",
            "epoch": self.service.epoch.epoch_id,
            "wal_epoch": self.wal.last_epoch,
            "lag_epochs": self._lag_epochs,
            "lag_seconds": self._lag_seconds,
            "records_applied": self.records_applied,
            "interval_seconds": self.interval,
            "last_poll_at": self.last_poll_at,
            "directory": str(self.wal.directory),
            "stuck": self.stuck,
        }
        if self.last_error is not None:
            document["error"] = self.last_error
        return document
