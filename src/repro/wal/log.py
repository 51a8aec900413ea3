"""The durable update log: JSONL segments + compaction snapshots.

Layout — one directory per tenant under the WAL root::

    <root>/<tenant>/
        snapshot.json          # newest compaction snapshot (atomic JSON)
        wal-000000000001.log   # JSONL segments, named by first epoch
        wal-000000000042.log

Each segment line is one record::

    {"seq": 7, "epoch": 42, "fingerprint": "9f3c...", "ts": 1.7e9,
     "edges": [["u", "knows", "v", "add"], ["u", "old", "w", "remove"]]}

``epoch`` is the serving epoch the batch *produced* and ``fingerprint``
the graph's content digest at that epoch
(:meth:`~repro.graph.labeled_graph.KnowledgeGraph.content_fingerprint`),
so replay does not merely re-apply edits — it *proves* reconvergence:
after applying a record the rebuilt graph's digest must equal the
recorded one, or replay refuses
(:class:`~repro.exceptions.WalReplayError`) instead of silently serving
a diverged graph.  Determinism makes that check meaningful: vertex and
label interning order is a function of batch order alone, so replaying
the same records over the same base graph reproduces identical ids and
therefore identical fingerprints.

Ordering contract (see
:meth:`~repro.service.app.QueryService.apply_updates`): a record is
appended — and fsynced — *after* its epoch is published and *before*
the client's ack.  An acknowledged batch is always durable; a crash
between publish and append can only lose a batch whose ack never left,
giving at-most-once semantics with no torn state.  No-op batches don't
bump the epoch and are never appended, so consecutive records always
step the epoch by exactly one — which is what lets replay detect a
missing segment as a gap.

Compaction bounds restart cost: every ``compact_every`` appended records
the current graph is written to ``snapshot.json`` (atomically and
durably, via :func:`~repro.utils.persist.atomic_write_json`) and every
segment whose records are all covered by the snapshot is deleted.  The
two steps are deliberately ordered snapshot-then-delete: a crash between
them leaves extra segments whose records replay simply skips (their
epochs are ≤ the snapshot's).  The snapshot stores vertex names, label
names and edge id-triples *in id order*, so rebuilding interns
everything identically and the fingerprint chain stays intact.

A torn final append (power loss mid-line) shows up as a partial last
line in the newest segment; readers tolerate exactly that — a writer
truncates it before its first append, and anything malformed elsewhere
raises :class:`~repro.exceptions.WalCorruptionError`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import WalCorruptionError, WalReplayError
from repro.graph.csr import FrozenGraph
from repro.graph.labeled_graph import KnowledgeGraph
from repro.utils.persist import atomic_write_json, fsync_directory

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "TenantWal",
    "UpdateWal",
    "WalRecord",
    "graph_from_snapshot",
    "snapshot_document",
]

#: Compact after this many appended records by default: snapshots stay
#: frequent enough to bound replay, rare enough that their O(|V| + |E|)
#: cost amortises to ~nothing per batch.
DEFAULT_COMPACT_EVERY = 256

#: On-disk format of both segments' records and ``snapshot.json``.
_WAL_VERSION = 1

_SNAPSHOT_NAME = "snapshot.json"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record (one acknowledged ``/edges`` batch)."""

    seq: int
    epoch: int
    fingerprint: str
    ts: float
    edges: tuple[tuple[str, str, str, str], ...]


def snapshot_document(
    graph: KnowledgeGraph, *, tenant: str, epoch: int, fingerprint: str
) -> dict:
    """The JSON compaction snapshot for ``graph`` at ``epoch``.

    Vertices and labels are listed *in id order* and edges as id
    triples, so :func:`graph_from_snapshot` re-interns everything with
    identical ids — the property the fingerprint chain depends on.  The
    RDFS schema is not persisted (it is derivable from the TSV the
    deployment started from, and no serving path mutates it).

    ``fingerprint`` is the graph's running digest; writing every edge
    out is the moment to check it against a rescan of them, and a
    disagreement raises :class:`~repro.exceptions.WalReplayError`
    instead of producing a snapshot no replica could ever verify.
    """
    rescanned = graph.scan_fingerprint()
    if rescanned != fingerprint:
        raise WalReplayError(
            f"refusing to snapshot epoch {epoch}: fingerprint {fingerprint} "
            f"!= {rescanned} rescanned from the graph's edges"
        )
    return {
        "format_version": _WAL_VERSION,
        "tenant": tenant,
        "epoch": epoch,
        "fingerprint": fingerprint,
        "graph": {
            "name": graph.name,
            "vertices": list(graph.vertex_names()),
            "labels": list(graph.labels.names()),
            "edges": [list(edge) for edge in graph.edges()],
        },
    }


def graph_from_snapshot(document: dict) -> FrozenGraph:
    """Boot the snapshot's graph with identical vertex/label ids.

    The vertex and label lists are interned in id order first, then the
    id triples stream through the one loader
    (:meth:`KnowledgeGraph.from_triples`, ``frozen=True``): each row is
    cut and dropped as it is finished, so recovery never holds a dict
    graph beside the snapshot it serves.
    """
    try:
        info = document["graph"]
        vertices, labels = info["vertices"], info["labels"]
        return KnowledgeGraph.from_triples(
            (
                (vertices[s_id], labels[label_id], vertices[t_id])
                for s_id, label_id, t_id in info["edges"]
            ),
            name=info["name"],
            vertices=vertices,
            labels=labels,
            frozen=True,
        )
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise WalCorruptionError(
            f"malformed WAL snapshot document: {error}"
        ) from error


class TenantWal:
    """One tenant's write-ahead log directory (segments + snapshot).

    Safe for one writer (the leader service, which already serialises
    appends under its update lock) plus any number of concurrent readers
    (followers, recovery of a second process) — readers never write, and
    every writer mutation is either an O_APPEND write of one line or an
    atomic rename.
    """

    def __init__(
        self,
        root: str | Path,
        tenant: str,
        *,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        fsync: bool = True,
    ) -> None:
        if compact_every < 1:
            raise WalCorruptionError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.tenant = tenant
        self.directory = Path(root) / tenant
        self.directory.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every
        self.fsync = fsync
        #: Epoch → content fingerprint for every epoch this log has
        #: witnessed (snapshot + records).  The warm-cache ancestor check
        #: (:meth:`QueryService.load_snapshot`) verifies against this.
        self.fingerprints: dict[int, str] = {}
        #: Epochs present as *records* (snapshot excluded) — a follower
        #: uses this to tell "records still reach me" from "the leader
        #: compacted past me and only the snapshot covers that epoch".
        self.record_epochs: set[int] = set()
        self._handle = None
        self._repaired = False
        self._scan()

    # ------------------------------------------------------------------
    # directory state
    # ------------------------------------------------------------------

    def _segment_paths(self) -> list[Path]:
        return sorted(
            entry
            for entry in self.directory.iterdir()
            if entry.name.startswith(_SEGMENT_PREFIX)
            and entry.name.endswith(_SEGMENT_SUFFIX)
        )

    @property
    def snapshot_path(self) -> Path:
        return self.directory / _SNAPSHOT_NAME

    def _scan(self) -> None:
        """(Re)build the in-memory view from the directory contents."""
        self.fingerprints = {}
        self.record_epochs = set()
        self.snapshot_epoch: int | None = None
        self.snapshot_fingerprint: str | None = None
        #: Highest epoch witnessed (snapshot or record); 0 = empty log.
        self.last_epoch = 0
        self.truncated_tail = False
        self._records = 0
        self._next_seq = 1
        self._since_snapshot = 0
        document = self._read_snapshot_document(require=False)
        if document is not None:
            self.snapshot_epoch = document["epoch"]
            self.snapshot_fingerprint = document["fingerprint"]
            self.fingerprints[self.snapshot_epoch] = self.snapshot_fingerprint
            self.last_epoch = self.snapshot_epoch
        for record in self.read_records():
            self.fingerprints[record.epoch] = record.fingerprint
            self.record_epochs.add(record.epoch)
            self.last_epoch = max(self.last_epoch, record.epoch)
            self._records += 1
            self._next_seq = max(self._next_seq, record.seq + 1)
            if self.snapshot_epoch is None or record.epoch > self.snapshot_epoch:
                self._since_snapshot += 1

    def reload(self) -> None:
        """Re-scan the directory (follower polling a leader's log)."""
        self.close()
        self._scan()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _read_snapshot_document(self, *, require: bool) -> dict | None:
        path = self.snapshot_path
        if not path.is_file():
            if require:
                raise WalCorruptionError(f"no WAL snapshot at {path}")
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            if document.get("format_version") != _WAL_VERSION:
                raise WalCorruptionError(
                    f"unsupported WAL snapshot version "
                    f"{document.get('format_version')!r} in {path}"
                )
            document["epoch"] = int(document["epoch"])
            document["fingerprint"] = str(document["fingerprint"])
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as error:
            raise WalCorruptionError(
                f"cannot read WAL snapshot {path}: {error}"
            ) from error
        return document

    def load_snapshot(self) -> tuple[FrozenGraph, int, str] | None:
        """The newest compaction snapshot as ``(graph, epoch, fingerprint)``.

        ``None`` when the log has never compacted (replay then starts
        from the deployment's base graph at epoch 0).
        """
        document = self._read_snapshot_document(require=False)
        if document is None:
            return None
        graph = graph_from_snapshot(document)
        return graph, document["epoch"], document["fingerprint"]

    def read_records(self):
        """Yield every decodable :class:`WalRecord` in epoch order.

        A partial *final* line of the *final* segment is tolerated (the
        shape of a crash mid-append) and flips :attr:`truncated_tail`;
        any other undecodable line raises
        :class:`~repro.exceptions.WalCorruptionError`.
        """
        self.truncated_tail = False
        segments = self._segment_paths()
        for segment_index, segment in enumerate(segments):
            last_segment = segment_index == len(segments) - 1
            try:
                raw = segment.read_bytes()
            except OSError as error:
                raise WalCorruptionError(
                    f"cannot read WAL segment {segment}: {error}"
                ) from error
            lines = raw.split(b"\n")
            # A well-formed segment ends with a newline, so the final
            # split piece is empty; anything else is a torn tail.
            body, tail = lines[:-1], lines[-1]
            for line_index, line in enumerate(body):
                if not line.strip():
                    continue
                try:
                    document = json.loads(line)
                    record = WalRecord(
                        seq=int(document["seq"]),
                        epoch=int(document["epoch"]),
                        fingerprint=str(document["fingerprint"]),
                        ts=float(document["ts"]),
                        edges=tuple(
                            (str(s), str(label), str(t), str(op))
                            for s, label, t, op in document["edges"]
                        ),
                    )
                except (
                    json.JSONDecodeError, KeyError, TypeError, ValueError,
                ) as error:
                    raise WalCorruptionError(
                        f"malformed record at {segment}:{line_index + 1}: "
                        f"{error}"
                    ) from error
                yield record
            if tail.strip():
                if not last_segment:
                    raise WalCorruptionError(
                        f"segment {segment} has a torn line but is not the "
                        "newest segment"
                    )
                self.truncated_tail = True

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _repair_tail(self) -> None:
        """Truncate a torn final line before the first append.

        Without this a new record would be concatenated onto the torn
        bytes, corrupting *both* records instead of losing the already
        lost one.
        """
        segments = self._segment_paths()
        if not segments:
            return
        newest = segments[-1]
        raw = newest.read_bytes()
        if not raw or raw.endswith(b"\n"):
            return
        keep = raw.rfind(b"\n") + 1  # 0 when no newline at all
        with open(newest, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())

    def append(
        self,
        edges,
        *,
        epoch: int,
        fingerprint: str,
        graph: KnowledgeGraph,
    ) -> WalRecord:
        """Durably append one acknowledged batch; maybe compact.

        Called by :meth:`QueryService.apply_updates` under its update
        lock, after the new epoch is published.  ``graph`` is the
        post-batch graph — the compaction snapshot source if this append
        crosses the ``compact_every`` threshold.
        """
        if not self._repaired:
            self._repair_tail()
            self._repaired = True
        record = WalRecord(
            seq=self._next_seq,
            epoch=epoch,
            fingerprint=fingerprint,
            ts=time.time(),
            edges=tuple(tuple(edge) for edge in edges),
        )
        line = json.dumps(
            {
                "seq": record.seq,
                "epoch": record.epoch,
                "fingerprint": record.fingerprint,
                "ts": record.ts,
                "edges": [list(edge) for edge in record.edges],
            },
            separators=(",", ":"),
        )
        if self._handle is None:
            path = self.directory / (
                f"{_SEGMENT_PREFIX}{epoch:012d}{_SEGMENT_SUFFIX}"
            )
            fresh = not path.exists()
            self._handle = open(path, "ab")
            if fresh:
                fsync_directory(self.directory)
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._next_seq += 1
        self._records += 1
        self._since_snapshot += 1
        self.fingerprints[epoch] = fingerprint
        self.record_epochs.add(epoch)
        self.last_epoch = max(self.last_epoch, epoch)
        if self._since_snapshot >= self.compact_every:
            self.compact(graph, epoch=epoch, fingerprint=fingerprint)
        return record

    def compact(
        self, graph: KnowledgeGraph, *, epoch: int, fingerprint: str
    ) -> None:
        """Snapshot the graph at ``epoch``, then drop covered segments.

        Crash-safe by ordering: the snapshot lands atomically first, so
        a kill between the two steps leaves extra segments whose records
        replay skips (their epochs are ≤ the snapshot's).  Re-running
        compaction later converges to the clean state.
        """
        self._write_snapshot(graph, epoch=epoch, fingerprint=fingerprint)
        self._drop_obsolete_segments(epoch)

    def _write_snapshot(
        self, graph: KnowledgeGraph, *, epoch: int, fingerprint: str
    ) -> None:
        atomic_write_json(
            snapshot_document(
                graph, tenant=self.tenant, epoch=epoch, fingerprint=fingerprint
            ),
            self.snapshot_path,
        )
        self.snapshot_epoch = epoch
        self.snapshot_fingerprint = fingerprint
        self.fingerprints[epoch] = fingerprint
        self._since_snapshot = 0

    def _drop_obsolete_segments(self, snapshot_epoch: int) -> None:
        """Delete every segment fully covered by the epoch snapshot.

        A segment is covered when its newest intact record's epoch is ≤
        ``snapshot_epoch``.  The active handle is closed first; the next
        append opens a fresh segment named by its epoch.
        """
        self.close()
        dropped = False
        for segment in self._segment_paths():
            newest = 0
            for line in segment.read_bytes().split(b"\n"):
                if not line.strip():
                    continue
                try:
                    newest = max(newest, int(json.loads(line)["epoch"]))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue  # torn tail — doesn't extend the segment
            if newest <= snapshot_epoch:
                segment.unlink()
                dropped = True
        if dropped:
            fsync_directory(self.directory)

    # ------------------------------------------------------------------
    # replay + observability
    # ------------------------------------------------------------------

    def replay_into(self, service) -> dict:
        """Re-apply every record beyond the service's current epoch.

        The service must already hold the log's base state — the
        compaction snapshot's graph renumbered via
        :meth:`QueryService.reset_epoch`, or the deployment's base graph
        at epoch 0 (see :func:`repro.wal.recover_service`).  Records at
        or below the current epoch are skipped (the crash-mid-compaction
        leftovers); a gap raises
        :class:`~repro.exceptions.WalReplayError`, as does any post-apply
        epoch or fingerprint mismatch.  Attach the log *after* this
        (:meth:`QueryService.attach_wal`) so replay never re-appends.
        """
        applied = 0
        skipped = 0
        for record in self.read_records():
            current = service.epoch.epoch_id
            if record.epoch <= current:
                skipped += 1
                continue
            if record.epoch != current + 1:
                raise WalReplayError(
                    f"epoch gap in WAL replay: at epoch {current}, next "
                    f"record is epoch {record.epoch} (seq {record.seq})"
                )
            summary = service.apply_updates(record.edges)
            if summary["epoch"] != record.epoch:
                raise WalReplayError(
                    f"record seq {record.seq} expected to produce epoch "
                    f"{record.epoch}, produced {summary['epoch']} — the "
                    "base graph does not match the log"
                )
            if service.epoch.fingerprint != record.fingerprint:
                raise WalReplayError(
                    f"fingerprint mismatch after replaying epoch "
                    f"{record.epoch}: rebuilt {service.epoch.fingerprint}, "
                    f"logged {record.fingerprint} — the base graph does "
                    "not match the log"
                )
            applied += 1
        return {
            "applied": applied,
            "skipped": skipped,
            "epoch": service.epoch.epoch_id,
            "truncated_tail": self.truncated_tail,
        }

    def describe(self) -> dict:
        """JSON-ready state for ``/healthz``, ``/stats`` and metrics."""
        return {
            "directory": str(self.directory),
            "records": self._records,
            "segments": len(self._segment_paths()),
            "epoch": self.last_epoch,
            "snapshot_epoch": self.snapshot_epoch,
            "compact_every": self.compact_every,
        }


class UpdateWal:
    """The WAL root: one :class:`TenantWal` per tenant directory."""

    def __init__(
        self,
        root: str | Path,
        *,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        fsync: bool = True,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every
        self.fsync = fsync
        self._tenants: dict[str, TenantWal] = {}

    def tenant(self, name: str) -> TenantWal:
        """The (cached) per-tenant log for ``name``."""
        wal = self._tenants.get(name)
        if wal is None:
            wal = self._tenants[name] = TenantWal(
                self.root,
                name,
                compact_every=self.compact_every,
                fsync=self.fsync,
            )
        return wal

    def close(self) -> None:
        for wal in self._tenants.values():
            wal.close()
