"""Serialized graph slices: the on-disk (and on-wire) form of a shard.

A slice is one frozen graph plus its border table
(:class:`~repro.shard.partitioner.GraphSlice`), so one versioned JSON
document captures everything a worker process needs to host the slice
*without* the full graph:

* the **plan metadata** (``shard_of`` ownership, regions per shard) and
  its canonical hash (:func:`plan_fingerprint`), so a coordinator and a
  worker can prove they were cut from the same placement before
  composing answers;
* the **interning tables** (every vertex name in id order, every label
  name in id order) — slice targets and the ownership array speak
  global ids, and the co-located fast path answers by name;
* the owned vertices' **adjacency** in deterministic (owned vertex,
  ascending label) order — from which the slice graph rebuilds
  identically — plus the border table and peer shards for
  cross-checking;
* the **epoch id and content fingerprint** of the graph the slice was
  cut from, which is what slice-epoch propagation compares.

Determinism is the contract: :func:`slice_document` builds the document
in one canonical order, so ``dump → load → dump`` is byte-identical and
a slice file doubles as a content-addressable artifact.  Files land via
:func:`~repro.utils.persist.atomic_write_json` — the same crash-durable
write-fsync-rename helper the WAL snapshots use — and every read
failure (truncation, version skew, malformed structure, plan-hash or
border-table mismatch) raises
:class:`~repro.exceptions.SliceFileError` instead of letting a worker
boot on garbage.

The same document, minus the file, is the payload of the versioned
``POST /shard/<id>/update`` wire: the coordinator writes a shard's
document straight from the epoch's graph with :func:`slice_document`
after an update batch; the worker rebuilds the slice with
:func:`slice_from_document`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro._version import __version__
from repro.exceptions import SliceFileError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.shard.partitioner import GraphSlice, ShardPlan, border_table
from repro.utils.persist import atomic_write_json

__all__ = [
    "SLICE_FORMAT_VERSION",
    "SLICE_WIRE_VERSION",
    "SliceFile",
    "dump_slice",
    "load_slice",
    "plan_fingerprint",
    "slice_document",
    "slice_from_document",
]

#: On-disk format of slice files; bumped on any layout change so a
#: worker refuses a file written by an incompatible build.
SLICE_FORMAT_VERSION = 1

#: Version of the ``/shard/<id>`` descriptor + ``/shard/<id>/update``
#: wire protocol; the coordinator's startup handshake compares it.
#: 2: a slice-less prepare names the slice epoch it ``extends`` and the
#: query reply echoes ``slice_epoch``.  Both keys are additive, but an
#: answer is exact only if *both* ends enforce them — a version-1 worker
#: would accept any bare bump — so mixed fleets are refused at handshake.
SLICE_WIRE_VERSION = 2

_KIND = "repro-graph-slice"


def plan_fingerprint(plan: ShardPlan) -> str:
    """Canonical sha256 of a shard plan's placement decisions.

    Two deployments agree on this hash iff every vertex is owned by the
    same shard and every region is placed identically — exactly the
    condition under which their slices compose into one graph.
    """
    canonical = json.dumps(
        _plan_document(plan), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _plan_document(plan: ShardPlan) -> dict:
    return {
        "num_shards": plan.num_shards,
        "shard_of": list(plan.shard_of),
        "regions_by_shard": [list(group) for group in plan.regions_by_shard],
        "region_shard": {
            str(landmark): shard
            for landmark, shard in sorted(plan.region_shard.items())
        },
    }


def _plan_from_document(document: dict) -> ShardPlan:
    return ShardPlan(
        num_shards=int(document["num_shards"]),
        shard_of=tuple(int(owner) for owner in document["shard_of"]),
        regions_by_shard=tuple(
            tuple(int(landmark) for landmark in group)
            for group in document["regions_by_shard"]
        ),
        region_shard={
            int(landmark): int(shard)
            for landmark, shard in document["region_shard"].items()
        },
    )


def slice_document(
    graph: KnowledgeGraph,
    plan: ShardPlan,
    shard_id: int,
    *,
    epoch: int,
    fingerprint: str,
) -> dict:
    """The canonical JSON document for shard ``shard_id`` at one epoch.

    Reads the owned vertices' out-rows from ``graph``, whichever graph
    holds them: the epoch's whole graph when a coordinator or ``repro
    cut`` writes a slice, the slice graph itself when a worker
    re-serializes one.  Field order and every inner ordering are fixed
    — names and labels ascending by id, adjacency rows in owned-vertex
    order with label-ascending groups — which is what makes the
    dump→load→dump roundtrip byte-identical.
    """
    names: list[str] = []
    for position, name in enumerate(graph.vertex_names()):
        if not isinstance(name, str):
            raise SliceFileError(
                f"cannot serialize slice {shard_id}: vertex id "
                f"{position} has a non-string name {name!r}"
            )
        names.append(name)
    if len(names) != plan.num_vertices:
        raise SliceFileError(
            f"cannot serialize slice {shard_id}: plan covers "
            f"{plan.num_vertices} vertices but the graph has {len(names)}"
        )
    owned = plan.owned_by(shard_id)
    adjacency = [
        [
            [label_id, list(graph.out_by_label(vid, label_id))]
            for label_id in sorted(graph.out_labels(vid))
        ]
        for vid in owned
    ]
    border, peers = border_table(graph, plan.shard_of, shard_id, owned)
    return {
        "format_version": SLICE_FORMAT_VERSION,
        "kind": _KIND,
        "build": {"version": __version__, "wire_version": SLICE_WIRE_VERSION},
        "graph_name": str(graph.name),
        "shard_id": shard_id,
        "epoch": int(epoch),
        "fingerprint": fingerprint,
        "plan_hash": plan_fingerprint(plan),
        "plan": _plan_document(plan),
        "labels": list(graph.labels.names()),
        "vertex_names": names,
        "adjacency": adjacency,
        "num_edges": sum(len(targets) for row in adjacency for _, targets in row),
        "border_targets": [[vid, list(targets)] for vid, targets in border.items()],
        "peer_shards": list(peers),
    }


@dataclass
class SliceFile:
    """A deserialized slice plus the deployment metadata it shipped with."""

    slice: GraphSlice
    plan: ShardPlan
    shard_id: int
    epoch: int
    fingerprint: str
    plan_hash: str
    build: dict
    path: Path | None = None

    def document(self) -> dict:
        """Re-serialize (canonically; byte-identical to the source)."""
        return slice_document(
            self.slice.graph,
            self.plan,
            self.shard_id,
            epoch=self.epoch,
            fingerprint=self.fingerprint,
        )

    def describe(self) -> dict:
        """JSON-ready identity block for descriptors and handshakes."""
        return {
            "shard": self.shard_id,
            "epoch": self.epoch,
            "fingerprint": self.fingerprint,
            "plan_hash": self.plan_hash,
            "build": dict(self.build),
        }


def slice_from_document(document: dict, *, source: str = "document") -> SliceFile:
    """Rebuild a :class:`GraphSlice` from its canonical document.

    Reconstructs the interning tables (all global vertex names in id
    order, all labels in id order), replays the slice's adjacency into
    them and freezes the result: that one graph is the slice, and its
    deterministic row layout guarantees it re-serializes to the same
    bytes.  Any structural problem (version skew, plan-hash
    disagreement, edge-count or border-table mismatch, malformed JSON
    shapes) raises :class:`SliceFileError`.
    """
    try:
        version = document["format_version"]
        kind = document["kind"]
    except (TypeError, KeyError):
        raise SliceFileError(
            f"{source}: not a slice document (missing format_version/kind)"
        ) from None
    if kind != _KIND:
        raise SliceFileError(f"{source}: kind is {kind!r}, expected {_KIND!r}")
    if version != SLICE_FORMAT_VERSION:
        raise SliceFileError(
            f"{source}: slice format version {version!r} is not supported "
            f"by this build (expected {SLICE_FORMAT_VERSION})"
        )
    try:
        plan = _plan_from_document(document["plan"])
        shard_id = int(document["shard_id"])
        epoch = int(document["epoch"])
        fingerprint = document["fingerprint"]
        plan_hash = document["plan_hash"]
        build = dict(document.get("build") or {})
        graph_name = document["graph_name"]
        labels = document["labels"]
        vertex_names = document["vertex_names"]
        adjacency = document["adjacency"]
        num_edges = int(document["num_edges"])
        border = document["border_targets"]
        peers = [int(shard) for shard in document["peer_shards"]]
    except (TypeError, KeyError, ValueError) as error:
        raise SliceFileError(f"{source}: malformed slice document: {error}") from None
    if not isinstance(fingerprint, str) or not isinstance(plan_hash, str):
        raise SliceFileError(
            f"{source}: fingerprint and plan_hash must be strings"
        )
    if not 0 <= shard_id < plan.num_shards:
        raise SliceFileError(
            f"{source}: shard_id {shard_id} outside plan of "
            f"{plan.num_shards} shards"
        )
    if len(vertex_names) != plan.num_vertices:
        raise SliceFileError(
            f"{source}: {len(vertex_names)} vertex names but the plan "
            f"covers {plan.num_vertices} vertices"
        )
    expected_hash = plan_fingerprint(plan)
    if plan_hash != expected_hash:
        raise SliceFileError(
            f"{source}: plan_hash {plan_hash[:12]}… does not match the "
            f"embedded plan ({expected_hash[:12]}…) — plan metadata was "
            "altered after serialization"
        )
    graph = KnowledgeGraph(graph_name)
    try:
        for name in vertex_names:
            graph.add_vertex(name)
        if graph.num_vertices != len(vertex_names):
            raise SliceFileError(f"{source}: duplicate vertex names in document")
        for label in labels:
            graph.labels.intern(label)
        owned = plan.owned_by(shard_id)
        if len(adjacency) != len(owned):
            raise SliceFileError(
                f"{source}: {len(adjacency)} adjacency rows but shard "
                f"{shard_id} owns {len(owned)} vertices"
            )
        num_labels = graph.num_labels
        for position, row in enumerate(adjacency):
            vid = owned[position]
            for label_id, group_targets in row:
                if not 0 <= label_id < num_labels:
                    raise SliceFileError(
                        f"{source}: adjacency row {position} uses label id "
                        f"{label_id} outside the {num_labels}-label universe"
                    )
                for target in group_targets:
                    if not 0 <= target < plan.num_vertices:
                        raise SliceFileError(
                            f"{source}: adjacency row {position} targets "
                            f"vertex {target} outside the graph"
                        )
                    if not graph.add_edge_ids(vid, label_id, target):
                        raise SliceFileError(
                            f"{source}: duplicate edge ({vid}, {label_id}, "
                            f"{target}) in adjacency"
                        )
    except (TypeError, ValueError):
        raise SliceFileError(f"{source}: malformed adjacency rows") from None
    graph_slice = GraphSlice(graph.freeze(), plan, shard_id)
    if graph_slice.num_edges != num_edges:
        raise SliceFileError(
            f"{source}: document claims {num_edges} edges but the rebuilt "
            f"slice has {graph_slice.num_edges}"
        )
    try:
        declared_border = {
            int(vid): tuple(int(target) for target in targets)
            for vid, targets in border
        }
    except (TypeError, ValueError):
        raise SliceFileError(f"{source}: malformed border table") from None
    if declared_border != graph_slice.border_targets:
        raise SliceFileError(
            f"{source}: border table does not match the rebuilt slice — "
            "adjacency and ownership metadata disagree"
        )
    if tuple(sorted(peers)) != graph_slice.peer_shards:
        raise SliceFileError(
            f"{source}: peer shards {sorted(peers)} do not match the "
            f"rebuilt slice's {list(graph_slice.peer_shards)}"
        )
    return SliceFile(
        slice=graph_slice,
        plan=plan,
        shard_id=shard_id,
        epoch=epoch,
        fingerprint=fingerprint,
        plan_hash=plan_hash,
        build=build,
        path=None,
    )


def dump_slice(document: dict, path: str | Path) -> int:
    """Write one :func:`slice_document` atomically + durably; returns
    the file's byte size."""
    return atomic_write_json(document, Path(path))


def load_slice(path: str | Path) -> SliceFile:
    """Read and validate one slice file; :class:`SliceFileError` on any defect."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise SliceFileError(f"cannot read slice file {path}: {error}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise SliceFileError(
            f"slice file {path} is corrupt or truncated: {error}"
        ) from None
    if not isinstance(document, dict):
        raise SliceFileError(f"slice file {path} is not a JSON object")
    loaded = slice_from_document(document, source=str(path))
    loaded.path = path
    return loaded
