"""Seeded inputs: the graph, the two query pools, the request streams and
the update schedule.

``seed`` is the only source of randomness; the same seed gives
byte-identical request lists (``test_ladder.py`` asserts it).  The server
receives only the TSV file and the requests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate

from repro.datasets.lubm import ALL_CONSTRAINTS
from repro.graph.labeled_graph import KnowledgeGraph

from ladder import spec
from ladder.oracle import Oracle

EdgeBatch = list[tuple[str, str, str, str]]
#: Bump when a change to this module alters what a seed generates, so
#: pools cached on disk by an older version are not reused.
POOL_VERSION = 1


def _rng(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose, so resizing one pool never
    shifts the draws of another."""
    return random.Random(f"ladder:{seed}:{purpose}")


def _encode(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class PoolQuery:
    spec: dict
    body: bytes  # the POST /query body, also one member of a /batch body
    expected: bool


def build_pool(oracle: Oracle, seed: int, kind: str, size: int) -> list[PoolQuery]:
    """``size`` distinct queries of one kind, with their oracle answers.

    Uniform (source, target), 40-80 % of the label universe, constraint
    drawn from LUBM S1-S5.  A draw is "hard" when the label-feasible
    forward closure of its source holds at least ``HARD_FACTOR *
    log2|V|`` vertices — the paper's search-tree-size filter, about a
    quarter of draws — and "light" otherwise; only draws of the asked
    kind are kept.
    """
    graph = oracle.graph
    rng = _rng(seed, kind)
    threshold = spec.HARD_FACTOR * math.log2(graph.num_vertices)
    names = list(graph.vertex_names())
    labels = sorted(graph.labels.names())
    constraints = [ALL_CONSTRAINTS[key] for key in sorted(ALL_CONSTRAINTS)]
    fewest = math.ceil(0.4 * len(labels))
    most = int(0.8 * len(labels))
    pool: list[PoolQuery] = []
    seen: set[bytes] = set()
    while len(pool) < size:
        query = {
            "source": rng.choice(names),
            "target": rng.choice(names),
            "labels": sorted(rng.sample(labels, rng.randint(fewest, most))),
            "constraint": rng.choice(constraints),
        }
        body = _encode(query)
        if body in seen:
            continue
        forward = oracle.forward_closure(
            graph.vid(query["source"]), graph.label_mask(query["labels"])
        )
        if (len(forward) >= threshold) != (kind == "hard"):
            continue
        seen.add(body)
        pool.append(PoolQuery(query, body, oracle.answer(query, forward)))
    return pool


def pool_document(pool: list[PoolQuery]) -> list:
    """The JSON form a pool is cached in."""
    return [[query.body.decode(), query.expected] for query in pool]


def load_pool(document: list) -> list[PoolQuery]:
    return [
        PoolQuery(json.loads(body), body.encode(), bool(expected))
        for body, expected in document
    ]


# A stream is a list of requests; a request is a tuple of pool indices —
# one index is a POST /query, more are the members of one POST /batch.
Request = tuple[int, ...]


def once_stream(pool_size: int, batch_every: int) -> list[Request]:
    """Every pool query at most once, in groups of ``batch_every - 1``
    singles and one batch."""
    singles = batch_every - 1
    group = singles + spec.BATCH_SIZE
    stream: list[Request] = []
    for start in range(0, pool_size - group + 1, group):
        stream.extend((start + offset,) for offset in range(singles))
        stream.append(tuple(range(start + singles, start + group)))
    return stream


def zipf_stream(seed: int, pool_size: int, requests: int, batch_every: int) -> list[Request]:
    """Zipf(1.0) draws over the pool, every ``batch_every``-th a batch."""
    rng = _rng(seed, "zipf")
    weights = list(accumulate(1.0 / rank for rank in range(1, pool_size + 1)))
    population = range(pool_size)
    stream: list[Request] = []
    for position in range(requests):
        members = spec.BATCH_SIZE if position % batch_every == batch_every - 1 else 1
        stream.append(tuple(rng.choices(population, cum_weights=weights, k=members)))
    return stream


def request_body(pool: list[PoolQuery], request: Request) -> tuple[str, bytes]:
    """``(path, body)`` of one request."""
    if len(request) == 1:
        return "/query", pool[request[0]].body
    members = b",".join(pool[index].body for index in request)
    return "/batch", b'{"queries":[' + members + b"]}"


def update_schedule(seed: int, graph: KnowledgeGraph, batches: int) -> list[EdgeBatch]:
    """``batches`` edge batches of 10 operations each.

    Adds join existing vertices with an edge the graph does not hold;
    removes retract edges earlier batches added (the first batch, with
    nothing to retract, is all adds) — so every ack must report exactly
    the scheduled add/remove counts and no duplicate or missing edge.
    """
    rng = _rng(seed, "updates")
    names = list(graph.vertex_names())
    labels = sorted(graph.labels.names())
    live: list[tuple[str, str, str]] = []
    taken: set[tuple[str, str, str]] = set()
    schedule: list[EdgeBatch] = []
    for _ in range(batches):
        removes = min(spec.UPDATE_REMOVES, len(live))
        batch: EdgeBatch = []
        for _ in range(removes):
            edge = live.pop(rng.randrange(len(live)))
            batch.append((*edge, "remove"))
        while len(batch) < spec.UPDATE_ADDS + spec.UPDATE_REMOVES:
            edge = (rng.choice(names), rng.choice(labels), rng.choice(names))
            if edge in taken or graph.has_edge_named(*edge):
                continue
            taken.add(edge)
            batch.append((*edge, "add"))
        live.extend(edge[:3] for edge in batch if edge[3] == "add")
        rng.shuffle(batch)
        schedule.append(batch)
    return schedule


def update_body(batch: EdgeBatch) -> bytes:
    return _encode({"edges": [list(edge) for edge in batch]})
