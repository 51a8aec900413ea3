"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the end-to-end workflow on TSV-serialised graphs
(see :mod:`repro.graph.io` for the format):

* ``generate`` — produce a LUBM-like / YAGO-like / random dataset;
* ``stats``    — describe a graph (sizes, degrees, label histogram);
* ``index``    — build and persist a local index (Algorithm 3);
* ``query``    — answer one LSCR query, optionally with a witness path;
* ``serve``    — serve LSCR queries over HTTP (:mod:`repro.service`).

Examples::

    python -m repro generate --lubm D1 --seed 0 --output d1.tsv
    python -m repro stats d1.tsv
    python -m repro index d1.tsv --output d1.index.json
    python -m repro query d1.tsv \
        --source "Department0.University0/FullProfessor0" \
        --target "University0" \
        --labels ub:worksFor,ub:subOrganizationOf \
        --constraint "SELECT ?x WHERE { ?x <ub:headOf> ?y . }" \
        --algorithm ins --index d1.index.json --witness
    python -m repro serve --graph d1.tsv --index d1.index.json --port 8080
    python -m repro serve --graph d1.tsv \
        --tenant yago=y.tsv:y.index.json --tenant toy=toy.tsv
    python -m repro serve --graph d1.tsv --warm-cache d1.cache.json

The second ``serve`` form hosts three graphs in one process: ``d1`` as
the default tenant behind the un-prefixed routes, the others behind
``/t/yago/...`` and ``/t/toy/...`` (lazy warm start on first query).
The last one warms the result cache from, and snapshots it back to,
``d1.cache.json``.  One process serves each graph whole.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.constraints.substructure import SubstructureConstraint
from repro.core.algorithms import ALGORITHMS, make_algorithm
from repro.core.query import LSCRQuery
from repro.core.witness import find_witness
from repro.datasets.lubm import SCALED_DATASETS, generate_dataset
from repro.datasets.synthetic import random_labeled_graph
from repro.datasets.yago import YagoConfig, generate_yago_like
from repro.exceptions import ReproError, ServiceConfigError
from repro.graph.io import dump_tsv, load_tsv
from repro.graph.stats import graph_stats, label_histogram
from repro.index.local_index import build_local_index
from repro.index.storage import load_local_index, save_local_index
from repro.service.app import QueryService
from repro.service.http import create_server
from repro.service.options import add_arguments, options_from_args
from repro.service.registry import DEFAULT_TENANT, TenantRegistry
from repro.wal import (
    DEFAULT_COMPACT_EVERY,
    DEFAULT_POLL_INTERVAL,
    UpdateWal,
    WalFollower,
    recover_service,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LSCR reachability queries on knowledge graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a dataset as TSV")
    kind = generate.add_mutually_exclusive_group(required=True)
    kind.add_argument(
        "--lubm",
        choices=sorted(SCALED_DATASETS),
        help="LUBM-like scaled dataset (D0..D5)",
    )
    kind.add_argument("--yago", type=int, metavar="ENTITIES", help="YAGO-like KG")
    kind.add_argument(
        "--random",
        nargs=3,
        type=float,
        metavar=("VERTICES", "DENSITY", "LABELS"),
        help="uniform random labeled graph",
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="TSV file to write")

    stats = commands.add_parser("stats", help="describe a TSV graph")
    stats.add_argument("graph", help="TSV graph file")
    stats.add_argument("--labels", action="store_true", help="print label histogram")

    index = commands.add_parser("index", help="build a local index (Algorithm 3)")
    index.add_argument("graph", help="TSV graph file")
    index.add_argument("--output", required=True, help="index JSON to write")
    index.add_argument("--k", type=int, default=None, help="landmark count")
    index.add_argument("--seed", type=int, default=0)

    query = commands.add_parser("query", help="answer one LSCR query")
    query.add_argument("graph", help="TSV graph file")
    query.add_argument("--source", required=True)
    query.add_argument("--target", required=True)
    query.add_argument(
        "--labels", required=True, help="comma-separated label constraint L"
    )
    query.add_argument(
        "--constraint",
        required=True,
        help="substructure constraint S as a SELECT ?x query",
    )
    query.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="uis"
    )
    query.add_argument(
        "--index", default=None, help="local index JSON (ins only; built if absent)"
    )
    query.add_argument(
        "--witness", action="store_true", help="also print a witness path"
    )

    serve = commands.add_parser(
        "serve", help="serve LSCR queries over HTTP (POST /query, /batch)"
    )
    serve.add_argument(
        "--graph",
        default=None,
        help="TSV graph file served as the default tenant "
        "(un-prefixed /query routes)",
    )
    serve.add_argument(
        "--index",
        default=None,
        help="local index JSON for --graph, read by the first request naming "
        "'ins' (built and saved there if missing); omit to serve "
        "index-free: every algorithm but 'ins'",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="NAME=GRAPH[:INDEX]",
        help="host an extra graph under /t/NAME/... (repeatable; warm-started "
        "lazily on its first query; without --graph the first --tenant also "
        "backs the un-prefixed routes)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 binds an ephemeral port"
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="budget for every /query and /batch request that doesn't pass "
        "its own ?deadline_ms= (expiry answers a structured 504 with "
        "partial accounting; default: no deadline)",
    )
    serve.add_argument(
        "--warm-cache",
        default=None,
        metavar="FILE",
        help="warm the default tenant's result cache and stats from FILE at "
        "startup (when it exists) and snapshot them back there on clean "
        "shutdown",
    )
    serve.add_argument(
        "--allow-updates",
        action="store_true",
        help="accept POST /edges live edge update batches — additions and "
        "{\"op\": \"remove\"} retractions (copy-on-write epoch swap; refused "
        "with 403 when off)",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="durable updates: replay the write-ahead log under DIR at "
        "startup (recovering the pre-crash epoch), then append every "
        "applied POST /edges batch there before acknowledging (requires "
        "--graph; incompatible with --follow)",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=DEFAULT_COMPACT_EVERY,
        metavar="N",
        help="WAL compaction cadence: snapshot the graph and drop covered "
        "log segments every N appended records (bounds restart cost)",
    )
    serve.add_argument(
        "--follow",
        default=None,
        metavar="DIR",
        help="serve as a read-only follower tailing the WAL a leader writes "
        "under DIR: republishes the leader's epochs, refuses POST /edges "
        "with a structured 403, and reports lag in /healthz and /metrics "
        "(requires --graph — the same base TSV the leader started from)",
    )
    serve.add_argument(
        "--follow-interval",
        type=float,
        default=DEFAULT_POLL_INTERVAL,
        metavar="SECS",
        help="seconds between follower polls of the --follow directory",
    )
    # One flag per row of the serving options table.
    add_arguments(serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "index":
            return _cmd_index(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.lubm:
        graph = generate_dataset(args.lubm, rng=args.seed)
    elif args.yago:
        graph = generate_yago_like(YagoConfig(num_entities=args.yago), rng=args.seed)
    else:
        vertices, density, labels = args.random
        graph = random_labeled_graph(int(vertices), density, int(labels), rng=args.seed)
    dump_tsv(graph, args.output)
    print(
        f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges "
        f"to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_tsv(args.graph, name=args.graph)
    print(graph_stats(graph).describe())
    if args.labels:
        for label, count in label_histogram(graph).items():
            print(f"  {label}: {count}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    graph = load_tsv(args.graph)
    index = build_local_index(graph, k=args.k, rng=args.seed)
    size = save_local_index(index, args.output)
    stats = index.stats()
    print(
        f"indexed {stats.num_landmarks} landmarks, {stats.total_entries} entries "
        f"in {stats.build_seconds:.2f}s; {size} bytes -> {args.output}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    # One-shot queries boot like the server: the search runs on the CSR
    # layout, and no dict graph is built only to be frozen.
    graph = load_tsv(args.graph, frozen=True)
    constraint = SubstructureConstraint.from_sparql(args.constraint)
    query = LSCRQuery.create(args.source, args.target, args.labels, constraint)
    index = None
    if args.algorithm == "ins":
        index = (
            load_local_index(args.index, graph)
            if args.index
            else build_local_index(graph)
        )
    result = make_algorithm(args.algorithm, graph, index=index).answer(query)
    print(
        f"{result.algorithm}: answer={result.answer} "
        f"time={result.seconds * 1000:.3f}ms "
        f"passed_vertices={result.passed_vertices}"
    )
    if args.witness and result.answer:
        witness = find_witness(graph, query)
        assert witness is not None
        print(f"witness (satisfying vertex: {witness.satisfying_vertex}):")
        if not witness.edges:
            print(f"  trivial path at {query.source}")
        for source, label, target in witness.edges:
            print(f"  {source} --{label}--> {target}")
    return 0 if result.answer else 1


def _parse_tenant_spec(spec: str) -> tuple[str, str, str | None]:
    """``NAME=GRAPH[:INDEX]`` → (name, graph path, index path or None)."""
    name, separator, paths = spec.partition("=")
    if not separator or not name or not paths:
        raise ServiceConfigError(
            f"invalid --tenant {spec!r}: expected NAME=GRAPH[:INDEX]"
        )
    graph_path, _, index_path = paths.partition(":")
    return name, graph_path, index_path or None


@contextmanager
def _collector_paused() -> Iterator[Callable[[], None]]:
    """Keep the cyclic collector out of a boot; yield the call that ends it.

    A boot allocates the whole graph, and every generation-2 pass over
    it is wasted: nothing it builds is garbage yet.  The yielded call
    freezes the boot heap — later passes skip it — and re-enables the
    collector if it was on; leaving the block unfreezes and restores
    the state found, so an in-process caller sees no change.
    """
    enabled = gc.isenabled()
    gc.disable()

    def booted() -> None:
        gc.freeze()
        if enabled:
            gc.enable()

    try:
        yield booted
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _cmd_serve(args: argparse.Namespace) -> int:
    with _collector_paused() as booted:
        return _serve(args, booted)


def _serve(args: argparse.Namespace, booted: Callable[[], None]) -> int:
    # Every per-service flag, range- and cross-checked against the one
    # table; what follows only checks how the deployment fits together.
    options = options_from_args(args)
    tenants = [_parse_tenant_spec(spec) for spec in args.tenant]
    if args.graph is None and not tenants:
        raise ServiceConfigError(
            "serve needs at least one graph: pass --graph and/or --tenant"
        )
    if args.wal is not None and args.follow is not None:
        raise ServiceConfigError(
            "--wal and --follow are mutually exclusive: a process either "
            "leads (writes the log) or follows (tails it)"
        )
    if (args.wal is not None or args.follow is not None) and args.graph is None:
        raise ServiceConfigError(
            "--wal/--follow require --graph (the base TSV the log's first "
            "record was written against)"
        )
    if args.follow is not None and args.allow_updates:
        raise ServiceConfigError(
            "--follow serves read-only; updates belong on the leader "
            "(drop --allow-updates)"
        )
    if args.compact_every < 1:
        raise ServiceConfigError(
            f"--compact-every must be >= 1, got {args.compact_every}"
        )
    # A NaN passes a "<= 0" check: the tailer's wait(nan) returns at
    # once, and a nan deadline never expires — refuse it, and infinity,
    # as ?deadline_ms= is refused.
    for flag, value in (
        ("--default-deadline-ms", args.default_deadline_ms),
        ("--follow-interval", args.follow_interval),
    ):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ServiceConfigError(
                f"{flag} must be a finite number > 0, got {value}"
            )
    # The default tenant (the one the un-prefixed PR 1 routes alias to)
    # is --graph when given, else the first --tenant; it loads eagerly so
    # the ready line below reports real sizes, the rest warm-start lazily.
    default_name = DEFAULT_TENANT if args.graph is not None else tenants[0][0]
    registry = TenantRegistry(default_tenant=default_name)
    update_wal = None
    tenant_wal = None
    replay = None
    if args.graph is not None:
        if args.wal is not None or args.follow is not None:
            # Leader and follower recover identically — snapshot (if
            # any) + record replay, fingerprint-verified — and differ
            # only in what happens next: the leader attaches the log so
            # new batches append, the follower tails it read-only.
            update_wal = UpdateWal(
                args.wal if args.wal is not None else args.follow,
                compact_every=args.compact_every,
            )
            tenant_wal = update_wal.tenant(DEFAULT_TENANT)
            default_service, replay = recover_service(
                tenant_wal,
                graph_path=args.graph,
                index_path=args.index,
                attach=args.wal is not None,
                options=options,
            )
        else:
            default_service = QueryService.from_files(
                args.graph, args.index, options=options
            )
        registry.add(DEFAULT_TENANT, default_service)
    for name, graph_path, index_path in tenants:
        registry.register_files(
            name, graph_path, index_path, options=options
        )

    follower = None
    if args.follow is not None:
        # The HTTP gate stays open (allow_updates=True below) so POST
        # /edges reaches the service and gets the follower's structured
        # 403 — "read-only replica" is a more actionable refusal than
        # "updates disabled" — while the tailer republishes below it.
        default_service.read_only = True
        follower = WalFollower(
            default_service, tenant_wal, interval=args.follow_interval
        )
        default_service.replication = follower

    server = create_server(
        registry, args.host, args.port,
        allow_updates=args.allow_updates or follower is not None,
        default_deadline_ms=args.default_deadline_ms,
    )
    host, port = server.server_address[:2]
    service = registry.get(default_name)
    if replay is not None:
        torn = ", tolerated a torn tail" if replay["truncated_tail"] else ""
        print(
            f"wal: replayed {replay['applied']} record(s) "
            f"(skipped {replay['skipped']}{torn}) to epoch "
            f"{replay['epoch']} of {tenant_wal.directory}",
            flush=True,
        )
    if args.warm_cache is not None and Path(args.warm_cache).is_file():
        # A stale warm cache (e.g. written after live updates the TSV on
        # disk never saw) must not block startup: the cache is an
        # optimisation, so refuse-and-continue beats refuse-and-die.
        # With a WAL, the log's epoch→fingerprint history additionally
        # admits snapshots that are verified *ancestors* of the replayed
        # tip — their stats carry over, their pre-tip result entries are
        # dropped instead of warmed stale.
        try:
            warmed = service.load_snapshot(
                args.warm_cache,
                epoch_fingerprints=(
                    tenant_wal.fingerprints if tenant_wal is not None else None
                ),
            )
        except ServiceConfigError as error:
            print(f"ignoring warm cache {args.warm_cache}: {error}", flush=True)
        else:
            stale = (
                f" (dropped {warmed['stale_results']} pre-tip entr"
                f"{'y' if warmed['stale_results'] == 1 else 'ies'})"
                if warmed.get("stale_results")
                else ""
            )
            print(
                f"warmed {warmed['results']} cached result(s) from "
                f"{args.warm_cache}{stale}",
                flush=True,
            )
    graph = service.graph
    # Described, not read: the first query naming ins reads the index
    # (service.index would load or build it here).
    index = service.epoch.describe_index()
    if index["loaded"]:
        index_note = f"{index['landmarks']} landmarks"
    else:
        index_note = "configured, not read yet" if index["configured"] else "none"
    print(
        f"loaded {graph.name}: |V|={graph.num_vertices} |E|={graph.num_edges} "
        f"|L|={graph.num_labels}; index: {index_note}; "
        f"default algorithm: {service.default_algorithm}",
        flush=True,
    )
    if len(registry) > 1:
        print(
            f"tenants: {', '.join(registry.names())} "
            f"(default: {default_name}; routes: /t/<tenant>/query)",
            flush=True,
        )
    if args.allow_updates:
        durable = (
            f", wal: {tenant_wal.directory} (compact every "
            f"{args.compact_every})"
            if args.wal is not None
            else ""
        )
        print(
            f"live updates: enabled (POST /edges, epoch-swapped{durable})",
            flush=True,
        )
    elif args.wal is not None:
        print(
            f"wal: attached at {tenant_wal.directory} (compact every "
            f"{args.compact_every}; POST /edges still needs --allow-updates)",
            flush=True,
        )
    if follower is not None:
        follower.start()
        print(
            f"follower: tailing {tenant_wal.directory} every "
            f"{args.follow_interval:g}s at epoch {service.epoch.epoch_id} "
            "(writes answered 403)",
            flush=True,
        )
    print(
        f"observability: GET /metrics, GET /debug/slow "
        f"(slow-ms={options.slow_ms:g}, "
        f"trace-sample={options.trace_sample:g})",
        flush=True,
    )
    resilience_notes = []
    if args.default_deadline_ms is not None:
        resilience_notes.append(
            f"default deadline {args.default_deadline_ms:g}ms"
        )
    if options.max_concurrent is not None:
        resilience_notes.append(
            f"max {options.max_concurrent} concurrent "
            f"(queue {options.max_queue}, then 429)"
        )
    if resilience_notes:
        print(f"fault tolerance: {'; '.join(resilience_notes)}", flush=True)
    bounds = service.epoch.bounds
    print(
        f"short-circuit router: bounds {bounds.mode} "
        f"({bounds.component_count} components)",
        flush=True,
    )
    booted()
    # Machine-readable ready line: tooling (and the tests) parse the port
    # from it, which is how --port 0 ephemeral binding stays usable.
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if follower is not None and not follower.stop():
            print(
                "warning: follower poll thread did not stop in time; "
                "abandoning it (see replication.stuck in /healthz)",
                flush=True,
            )
        if update_wal is not None:
            update_wal.close()
        if args.warm_cache is not None:
            size = service.save_snapshot(args.warm_cache)
            print(f"saved cache+stats snapshot ({size} bytes) to {args.warm_cache}",
                  flush=True)
    return 0
