"""The serving options table: every per-service option, declared once.

One row of :data:`OPTIONS` per option — name, type, default, range,
the option it ``requires``, CLI flag and help — and one
validator, :func:`build_options`, that turns what a front door received
into the frozen :class:`ServiceOptions` value the service, its shard
workers and ``/stats`` carry from then on.  The doors *read* the table:

* ``python -m repro serve`` generates its per-service flags from it
  (:func:`add_arguments`) and validates the parsed ones in one call
  (:func:`options_from_args`), naming a bad one by its flag;
* ``POST /tenants`` validates the JSON body with the same call, naming
  a bad one by its key and answering 400;
* ``QueryService(graph, index, **keywords)`` — and ``from_files``,
  ``TenantRegistry.register_files``, ``recover_service`` — validate
  their keywords, or the rows of an already-built ``options=`` value,
  with the same call (:func:`resolve_options`).

Whichever door it came through, an unknown key, a wrong type (a bool is
never an int), a number that is not finite, an out-of-range value, a
broken ``requires`` or a shard count without one worker URL per shard
is one structured error naming the option as the caller spelled it.

Deployment settings (addresses, file paths, the update gate, the WAL)
are not per-service options and stay plain ``argparse`` in
:mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, make_dataclass, replace
from typing import Any

from repro.exceptions import ReproError, ServiceConfigError
from repro.obs.flight import DEFAULT_SLOW_LOG_SIZE, DEFAULT_SLOW_MS
from repro.service.cache import DEFAULT_CACHE_SIZE

__all__ = [
    "OPTIONS",
    "Option",
    "ServiceOptions",
    "add_arguments",
    "build_options",
    "options_from_args",
    "resolve_options",
]

_KIND_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    list: "a non-empty array of strings",
}


@dataclass(frozen=True)
class Option:
    """One row of the options table."""

    name: str
    #: ``bool``, ``int``, ``float`` or ``list`` (of strings).
    kind: type
    default: Any = None
    #: Inclusive lower, exclusive lower and inclusive upper bound (an
    #: upper bound always comes with an inclusive lower one).
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    #: Another row that must be switched on for a non-default value here
    #: to mean anything (``max_queue`` without ``max_concurrent``).
    requires: str | None = None
    #: CLI spelling; None keeps the option off the command line.  A bool
    #: row defaults to False and its flag switches it on.
    flag: str | None = None
    metavar: str | None = None
    #: ``{default}`` expands to the row's default.
    help: str = ""
    #: True for rows that only a sharded service
    #: (:class:`~repro.shard.service.ShardedQueryService`) reads.
    sharding: bool = False

    def problem(self, value: Any) -> str | None:
        """Why ``value`` is unacceptable here (None when it is fine)."""
        kind = self.kind
        if kind is list:
            typed = (
                isinstance(value, (list, tuple))
                and bool(value)
                and all(isinstance(item, str) and item for item in value)
            )
        else:
            # isinstance(True, int) holds; a JSON ``true`` is no seed.
            typed = isinstance(value, (int, float) if kind is float else kind) and (
                kind is bool or not isinstance(value, bool)
            )
        if not typed:
            return f"must be {_KIND_NAMES[kind]}"
        # A timeout or interval of inf overflows the thread waits that
        # take it, and /stats would echo it as JSON's invalid Infinity.
        if kind is float and not math.isfinite(value):
            return "must be a finite number"
        if self.gt is not None and not value > self.gt:
            return f"must be > {self.gt:g}"
        if self.le is not None and not self.ge <= value <= self.le:
            return f"must be within [{self.ge:g}, {self.le:g}]"
        if self.ge is not None and not value >= self.ge:
            return f"must be >= {self.ge:g}"
        return None


OPTIONS: tuple[Option, ...] = (
    Option("landmark_count", int, ge=1, flag="--k",
           help="landmark count when building"),
    Option("seed", int, 0, flag="--seed"),
    Option("cache_size", int, DEFAULT_CACHE_SIZE, ge=0, flag="--cache-size",
           help="entries each result, V(S, G) and witness cache keeps; "
                "the oldest insertion is evicted first"),
    # Refuse larger POST /batch and POST /edges bodies: a memory guard
    # an embedding application may move, not a tuning knob with a flag.
    Option("max_batch", int, 4096, ge=1),
    Option("trace_sample", float, 0.0, ge=0, le=1, flag="--trace-sample",
           metavar="RATE",
           help="fraction of requests traced server-side for the slow-query "
           "flight recorder (0.0-1.0; clients can always force a trace with "
           "?trace=1)"),
    Option("slow_ms", float, DEFAULT_SLOW_MS, ge=0, flag="--slow-ms", metavar="MS",
           help="queries at or above this latency enter the flight recorder "
           "at GET /debug/slow (default {default:g})"),
    Option("slow_log_size", int, DEFAULT_SLOW_LOG_SIZE, ge=1,
           flag="--slow-log-size", metavar="N",
           help="worst-N slow queries kept per tenant (default {default:g})"),
    Option("max_concurrent", int, ge=1, flag="--max-concurrent", metavar="N",
           help="admission control: at most N query/batch requests execute "
           "concurrently per tenant; excess requests queue up to --max-queue "
           "deep and beyond that are shed with a structured 429 + Retry-After"),
    Option("max_queue", int, 0, ge=0, requires="max_concurrent",
           flag="--max-queue", metavar="N",
           help="admission queue depth in front of --max-concurrent "
           "(default {default:g}: shed immediately when all slots are busy)"),
    Option("shards", int, 0, ge=0, flag="--shards", metavar="N", sharding=True,
           help="serve --graph through a region-sharded scatter-gather "
           "coordinator over N shard workers, one --worker-url each "
           "({default:g} = unsharded)"),
    # A plain service answers a batch's members in the request thread;
    # only a sharded one, whose members wait on shard workers, pools them.
    Option("max_workers", int, ge=1, requires="shards", flag="--workers",
           sharding=True,
           help="threads answering a batch's members on a sharded service "
           "(requires --shards)"),
    Option("worker_urls", list, requires="shards", flag="--worker-url",
           metavar="URL", sharding=True,
           help="attach the shard worker (a 'serve --worker' process over a "
           "slice file 'repro cut' wrote) at URL; repeat once per shard, in "
           "shard-id order"),
    Option("probe_interval", float, 5.0, ge=0, requires="worker_urls",
           flag="--worker-probe-interval", metavar="SECS", sharding=True,
           help="seconds between coordinator health probes of --worker-url "
           "workers (feeds the per-worker circuit breakers and re-pushes "
           "slices to workers that restarted stale; default {default:g}, "
           "0 = never)"),
    Option("scatter_timeout", float, gt=0, requires="shards",
           flag="--shard-timeout", metavar="SECS", sharding=True,
           help="upper bound on every wait for a shard worker — each expand "
           "and the co-located probe, at any fleet size — even when the "
           "request has no deadline; a call past it is abandoned and counts "
           "as a breaker failure (a failed shard for an expand, a miss for "
           "the probe) instead of hanging the query (requires --shards)"),
    Option("degraded_answers", bool, False, requires="shards",
           flag="--degraded-answers", sharding=True,
           help="when a shard stays down past its retry budget, answer over "
           "the surviving shards instead of failing with 503: responses "
           "carry a 'degraded' field whose verdict is \"reachable\" (still "
           "proven) or \"unknown\" (not a no); requires --shards"),
)

_ROWS = {row.name: row for row in OPTIONS}


def _unsharded(options: "ServiceOptions") -> "ServiceOptions":
    return replace(
        options, **{row.name: row.default for row in OPTIONS if row.sharding}
    )


#: The validated, immutable value of every row — what a service holds as
#: ``service.options`` and ``/stats`` echoes as ``config``.  Its fields
#: *are* the table's rows, so there is no second list of names or
#: defaults to keep in step.  ``as_dict()`` is the JSON-ready echo;
#: ``unsharded()`` resets the sharding rows (what ``--tenant`` tenants
#: receive next to a sharded default tenant).
ServiceOptions = make_dataclass(
    "ServiceOptions",
    [(row.name, Any, field(default=row.default)) for row in OPTIONS],
    namespace={"as_dict": asdict, "unsharded": _unsharded},
    frozen=True,
)


def build_options(
    values: Mapping[str, Any],
    *,
    sharding: bool = False,
    error: type[ReproError] = ServiceConfigError,
    cli: bool = False,
) -> ServiceOptions:
    """Validate ``values`` against the table into a :class:`ServiceOptions`.

    A None value means "not given" and takes the row's default.
    ``sharding`` admits the sharding rows (they are unknown keys to a
    door that can only build a plain service).  Every refusal is one
    ``error`` — :class:`~repro.exceptions.ServiceConfigError` at
    startup, :class:`~repro.exceptions.BadRequestError` for a request
    body — naming the option by its flag when ``cli`` and by its quoted
    key otherwise.
    """
    rows = {name: row for name, row in _ROWS.items() if sharding or not row.sharding}

    def spelled(row: Option) -> str:
        return row.flag if cli else repr(row.name)

    chosen: dict[str, Any] = {}
    for name, value in values.items():
        row = rows.get(name)
        if row is None:
            raise error(f"unknown option {name!r}; choose from {', '.join(rows)}")
        if value is None:
            continue
        problem = row.problem(value)
        if problem is not None:
            raise error(f"{spelled(row)} {problem}, got {value!r}")
        chosen[name] = tuple(value) if row.kind is list else value
    for name, value in chosen.items():
        row = rows[name]
        if row.requires is None or value == row.default:
            continue
        needed = rows[row.requires]
        if not chosen.get(needed.name, needed.default):
            raise error(f"{spelled(row)} requires {spelled(needed)}")
    problem = sharding and _fleet_problem(
        chosen.get("shards", 0),
        chosen.get("worker_urls"),
        (spelled(rows["shards"]), spelled(rows["worker_urls"])),
    )
    if problem:
        raise error(problem)
    return ServiceOptions(**chosen)


def _fleet_problem(
    shards: int,
    urls: tuple[str, ...] | None,
    names: tuple[str, str] = ("'shards'", "'worker_urls'"),
) -> str | None:
    """Why ``shards`` workers at ``urls`` make no fleet (None when they do):
    a sharded service holds no slice of its own, so it needs one worker
    URL per shard."""
    count = len(urls or ())
    if not shards or count == shards:
        return None
    return (
        f"{names[0]} {shards} needs exactly {shards} {names[1]} values, got "
        f"{count}: cut the slices with 'repro cut GRAPH --shards {shards} --out "
        f"DIR' and start one 'serve --worker DIR/shard-<id>.slice.json' per slice"
    )


def resolve_options(
    options: ServiceOptions | None, keywords: Mapping[str, Any], *, sharding: bool
) -> ServiceOptions:
    """The value behind a constructor's ``options=`` / ``**keywords`` pair,
    validated by the one :func:`build_options` call either way.

    A given value is checked as the keywords of its rows would be, so a
    hand-built ``ServiceOptions(cache_size=-5)`` gets the keyword path's
    error.  Without ``sharding`` its sharding rows must hold their
    defaults, or they are the unknown options they would be as keywords.
    """
    if options is None:
        return build_options(keywords, sharding=sharding)
    if keywords:
        raise TypeError(
            f"pass options= or option keywords, not both (got {', '.join(keywords)})"
        )
    values = {
        name: value
        for name, value in options.as_dict().items()
        if sharding
        or not _ROWS[name].sharding
        or (type(value), value) != (type(_ROWS[name].default), _ROWS[name].default)
    }
    return build_options(values, sharding=sharding)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one flag per table row that has one to ``parser``.

    Every flag parses to None when absent, so the table's default is
    applied in one place (:func:`build_options`), not once more here.
    """
    for row in OPTIONS:
        if row.flag is None:
            continue
        settings: dict[str, Any] = {
            "dest": row.name,
            "default": None,
            "help": row.help.format(default=row.default),
        }
        if row.kind is bool:
            settings["action"] = "store_true"
        else:
            settings["action"] = "append" if row.kind is list else "store"
            settings["type"] = str if row.kind is list else row.kind
            # The flag's own name, as argparse would derive it without dest=.
            settings["metavar"] = row.metavar or (
                row.flag.lstrip("-").replace("-", "_").upper()
            )
        parser.add_argument(row.flag, **settings)


def options_from_args(args: argparse.Namespace) -> ServiceOptions:
    """The :class:`ServiceOptions` a parsed ``serve`` command line asks for."""
    given = {row.name: getattr(args, row.name) for row in OPTIONS if row.flag}
    return build_options(given, sharding=True, cli=True)
