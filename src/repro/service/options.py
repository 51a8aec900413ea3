"""The serving options table: every per-service option, declared once.

One row of :data:`OPTIONS` per option — name, type, default, range,
the option it ``requires``, CLI flag and help — and one
validator, :func:`build_options`, that turns what a front door received
into the frozen :class:`ServiceOptions` value the service and
``/stats`` carry from then on.  The doors *read* the table:

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
never an int), a number that is not finite, an out-of-range value or a
broken ``requires`` is one structured error naming the option as the caller spelled it.

Deployment settings (addresses, file paths, the update gate, the WAL)
are not per-service options and stay plain ``argparse`` in
:mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, make_dataclass
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

_KIND_NAMES = {int: "an integer", float: "a number"}


@dataclass(frozen=True)
class Option:
    """One row of the options table."""

    name: str
    #: ``int`` or ``float``.
    kind: type
    default: Any = None
    #: Inclusive lower and upper bound (an upper bound always comes
    #: with a lower one).
    ge: float | None = None
    le: float | None = None
    #: Another row that must be switched on for a non-default value here
    #: to mean anything (``max_queue`` without ``max_concurrent``).
    requires: str | None = None
    #: CLI spelling; None keeps the option off the command line.
    flag: str | None = None
    metavar: str | None = None
    #: ``{default}`` expands to the row's default.
    help: str = ""

    def problem(self, value: Any) -> str | None:
        """Why ``value`` is unacceptable here (None when it is fine)."""
        kind = self.kind
        # isinstance(True, int) holds; a JSON ``true`` is no seed.
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            return f"must be {_KIND_NAMES[kind]}"
        # /stats would echo an inf as JSON's invalid Infinity.
        if kind is float and not math.isfinite(value):
            return "must be a finite number"
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
)

_ROWS = {row.name: row for row in OPTIONS}


#: The validated, immutable value of every row — what a service holds as
#: ``service.options`` and ``/stats`` echoes as ``config``.  Its fields
#: *are* the table's rows, so there is no second list of names or
#: defaults to keep in step.  ``as_dict()`` is the JSON-ready echo.
ServiceOptions = make_dataclass(
    "ServiceOptions",
    [(row.name, Any, field(default=row.default)) for row in OPTIONS],
    namespace={"as_dict": asdict},
    frozen=True,
)


def build_options(
    values: Mapping[str, Any],
    *,
    error: type[ReproError] = ServiceConfigError,
    cli: bool = False,
) -> ServiceOptions:
    """Validate ``values`` against the table into a :class:`ServiceOptions`.

    A None value means "not given" and takes the row's default.  Every
    refusal is one ``error`` —
    :class:`~repro.exceptions.ServiceConfigError` at startup,
    :class:`~repro.exceptions.BadRequestError` for a request body —
    naming the option by its flag when ``cli`` and by its quoted key
    otherwise.
    """

    def spelled(row: Option) -> str:
        return row.flag if cli else repr(row.name)

    chosen: dict[str, Any] = {}
    for name, value in values.items():
        row = _ROWS.get(name)
        if row is None:
            raise error(f"unknown option {name!r}; choose from {', '.join(_ROWS)}")
        if value is None:
            continue
        problem = row.problem(value)
        if problem is not None:
            raise error(f"{spelled(row)} {problem}, got {value!r}")
        chosen[name] = value
    for name, value in chosen.items():
        row = _ROWS[name]
        if row.requires is None or value == row.default:
            continue
        needed = _ROWS[row.requires]
        if not chosen.get(needed.name, needed.default):
            raise error(f"{spelled(row)} requires {spelled(needed)}")
    return ServiceOptions(**chosen)


def resolve_options(
    options: ServiceOptions | None, keywords: Mapping[str, Any]
) -> ServiceOptions:
    """The value behind a constructor's ``options=`` / ``**keywords`` pair,
    validated by the one :func:`build_options` call either way.

    A given value is checked as the keywords of its rows would be, so a
    hand-built ``ServiceOptions(cache_size=-5)`` gets the keyword path's
    error.
    """
    if options is None:
        return build_options(keywords)
    if keywords:
        raise TypeError(
            f"pass options= or option keywords, not both (got {', '.join(keywords)})"
        )
    return build_options(options.as_dict())


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one flag per table row that has one to ``parser``.

    Every flag parses to None when absent, so the table's default is
    applied in one place (:func:`build_options`), not once more here.
    """
    for row in OPTIONS:
        if row.flag is None:
            continue
        parser.add_argument(
            row.flag,
            dest=row.name,
            default=None,
            type=row.kind,
            # The flag's own name, as argparse would derive it without dest=.
            metavar=row.metavar or row.flag.lstrip("-").replace("-", "_").upper(),
            help=row.help.format(default=row.default),
        )


def options_from_args(args: argparse.Namespace) -> ServiceOptions:
    """The :class:`ServiceOptions` a parsed ``serve`` command line asks for."""
    given = {row.name: getattr(args, row.name) for row in OPTIONS if row.flag}
    return build_options(given, cli=True)
