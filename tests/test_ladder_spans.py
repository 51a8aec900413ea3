"""The ladder's span names still resolve to code the server runs.

``benchmarks/ladder/spans.py`` times each layer from *outside* the
program: its ``install`` looks every entry of ``_METHODS`` up in the
owning class's own ``__dict__`` and every entry of ``_FUNCTIONS`` as a
module attribute, wraps what it finds, and — for a function — rebinds
every ``from m import f`` binding that loaded ``repro`` modules hold.
What it does not find it only notes (``recorder.missing``), and the
per-layer metric then reads 0 without failing anything but the
``bench-smoke`` traced run's ``no span for`` grep.  A method that was
renamed, moved to a base class or turned into a function goes missing
the same way, and so does a call that stops going through a
module-level binding.  This resolves every entry exactly as ``install``
does, read-only, in milliseconds.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "benchmarks/ladder/spans.py"


def load_spans():
    """``spans.py`` as a throwaway module (stdlib imports only; nothing
    under ``benchmarks/`` is put on ``sys.path`` or edited)."""
    spec = importlib.util.spec_from_file_location("_ladder_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()

#: Modules that call a wrapped function while serving or booting.  Each
#: must hold it as a module-level binding, because that binding is what
#: ``install`` rebinds.
CALLERS = {
    "graph.load": ["repro.service.app"],
    "graph.freeze": ["repro.service.app", "repro.service.epoch"],
    "index.build": ["repro.index.local_index"],
    "approx.bounds_build": ["repro.service.epoch"],
    "core.find_witness": ["repro.session"],
}


#: Pins whose code was deleted: the four of the shard fleet (one process
#: serves each graph), the witness tier's store (the router keeps only
#: its sound No) and the index repair (the service serves index-free).
#: The ladder keeps them until its own next change, and a traced run
#: lists them as missing; their metrics read 0 on every registered
#: workload.
RETIRED = frozenset(
    {
        "shard.answer", "shard.expand", "shard.worker_expand",
        "shard.worker_query", "approx.remember_witness", "index.repair",
    }
)


@pytest.mark.parametrize("name", sorted(SPANS._METHODS))
def test_method_is_defined_on_the_class_the_ladder_names(name):
    if name in RETIRED:
        pytest.skip(f"{name}: its code was deleted")
    module_name, class_name, method = SPANS._METHODS[name]
    owner = getattr(importlib.import_module(module_name), class_name)
    assert method in owner.__dict__, (
        f"span {name!r}: {class_name}.{method} is renamed or inherited — "
        "spans.install reads owner.__dict__ and would record nothing"
    )
    assert callable(owner.__dict__[method])


@pytest.mark.parametrize("name", sorted(SPANS._FUNCTIONS))
def test_function_is_bound_at_module_level_where_it_is_called(name):
    module_name, function = SPANS._FUNCTIONS[name]
    original = getattr(importlib.import_module(module_name), function)
    assert callable(original)
    for caller in CALLERS[name]:
        bound = vars(importlib.import_module(caller)).get(function)
        assert bound is original, (
            f"span {name!r}: {caller} no longer binds {function} at module "
            "level, so its calls dodge the ladder's wrapper"
        )


def test_each_retired_pin_names_deleted_code():
    """A retired pin's module is gone, or its class no longer has the
    method: none of them is a live entry point that was only renamed or
    moved to a base class."""
    assert RETIRED <= set(SPANS._METHODS)
    for name in sorted(RETIRED):
        module_name, class_name, method = SPANS._METHODS[name]
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        owner = getattr(module, class_name, None)
        assert owner is None or not hasattr(owner, method), name


def test_every_wrapped_function_has_its_callers_listed():
    assert set(CALLERS) == set(SPANS._FUNCTIONS)
