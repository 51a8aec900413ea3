"""The one name → evaluator registry.

Every place that offers an algorithm by name — ``LSCRSession``, the
service planner, ``python -m repro query|serve --algorithm`` and the
serving options table — reads this mapping, so the set of names cannot
drift between them.
"""

from __future__ import annotations

import inspect
import random
from typing import Any

from repro.core.base import LSCRAlgorithm
from repro.core.ins import INS
from repro.core.meet import MeetSearch
from repro.core.naive import NaiveTwoProcedure
from repro.core.uis import UIS
from repro.core.uis_star import UISStar
from repro.graph.labeled_graph import KnowledgeGraph

__all__ = ["ALGORITHMS", "make_algorithm"]

ALGORITHMS: dict[str, type[LSCRAlgorithm]] = {
    "uis": UIS,
    "uis*": UISStar,
    "ins": INS,
    "meet": MeetSearch,
    "naive": NaiveTwoProcedure,
}


def make_algorithm(
    name: str, graph: KnowledgeGraph, *, seed: int | None = None, **search: Any
) -> LSCRAlgorithm:
    """Construct the evaluator registered under ``name`` on ``graph``.

    ``search`` offers the optional collaborators (``index``,
    ``candidate_cache``); each evaluator receives the ones its
    constructor declares, so a caller need not know which of them UIS*
    or INS takes and UIS does not.  ``seed`` becomes the shuffle
    ``rng`` of an evaluator that declares one (UIS*/INS — the paper's
    disordered ``V(S, G)``); no other evaluator is handed a generator.
    """
    evaluator = ALGORITHMS[name]
    accepted = inspect.signature(evaluator).parameters
    if seed is not None and "rng" in accepted:
        search["rng"] = random.Random(seed)
    return evaluator(
        graph, **{key: value for key, value in search.items() if key in accepted}
    )
