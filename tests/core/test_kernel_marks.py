"""What the search kernels mark, pinned per query.

``passed_vertices`` is the ladder's ``core.passed_vertices_per_evaluation``
and, for Meet, also decides which side expands next, so a change that
keeps every verdict can still make a kernel walk more of the graph.
For 50 seeded random graphs this suite answers eight random queries each
with :class:`~repro.core.meet.MeetSearch` and
:class:`~repro.core.uis_star.UISStar` (engine candidate order) on the
frozen graph, and checks every ``(answer, passed_vertices, lcs_calls,
vsg_size)`` against ``tests/core/golden/kernel_marks.json``; the answer
is also checked against the naive oracle.

``PYTHONPATH=src:. python tests/core/test_kernel_marks.py`` rewrites the
golden file: run it only when a kernel is meant to mark differently, and
read the diff.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.meet import MeetSearch
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.core.uis_star import UISStar
from repro.datasets.synthetic import random_labeled_graph
from tests.service.test_agreement_service import SEEDS, random_specs

GOLDEN = Path(__file__).parent / "golden" / "kernel_marks.json"
KERNELS = {"meet": MeetSearch, "uis*": UISStar}
NUM_VERTICES, NUM_LABELS = 40, 3


def make_graph(seed: int):
    return random_labeled_graph(
        NUM_VERTICES, 3.0, NUM_LABELS, rng=seed, name=f"marks-{seed}"
    )


def queries(seed: int) -> list[LSCRQuery]:
    rng = random.Random(seed * 4099 + 3)
    return [
        LSCRQuery.create(*spec)
        for spec in random_specs(rng, NUM_LABELS, NUM_VERTICES)
    ]


def observed(seed: int) -> list[list]:
    """``[kernel, answer, passed_vertices, lcs_calls, vsg_size]`` per
    query and kernel, in a fixed order."""
    graph = make_graph(seed).freeze()
    rows = []
    for query in queries(seed):
        for name, kernel in KERNELS.items():
            result = kernel(graph).answer(query)
            rows.append([name, result.answer, result.passed_vertices,
                         result.lcs_calls, result.vsg_size])
    return rows


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_each_kernel_marks_what_it_marked(seed, golden):
    rows = observed(seed)
    assert rows == golden[str(seed)]
    oracle = NaiveTwoProcedure(make_graph(seed))
    for query, row in zip(queries(seed), rows[::len(KERNELS)]):
        assert row[1] is oracle.decide(query), query.describe()


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(str(seed))}: {json.dumps(observed(seed))}" for seed in SEEDS]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_golden()
