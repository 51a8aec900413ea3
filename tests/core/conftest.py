"""Shared fixtures for algorithm tests."""

from __future__ import annotations

import random

import pytest

from repro.core.base import LSCRAlgorithm
from repro.core.ins import INS
from repro.core.meet import MeetSearch
from repro.core.naive import NaiveTwoProcedure
from repro.core.uis import UIS
from repro.core.uis_star import UISStar
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.local_index import build_local_index

ALGORITHM_NAMES = ("Naive", "UIS", "UIS*", "INS", "Meet")


def make_algorithm(name: str, graph: KnowledgeGraph, seed: int = 0) -> LSCRAlgorithm:
    """Instantiate one algorithm (INS builds its index on the spot)."""
    if name == "Naive":
        return NaiveTwoProcedure(graph)
    if name == "UIS":
        return UIS(graph)
    if name == "UIS*":
        return UISStar(graph, rng=random.Random(seed))
    if name == "INS":
        index = build_local_index(graph, k=max(1, graph.num_vertices // 4), rng=seed)
        return INS(graph, index, rng=random.Random(seed))
    if name == "Meet":
        return MeetSearch(graph)
    raise ValueError(name)


@pytest.fixture(params=ALGORITHM_NAMES)
def algorithm_name(request) -> str:
    """Parametrises a test over every algorithm."""
    return request.param
