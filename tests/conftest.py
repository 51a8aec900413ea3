"""Shared fixtures for the whole test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.constraints.substructure import SubstructureConstraint
from repro.datasets.lubm import generate_dataset
from repro.datasets.toy import figure3_constraint, figure3_graph
from repro.graph.labeled_graph import KnowledgeGraph

#: The deeper run of ``tests/test_lifecycle_machine.py`` (CI's
#: ``differential`` job): every topology, >= 10x tier-1's examples, drawn
#: from ``--hypothesis-seed`` so a failure names the seed that found it.
#: ``pytest --hypothesis-profile=differential --hypothesis-seed=N``.
settings.register_profile(
    "differential",
    max_examples=250,
    stateful_step_count=40,
    deadline=None,
    print_blob=True,
)


@pytest.fixture()
def g0() -> KnowledgeGraph:
    """The Figure 3 running-example graph."""
    return figure3_graph()


@pytest.fixture()
def s0() -> SubstructureConstraint:
    """The Figure 3 substructure constraint S0."""
    return figure3_constraint()


@pytest.fixture(scope="session")
def lubm_d0() -> KnowledgeGraph:
    """A small LUBM-like dataset shared across tests (read-only)."""
    return generate_dataset("D0", rng=0)
