"""The content fingerprint's edge accumulator, and what the boot folds.

:func:`_edge_accumulator` mixes up to a pass of edges at once in 128-bit
lanes of one int; the property holds it to the per-edge splitmix64
finalizer, written out here, on column lengths either side of a pass.
The golden digests were taken from the per-edge implementation, so a
fingerprint stored by an older build (an index file, a WAL snapshot)
still matches.  A graph built by ``from_triples`` gets the accumulator
from the pass that finishes its rows, and its running value must stay
the scanned one through every later edge.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import random_labeled_graph
from repro.datasets.toy import figure3_graph
from repro.graph import FrozenGraph, KnowledgeGraph
from repro.graph.labeled_graph import _CHUNK, _edge_accumulator

MASK64 = (1 << 64) - 1
MAX_ID = 2**31 - 1


def splitmix_sum(edges) -> int:
    """The accumulator one edge at a time: the reference."""
    total = 0
    for s, label_id, t in edges:
        mixed = (
            s * 0x9E3779B97F4A7C15
            ^ label_id * 0xBF58476D1CE4E5B9
            ^ t * 0x94D049BB133111EB
        ) & MASK64
        mixed ^= mixed >> 30
        mixed = (mixed * 0xBF58476D1CE4E5B9) & MASK64
        total += mixed ^ mixed >> 27
    return total & MASK64


def columns(edges) -> tuple[list[int], list[int], list[int]]:
    return tuple(map(list, zip(*edges))) if edges else ([], [], [])


LENGTHS = st.one_of(
    st.sampled_from([0, 1, 4095, 4096, 4097, 8193]), st.integers(0, 40)
)


class TestLanes:
    @settings(deadline=None)
    @given(
        length=LENGTHS,
        width=st.sampled_from([2, 2**8, MAX_ID + 1]),
        rng=st.randoms(use_true_random=False),
    )
    def test_equals_the_per_edge_finalizer(self, length, width, rng):
        edges = [
            (rng.randrange(width), rng.randrange(width), rng.randrange(width))
            for _ in range(length)
        ]
        assert _edge_accumulator(*columns(edges)) == splitmix_sum(edges)

    @pytest.mark.parametrize("length", [1, 4095, 4096, 4097, 8193])
    @pytest.mark.parametrize("corner", [0, MAX_ID])
    def test_every_id_at_a_corner(self, length, corner):
        # All-ones ids fill each lane's low 31 bits; a shift that spilled
        # into the next lane would show here first.
        edges = [(corner, corner, corner)] * length
        assert _edge_accumulator(*columns(edges)) == splitmix_sum(edges)

    def test_single_edge_terms_sum_to_the_whole(self):
        edges = [(i, i % 3, 2 * i) for i in range(5000)]
        whole = _edge_accumulator(*columns(edges))
        parts = sum(_edge_accumulator(*columns([edge])) for edge in edges)
        assert whole == parts & MASK64


#: A small fixed graph: two labels, a duplicate triple, a two-group row.
TRIPLES = [("a", "p", "b"), ("b", "q", "c"), ("a", "q", "c"),
           ("c", "p", "a"), ("a", "p", "b")]


class TestGoldenFingerprints:
    """Values taken from the per-edge accumulator, before the lanes."""

    def test_the_figure_3_graph(self):
        graph = figure3_graph()
        assert graph.content_fingerprint() == "835460746de2c6f6"
        assert graph.scan_fingerprint() == "835460746de2c6f6"
        assert graph.freeze().content_fingerprint() == "835460746de2c6f6"

    @pytest.mark.parametrize("frozen", [False, True])
    def test_a_loaded_graph(self, frozen):
        graph = KnowledgeGraph.from_triples(TRIPLES, frozen=frozen)
        assert isinstance(graph, FrozenGraph) is frozen
        assert graph._edge_acc == 13309929999210846144
        assert graph.content_fingerprint() == "c8f93950b94ff77d"
        assert graph.scan_fingerprint() == "c8f93950b94ff77d"


def hub_triples(seed: int) -> list[tuple[str, str, str]]:
    """Triples with rows past a pass on both sides of a fold: a hub of
    5 000 out-edges, many one- and multi-label rows, and duplicates."""
    rng = random.Random(seed)
    labels = [f"l{i}" for i in range(12)]
    triples = [("hub", rng.choice(labels[:2]), f"v{i}") for i in range(5000)]
    for _ in range(9000):
        triples.append((f"v{rng.randrange(3000)}", rng.choice(labels),
                        f"v{rng.randrange(3000)}"))
    triples += triples[::50]
    rng.shuffle(triples)
    return triples


class TestTheBootFolds:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_the_folded_sum_is_the_scanned_one(self, frozen):
        graph = KnowledgeGraph.from_triples(hub_triples(1), frozen=frozen)
        assert graph.num_edges > 2 * _CHUNK
        assert graph._edge_acc == splitmix_sum(graph.edges())

    def test_the_first_fingerprint_after_boot_reads_no_edge(self, monkeypatch):
        graph = KnowledgeGraph.from_triples(hub_triples(2), frozen=True)
        expected = graph.scan_fingerprint()

        def refuse(self):
            raise AssertionError("the boot's first fingerprint scanned the edges")

        monkeypatch.setattr(FrozenGraph, "edges", refuse)
        assert graph.content_fingerprint() == expected

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**16),
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(0, 39), st.integers(0, 3),
                      st.integers(0, 39)),
            max_size=30,
        ),
    )
    def test_the_running_value_stays_the_scanned_one(self, seed, operations):
        graph = random_labeled_graph(40, 2.0, 4, rng=seed)
        loaded = KnowledgeGraph.from_triples(
            graph.edges_named(), vertices=graph.vertex_names(),
            labels=graph.labels.names(),
        )
        assert loaded._edge_acc is not None
        for add, s, label_id, t in operations:
            if add:
                loaded.add_edge_ids(s, label_id, t)
            else:
                loaded.remove_edge_ids(s, label_id, t)
            assert loaded.content_fingerprint() == loaded.scan_fingerprint()
        snapshot = loaded.freeze()
        names = list(loaded.vertex_names())
        labels = list(loaded.labels.names())
        for add, s, label_id, t in operations:
            op = "remove" if add else "add"
            snapshot, _, _ = snapshot.derive(
                [(names[s], labels[label_id], names[t], op)]
            )
            assert snapshot.content_fingerprint() == snapshot.scan_fingerprint()
