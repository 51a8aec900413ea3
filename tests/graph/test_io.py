"""Tests for graph serialisation (TSV)."""

import copy
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.csr import CsrDirection, FrozenGraph
from repro.graph.io import (
    dump_tsv,
    dumps_tsv,
    load_tsv,
    loads_tsv,
)
from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.rdf import RDF_TYPE, RDFS_SUBCLASS_OF
from repro.graph.schema import RDFSchema
from tests.helpers import graph_from_edges

EDGES = [
    ("alice", "rdf:type", "Person"),
    ("Cat", "rdfs:subClassOf", "Animal"),
    ("alice", "knows", "bob"),
]


class TestTsv:
    def test_roundtrip_string(self):
        g = graph_from_edges(EDGES)
        text = dumps_tsv(g)
        back = loads_tsv(text)
        assert set(back.edges_named()) == set(g.edges_named())

    def test_roundtrip_file(self, tmp_path):
        g = graph_from_edges(EDGES)
        path = tmp_path / "g.tsv"
        dump_tsv(g, path)
        back = load_tsv(path, name="reloaded")
        assert back.name == "reloaded"
        assert set(back.edges_named()) == set(g.edges_named())

    def test_roundtrip_handles(self):
        g = graph_from_edges(EDGES)
        buffer = io.StringIO()
        dump_tsv(g, buffer)
        back = load_tsv(io.StringIO(buffer.getvalue()))
        assert back.num_edges == g.num_edges

    def test_schema_rebuilt(self):
        back = loads_tsv(dumps_tsv(graph_from_edges(EDGES)))
        assert back.schema.is_instance("alice", "Person")
        assert "Animal" in back.schema.superclasses("Cat")

    def test_schema_rebuild_disabled(self):
        back = loads_tsv(dumps_tsv(graph_from_edges(EDGES)), rebuild_schema=False)
        assert not back.schema.is_instance("alice", "Person")

    def test_comments_and_blank_lines_skipped(self):
        back = loads_tsv("# comment\n\na\tx\tb\n")
        assert back.num_edges == 1

    def test_malformed_line_raises(self):
        with pytest.raises(GraphError, match="line 1"):
            loads_tsv("only two\tfields\n")

    @pytest.mark.parametrize("bad_line", [1, 2, 3000])
    def test_non_utf8_line_named_by_number(self, tmp_path, bad_line):
        # Line 3000 lies past the first chunk the text reader decodes.
        lines = [f"v{i}\tp\tv{i + 1}\n".encode() for i in range(4000)]
        lines[bad_line - 1] = b"x\xff\xfey\tp\tq\n"
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(GraphError, match=rf"^TSV line {bad_line} is not UTF-8"):
            load_tsv(path)

    def test_crlf_string_file_and_handle_load_equal_graphs(self, tmp_path):
        # A file opened in text mode translates \r\n; a string or a
        # caller's handle does not, and the \r must not reach a name.
        text = "a\tx\tb\r\n# note\r\n\r\nb\tx\tc\r\nc\trdf:type\tC\r\n"
        path = tmp_path / "crlf.tsv"
        path.write_bytes(text.encode("utf-8"))
        loaded = [loads_tsv(text), load_tsv(path), load_tsv(io.StringIO(text))]
        for graph in loaded:
            assert list(graph.edges_named()) == [
                ("a", "x", "b"), ("b", "x", "c"), ("c", "rdf:type", "C"),
            ]
            assert graph.schema.is_instance("c", "C")
        first = _state(loaded[0])
        assert all(_state(graph) == first for graph in loaded[1:])


# ----------------------------------------------------------------------
# The streaming loader against a graph built edge by edge
# ----------------------------------------------------------------------

_NAME_CHARS = st.characters(exclude_characters="\t\r\n")
#: Small pools so names, labels and whole edges repeat; free text for the
#: rest (a leading "#" would turn a line into a comment).
NAMES = st.one_of(
    st.sampled_from(["a", "b", "c", "Person", "Cat", "Animal"]),
    st.text(_NAME_CHARS, min_size=1, max_size=4).filter(
        lambda name: not name.startswith("#")
    ),
)
LABELS = st.sampled_from(["knows", "likes", RDF_TYPE, RDFS_SUBCLASS_OF])
EDGE_LINES = st.tuples(NAMES, LABELS, NAMES)
OTHER_LINES = st.sampled_from(["", "#", "# a comment\twith a tab"])
LINES = st.lists(st.one_of(EDGE_LINES, EDGE_LINES, OTHER_LINES), max_size=40)


def _state(graph: KnowledgeGraph, skip: tuple[str, ...] = ()) -> dict:
    """Every slot of ``graph`` but ``skip``, with the label universe and
    the schema unpacked into comparable values."""
    state = {
        slot: getattr(graph, slot)
        for slot in KnowledgeGraph.__slots__
        if slot not in skip
    }
    labels = state.pop("_labels")
    state["_labels"] = [(name, labels.id_of(name)) for name in labels.names()]
    schema = state.pop("schema")
    state["schema"] = {slot: getattr(schema, slot) for slot in RDFSchema.__slots__}
    return state


def _frozen_rows(graph: KnowledgeGraph) -> list:
    frozen = graph.freeze()
    return [
        (direction.masks, direction.all_targets, direction.bounds)
        for direction in (frozen._csr_out, frozen._csr_in)
    ]


def _reference(lines: list) -> KnowledgeGraph:
    """The graph :func:`loads_tsv` must build, one ``add_edge`` at a time."""
    graph = KnowledgeGraph(schema=RDFSchema())
    for line in lines:
        if isinstance(line, tuple):
            source, label, target = line
            graph.add_edge(source, label, target)
            if label == RDF_TYPE:
                graph.schema.add_instance(source, target)
            elif label == RDFS_SUBCLASS_OF:
                graph.schema.add_subclass(source, target)
    return graph


def _text(lines: list, endings: list) -> str:
    return "".join(
        ("\t".join(line) if isinstance(line, tuple) else line) + ending
        for line, ending in zip(lines, endings)
    )


def assert_rows_are_two_tuples(graph: FrozenGraph) -> None:
    """A cut row holds no object but its two tuples of ints: no tuple
    per label group, no list, nothing beside the three lists."""
    assert CsrDirection.__slots__ == ("masks", "all_targets", "bounds", "rows_recut")
    for direction in (graph._csr_out, graph._csr_in):
        assert len(direction.masks) == len(direction.all_targets) == len(direction.bounds)
        for targets, bounds in zip(direction.all_targets, direction.bounds):
            assert type(targets) is tuple and type(bounds) is tuple
            assert all(type(cell) is int for cell in targets + bounds)
            assert len(bounds) % 2 == 0
            assert (bounds[-1] if bounds else 0) == len(targets)


def assert_equal_shapes_are_one_object(graph: FrozenGraph) -> None:
    """Within one direction, equal ``bounds`` tuples are one object, and
    so are equal masks above 256 (CPython caches the ints below)."""
    for direction in (graph._csr_out, graph._csr_in):
        first: dict = {}
        wide = [mask for mask in direction.masks if mask > 256]
        for cell in [*direction.bounds, *wide]:
            assert first.setdefault(cell, cell) is cell


class TestStreamingLoader:
    @settings(deadline=None)
    @given(lines=LINES, data=st.data())
    def test_equals_the_edge_by_edge_graph(self, lines, data):
        endings = data.draw(
            st.lists(st.sampled_from(["\n", "\r\n"]),
                     min_size=len(lines), max_size=len(lines))
        )
        loaded, expected = loads_tsv(_text(lines, endings)), _reference(lines)
        # The loader folds the accumulator as it finishes the rows; the
        # reference's first call scans its edges.
        expected.content_fingerprint()
        assert _state(loaded) == _state(expected)
        assert loaded.content_fingerprint() == expected.content_fingerprint()
        assert _frozen_rows(loaded) == _frozen_rows(expected)

    @settings(deadline=None)
    @given(lines=LINES, data=st.data())
    def test_the_boot_equals_the_frozen_library_graph(self, lines, data):
        # The serving boot cuts each row and drops its dict form as the
        # text is finished; it must cut the snapshot the library's
        # graph freezes to, and that freeze must leave the graph whole.
        endings = data.draw(
            st.lists(st.sampled_from(["\n", "\r\n"]),
                     min_size=len(lines), max_size=len(lines))
        )
        booted = load_tsv(io.StringIO(_text(lines, endings)), frozen=True)
        reference = _reference(lines)
        rows_before = copy.deepcopy((reference._out, reference._in))
        expected = reference.freeze()
        assert (reference._out, reference._in) == rows_before
        assert isinstance(booted, FrozenGraph)
        assert _frozen_rows(booted) == _frozen_rows(expected)
        assert_rows_are_two_tuples(booted)
        assert_equal_shapes_are_one_object(booted)
        # A snapshot holds no dict rows, and caches no snapshot.
        rows = ("_out", "_in", "_frozen")
        expected.content_fingerprint()
        assert _state(booted, skip=rows) == _state(expected, skip=rows)
        assert booted.content_fingerprint() == expected.content_fingerprint()
        assert booted.content_fingerprint() == reference.scan_fingerprint()

    @settings(deadline=None)
    @given(
        lines=LINES,
        bad=st.sampled_from(["one field", "two\tfields", "a\tb\tc\td"]),
        data=st.data(),
    )
    def test_malformed_line_named_by_number(self, lines, bad, data):
        position = data.draw(st.integers(0, len(lines)))
        lines = [*lines[:position], bad, *lines[position:]]
        with pytest.raises(GraphError, match=rf"on line {position + 1}:"):
            loads_tsv(_text(lines, ["\n"] * len(lines)))
