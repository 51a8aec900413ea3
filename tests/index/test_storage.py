"""Tests for local-index persistence."""

import pytest

from repro.core.ins import INS
from repro.core.query import LSCRQuery
from repro.datasets.toy import figure3_constraint, figure3_graph
from repro.exceptions import IndexingError
from repro.index.local_index import build_local_index
from repro.index.storage import load_local_index, save_local_index
from tests.helpers import graph_from_edges


@pytest.fixture()
def graph():
    return figure3_graph()


@pytest.fixture()
def index(graph):
    return build_local_index(graph, k=2, rng=0)


class TestRoundtrip:
    def test_save_returns_size(self, tmp_path, index):
        size = save_local_index(index, tmp_path / "idx.json")
        assert size > 0
        assert (tmp_path / "idx.json").stat().st_size == size

    def test_roundtrip_preserves_tables(self, tmp_path, graph, index):
        path = tmp_path / "idx.json"
        save_local_index(index, path)
        loaded = load_local_index(path, graph)
        assert loaded.partition.landmarks == index.partition.landmarks
        assert loaded.partition.region == index.partition.region
        for u in index.ii:
            assert {v: sorted(m) for v, m in loaded.ii[u].items()} == {
                v: sorted(m) for v, m in index.ii[u].items()
            }
        assert loaded.eit == index.eit
        assert loaded.d == index.d
        assert loaded.build_seconds == index.build_seconds

    def test_loaded_index_answers_queries(self, tmp_path, graph, index):
        from repro.core.ins import INS
        from repro.core.query import LSCRQuery
        from repro.datasets.toy import figure3_constraint

        path = tmp_path / "idx.json"
        save_local_index(index, path)
        loaded = load_local_index(path, graph)
        ins = INS(graph, loaded)
        query = LSCRQuery.create(
            "v0", "v4", ["likes", "follows"], figure3_constraint()
        )
        assert ins.decide(query) is True


class TestWarmStart:
    """The service warm-start path: save -> load must answer like fresh."""

    QUERIES = [
        ("v0", "v4", ["likes", "follows"]),
        ("v0", "v3", ["likes", "follows"]),
        ("v3", "v4", ["likes", "hates", "friendOf"]),
        ("v1", "v4", ["likes", "follows", "friendOf"]),
    ]

    def _answers(self, graph, index):
        ins = INS(graph, index)
        constraint = figure3_constraint()
        return [
            ins.decide(LSCRQuery.create(s, t, labels, constraint))
            for s, t, labels in self.QUERIES
        ]

    def test_roundtrip_answers_agree_with_fresh_build(self, tmp_path, graph):
        path = tmp_path / "warm.json"
        fresh = build_local_index(graph, k=2, rng=0)
        save_local_index(fresh, path)
        loaded = load_local_index(path, graph)
        assert self._answers(graph, loaded) == self._answers(graph, fresh)


class TestValidation:
    def test_wrong_graph_rejected(self, tmp_path, index):
        path = tmp_path / "idx.json"
        save_local_index(index, path)
        other = graph_from_edges([("a", "p", "b")])
        with pytest.raises(IndexingError, match="mismatch"):
            load_local_index(path, other)

    def test_same_size_stale_graph_rejected(self, tmp_path, graph, index):
        # One more edge, no new vertex: a vertex count cannot tell the
        # two graphs apart, and INS would answer from the old one.
        path = tmp_path / "idx.json"
        save_local_index(index, path)
        graph.add_edge("v4", "likes", "v0")
        with pytest.raises(IndexingError, match="mismatch.*repro index"):
            load_local_index(path, graph)

    def test_version_1_file_rejected(self, tmp_path, graph, index):
        import json

        path = tmp_path / "idx.json"
        save_local_index(index, path)
        document = json.loads(path.read_text())
        document["format_version"] = 1
        del document["fingerprint"]
        path.write_text(json.dumps(document))
        with pytest.raises(IndexingError, match="version 1.*repro index"):
            load_local_index(path, graph)

    def test_bad_version_rejected(self, tmp_path, graph, index):
        import json

        path = tmp_path / "idx.json"
        save_local_index(index, path)
        document = json.loads(path.read_text())
        document["format_version"] = 999
        path.write_text(json.dumps(document))
        with pytest.raises(IndexingError, match="version"):
            load_local_index(path, graph)
