"""The canonical request key: what it keeps apart, what it reads alike.

A hit is answered from the key before any plan is made, so two requests
that share a key must be the same question: vertex ``1`` and vertex
``'1'`` are two vertices, and a bare label string is one set of names
however it arrives.  A snapshot stores keys, so they must come back as
themselves or not at all.
"""

from __future__ import annotations

import json

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.core.query import LSCRQuery
from repro.exceptions import ConstraintError
from repro.service.app import QueryService
from repro.service.cache import ResultCache
from repro.session import LSCRSession
from tests.helpers import graph_from_edges

ANY_P = "SELECT ?x WHERE { ?x <p> ?y . }"


def collision_graph():
    """``1 -p-> 2`` and ``'1' -q-> '2'``: same spelling, other vertices."""
    return graph_from_edges([(1, "p", 2), ("1", "q", "2")], name="collide")


class TestIntAndStrNames:
    def test_each_name_gets_its_own_answer(self):
        service = QueryService(collision_graph(), seed=0)
        fresh = QueryService(collision_graph(), seed=0)
        try:
            first, _ = service.query(1, 2, ["p"], ANY_P)
            assert first.answer is True
            second, meta = service.query("1", "2", ["p"], ANY_P)
            expected, _ = fresh.query("1", "2", ["p"], ANY_P)
            assert expected.answer is False
            assert second.answer is False and not meta["cached"]
            again, meta = service.query(1, 2, ["p"], ANY_P)
            assert again.answer is True and meta["cached"]
        finally:
            service.close()
            fresh.close()

    def test_int_names_survive_a_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        first = QueryService(collision_graph(), seed=0)
        try:
            first.query(1, 2, ["p"], ANY_P)
            first.save_snapshot(path)
        finally:
            first.close()
        assert json.loads(path.read_text())["results"][0]["key"][:2] == [1, 2]
        second = QueryService(collision_graph(), seed=0)
        try:
            assert second.load_snapshot(path)["results"] == 1
            result, meta = second.query(1, 2, ["p"], ANY_P)
            assert result.answer is True and meta["cached"]
            result, meta = second.query("1", "2", ["p"], ANY_P)
            assert result.answer is False and not meta["cached"]
        finally:
            second.close()

    def test_a_stringified_key_is_not_loaded(self, tmp_path):
        # A file whose keys spell the int names as strings (how keys
        # were once built) names vertices this graph does not have.
        path = tmp_path / "snap.json"
        first = QueryService(collision_graph(), seed=0)
        try:
            first.query(1, 2, ["p"], ANY_P)
            first.save_snapshot(path)
        finally:
            first.close()
        document = json.loads(path.read_text())
        document["results"][0]["key"][:2] = ["3", "4"]
        path.write_text(json.dumps(document))
        second = QueryService(collision_graph(), seed=0)
        try:
            assert second.load_snapshot(path)["results"] == 0
        finally:
            second.close()

    def test_a_name_json_cannot_read_back_is_not_saved(self, tmp_path):
        path = tmp_path / "snap.json"
        graph = graph_from_edges(
            [(("t", 1), "p", "b"), ("a", "p", "b")], name="tuples"
        )
        service = QueryService(graph, seed=0)
        try:
            assert service.query(("t", 1), "b", ["p"], ANY_P)[0].answer is True
            assert service.query("a", "b", ["p"], ANY_P)[0].answer is True
            service.save_snapshot(path)
        finally:
            service.close()
        keys = [entry["key"] for entry in json.loads(path.read_text())["results"]]
        assert [key[:2] for key in keys] == [["a", "b"]]


class TestBareLabelString:
    GRAPH_EDGES = [("a", "knows", "b"), ("b", "likes", "c"), ("a", "k", "c")]
    CONSTRAINT = "SELECT ?x WHERE { ?x <knows> ?y . }"

    @pytest.mark.parametrize(
        "text, names",
        [("knows", ["knows"]), ("knows,likes", ["knows", "likes"]),
         (",knows,,likes,", ["knows", "likes"])],
    )
    def test_string_and_list_agree_at_every_door(self, text, names):
        graph = graph_from_edges(self.GRAPH_EDGES)
        assert LSCRQuery.create("a", "c", text, self.CONSTRAINT).labels == (
            LSCRQuery.create("a", "c", names, self.CONSTRAINT).labels
        )
        session = LSCRSession(graph)
        assert session.ask("a", "c", text, self.CONSTRAINT) == session.ask(
            "a", "c", names, self.CONSTRAINT
        )
        service = QueryService(graph, seed=0, cache_size=0)
        try:
            by_text, text_meta = service.query("a", "c", text, self.CONSTRAINT)
            by_list, list_meta = service.query("a", "c", names, self.CONSTRAINT)
        finally:
            service.close()
        assert by_text.answer == by_list.answer
        assert text_meta["reason"] == list_meta["reason"]

    def test_one_name_is_not_its_characters(self):
        graph = graph_from_edges(self.GRAPH_EDGES)
        service = QueryService(graph, seed=0)
        try:
            result, meta = service.query("a", "b", "knows", self.CONSTRAINT)
        finally:
            service.close()
        assert result.answer is True and not meta["trivial"]
        assert LSCRSession(graph).ask("a", "b", "knows", self.CONSTRAINT) is True
        assert LabelConstraint("knows").labels == {"knows"}

    @pytest.mark.parametrize("text", ["", ",", ",,,"])
    def test_an_all_empty_string_is_refused(self, text):
        with pytest.raises(ConstraintError):
            LabelConstraint(text)
        service = QueryService(graph_from_edges(self.GRAPH_EDGES), seed=0)
        try:
            with pytest.raises(ConstraintError):
                service.query("a", "b", text, self.CONSTRAINT)
        finally:
            service.close()


def test_an_entry_evicted_after_the_probe_is_looked_up_once(monkeypatch):
    """The probe saw the key; by the lookup it was gone.  The request
    counts one miss, plans, evaluates and stores — nothing twice."""
    service = QueryService(collision_graph(), seed=0)
    try:
        service.query(1, 2, ["p"], ANY_P)
        held = ResultCache.__contains__

        def probe_then_evict(cache, key):
            found = held(cache, key)
            cache._entries.pop(key, None)
            return found

        monkeypatch.setattr(ResultCache, "__contains__", probe_then_evict)
        gets = []
        looked_up = ResultCache.get

        def counted_get(cache, key):
            gets.append(key)
            return looked_up(cache, key)

        monkeypatch.setattr(ResultCache, "get", counted_get)
        before = service.results.stats()
        result, meta = service.query(1, 2, ["p"], ANY_P)
        [member] = service.query_batch(
            [{"source": 1, "target": 2, "labels": ["p"], "constraint": ANY_P}]
        )
        after = service.results.stats()
    finally:
        service.close()
    assert result.answer is True and meta["source"] == "evaluated"
    assert member[0].answer is True and member[1]["source"] == "evaluated"
    assert len(gets) == 2
    assert (after.hits - before.hits, after.misses - before.misses) == (0, 2)
