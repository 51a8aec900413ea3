"""Tests for RDF vocabulary helpers."""

from repro.graph.rdf import PREFIXES, shorten


class TestShorten:
    def test_known_namespaces_shortened(self):
        for name in ("rdf:type", "rdfs:range", "ub:advisor", "eg:Person"):
            prefix, _, local = name.partition(":")
            assert shorten(PREFIXES[prefix] + local) == name

    def test_shorten_unknown_iri_unchanged(self):
        assert shorten("http://unknown.org/x") == "http://unknown.org/x"

    def test_shorten_prefers_longest_namespace(self):
        prefixes = {"a": "http://x.org/", "b": "http://x.org/deep/"}
        assert shorten("http://x.org/deep/name", prefixes) == "b:name"

    def test_custom_prefix_table(self):
        table = {"z": "http://z.example/"}
        assert shorten("http://z.example/item", table) == "z:item"
