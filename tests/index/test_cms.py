"""Tests for CMS minimal label-set collections."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.labels import mask_is_subset
from repro.index.cms import CmsTable, any_subset_of, insert_minimal

masks = st.integers(min_value=0, max_value=0b11111)


class TestInsertMinimal:
    def test_insert_into_empty(self):
        collection = []
        assert insert_minimal(collection, 0b101)
        assert collection == [0b101]

    def test_duplicate_rejected(self):
        collection = [0b101]
        assert not insert_minimal(collection, 0b101)
        assert collection == [0b101]

    def test_superset_rejected(self):
        collection = [0b001]
        assert not insert_minimal(collection, 0b011)
        assert collection == [0b001]

    def test_subset_evicts_supersets(self):
        collection = [0b011, 0b110]
        assert insert_minimal(collection, 0b010)
        assert collection == [0b010]

    def test_incomparable_coexist(self):
        collection = [0b001]
        assert insert_minimal(collection, 0b110)
        assert sorted(collection) == [0b001, 0b110]

    def test_empty_set_dominates_everything(self):
        collection = [0b001, 0b110]
        assert insert_minimal(collection, 0)
        assert collection == [0]
        assert not insert_minimal(collection, 0b1)

    @settings(max_examples=200)
    @given(st.lists(masks, max_size=12))
    def test_result_is_always_minimal_antichain(self, sequence):
        collection = []
        for mask in sequence:
            insert_minimal(collection, mask)
        for a in collection:
            for b in collection:
                assert a == b or not mask_is_subset(a, b)

    @settings(max_examples=200)
    @given(st.lists(masks, max_size=12))
    def test_order_independence(self, sequence):
        forward, backward = [], []
        for mask in sequence:
            insert_minimal(forward, mask)
        for mask in reversed(sequence):
            insert_minimal(backward, mask)
        assert sorted(forward) == sorted(backward)

    @settings(max_examples=200)
    @given(st.lists(masks, max_size=12), masks)
    def test_coverage_preserved(self, sequence, probe):
        """Reducing to the antichain never changes subset queries."""
        collection = []
        for mask in sequence:
            insert_minimal(collection, mask)
        raw_answer = any(mask_is_subset(m, probe) for m in sequence)
        assert any_subset_of(collection, probe) == raw_answer


class TestCmsTable:
    def test_insert_and_get(self):
        table = CmsTable()
        assert table.insert(3, 0b01)
        assert table.get(3) == [0b01]
        assert table.get(99) == []

    def test_insert_applies_minimality_per_vertex(self):
        table = CmsTable()
        table.insert(1, 0b011)
        assert not table.insert(1, 0b111)
        assert table.insert(1, 0b001)
        assert table.get(1) == [0b001]

    def test_vertices_independent(self):
        table = CmsTable()
        table.insert(1, 0b01)
        table.insert(2, 0b11)
        assert table.get(2) == [0b11]

    def test_reaches_under(self):
        table = CmsTable()
        table.insert(1, 0b011)
        assert table.reaches_under(1, 0b111)
        assert table.reaches_under(1, 0b011)
        assert not table.reaches_under(1, 0b001)
        assert not table.reaches_under(42, 0b111)

    def test_len_contains_iter(self):
        table = CmsTable()
        table.insert(1, 0)
        table.insert(5, 0b1)
        assert len(table) == 2
        assert 5 in table
        assert 4 not in table
        assert sorted(table) == [1, 5]

    def test_entry_count(self):
        table = CmsTable()
        table.insert(1, 0b001)
        table.insert(1, 0b110)
        table.insert(2, 0b010)
        assert table.entry_count() == 3

    def test_verify_antichains(self):
        table = CmsTable()
        table.insert(1, 0b001)
        table.insert(1, 0b110)
        assert table.verify_antichains()
        # corrupt it directly
        table._table[1].append(0b111)
        assert not table.verify_antichains()
