"""Tests for the label universe and bitmask helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import LabelNotFoundError
from repro.graph.labels import LabelUniverse, iter_mask_bits, mask_is_subset


class TestLabelUniverse:
    def test_intern_assigns_sequential_ids(self):
        universe = LabelUniverse()
        assert universe.intern("a") == 0
        assert universe.intern("b") == 1
        assert universe.intern("c") == 2

    def test_intern_is_idempotent(self):
        universe = LabelUniverse()
        first = universe.intern("a")
        assert universe.intern("a") == first
        assert len(universe) == 1

    def test_id_of_unknown_label_raises(self):
        universe = LabelUniverse()
        with pytest.raises(LabelNotFoundError):
            universe.id_of("missing")

    def test_name_of_out_of_range_raises(self):
        universe = LabelUniverse()
        universe.intern("a")
        with pytest.raises(LabelNotFoundError):
            universe.name_of(5)
        with pytest.raises(LabelNotFoundError):
            universe.name_of(-1)

    def test_roundtrip_name_id(self):
        universe = LabelUniverse()
        for name in ("x", "y", "z"):
            universe.intern(name)
        for name in ("x", "y", "z"):
            assert universe.name_of(universe.id_of(name)) == name

    def test_contains_and_iter(self):
        universe = LabelUniverse()
        universe.intern("likes")
        assert "likes" in universe
        assert "hates" not in universe
        assert list(universe) == ["likes"]

    def test_mask_of_combines_bits(self):
        universe = LabelUniverse()
        universe.intern("a")
        universe.intern("b")
        universe.intern("c")
        assert universe.mask_of(["a", "c"]) == 0b101

    def test_mask_of_unknown_label_raises(self):
        universe = LabelUniverse()
        with pytest.raises(LabelNotFoundError):
            universe.mask_of(["nope"])

    def test_mask_of_ids(self):
        universe = LabelUniverse()
        assert universe.mask_of_ids([0, 3]) == 0b1001

    def test_full_mask_grows_with_universe(self):
        universe = LabelUniverse()
        assert universe.full_mask() == 0
        universe.intern("a")
        assert universe.full_mask() == 0b1
        universe.intern("b")
        assert universe.full_mask() == 0b11

    def test_labels_in_mask_decodes_in_id_order(self):
        universe = LabelUniverse()
        for name in ("a", "b", "c", "d"):
            universe.intern(name)
        assert universe.labels_in_mask(0b1010) == ("b", "d")

    def test_names_snapshot(self):
        universe = LabelUniverse()
        universe.intern("a")
        universe.intern("b")
        assert universe.names() == ("a", "b")


class TestMaskHelpers:
    def test_subset_basics(self):
        assert mask_is_subset(0b001, 0b011)
        assert mask_is_subset(0b011, 0b011)
        assert not mask_is_subset(0b100, 0b011)
        assert mask_is_subset(0, 0)

    def test_iter_mask_bits(self):
        assert list(iter_mask_bits(0)) == []
        assert list(iter_mask_bits(0b10110)) == [1, 2, 4]

    @given(st.integers(min_value=0, max_value=2**70), st.integers(min_value=0, max_value=2**70))
    def test_subset_matches_set_semantics(self, a, b):
        expected = set(iter_mask_bits(a)) <= set(iter_mask_bits(b))
        assert mask_is_subset(a, b) == expected

    @given(st.sets(st.integers(min_value=0, max_value=80)))
    def test_iter_mask_roundtrip(self, bits):
        mask = 0
        for bit in bits:
            mask |= 1 << bit
        assert set(iter_mask_bits(mask)) == bits
