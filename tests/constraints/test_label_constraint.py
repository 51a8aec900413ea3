"""Tests for label constraints."""

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.exceptions import ConstraintError
from tests.helpers import graph_from_edges


class TestConstruction:
    def test_basic(self):
        constraint = LabelConstraint(["a", "b"])
        assert len(constraint) == 2
        assert "a" in constraint
        assert "c" not in constraint

    def test_duplicates_collapse(self):
        assert len(LabelConstraint(["a", "a", "b"])) == 2

    def test_empty_rejected(self):
        with pytest.raises(ConstraintError):
            LabelConstraint([])

    @pytest.mark.parametrize("labels", [[""], ["", ""], frozenset({""}), "", ","])
    def test_empty_names_are_dropped_in_either_form(self, labels):
        with pytest.raises(ConstraintError):
            LabelConstraint(labels)
        assert LabelConstraint(["a", ""]) == LabelConstraint("a,,") == LabelConstraint("a")

    def test_iteration_sorted(self):
        assert list(LabelConstraint(["c", "a", "b"])) == ["a", "b", "c"]

    def test_equality_and_hash(self):
        assert LabelConstraint(["a", "b"]) == LabelConstraint(["b", "a"])
        assert hash(LabelConstraint(["a"])) == hash(LabelConstraint(["a"]))
        assert LabelConstraint(["a"]) != LabelConstraint(["b"])

    def test_repr(self):
        assert "a" in repr(LabelConstraint(["a"]))


class TestMask:
    def test_mask_for_graph(self):
        g = graph_from_edges([("u", "a", "v"), ("u", "b", "v"), ("u", "c", "v")])
        constraint = LabelConstraint(["a", "c"])
        mask = constraint.mask_for(g)
        assert mask == g.label_mask(["a", "c"])

    def test_unknown_labels_dropped_by_default(self):
        g = graph_from_edges([("u", "a", "v")])
        mask = LabelConstraint(["a", "zz"]).mask_for(g)
        assert mask == g.label_mask(["a"])

    def test_unknown_labels_strict(self):
        g = graph_from_edges([("u", "a", "v")])
        with pytest.raises(ConstraintError):
            LabelConstraint(["zz"]).mask_for(g, strict=True)

    def test_all_unknown_mask_is_zero(self):
        g = graph_from_edges([("u", "a", "v")])
        assert LabelConstraint(["zz"]).mask_for(g) == 0


class TestSetOperations:
    def test_union(self):
        joined = LabelConstraint(["a"]).union(LabelConstraint(["b"]))
        assert joined == LabelConstraint(["a", "b"])

    def test_is_subset_of(self):
        assert LabelConstraint(["a"]).is_subset_of(LabelConstraint(["a", "b"]))
        assert not LabelConstraint(["a", "c"]).is_subset_of(LabelConstraint(["a", "b"]))
