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

    def test_a_remembered_mask_follows_its_universe(self):
        # One constraint asked about several graphs and a growing one:
        # each answer is the mask a fresh constraint computes there.
        g = graph_from_edges([("u", "a", "v")])
        other = graph_from_edges([("u", "zz", "v"), ("u", "a", "v")])
        constraint = LabelConstraint(["a", "zz"])
        assert constraint.mask_for(g) == g.label_mask(["a"])
        assert constraint.mask_for(other) == other.label_mask(["a", "zz"]) == 0b11
        snapshot = g.freeze()
        derived, _, _ = snapshot.derive([("u", "b", "v", "add"), ("u", "zz", "u", "add")])
        assert constraint.mask_for(derived) == derived.label_mask(["a", "zz"]) == 0b101
        assert constraint.mask_for(snapshot) == snapshot.label_mask(["a"]) == 0b1
        with pytest.raises(ConstraintError, match="'zz'"):
            constraint.mask_for(snapshot, strict=True)
        g.add_edge("v", "zz", "u")  # interns a label in the same universe
        assert constraint.mask_for(g) == g.label_mask(["a", "zz"]) == 0b11


class TestSetOperations:
    def test_union(self):
        joined = LabelConstraint(["a"]).union(LabelConstraint(["b"]))
        assert joined == LabelConstraint(["a", "b"])

    def test_is_subset_of(self):
        assert LabelConstraint(["a"]).is_subset_of(LabelConstraint(["a", "b"]))
        assert not LabelConstraint(["a", "c"]).is_subset_of(LabelConstraint(["a", "b"]))
