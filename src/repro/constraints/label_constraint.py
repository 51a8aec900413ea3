"""Label constraints (the ``L ⊆ 𝕃`` of Definition 2.4).

A label constraint is just a set of edge-label names; algorithms compile
it to a bitmask against a graph's label universe once per query and then
expand only edges whose label bit is set.  Every door that takes ``L`` —
the Python API, ``/query`` and ``/batch``, the CLI's ``--labels`` —
reads a bare string the one way this class does: as comma-separated
names.  An empty name is dropped from either form.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import ConstraintError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.labels import LabelUniverse

__all__ = ["LabelConstraint"]


class LabelConstraint:
    """An immutable set of allowed edge labels.

    >>> constraint = LabelConstraint(["friendOf", "follows"])
    >>> "friendOf" in constraint
    True
    >>> len(constraint)
    2
    >>> LabelConstraint("friendOf,follows") == constraint
    True
    """

    __slots__ = ("_labels", "_mask")

    def __init__(self, labels: Iterable[str] | str) -> None:
        if isinstance(labels, str):
            labels = labels.split(",")
        # A frozenset is adopted as it is: ``frozenset(s) is s``.
        labels = frozenset(labels)
        # An empty name is no label, in either form: ``[""]`` and ``","``
        # are both a constraint without labels.
        self._labels = labels - {""} if "" in labels else labels
        if not self._labels:
            raise ConstraintError("a label constraint must contain at least one label")
        #: ``(universe, its size, mask)`` of the last :meth:`mask_for`.
        self._mask: tuple[LabelUniverse, int, int] | None = None

    @property
    def labels(self) -> frozenset[str]:
        """The allowed label names."""
        return self._labels

    def __contains__(self, label: str) -> bool:
        return label in self._labels

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._labels))

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelConstraint):
            return self._labels == other._labels
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"LabelConstraint({sorted(self._labels)!r})"

    def mask_for(self, graph: KnowledgeGraph, strict: bool = False) -> int:
        """Bitmask of this constraint in ``graph``'s label universe.

        Labels absent from the graph cannot appear on any path, so by
        default they are silently dropped (a query mentioning them is
        simply harder to satisfy).  With ``strict`` they raise
        :class:`ConstraintError` instead.

        The mask is remembered for the universe it was computed in and
        that universe's size, so the planner, the approximate router
        and the evaluator of one query compute it once.  A universe
        only grows — a label is never taken out or renumbered — so the
        same universe at the same size gives the same mask, and an
        update that interns a label, or a derived snapshot's copied
        universe, computes it afresh.
        """
        universe = graph.labels
        remembered = self._mask
        if (
            remembered is not None
            and remembered[0] is universe
            and remembered[1] == len(universe)
        ):
            mask = remembered[2]
        else:
            mask = self._mask_in(universe)
            self._mask = (universe, len(universe), mask)
        if strict and mask.bit_count() < len(self._labels):
            missing = sorted(label for label in self._labels if label not in universe)
            raise ConstraintError(f"label {missing[0]!r} does not occur in the graph")
        return mask

    def _mask_in(self, universe: LabelUniverse) -> int:
        mask = 0
        find = universe.get
        for label in self._labels:
            label_id = find(label)
            if label_id is not None:
                mask |= 1 << label_id
        return mask

    def union(self, other: "LabelConstraint") -> "LabelConstraint":
        """Constraint allowing either side's labels."""
        return LabelConstraint(self._labels | other._labels)

    def is_subset_of(self, other: "LabelConstraint") -> bool:
        """True if every allowed label of self is allowed by ``other``."""
        return self._labels <= other._labels
