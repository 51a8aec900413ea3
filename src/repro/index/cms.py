"""CMS — collections of minimal sufficient path label sets.

Definition 2.3: ``M(s, t)`` is the set of label sets of paths from ``s``
to ``t`` that are minimal under set inclusion (an *antichain*).  Given a
label constraint ``L``, ``s ⇝_L t`` holds iff some member of
``M(s, t)`` is a subset of ``L`` — which is the only query the paper's
indexes ever pose, so a CMS is stored simply as a list of label-set
bitmasks kept minimal on insertion.

:func:`insert_minimal` is the ``Insert`` function of Algorithm 3
(lines 16–24) specialised to one collection: it rejects masks that are
supersets of an existing member and evicts existing members that are
strict supersets of the new mask.

:class:`CmsTable` maps vertices to their CMS — the shape of ``II[u]``
and ``EI[u]`` entries.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.graph.labels import mask_is_subset

__all__ = ["insert_minimal", "any_subset_of", "CmsTable"]


def insert_minimal(collection: list[int], mask: int) -> bool:
    """Insert ``mask`` into the antichain ``collection`` (in place).

    Returns False (collection unchanged) when an existing member is a
    subset of ``mask`` — including ``mask`` itself.  Otherwise removes
    every member that is a strict superset of ``mask``, appends ``mask``
    and returns True.
    """
    for existing in collection:
        if existing & ~mask == 0:  # existing ⊆ mask: mask is redundant
            return False
    # No member is ⊆ mask, so members ⊇ mask are strict supersets: evict.
    collection[:] = [member for member in collection if mask & ~member != 0]
    collection.append(mask)
    return True


def any_subset_of(collection: list[int], constraint_mask: int) -> bool:
    """True iff some member of the CMS is a subset of ``constraint_mask``.

    This is the reachability test: ``∃ L_i ∈ M(s, t): L_i ⊆ L``.
    """
    for member in collection:
        if member & ~constraint_mask == 0:
            return True
    return False


class CmsTable:
    """``vertex id → CMS`` mapping (the value shape of ``II`` / ``EI``)."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._table

    def __iter__(self) -> Iterator[int]:
        return iter(self._table)

    def insert(self, vertex_id: int, mask: int) -> bool:
        """Algorithm 3's ``Insert(v, L, index[u])`` for one pair."""
        collection = self._table.get(vertex_id)
        if collection is None:
            self._table[vertex_id] = [mask]
            return True
        return insert_minimal(collection, mask)

    def get(self, vertex_id: int) -> list[int]:
        """The CMS of ``vertex_id`` (empty list when absent)."""
        return self._table.get(vertex_id, [])

    def reaches_under(self, vertex_id: int, constraint_mask: int) -> bool:
        """``∃ L_i ∈ M(·, vertex_id): L_i ⊆ constraint_mask``."""
        collection = self._table.get(vertex_id)
        if not collection:
            return False
        return any_subset_of(collection, constraint_mask)

    def items(self) -> Iterator[tuple[int, list[int]]]:
        """All ``(vertex id, CMS)`` pairs."""
        return iter(self._table.items())

    def entry_count(self) -> int:
        """Total number of ``(vertex, mask)`` pairs stored."""
        return sum(len(masks) for masks in self._table.values())

    def verify_antichains(self) -> bool:
        """Every stored CMS is an antichain (test invariant)."""
        for masks in self._table.values():
            for i, a in enumerate(masks):
                for j, b in enumerate(masks):
                    if i != j and mask_is_subset(a, b):
                        return False
        return True
