"""Edge-label universe and bitmask label sets.

The paper manipulates *label sets* constantly: label constraints ``L ⊆ 𝕃``
(Definition 2.4), path label sets ``L(p)``, and the minimal sufficient
path label sets stored in CMS collections (Definition 2.3).  Subset tests
between label sets dominate both query processing and index construction,
so labels are interned to bit positions and label sets are plain Python
ints used as bitmasks:

* ``A ⊆ B``  ⇔  ``A & ~B == 0``  ⇔  ``A | B == B``
* ``A ∪ {l}``  ⇔  ``A | (1 << l)``

Masks are arbitrary-precision, so the universe is not limited to 64
labels (knowledge graphs routinely have a few hundred predicates).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.exceptions import LabelNotFoundError

__all__ = ["LabelUniverse", "mask_is_subset", "iter_mask_bits"]


def mask_is_subset(a: int, b: int) -> bool:
    """True iff label set ``a`` is a subset of label set ``b``."""
    return a & ~b == 0


def iter_mask_bits(mask: int) -> Iterator[int]:
    """Yield the label ids (bit positions) present in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LabelUniverse:
    """Bidirectional mapping between label names and bit positions.

    A universe is owned by one :class:`~repro.graph.labeled_graph.KnowledgeGraph`
    and grows monotonically: labels are interned on first use and never
    removed, so bit positions are stable for the graph's lifetime.
    """

    __slots__ = ("_name_to_id", "_names")

    def __init__(self) -> None:
        self._name_to_id: dict[str, int] = {}
        self._names: list[str] = []

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, label: str) -> bool:
        return label in self._name_to_id

    def __repr__(self) -> str:
        return f"LabelUniverse({len(self)} labels)"

    def copy(self) -> "LabelUniverse":
        """An independent universe with the same name ↔ id assignment.

        The copy-on-write half of epoch-swapped serving: a mutated graph
        copy interns new labels into its own universe, so the snapshot
        still serving the previous epoch never observes them.
        """
        clone = LabelUniverse()
        clone._name_to_id = dict(self._name_to_id)
        clone._names = list(self._names)
        return clone

    def intern(self, label: str) -> int:
        """Return the id of ``label``, assigning the next free bit if new."""
        existing = self._name_to_id.get(label)
        if existing is not None:
            return existing
        new_id = len(self._names)
        self._name_to_id[label] = new_id
        self._names.append(label)
        return new_id

    def get(self, label: str) -> int | None:
        """Id of ``label``, or None when it is not in the universe."""
        return self._name_to_id.get(label)

    def id_of(self, label: str) -> int:
        """Id of an existing label; raises :class:`LabelNotFoundError`."""
        try:
            return self._name_to_id[label]
        except KeyError:
            raise LabelNotFoundError(label) from None

    def name_of(self, label_id: int) -> str:
        """Name of an existing label id; raises :class:`LabelNotFoundError`."""
        if 0 <= label_id < len(self._names):
            return self._names[label_id]
        raise LabelNotFoundError(label_id)

    def names(self) -> tuple[str, ...]:
        """All label names in id order."""
        return tuple(self._names)

    def mask_of(self, labels: Iterable[str]) -> int:
        """Bitmask of a collection of label *names* (must all exist)."""
        mask = 0
        for label in labels:
            mask |= 1 << self.id_of(label)
        return mask

    def mask_of_ids(self, label_ids: Iterable[int]) -> int:
        """Bitmask of a collection of label *ids* (not range-checked)."""
        mask = 0
        for label_id in label_ids:
            mask |= 1 << label_id
        return mask

    def full_mask(self) -> int:
        """Mask containing every label currently in the universe."""
        return (1 << len(self._names)) - 1

    def labels_in_mask(self, mask: int) -> tuple[str, ...]:
        """Decode a mask back to label names (ascending id order)."""
        return tuple(self.name_of(bit) for bit in iter_mask_bits(mask))
