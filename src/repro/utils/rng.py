"""Deterministic random-number plumbing.

Everything in this library that makes random choices (dataset generators,
landmark selection, workload generation) accepts either a seed or a
:class:`random.Random` and must be reproducible run-to-run;
:func:`make_rng` normalises ``None | int | Random`` into a ``Random``.
"""

from __future__ import annotations

import random

__all__ = ["make_rng"]


def make_rng(seed: int | random.Random | None) -> random.Random:
    """Return a ``random.Random`` for ``seed``.

    ``None`` produces an OS-seeded generator (non-reproducible — only
    appropriate for exploratory use); an ``int`` produces a seeded
    generator; an existing ``Random`` is returned unchanged.
    """
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)

