"""Small shared helpers."""

from __future__ import annotations

import itertools
from typing import AbstractSet, Iterable, Iterator, Sequence


def iter_subsets(
    pool: Sequence[str],
    max_size: int,
    containing: str | None = None,
) -> Iterator[tuple[str, ...]]:
    """Non-empty subsets of pool, smallest first, positions lexicographic.

    With ``containing`` set, only subsets that include that member are
    produced (the pool must not contain it twice).
    """
    items = tuple(pool)
    upper = min(max_size, len(items))
    for size in range(1, upper + 1):
        for combo in itertools.combinations(items, size):
            if containing is not None and containing not in combo:
                continue
            yield combo


def union_and_intersection(
    blankets: Iterable[AbstractSet[str]],
) -> tuple[frozenset[str], frozenset[str]]:
    """The union and the intersection of per-dataset blankets.

    These are the blanket and the parent-set estimates. Both are empty when
    there are no blankets.
    """
    sets = [frozenset(s) for s in blankets]
    if not sets:
        return frozenset(), frozenset()
    return frozenset().union(*sets), sets[0].intersection(*sets[1:])
