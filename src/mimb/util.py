"""Small shared helpers."""

from __future__ import annotations

import itertools
from typing import AbstractSet, Hashable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)


def iter_subsets(
    pool: Sequence[T],
    max_size: int,
    containing: T | None = None,
) -> Iterator[tuple[T, ...]]:
    """Non-empty subsets of pool, smallest first, positions lexicographic.

    With ``containing`` set, only subsets that include that member are
    produced, in the same order. The member must be the pool's last item
    (the discovery algorithms always pass the newest admission, which is
    last), so each subset is a combination of the items before it plus the
    member. A member anywhere else, or missing, raises ``ValueError``.
    """
    items = tuple(pool)
    upper = min(max_size, len(items))
    if containing is None:
        for size in range(1, upper + 1):
            yield from itertools.combinations(items, size)
        return
    before = items[:-1]
    if items[-1:] != (containing,) or containing in before:
        raise ValueError(f"{containing!r} must be the last member of the pool, and only there")
    for size in range(1, upper + 1):
        for head in itertools.combinations(before, size - 1):
            yield head + (containing,)


def iter_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def mask_union_and_intersection(masks: Sequence[int]) -> tuple[int, int]:
    """The union (OR) and the intersection (AND) of index bitmasks; both
    are 0 when there are none."""
    union = 0
    inter = masks[0] if masks else 0
    for m in masks:
        union |= m
        inter &= m
    return union, inter
