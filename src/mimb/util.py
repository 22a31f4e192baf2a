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
    produced (the pool must not contain it twice), in the same order; they
    are generated directly, not filtered from all subsets.
    """
    items = tuple(pool)
    upper = min(max_size, len(items))
    if containing is None:
        for size in range(1, upper + 1):
            yield from itertools.combinations(items, size)
        return
    if containing not in items:
        return
    # A subset with the member is head + (member,) + tail, the head drawn
    # from the members before it and the tail from those after it. Position
    # order compares head + (member,) first, so a head comes after its own
    # extensions, and then the tails in their order.
    pos = items.index(containing)
    before, after = items[:pos], items[pos + 1:]
    for size in range(1, upper + 1):
        for head in _heads(before, size - 1, size - 1 - len(after)):
            lead = head + (containing,)
            if not after:  # the discovery algorithms pass the last member
                yield lead
                continue
            for tail in itertools.combinations(after, size - 1 - len(head)):
                yield lead + tail


def _heads(pool: tuple[str, ...], most: int, least: int) -> Iterator[tuple[str, ...]]:
    """Subsets of pool with ``least`` to ``most`` members, in position
    order with each subset after its own extensions."""
    if most == least:
        yield from itertools.combinations(pool, most)
        return
    if most > 0:
        for i, v in enumerate(pool):
            for head in _heads(pool[i + 1:], most - 1, least - 1):
                yield (v,) + head
    if least <= 0:
        yield ()


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
