"""Slow reference implementations that the package's fast paths are
checked against: d-separation by enumerating every path, and the exact
joint distribution of a network by enumerating every configuration. Both
are meant for small inputs only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from mimb import BayesianNetwork, Dag
from mimb.util import iter_bits

# -- d-separation by path enumeration ------------------------------------------
#
# Every undirected simple path is enumerated and the blocking rule applied
# literally, path by path.


def _descendants_ix(dag: Dag, v: int) -> int:
    """The bitmask of the proper descendants of node v."""
    seen = 0
    stack = list(iter_bits(dag._ch[v]))
    while stack:
        u = stack.pop()
        if not seen >> u & 1:
            seen |= 1 << u
            stack.extend(iter_bits(dag._ch[u]))
    return seen


@functools.lru_cache(maxsize=4096)
def _paths_between(dag: Dag, xi: int, yi: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """All simple undirected paths xi..yi as (non-collider mask, colliders)
    pairs."""
    pa = dag._pa
    adjacency = [p | c for p, c in zip(pa, dag._ch)]
    paths: list[tuple[int, tuple[int, ...]]] = []

    def extend(path: list[int], visited: int) -> None:
        for nxt in iter_bits(adjacency[path[-1]] & ~visited):
            if nxt != yi:
                extend(path + [nxt], visited | 1 << nxt)
                continue
            full = path + [nxt]
            noncolliders = 0
            colliders: list[int] = []
            for prev, mid, fol in zip(full, full[1:], full[2:]):
                if pa[mid] >> prev & 1 and pa[mid] >> fol & 1:
                    colliders.append(mid)
                else:
                    noncolliders |= 1 << mid
            paths.append((noncolliders, tuple(colliders)))

    extend([xi], 1 << xi)
    return tuple(paths)


def brute_force_d_separated(dag: Dag, x: str, y: str, z=()) -> bool:
    """Same contract as ``Dag.d_separated``, by exhaustive path enumeration."""
    xi, yi = dag.index(x), dag.index(y)
    zmask = 0
    for v in z:
        zmask |= 1 << dag.index(v)
    if xi == yi:
        raise ValueError(f"x and y must differ, both are {x!r}")
    if zmask >> xi & 1 or zmask >> yi & 1:
        raise ValueError("x and y must not be in the conditioning set")
    for noncolliders, colliders in _paths_between(dag, xi, yi):
        if noncolliders & zmask:
            continue  # blocked by a conditioned chain/fork node
        if all(zmask >> c & 1 or _descendants_ix(dag, c) & zmask for c in colliders):
            return False
    return True


# -- the joint distribution by enumeration -----------------------------------------


def joint_table(bn: BayesianNetwork) -> np.ndarray:
    """Exact joint distribution by enumeration; only for tiny networks."""
    cards = bn.schema.cardinalities
    if math.prod(cards) > 1 << 20:
        raise ValueError("network too large to enumerate")
    joint = np.zeros(cards)
    col_of = {v: i for i, v in enumerate(bn.variables)}
    for config in np.ndindex(*cards):
        p = 1.0
        for v in bn.variables:
            row = bn.row_index(
                v, {q: config[col_of[q]] for q in bn.parent_orders[v]}
            )
            p *= bn.cpts[v][row, config[col_of[v]]]
        joint[config] = p
    return joint
