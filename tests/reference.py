"""Slow reference implementations that the package's fast paths are
checked against: d-separation by enumerating every path, the exact joint
distribution of a network by enumerating every configuration (both meant
for small inputs only), and the intervention-family sampler and the
regime verification on sets of names, where the package works on index
masks.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from mimb import BayesianNetwork, Dag, InterventionFamily, is_conservative
from mimb.bayesnet import _as_generator
from mimb.simulate import _REGIME_ALIASES, REGIMES, ConstraintError
from mimb.theorems import (
    INTER_BETWEEN_PA_AND_MB,
    INTER_EMPTY,
    INTER_EQUALS_CH_SP,
    INTER_EQUALS_MB,
    INTER_EQUALS_PA,
    INTER_SUBSET_CH_SP,
    UNION_BETWEEN_PA_AND_MB,
    UNION_EQUALS_CH_SP,
    UNION_EQUALS_MB,
    UNION_SUBSET_CH_SP,
    RegimeClassification,
    VerificationReport,
)
from mimb.util import iter_bits, union_and_intersection

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


# -- the intervention-family sampler on name sets ----------------------------------
#
# Draws and repairs each experiment as a set of names; the package's sampler
# makes the same generator calls on index masks.


def generate_intervention_family(
    dag: Dag,
    target: str,
    n_datasets: int,
    regime: str = "zeta_zero",
    *,
    require_conservative: bool = True,
    require_children_covered: bool = False,
    max_targets_per_set: int | None = None,
    seed=0,
) -> InterventionFamily:
    """Same contract as ``mimb.generate_intervention_family``."""
    regime = _REGIME_ALIASES.get(regime, regime)
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    dag.index(target)
    if n_datasets < 1:
        raise ConstraintError("n_datasets must be at least 1")
    if regime == "zeta_mid" and n_datasets < 2:
        raise ConstraintError("zeta_mid needs at least two datasets")
    others = [v for v in dag.variables if v != target]
    children = dag.children(target)
    if require_conservative and n_datasets < 2 and others:
        if regime != "zeta_all":
            raise ConstraintError(
                "conservativity needs at least two datasets when variables are manipulated"
            )
        if require_children_covered and children:
            raise ConstraintError("cannot cover children conservatively with one dataset")
        return InterventionFamily([{target}])

    rng = _as_generator(seed)
    max_t = max_targets_per_set
    if max_t is None:
        max_t = max(1, math.ceil(len(dag.variables) / 5))
    if max_t < 1:
        raise ConstraintError("max_targets_per_set must be at least 1")

    if regime == "zeta_zero":
        t_in = [False] * n_datasets
    elif regime == "zeta_all":
        t_in = [True] * n_datasets
    else:
        k = int(rng.integers(1, n_datasets))
        chosen = set(rng.choice(n_datasets, size=k, replace=False).tolist())
        t_in = [i in chosen for i in range(n_datasets)]
    sets: list[set[str]] = []
    for i in range(n_datasets):
        size = min(int(rng.integers(1, max_t + 1)), len(others))
        picked = rng.choice(len(others), size=size, replace=False) if size else []
        s = {others[int(j)] for j in picked}
        if t_in[i]:
            s.add(target)
        sets.append(s)

    if require_children_covered:
        for c in sorted(children - InterventionFamily(sets).union_of_targets()):
            sets[int(rng.integers(n_datasets))].add(c)
    if require_conservative:
        for v in sorted(InterventionFamily(sets).union_of_targets() - {target}):
            if all(v in s for s in sets):
                sets[int(rng.integers(n_datasets))].discard(v)

    family = InterventionFamily(sets)
    if (require_conservative and not is_conservative(family.without(target))) or (
        require_children_covered and not children <= family.union_of_targets()
    ):
        raise ConstraintError("constraints remain unsatisfied after repair")
    return family


# -- the regime verification on name sets ------------------------------------------
#
# Reads every blanket and checks every relation on sets of names; the package
# does the same on index masks.


def oracle_mbs(dag: Dag, target: str, family: InterventionFamily) -> tuple[frozenset[str], ...]:
    """Same contract as ``mimb.oracle_mbs``: the blanket after each
    experiment's surgery, read off the intact graph."""
    family.validate_names(dag.variables)
    parents = dag.parents(target)
    child_parents = [(c, dag.parents(c)) for c in dag.children(target)]
    out = []
    for s in family.sets:
        mb = set() if target in s else set(parents)
        for c, pa in child_parents:
            if c not in s:
                mb.add(c)
                mb |= pa
        mb.discard(target)
        out.append(frozenset(mb))
    return tuple(out)


def classify_regime(dag: Dag, target: str, family: InterventionFamily) -> RegimeClassification:
    """Same contract as ``mimb.classify_regime``."""
    family.validate_names(dag.variables)
    zeta = family.zeta(target)
    n = len(family)
    zeta_class = "zero" if zeta == 0 else "all" if zeta == n else "mid"
    children = dag.children(target)
    return RegimeClassification(
        zeta_t=zeta,
        n=n,
        zeta_class=zeta_class,
        conservative_minus_t=is_conservative(family.without(target)),
        children_covered=children <= family.union_of_targets(),
        children_untouched=all(not (children & s) for s in family.sets),
    )


def verify(dag: Dag, target: str, family: InterventionFamily) -> VerificationReport:
    """Same contract as ``mimb.verify``."""
    c = classify_regime(dag, target, family)
    mbs = oracle_mbs(dag, target, family)
    union, inter = union_and_intersection(mbs)

    pa, children = dag.parents(target), dag.children(target)
    seen: set[str] = set()
    multi: set[str] = set()
    for child in children:
        multi |= seen & dag.parents(child)
        seen |= dag.parents(child)
    partners = frozenset(seen - {target})
    multi_spouses = frozenset(multi - {target})
    ch_sp = children | partners
    mb = pa | ch_sp
    stuck = children.intersection(*family.sets)
    unrecoverable = stuck - partners

    if c.zeta_class != "all":
        if c.conservative_minus_t:
            union_rel, union_ok = UNION_EQUALS_MB, union == mb
        else:
            union_rel = UNION_BETWEEN_PA_AND_MB
            union_ok = pa <= union <= mb and not (union & unrecoverable)
            if not stuck:
                union_ok = union_ok and union == mb
    elif c.conservative_minus_t:
        union_rel, union_ok = UNION_EQUALS_CH_SP, union == ch_sp
    else:
        union_rel = UNION_SUBSET_CH_SP
        union_ok = union <= ch_sp and not (union & unrecoverable)
        if children and stuck == children:
            union_ok = union_ok and not union

    if c.zeta_class == "zero":
        if c.children_covered:
            leakage = (children & partners) | multi_spouses
            inter_rel, inter_ok = INTER_EQUALS_PA, pa <= inter and inter - pa <= leakage
        elif c.children_untouched:
            inter_rel, inter_ok = INTER_EQUALS_MB, inter == mb
        else:
            inter_rel, inter_ok = INTER_BETWEEN_PA_AND_MB, pa <= inter <= mb
    elif c.children_covered:
        leakage = (partners & (pa | children)) | multi_spouses
        inter_rel, inter_ok = INTER_EMPTY, inter <= leakage
    elif c.children_untouched:
        inter_rel, inter_ok = INTER_EQUALS_CH_SP, inter == ch_sp
    else:
        inter_rel, inter_ok = INTER_SUBSET_CH_SP, inter <= ch_sp

    return VerificationReport(
        target=target,
        classification=c,
        union_relation=union_rel,
        intersection_relation=inter_rel,
        mb=mb,
        parents=pa,
        children_and_spouses=ch_sp,
        mb_per_dataset=mbs,
        union_actual=union,
        intersection_actual=inter,
        union_ok=union_ok,
        intersection_ok=inter_ok,
    )
