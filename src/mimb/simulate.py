"""Synthetic-data generation: random DAGs and CPTs, random conservative
intervention families, and interventional dataset bundles."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bayesnet import (
    BayesianNetwork,
    Dataset,
    DatasetBundle,
    _as_generator,
    forward_sample,
    randomize_manipulated_cpts,
)
from .graph import Dag, InterventionFamily
from .util import iter_bits, mask_union_and_intersection

REGIMES = ("zeta_zero", "zeta_mid", "zeta_all")

_REGIME_ALIASES = {
    "zeta_zero": "zeta_zero",
    "zeta0": "zeta_zero",
    "zero": "zeta_zero",
    "zeta_mid": "zeta_mid",
    "mid": "zeta_mid",
    "zeta_all": "zeta_all",
    "all": "zeta_all",
}


class ConstraintError(ValueError):
    """Requested generation constraints cannot be satisfied jointly."""


def random_dag(n_nodes: int, edge_prob: float, seed) -> Dag:
    """Random DAG over X0..X{n_nodes-1}: a random order, then independent coin flips."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = _as_generator(seed)
    names = tuple(f"X{i}" for i in range(n_nodes))
    order = rng.permutation(n_nodes).tolist()
    # one coin per pair in the order (i, j), i < j, of the ordered nodes;
    # a bulk draw yields the same doubles as one scalar draw per pair. Each
    # edge runs forward in the order, so the graph is acyclic.
    hits = (rng.random(n_nodes * (n_nodes - 1) // 2) < edge_prob).tolist()
    kept = list(itertools.compress(itertools.combinations(order, 2), hits))
    pa = [0] * n_nodes
    ch = [0] * n_nodes
    for a, b in kept:
        pa[b] |= 1 << a
        ch[a] |= 1 << b
    return Dag._from_masks(
        names,
        {v: i for i, v in enumerate(names)},
        tuple(pa),
        tuple(ch),
        frozenset([(names[a], names[b]) for a, b in kept]),
    )


def random_cpts(
    dag: Dag,
    cardinality: int = 2,
    dirichlet_alpha: float = 1.0,
    seed=0,
) -> BayesianNetwork:
    """Uniform-cardinality CPTs over states s0, s1, ... with symmetric-Dirichlet rows."""
    if cardinality < 2:
        raise ValueError("cardinality must be at least 2")
    if not 0 < dirichlet_alpha < math.inf:
        raise ValueError("dirichlet_alpha must be finite and positive")
    rng = _as_generator(seed)
    labels = tuple(f"s{i}" for i in range(cardinality))
    cpts = {}
    for v in dag.variables:
        n_rows = cardinality ** len(dag.parents(v))
        cpts[v] = rng.dirichlet(np.full(cardinality, dirichlet_alpha), size=n_rows)
    return BayesianNetwork(dag, dict.fromkeys(dag.variables, labels), cpts)


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
    """Random manipulated-variable sets satisfying the requested regime.

    ``regime`` fixes how often the target itself is manipulated: never
    (zeta_zero), somewhere strictly between never and always (zeta_mid), or
    in every experiment (zeta_all). Conservativity is checked on the family
    with the target removed, under every regime: the target escapes some
    experiment unless it is manipulated in all of them, so this is the
    family's own conservativity under zeta_zero and zeta_mid.
    ``require_children_covered`` forces every child of the target into some
    experiment, the precondition for recovering the parent set by
    intersection.

    The family is drawn once (the target's experiments, then up to
    ``max_targets_per_set`` other variables per experiment) and then
    repaired: each missing child is added to one random experiment, and
    each variable other than the target that is manipulated everywhere is
    removed from one random experiment. The repair never touches the
    target, so the zeta pattern is kept, and a draw that already satisfies
    the constraints is returned unchanged.
    """
    regime = _REGIME_ALIASES.get(regime, regime)
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    ti = dag.index(target)
    if n_datasets < 1:
        raise ConstraintError("n_datasets must be at least 1")
    if regime == "zeta_mid" and n_datasets < 2:
        raise ConstraintError("zeta_mid needs at least two datasets")
    names = dag.variables
    others = [i for i in range(len(names)) if i != ti]
    children = dag._ch[ti]
    if require_conservative and n_datasets < 2 and others:
        if regime != "zeta_all":
            raise ConstraintError(
                "conservativity needs at least two datasets when variables are manipulated"
            )
        if require_children_covered and children:
            raise ConstraintError("cannot cover children conservatively with one dataset")
        # manipulating only the target is the single family that is
        # conservative (minus the target) with one experiment
        return InterventionFamily([{target}])

    rng = _as_generator(seed)
    max_t = max_targets_per_set
    if max_t is None:
        max_t = max(1, math.ceil(len(names) / 5))
    if max_t < 1:
        raise ConstraintError("max_targets_per_set must be at least 1")

    # the experiments are drawn and repaired as index masks (bit i is
    # variable i); the repairs visit variables in name order
    t_bit = 1 << ti
    if regime == "zeta_zero":
        t_in = [False] * n_datasets
    elif regime == "zeta_all":
        t_in = [True] * n_datasets
    else:
        k = int(rng.integers(1, n_datasets))
        chosen = set(rng.choice(n_datasets, size=k, replace=False).tolist())
        t_in = [i in chosen for i in range(n_datasets)]
    sets: list[int] = []
    for i in range(n_datasets):
        size = min(int(rng.integers(1, max_t + 1)), len(others))
        s = t_bit if t_in[i] else 0
        if size:
            for j in rng.choice(len(others), size=size, replace=False).tolist():
                s |= 1 << others[j]
        sets.append(s)

    by_name = names.__getitem__
    if require_children_covered:
        union, _ = mask_union_and_intersection(sets)
        for c in sorted(iter_bits(children & ~union), key=by_name):
            sets[int(rng.integers(n_datasets))] |= 1 << c
    if require_conservative:
        # a repair touches only its own variable's bit, so the variables
        # manipulated everywhere are known before the first one
        _, everywhere = mask_union_and_intersection(sets)
        for v in sorted(iter_bits(everywhere & ~t_bit), key=by_name):
            sets[int(rng.integers(n_datasets))] &= ~(1 << v)

    union, everywhere = mask_union_and_intersection(sets)
    if (require_conservative and everywhere & ~t_bit) or (
        require_children_covered and children & ~union
    ):
        raise ConstraintError("constraints remain unsatisfied after repair")
    return InterventionFamily(dag._names(s) for s in sets)


def generate_bundle(
    bn: BayesianNetwork,
    family: InterventionFamily,
    rows_per_dataset: int,
    dirichlet_alpha: float = 1.0,
    seed=0,
) -> DatasetBundle:
    """One dataset per experiment, sampled from the manipulated network.

    The master seed is split into independent per-dataset streams (one for
    the Dirichlet draws of the manipulated CPTs, one for the row sampling),
    so bundles are bit-reproducible and datasets could be generated in
    parallel.
    """
    family.validate_names(bn.variables)
    master = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    streams = master.spawn(len(family.sets))
    datasets = []
    for targets, stream in zip(family.sets, streams):
        cpt_seed, sample_seed = stream.spawn(2)
        manipulated = randomize_manipulated_cpts(bn, targets, dirichlet_alpha, cpt_seed)
        sampled = forward_sample(manipulated, rows_per_dataset, sample_seed)
        datasets.append(Dataset(sampled.schema, sampled.rows, intervention=targets))
    return DatasetBundle(datasets)
