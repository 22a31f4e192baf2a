"""Exact verification of what unions and intersections of per-dataset
Markov blankets can recover, as a function of the manipulation regime.

Everything here is graph-level: per-dataset blankets are read exactly off
the intact graph under each experiment's surgery and checked against the
relations the regime classification promises. The fuzzer drives this over
thousands of random (graph, target, family) instances per regime row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Dag, InterventionFamily
from .simulate import generate_intervention_family, random_dag
from .util import iter_bits, mask_union_and_intersection

# Union relations
UNION_EQUALS_MB = "equals-mb"
UNION_BETWEEN_PA_AND_MB = "between-pa-and-mb"
UNION_EQUALS_CH_SP = "equals-ch-sp"
UNION_SUBSET_CH_SP = "subset-of-ch-sp"

# Intersection relations
INTER_EQUALS_PA = "equals-pa"
INTER_EQUALS_MB = "equals-mb"
INTER_BETWEEN_PA_AND_MB = "between-pa-and-mb"
INTER_EMPTY = "empty"
INTER_EQUALS_CH_SP = "equals-ch-sp"
INTER_SUBSET_CH_SP = "subset-of-ch-sp"


@dataclass(frozen=True)
class RegimeClassification:
    """Exact regime flags recomputed from (graph, target, family).

    The regime rules read ``conservative_minus_t``, the condition the
    proofs need. ``conservative`` follows from it: the target escapes some
    experiment unless zeta is n, so the two agree under zeta zero and mid,
    and a family that manipulates the target everywhere is not conservative.
    """

    zeta_t: int
    n: int
    zeta_class: str  # zero | mid | all
    conservative_minus_t: bool
    children_covered: bool
    children_untouched: bool

    @property
    def conservative(self) -> bool:
        return self.conservative_minus_t and self.zeta_class != "all"


@dataclass(frozen=True)
class VerificationReport:
    """One instance's regime, promised relations, reference sets and the
    per-dataset blankets checked against them.

    ``children_and_spouses`` uses the collider-partner reading of spouse:
    every parent of a child of the target other than the target itself,
    including variables that are also parents or children of the target.
    That is the set the proofs actually deliver once the target's own
    parents become unreachable; it coincides with children plus strict
    spouses whenever no variable plays two roles at once.
    """

    target: str
    classification: RegimeClassification
    union_relation: str
    intersection_relation: str
    mb: frozenset[str]
    parents: frozenset[str]
    children_and_spouses: frozenset[str]
    mb_per_dataset: tuple[frozenset[str], ...]
    union_actual: frozenset[str]
    intersection_actual: frozenset[str]
    union_ok: bool
    intersection_ok: bool

    @property
    def passed(self) -> bool:
        return self.union_ok and self.intersection_ok

    def to_json_dict(self) -> dict:
        c = self.classification
        return {
            "target": self.target,
            "regime": {
                "zeta_t": c.zeta_t,
                "n": c.n,
                "zeta_class": c.zeta_class,
                "conservative": c.conservative,
                "conservative_minus_t": c.conservative_minus_t,
                "children_covered": c.children_covered,
                "children_untouched": c.children_untouched,
            },
            "predicted": {
                "union": self.union_relation,
                "intersection": self.intersection_relation,
                "mb": sorted(self.mb),
                "parents": sorted(self.parents),
                "children_and_spouses": sorted(self.children_and_spouses),
            },
            "actual": {
                "mb_per_dataset": [sorted(s) for s in self.mb_per_dataset],
                "union": sorted(self.union_actual),
                "intersection": sorted(self.intersection_actual),
            },
            "union_ok": self.union_ok,
            "intersection_ok": self.intersection_ok,
            "passed": self.passed,
        }


def _family_masks(dag: Dag, family: InterventionFamily) -> list[int]:
    """Each experiment of the family as an index mask of ``dag``; an
    experiment naming an unknown variable raises ``ValueError``."""
    index = dag._index
    masks = []
    for s in family.sets:
        m = 0
        for v in s:
            i = index.get(v)
            if i is None:
                family.validate_names(dag.variables)  # raises, naming them
            m |= 1 << i
        masks.append(m)
    return masks


def _blanket_masks(dag: Dag, ti: int, masks: list[int]) -> tuple[int, ...]:
    """The blanket of target ``ti`` after each experiment's graph surgery,
    as index masks.

    Surgery on S only deletes the edges into S, so the blanket is read off
    the intact graph: the target's parents unless the target is in S, its
    children outside S, and those children's parents, the target excluded.
    """
    pa, t_bit = dag._pa, 1 << ti
    kids = [(1 << c, pa[c]) for c in iter_bits(dag._ch[ti])]
    out = []
    for s in masks:
        mb = 0 if s & t_bit else pa[ti]
        for c_bit, c_pa in kids:
            if not s & c_bit:
                mb |= c_bit | c_pa
        out.append(mb & ~t_bit)
    return tuple(out)


def _collider_partners(dag: Dag, ti: int) -> tuple[int, int]:
    """The parents of the target's children, and those shared by two or
    more children, both without the target, as index masks."""
    seen = multi = 0
    for c in iter_bits(dag._ch[ti]):
        pa = dag._pa[c]
        multi |= seen & pa  # a parent already seen is shared
        seen |= pa
    not_t = ~(1 << ti)
    return seen & not_t, multi & not_t


def oracle_mbs(dag: Dag, target: str, family: InterventionFamily) -> tuple[frozenset[str], ...]:
    """Exact blanket of the target in each post-intervention graph."""
    masks = _family_masks(dag, family)
    return tuple(map(dag._names, _blanket_masks(dag, dag.index(target), masks)))


def classify_regime(dag: Dag, target: str, family: InterventionFamily) -> RegimeClassification:
    masks = _family_masks(dag, family)
    ti = dag.index(target)
    t_bit = 1 << ti
    zeta = sum(1 for s in masks if s & t_bit)
    n = len(masks)
    if zeta == 0:
        zeta_class = "zero"
    elif zeta == n:
        zeta_class = "all"
    else:
        zeta_class = "mid"
    children = dag._ch[ti]
    union, everywhere = mask_union_and_intersection(masks)
    return RegimeClassification(
        zeta_t=zeta,
        n=n,
        zeta_class=zeta_class,
        # no variable but the target manipulated in every experiment
        conservative_minus_t=not everywhere & ~t_bit,
        children_covered=not children & ~union,
        children_untouched=not children & union,
    )


def verify(dag: Dag, target: str, family: InterventionFamily) -> VerificationReport:
    """Check the exact per-dataset blankets against the relations the theory
    promises for the instance's regime.

    Union axis: while the target escapes manipulation somewhere, a
    conservative family recovers the whole blanket and a non-conservative
    one is sandwiched between the parent set and the blanket. Once the
    target is manipulated everywhere the parents are unreachable and only
    children plus spouses remain (exactly, when the family without the
    target is conservative; as an upper bound otherwise).

    Intersection axis: with the target never manipulated, covering all
    children leaves exactly the parents; never touching any child leaves the
    whole blanket; partial coverage lands in between. Once the target is
    manipulated anywhere the parents drop out: covered children force the
    empty set, untouched children leave exactly children plus spouses, and
    partial coverage only bounds it by children plus spouses.

    Each relation is asserted in the strongest form the proofs support:

    - Sandwich relations assert containment both ways, plus exactness when
      every child escapes manipulation somewhere, plus the absence of
      children that are manipulated everywhere and recoverable by no other
      role.
    - The parents and empty intersection claims tolerate precisely the
      variables that can lawfully leak through a second role: a child that
      also parents a sibling child, a parent that also parents a child, or
      a spouse shared by two or more children. Whenever no such dual-role
      variable exists nothing is tolerated and the equalities hold exactly.

    Every set is an index mask of ``dag`` until the report is built, so
    ``a & ~b`` is zero iff a is a subset of b.
    """
    c = classify_regime(dag, target, family)  # validates the names
    masks = _family_masks(dag, family)
    ti = dag._index[target]
    mbs = _blanket_masks(dag, ti, masks)
    union, inter = mask_union_and_intersection(mbs)

    pa, children = dag._pa[ti], dag._ch[ti]
    partners, multi_spouses = _collider_partners(dag, ti)
    ch_sp = children | partners
    mb = pa | ch_sp
    stuck = children & mask_union_and_intersection(masks)[1]  # manipulated everywhere
    unrecoverable = stuck & ~partners  # stuck children with no spouse role

    if c.zeta_class != "all":  # the target escapes manipulation somewhere
        if c.conservative_minus_t:
            union_rel, union_ok = UNION_EQUALS_MB, union == mb
        else:
            union_rel = UNION_BETWEEN_PA_AND_MB
            union_ok = not (pa & ~union or union & ~mb or union & unrecoverable)
            if not stuck:
                union_ok = union_ok and union == mb
    elif c.conservative_minus_t:
        union_rel, union_ok = UNION_EQUALS_CH_SP, union == ch_sp
    else:
        union_rel = UNION_SUBSET_CH_SP
        union_ok = not (union & ~ch_sp or union & unrecoverable)
        if children and stuck == children:
            union_ok = union_ok and not union

    if c.zeta_class == "zero":
        if c.children_covered:
            leakage = (children & partners) | multi_spouses
            inter_rel = INTER_EQUALS_PA
            inter_ok = not (pa & ~inter or inter & ~pa & ~leakage)
        elif c.children_untouched:
            inter_rel, inter_ok = INTER_EQUALS_MB, inter == mb
        else:
            inter_rel = INTER_BETWEEN_PA_AND_MB
            inter_ok = not (pa & ~inter or inter & ~mb)
    elif c.children_covered:
        leakage = (partners & (pa | children)) | multi_spouses
        inter_rel, inter_ok = INTER_EMPTY, not inter & ~leakage
    elif c.children_untouched:
        inter_rel, inter_ok = INTER_EQUALS_CH_SP, inter == ch_sp
    else:
        inter_rel, inter_ok = INTER_SUBSET_CH_SP, not inter & ~ch_sp

    named = dag._names
    return VerificationReport(
        target=target,
        classification=c,
        union_relation=union_rel,
        intersection_relation=inter_rel,
        mb=named(mb),
        parents=named(pa),
        children_and_spouses=named(ch_sp),
        mb_per_dataset=tuple(map(named, mbs)),
        union_actual=named(union),
        intersection_actual=named(inter),
        union_ok=union_ok,
        intersection_ok=inter_ok,
    )


# -- fuzzing -----------------------------------------------------------------

# (name, regime, conservative, children): a row's family is conservative
# (with the target removed) or not, and its target's children are all
# covered, some left uncovered, or either
_ROWS: tuple[tuple[str, str, bool, str], ...] = (
    ("union-zero-conservative", "zeta_zero", True, "any"),
    ("union-zero-nonconservative", "zeta_zero", False, "any"),
    ("union-mid-conservative", "zeta_mid", True, "any"),
    ("union-mid-nonconservative", "zeta_mid", False, "any"),
    ("union-all-conservative", "zeta_all", True, "any"),
    ("union-all-nonconservative", "zeta_all", False, "any"),
    ("intersection-zero-covered", "zeta_zero", True, "covered"),
    ("intersection-zero-uncovered", "zeta_zero", True, "uncovered"),
    ("intersection-mid-covered", "zeta_mid", True, "covered"),
    ("intersection-mid-uncovered", "zeta_mid", True, "uncovered"),
    ("intersection-all-covered", "zeta_all", True, "covered"),
    ("intersection-all-uncovered", "zeta_all", True, "uncovered"),
)

ROW_NAMES = tuple(name for name, *_ in _ROWS)


@dataclass
class RowStats:
    trials: int = 0
    failures: int = 0
    witnesses: list[dict] = field(default_factory=list)


@dataclass
class FuzzSummary:
    seed: int
    node_range: tuple[int, int]
    edge_prob: float
    n_datasets_range: tuple[int, int]
    rows: dict[str, RowStats]

    @property
    def total_trials(self) -> int:
        return sum(r.trials for r in self.rows.values())

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.rows.values())

    @property
    def passed(self) -> bool:
        return self.total_failures == 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "node_range": list(self.node_range),
            "edge_prob": self.edge_prob,
            "n_datasets_range": list(self.n_datasets_range),
            "rows": {
                name: {
                    "trials": r.trials,
                    "failures": r.failures,
                    "witnesses": r.witnesses[:5],
                }
                for name, r in self.rows.items()
            },
            "total_trials": self.total_trials,
            "total_failures": self.total_failures,
            "passed": self.passed,
        }


def _witness(dag: Dag, target: str, family: InterventionFamily, report: VerificationReport) -> dict:
    return {
        "variables": list(dag.variables),
        "edges": sorted(dag.edges),
        "target": target,
        "family": [sorted(s) for s in family.sets],
        "report": report.to_json_dict(),
    }


def fuzz_theorems(
    trials_per_row: int,
    node_range: tuple[int, int] = (6, 10),
    edge_prob: float = 0.3,
    n_datasets_range: tuple[int, int] = (2, 4),
    seed: int = 0,
) -> FuzzSummary:
    """Verify every regime row on random instances; failures carry witnesses.

    For each row a (graph, target, family) instance is drawn until it
    actually classifies into the row, post-editing the family where the
    generator cannot express the condition: non-conservativity is forced by
    inserting one non-target variable into every experiment, uncovered
    children by deleting one child from every experiment. Each instance is
    classified once, by :func:`verify`. The sampler and the post-edits
    guarantee that the classification fits the row, so an instance outside
    it is a bug in them and raises ``RuntimeError``.

    Rows that need a child or a second variable fit no one-node graph and
    no graph without edges, so the draws would never end, and the
    conservative zeta_zero rows and the zeta_mid rows cannot draw a single
    experiment: a node range that allows no graph of two nodes, an
    ``edge_prob`` outside (0, 1] (zero or NaN, say), a dataset range that
    starts below two or a reversed range raises ``ValueError``.
    """
    for name, (low, high) in (("node_range", node_range), ("n_datasets_range", n_datasets_range)):
        if low > high:
            raise ValueError(f"{name} is reversed: {low} > {high}")
    if node_range[1] < 2:
        raise ValueError(f"node_range must allow two nodes or more, got {node_range}")
    if not 0 < edge_prob <= 1:  # NaN fails too
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    if n_datasets_range[0] < 2:
        raise ValueError(
            f"n_datasets_range must start at two datasets or more, got {n_datasets_range}:"
            " the conservative zeta_zero rows and the zeta_mid rows need two experiments"
        )
    rows = {name: RowStats() for name in ROW_NAMES}
    master = np.random.SeedSequence(seed)
    row_streams = master.spawn(len(_ROWS))

    for (name, regime, conservative, children), stream in zip(_ROWS, row_streams):
        rng = np.random.default_rng(stream)
        stats = rows[name]
        while stats.trials < trials_per_row:
            n_nodes = int(rng.integers(node_range[0], node_range[1] + 1))
            dag = random_dag(n_nodes, edge_prob, rng)
            target = dag.variables[int(rng.integers(n_nodes))]
            t_children = dag.children(target)
            if children == "uncovered" and not t_children:
                continue
            n_datasets = int(rng.integers(n_datasets_range[0], n_datasets_range[1] + 1))
            family = generate_intervention_family(
                dag,
                target,
                n_datasets,
                regime,
                require_conservative=conservative,
                require_children_covered=children == "covered",
                seed=rng,
            )
            if not conservative:
                pool = [v for v in dag.variables if v != target]
                if not pool:
                    continue  # a single variable cannot break conservativity
                offender = pool[int(rng.integers(len(pool)))]
                family = InterventionFamily([s | {offender} for s in family.sets])
            if children == "uncovered":
                child = min(t_children)
                family = InterventionFamily([s - {child} for s in family.sets])

            report = verify(dag, target, family)
            c = report.classification
            if (
                c.zeta_class != regime.removeprefix("zeta_")
                or c.conservative_minus_t != conservative
                or (children != "any" and c.children_covered != (children == "covered"))
            ):
                raise RuntimeError(f"row {name!r} drew an instance outside it: {c}")
            stats.trials += 1
            if not report.passed:
                stats.failures += 1
                if len(stats.witnesses) < 5:
                    stats.witnesses.append(_witness(dag, target, family, report))

    return FuzzSummary(
        seed=seed,
        node_range=node_range,
        edge_prob=edge_prob,
        n_datasets_range=n_datasets_range,
        rows=rows,
    )
