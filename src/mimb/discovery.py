"""Cross-dataset Markov blanket discovery: the MIPC subroutine and the MIMB
algorithm.

MIPC finds candidate parents/children of a target by pooling evidence from
every dataset: a variable found independent somewhere credible is removed
everywhere, so tests are not repeated per dataset the way the baseline must.
MIMB adds spouse recovery on top and reports the union of per-dataset
candidate blankets as the blanket and their intersection as the parent set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .citest import CiBackend, SeparatorSearch, first_separation
from .graph import Dag, InterventionFamily
from .util import union_and_intersection


@dataclass(frozen=True)
class DiscoveryResult:
    """Candidate parents/children, per-dataset candidate blankets and their
    union (``mb``) and intersection (``parents``), with the tests spent."""

    mb: frozenset[str]
    parents: frozenset[str]
    cpc: tuple[str, ...]
    cmb: tuple[frozenset[str], ...]
    sepsets: dict[str, frozenset[str]]
    tests_per_dataset: tuple[int, ...]

    @property
    def n_tests(self) -> int:
        return sum(self.tests_per_dataset)


def _result(cpc, cmb, sepsets, tests_per_dataset) -> DiscoveryResult:
    cmb = tuple(frozenset(s) for s in cmb)
    mb, parents = union_and_intersection(cmb)
    return DiscoveryResult(mb, parents, tuple(cpc), cmb, sepsets, tests_per_dataset)


def mipc(
    backend: CiBackend,
    target: str,
    max_cond_size: int = 3,
) -> DiscoveryResult:
    """Candidate parent/children discovery across all datasets.

    Phase 1 tests every other variable against the target marginally in
    every dataset; a variable dependent anywhere becomes a candidate and is
    recorded in that dataset's candidate blanket. A variable independent
    everywhere keeps the empty set as its separator and is never
    reconsidered.

    Phase 2 walks the candidates in admission order maintaining an
    intermediate set ipc. A candidate v is discarded if some non-empty
    subset S of ipc separates it from the target in a dataset whose
    candidate blanket contains both v and S; the removal applies to every
    dataset's blanket. Otherwise v joins ipc and every earlier member is
    re-examined, but only against subsets that contain the newly admitted
    v. Search order is deterministic: subset sizes ascending, subsets
    lexicographic by member position, datasets in bundle order; the first
    separation wins. Each search is one :func:`~mimb.citest.first_separation`
    call on a :class:`~mimb.citest.SeparatorSearch`. A removed variable
    never re-enters ipc, so ``sepsets`` holds exactly the variables outside
    ``cpc``.
    """
    n = backend.n_datasets
    start = backend.ledger.snapshot()

    # candidate -> the datasets whose candidate blanket holds it, as a
    # bitmask (bit k is dataset k); insertion order is admission order
    holding: dict[str, int] = {}
    sepsets: dict[str, frozenset[str]] = {}
    for v in backend.variables:
        if v == target:
            continue
        mask = 0
        for i in range(n):
            if not backend.test(v, target, (), i).independent:
                mask |= 1 << i
        if mask:
            holding[v] = mask
        else:
            sepsets[v] = frozenset()

    def remove_if_separated(v: str, pool: list[str], must_contain: str | None) -> bool:
        masks = [holding[u] for u in pool]
        search = SeparatorSearch(pool, max_cond_size, holding[v], masks, must_contain)
        found = first_separation(backend, v, target, search)
        if found is not None:
            del holding[v]
            sepsets[v] = frozenset(found[0])
        return found is not None

    ipc: list[str] = []
    for v in list(holding):
        if remove_if_separated(v, ipc, None):
            continue
        ipc.append(v)
        for y in [u for u in ipc if u != v]:
            if remove_if_separated(y, [u for u in ipc if u != y], v):
                ipc.remove(y)

    cmb = [{v for v, mask in holding.items() if mask >> k & 1} for k in range(n)]
    return _result(ipc, cmb, sepsets, backend.ledger.since(start))


def mimb(
    backend: CiBackend,
    target: str,
    max_cond_size: int = 3,
    *,
    symmetry_correction: bool = False,
) -> DiscoveryResult:
    """Blanket and parent-set discovery across multiple datasets.

    Runs :func:`mipc` for the target, then for each candidate v runs it
    again (candidate set only) to harvest spouse candidates. A candidate
    spouse x of the target via v is accepted in the first dataset whose
    candidate blanket contains v and in which x is independent of the target
    given its recorded separator yet dependent once v is added; x then joins
    that dataset's candidate blanket. When x's separator already contains v
    the pair of conditions cannot hold and no test is spent.

    With ``symmetry_correction`` a candidate v is dropped (from the
    candidate set and every per-dataset blanket) when the target is not
    among v's own candidates; dropped variables stay eligible as spouses.
    """
    start = backend.ledger.snapshot()
    res = mipc(backend, target, max_cond_size)

    cpc = list(res.cpc)
    cmb = [set(s) for s in res.cmb]
    sepsets = res.sepsets
    n = backend.n_datasets

    cpc_of: dict[str, tuple[str, ...]] = {}
    for v in cpc:
        cpc_of[v] = mipc(backend, v, max_cond_size).cpc

    if symmetry_correction:
        surviving = [v for v in cpc if target in cpc_of[v]]
        for v in cpc:
            if v not in surviving:
                for k in range(n):
                    cmb[k].discard(v)
        cpc = surviving

    for v in cpc:
        for x in cpc_of[v]:
            if x == target or x in cpc:
                continue
            sep = sepsets.get(x, frozenset())
            if v in sep:
                continue
            for k in range(n):
                if v not in cmb[k]:
                    continue
                first = backend.test(x, target, sep, k)
                if not first.independent:
                    continue
                second = backend.test(x, target, sep | {v}, k)
                if second.reliable and not second.independent:
                    # admission needs positive evidence of dependence; an
                    # unreliable verdict is not evidence
                    cmb[k].add(x)
                    break

    return _result(cpc, cmb, sepsets, backend.ledger.since(start))


def trace_example() -> tuple[Dag, InterventionFamily]:
    """A seven-variable fixture with three experiments whose oracle run
    exercises every branch of the discovery pipeline.

    The target T has parents A and B (with common parent E) and child G;
    C is a spouse of T through G and is fed by the remote root F.
    Experiments manipulate {G}, {A} and {A, B}; the family is conservative
    and never touches T.
    """
    dag = Dag(
        ["E", "A", "B", "F", "C", "G", "T"],
        [
            ("E", "A"),
            ("E", "B"),
            ("A", "T"),
            ("B", "T"),
            ("T", "G"),
            ("C", "G"),
            ("F", "C"),
        ],
    )
    family = InterventionFamily([{"G"}, {"A"}, {"A", "B"}])
    return dag, family
