"""Single-dataset Markov blanket discovery (HITON style) and the baseline
that unions per-dataset blankets and intersects them for the parent set."""

from __future__ import annotations

from dataclasses import dataclass

from .citest import CiBackend, SeparatorSearch, first_separation
from .util import union_and_intersection


@dataclass(frozen=True)
class SingleMbResult:
    """Output of one single-dataset blanket discovery."""

    pc: tuple[str, ...]
    mb: frozenset[str]
    sepsets: dict[str, frozenset[str]]


@dataclass(frozen=True)
class BaselineResult:
    """The per-dataset blankets, their union (``mb``) and intersection
    (``parents``), with the tests spent."""

    mb: frozenset[str]
    parents: frozenset[str]
    per_dataset: tuple[SingleMbResult, ...]
    tests_per_dataset: tuple[int, ...]

    @property
    def n_tests(self) -> int:
        return sum(self.tests_per_dataset)


def hiton_pc(
    backend: CiBackend,
    dataset_index: int,
    target: str,
    max_cond_size: int = 3,
) -> tuple[list[str], dict[str, frozenset[str]]]:
    """Parents-and-children discovery with interleaved inclusion/elimination.

    Candidates dependent on the target enter in ascending order of marginal
    p-value (ties broken by declaration order). Each admission triggers an
    elimination pass over every current member: a member separated from the
    target by some subset (up to ``max_cond_size``) of the other current
    members is dropped and its separating set recorded. The pass deliberately
    re-searches all subsets each time, which is the documented cost profile
    of this family of algorithms; on a fixed dataset re-tests are replays,
    so only the test count grows. Each member's search is one
    :func:`~mimb.citest.first_separation` call on a
    :class:`~mimb.citest.SeparatorSearch` of the one dataset. Variables
    never admitted keep the set that first separated them (the empty set
    for marginal independence).
    """
    ranked: list[tuple[float, int, str]] = []
    sepsets: dict[str, frozenset[str]] = {}
    for position, v in enumerate(backend.variables):
        if v == target:
            continue
        res = backend.test(v, target, (), dataset_index)
        if res.independent:
            sepsets[v] = frozenset()
        else:
            ranked.append((res.p_value, position, v))
    ranked.sort()

    pc: list[str] = []
    for _, _, v in ranked:
        pc.append(v)
        for u in list(pc):
            if u not in pc:
                continue
            pool = [w for w in pc if w != u]
            only = 1 << dataset_index  # the one dataset as a holding mask
            search = SeparatorSearch(pool, max_cond_size, only, [only] * len(pool))
            found = first_separation(backend, u, target, search)
            if found is not None:
                pc.remove(u)
                sepsets[u] = frozenset(found[0])
    return pc, sepsets


def hiton_mb(
    backend: CiBackend,
    dataset_index: int,
    target: str,
    max_cond_size: int = 3,
) -> SingleMbResult:
    """Blanket = parents/children plus spouses recovered via collider tests.

    For every u in pc(target) and every w in pc(u) outside pc(target), w is a
    spouse when it becomes dependent on the target once u joins w's recorded
    separating set.
    """
    pc, sepsets = hiton_pc(backend, dataset_index, target, max_cond_size)
    mb = set(pc)
    for u in pc:
        pc_u, _ = hiton_pc(backend, dataset_index, u, max_cond_size)
        for w in pc_u:
            if w == target or w in pc or w in mb:
                continue
            res = backend.test(w, target, sepsets[w] | {u}, dataset_index)
            if res.reliable and not res.independent:
                mb.add(w)
    return SingleMbResult(pc=tuple(pc), mb=frozenset(mb), sepsets=sepsets)


def baseline(
    backend: CiBackend,
    target: str,
    max_cond_size: int = 3,
) -> BaselineResult:
    """Discover the blanket in every dataset independently, then aggregate.

    The union of the per-dataset blankets estimates the true blanket and
    their intersection estimates the parent set. No information is shared
    between datasets; the repeated work is the point of comparison for the
    cross-dataset algorithm.
    """
    start = backend.ledger.snapshot()
    per_dataset = tuple(
        hiton_mb(backend, i, target, max_cond_size) for i in range(backend.n_datasets)
    )
    mb, parents = union_and_intersection(r.mb for r in per_dataset)
    return BaselineResult(
        mb=mb,
        parents=parents,
        per_dataset=per_dataset,
        tests_per_dataset=backend.ledger.since(start),
    )
