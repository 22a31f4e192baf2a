"""The separator search of MIPC answered in one backend call.

``citest.first_separation`` asks a backend's bulk method when its class
has one and overrides no ``test`` below it, and otherwise asks ``test``
query by query; that loop is the reference. ``OracleBackend.test`` is
itself a one-query search, so the reference side here is
``PerQueryOracle``, which answers each query on its own with a memo of its
own. On data the reference side is ``LoopedData``, which overrides
``DataBackend.test`` with itself. Every check runs the same work on both
and asks for the same results, the same ledger counts and hits, and the
same errors; on data also for bit-identical memos.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from mimb import (
    CiResult,
    Dag,
    DataBackend,
    InterventionFamily,
    OracleBackend,
    baseline,
    generate_bundle,
    generate_intervention_family,
    mimb,
    random_cpts,
    random_dag,
    trace_example,
)
from mimb import citest
from mimb.bayesnet import Dataset, DatasetBundle
from mimb.citest import SeparatorSearch, first_separation
from mimb.util import iter_subsets

SEPARATED = CiResult(statistic=0.0, dof=0, p_value=1.0, independent=True, reliable=True)
CONNECTED = CiResult(statistic=float("inf"), dof=0, p_value=0.0, independent=False, reliable=True)


class PerQueryOracle(OracleBackend):
    """The oracle backend query by query: one sweep per query, memoised
    under (zmask, dataset) for the current y and dropped when a query
    names another y. It overrides ``test``, so separator searches come
    through it query by query too."""

    def __init__(self, dag, family):
        super().__init__(dag, family)
        self._sweeps = {}
        self._sweeps_y = -1

    def test(self, x, y, z, dataset_index):
        n = self.n_datasets
        if not 0 <= dataset_index < n:
            raise ValueError(f"dataset index {dataset_index} is outside 0..{n - 1}")
        xi, yi, zmask = self.dag._query(x, y, z)
        if yi != self._sweeps_y:
            self._sweeps.clear()
            self._sweeps_y = yi
        key = (zmask, dataset_index)
        reached = self._sweeps.get(key)
        if reached is None:
            reached = self._sweeps[key] = self.post_dags[dataset_index]._connected_mask(yi, zmask)
        else:
            self.ledger.hits[dataset_index] += 1
        self.ledger.counts[dataset_index] += 1
        return CONNECTED if reached >> xi & 1 else SEPARATED


def _pair(dag, family):
    """(reference, bulk): two fresh backends on the same instance."""
    return PerQueryOracle(dag, family), OracleBackend(dag, family)


def _same_ledgers(reference, bulk):
    assert reference.ledger.counts == bulk.ledger.counts
    assert reference.ledger.hits == bulk.ledger.hits


# -- MIMB end to end -----------------------------------------------------------


def _alarm_instances(alarm):
    """The benchmark's oracle targets, each with its seed-7 family."""
    master = np.random.SeedSequence(7)
    for target in ("HR", "CO", "ACO2", "HRBP", "ERCA", "TPR"):
        family = generate_intervention_family(
            alarm.dag, target, 5, "zeta_zero",
            require_conservative=True, max_targets_per_set=3, seed=master.spawn(1)[0],
        )
        yield alarm.dag, target, family


def _criterion_4_instances(count, seed):
    """Random conservative zeta-zero and zeta-mid instances drawn the way
    the ideal-test acceptance criterion draws them."""
    for ss in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(ss)
        n_nodes = int(rng.integers(6, 11))
        dag = random_dag(n_nodes, 0.3, rng)
        target = dag.variables[int(rng.integers(n_nodes))]
        regime = "zeta_zero" if rng.random() < 0.5 else "zeta_mid"
        covered = regime == "zeta_zero" and bool(rng.random() < 0.7)
        family = generate_intervention_family(
            dag, target, int(rng.integers(3, 6)), regime,
            require_conservative=True, require_children_covered=covered, seed=rng,
        )
        yield dag, target, family


def _check_mimb(dag, target, family, max_cond_size, symmetry):
    reference, bulk = _pair(dag, family)
    expected = mimb(reference, target, max_cond_size, symmetry_correction=symmetry)
    assert mimb(bulk, target, max_cond_size, symmetry_correction=symmetry) == expected
    _same_ledgers(reference, bulk)
    return expected, (bulk.ledger.counts, bulk.ledger.hits)


def _digest(result):
    """A short hash of the candidates, the per-dataset candidate blankets,
    the separators and the tests per dataset of a result."""
    shape = (
        list(result.cpc),
        [sorted(s) for s in result.cmb],
        sorted((v, sorted(s)) for v, s in result.sepsets.items()),
        list(result.tests_per_dataset),
    )
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()[:16]


SETTINGS = [(size, symmetry) for size in ("3", "n") for symmetry in (False, True)]


# (counts, hits) per dataset of MIMB at max_cond_size 3 without symmetry
# correction, as recorded when the sweep memo was keyed by (z, dataset)
# rather than holding one row per z
PINNED_LEDGERS = {
    "T": ([38, 92, 69], [25, 52, 40]),
    "HR": ([37059, 43441, 8636, 15628, 43375], [33369, 39281, 7248, 13668, 39215]),
    "CO": ([60167, 48175, 29761, 60167, 60079], [55646, 44290, 27289, 55619, 55561]),
    "ACO2": ([33572, 27850, 15045, 38069, 28506], [30297, 24921, 13283, 34446, 25527]),
    "HRBP": ([28578, 28589, 21976, 21448, 18428], [26164, 26164, 19929, 19448, 16671]),
    "ERCA": ([11550, 19262, 206, 10837, 28521], [10348, 17515, 167, 9861, 26166]),
    "TPR": ([4027, 1798, 5795, 3932, 5788], [3437, 1540, 5055, 3368, 5051]),
}


# _digest of MIMB at max_cond_size 3 per (target, symmetry correction), as
# recorded when MIPC kept one candidate-blanket set per dataset
PINNED_DIGESTS = {
    ("T", False): "7c27e598eb77f0db",
    ("T", True): "7c27e598eb77f0db",
    ("HR", False): "fa5661be9fa1932c",
    ("HR", True): "fa5661be9fa1932c",
    ("CO", False): "48f50b9ce2bdf8fb",
    ("CO", True): "48f50b9ce2bdf8fb",
    ("ACO2", False): "42af7861e82cf805",
    ("ACO2", True): "94eee52a4d88cd71",
    ("HRBP", False): "a6fdb25e24b6e3bd",
    ("HRBP", True): "a6fdb25e24b6e3bd",
    ("ERCA", False): "1105a3b7c87f7c46",
    ("ERCA", True): "1105a3b7c87f7c46",
    ("TPR", False): "42064cb84d091831",
    ("TPR", True): "42064cb84d091831",
}


@pytest.mark.parametrize("size, symmetry", SETTINGS)
def test_mimb_on_the_trace_example(size, symmetry):
    dag, family = trace_example()
    max_cond = 3 if size == "3" else len(dag.variables)
    result, ledger = _check_mimb(dag, "T", family, max_cond, symmetry)
    assert result.mb == {"A", "B", "G", "C"}
    if size == "3":
        assert _digest(result) == PINNED_DIGESTS["T", symmetry]
        if not symmetry:
            assert ledger == PINNED_LEDGERS["T"]


def test_the_oracle_memo_of_one_alarm_target_stays_small(alarm):
    # the traced peak of MIMB for CO on its seed-7 family at max_cond_size
    # 3 (Python 3.11): 1.16 MB with one memo int per (z, dataset) and the
    # lane tables kept, 0.81 MB with two ints per z and no tables
    family = next(f for _, target, f in _alarm_instances(alarm) if target == "CO")
    backend = OracleBackend(alarm.dag, family)
    tracemalloc.start()
    try:
        result = mimb(backend, "CO", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_tests == sum(PINNED_LEDGERS["CO"][0])
    assert peak < 1_000_000


@pytest.mark.parametrize("symmetry", [False, True])
def test_mimb_on_the_alarm_oracle_targets(alarm, symmetry):
    # max_cond_size 3 only: at n = 37 one target alone asks millions of tests
    for dag, target, family in _alarm_instances(alarm):
        result, ledger = _check_mimb(dag, target, family, 3, symmetry)
        assert _digest(result) == PINNED_DIGESTS[target, symmetry]
        if not symmetry:
            assert ledger == PINNED_LEDGERS[target]


@pytest.mark.parametrize("size, symmetry", SETTINGS)
def test_mimb_on_random_instances(size, symmetry):
    n_tests = 0
    for dag, target, family in _criterion_4_instances(120, seed=61):
        max_cond = 3 if size == "3" else len(dag.variables)
        n_tests += _check_mimb(dag, target, family, max_cond, symmetry)[0].n_tests
    assert n_tests > 0


# -- the helper called directly --------------------------------------------------


def _outcome(backend, x, y, candidates):
    """What a search returns, or the type and message of what it raises,
    with how many candidates it read."""
    read = []

    def lazily():
        for candidate in candidates:
            read.append(candidate)
            yield candidate

    try:
        answer = first_separation(backend, x, y, lazily())
    except ValueError as exc:
        answer = (type(exc), str(exc))
    return answer, len(read)


def _same_search(reference, bulk, x, y, candidates):
    outcome = _outcome(reference, x, y, candidates)
    assert _outcome(bulk, x, y, candidates) == outcome
    _same_ledgers(reference, bulk)
    return outcome


# x = A is a parent of T in every post-intervention graph of the trace
# example, so no candidate before the bad one separates it
BAD_SEARCHES = {
    "unknown name in a later z": (
        "A", "T", [(("E",), [0, 1, 2]), (("B", "NOPE"), [1, 2])], "unknown variable 'NOPE'",
    ),
    "x is y": ("T", "T", [(("E",), []), (("E",), [2])], "must differ"),
    "x in a later z": ("A", "T", [(("E",), [0, 2]), (("B", "A"), [1])], "conditioning set"),
    "index past the end in a later candidate": (
        "A", "T", [(("E",), [0, 1]), (("B",), [2, 3, 0])], "outside 0..2",
    ),
    "negative index in a later candidate": (
        "A", "T", [(("E",), [0]), (("B",), [1, -1])], "outside 0..2",
    ),
}


@pytest.mark.parametrize("name", list(BAD_SEARCHES))
def test_an_error_comes_at_the_same_query(name):
    x, y, candidates, message = BAD_SEARCHES[name]
    reference, bulk = _pair(*trace_example())
    # E is separated from T by B in the second experiment only
    assert _same_search(reference, bulk, "E", "T", [(("B",), [0, 1, 2])]) == ((("B",), 1), 1)
    (answer, read) = _same_search(reference, bulk, x, y, candidates)
    assert answer[0] is ValueError and message in answer[1]
    assert read == len(candidates)
    # the memo is left alike too: a repeat is answered with the same hits
    assert _same_search(reference, bulk, "E", "T", [(("A",), [2]), (("B",), [0, 1])]) == (
        (("A",), 2), 1,
    )


def test_a_search_reads_no_candidate_past_the_separation():
    reference, bulk = _pair(*trace_example())
    candidates = [((), [0, 1]), (("A",), []), (("B",), [0, 1, 2]), (("A", "B"), [2])]
    assert _same_search(reference, bulk, "E", "T", candidates) == ((("B",), 1), 3)
    assert reference.ledger.counts == [2, 2, 0]
    assert _same_search(reference, bulk, "E", "T", []) == (None, 0)


class CountingOracle(OracleBackend):
    """An oracle backend that overrides ``test`` alone and counts its calls."""

    def __init__(self, dag, family):
        super().__init__(dag, family)
        self.calls = 0

    def test(self, x, y, z, dataset_index):
        self.calls += 1
        return super().test(x, y, z, dataset_index)


def test_a_subclass_that_overrides_test_answers_every_query():
    backend = CountingOracle(*trace_example())
    result = mimb(backend, "T")
    assert backend.calls == backend.ledger.total == result.n_tests == 199
    assert result == mimb(OracleBackend(*trace_example()), "T")


def test_a_subclass_that_keeps_test_keeps_the_bulk_search(monkeypatch):
    class Inherits(OracleBackend):
        pass

    class OverridesBoth(CountingOracle):
        first_separation = OracleBackend.first_separation

    asked = []
    plain = OracleBackend.test
    monkeypatch.setattr(OracleBackend, "test", lambda self, *q: asked.append(q) or plain(self, *q))
    for cls in (Inherits, OverridesBoth):
        backend = cls(*trace_example())
        assert first_separation(backend, "E", "T", [(("B",), [0, 1, 2])]) == (("B",), 1)
        assert backend.ledger.total == 2
    assert asked == []


def _random_search(rng, names, y, n_datasets):
    """A search for x and y over a few candidates, now and then with a name
    that is unknown, repeated or x or y, or a dataset index outside the
    family."""
    x = y if rng.random() < 0.03 else str(rng.choice([v for v in names if v != y]))
    others = [v for v in names if v not in (x, y)]
    candidates = []
    for _ in range(int(rng.integers(0, 6))):
        size = int(rng.integers(0, min(3, len(others)) + 1))
        z = [str(v) for v in rng.choice(others, size, replace=False)]
        if rng.random() < 0.03:
            z.append(str(rng.choice([x, y, "NOPE", *names])))
        count = int(rng.integers(0, n_datasets + 1))
        datasets = [int(k) for k in rng.permutation(n_datasets)[:count]]
        if rng.random() < 0.03:
            datasets.insert(int(rng.integers(len(datasets) + 1)), int(rng.choice([-1, n_datasets])))
        candidates.append((tuple(z), datasets))
    return x, y, candidates


def test_random_searches_match_the_query_by_query_loop():
    outcomes = set()
    for ss in np.random.SeedSequence(67).spawn(40):
        rng = np.random.default_rng(ss)
        dag = random_dag(int(rng.integers(3, 9)), 0.35, rng)
        names = list(dag.variables)
        family = InterventionFamily(
            {v for v in names if rng.random() < 0.25} for _ in range(int(rng.integers(1, 4)))
        )
        reference, bulk = _pair(dag, family)
        # one backend pair for many searches, so the memo carries over
        # while y stays and is dropped when it changes
        for _ in range(6):
            y = str(rng.choice(names))
            for _ in range(10):
                search = _random_search(rng, names, y, len(family))
                answer, _ = _same_search(reference, bulk, *search)
                outcomes.add(
                    "none" if answer is None else "error" if answer[0] is ValueError else "found"
                )
        assert sum(bulk.ledger.hits) > 0
    assert outcomes == {"none", "error", "found"}


# -- the data backend ------------------------------------------------------------


class LoopedData(DataBackend):
    """The data backend query by query: it overrides ``test``, so every
    separator search comes through ``test``."""

    def test(self, x, y, z, dataset_index):
        return super().test(x, y, z, dataset_index)


def _unequal_bundle(bn, family, sizes, seed):
    """A bundle sampled from ``bn`` whose datasets keep ``sizes`` rows."""
    bundle = generate_bundle(bn, family, max(sizes), seed=seed)
    return DatasetBundle(
        Dataset(d.schema, d.rows[:n], d.intervention) for d, n in zip(bundle, sizes)
    )


def _bits(backend):
    """The memo, each float as its hex form, so equal means bit-identical."""
    return {
        key: (r.statistic.hex(), r.dof, r.p_value.hex(), r.independent, r.reliable)
        for key, r in backend._memo.items()
    }


def _same_data_search(reference, bulk, x, y, candidates):
    """``_same_search`` without the read count, which the bulk data search
    may exceed to compute ahead, and with the memos compared bit for bit."""
    answer = _outcome(reference, x, y, candidates)[0]
    assert _outcome(bulk, x, y, candidates)[0] == answer
    _same_ledgers(reference, bulk)
    assert _bits(bulk) == _bits(reference)
    return answer


def _chain_bundle():
    """The chain V0 -> V1 -> ... -> V5 in datasets of 3000, 500 and 40
    rows, sampled so that V0 and V1 test dependent given any z, and V1 and
    V4 given nothing, but not given V2 in the first dataset."""
    names = [f"V{i}" for i in range(6)]
    dag = Dag(names, list(zip(names, names[1:])))
    bn = random_cpts(dag, 3, seed=5)
    return _unequal_bundle(bn, InterventionFamily([set(), {"V3"}, {"V5"}]), [3000, 500, 40], 4)


# V0 and V1 test dependent in every dataset, so no candidate before the bad
# one separates them and each search is read to its end
BAD_DATA_SEARCHES = {
    "unknown name in a later z": (
        "V0", "V1", [(("V2",), [0, 1, 2]), (("V3", "NOPE"), [1, 2])], "unknown variable 'NOPE'",
    ),
    "unknown x": ("NOPE", "V1", [(("V2",), []), ((), [2])], "unknown variable 'NOPE'"),
    "x is y": ("V1", "V1", [(("V2",), []), (("V2",), [2])], "must be disjoint"),
    "x in a later z": ("V0", "V1", [(("V2",), [0, 2]), (("V3", "V0"), [1])], "must be disjoint"),
    "a repeated name": ("V0", "V1", [((), [0]), (("V3", "V3"), [1])], "must be disjoint"),
    "index past the end in a later candidate": (
        "V0", "V1", [(("V2",), [0, 1]), (("V3",), [2, 3, 0])], "outside 0..2",
    ),
    "negative index in a later candidate": (
        "V0", "V1", [(("V2",), [0]), (("V3",), [1, -1])], "outside 0..2",
    ),
    "bad index before an unknown name": (
        "V0", "V1", [(("V2",), [0]), (("NOPE",), [5, 0])], "outside 0..2",
    ),
}


@pytest.mark.parametrize("name", list(BAD_DATA_SEARCHES))
def test_a_data_search_error_comes_at_the_same_query(name):
    x, y, candidates, message = BAD_DATA_SEARCHES[name]
    bundle = _chain_bundle()
    reference, bulk = LoopedData(bundle), DataBackend(bundle)
    first = [(("V2", "V3"), [0, 1, 2]), (("V4",), [2, 0])]
    assert _same_data_search(reference, bulk, "V0", "V1", first) is None
    assert bulk.ledger.counts == [2, 1, 2]
    answer = _same_data_search(reference, bulk, x, y, candidates)
    assert answer[0] is ValueError and message in answer[1]
    # the memo is left alike too: a repeat is answered with the same hits
    assert _same_data_search(reference, bulk, "V0", "V1", candidates[:1] + first) is None
    assert sum(bulk.ledger.hits) >= 5


def test_a_bad_query_past_the_separation_is_never_raised():
    bundle = _chain_bundle()
    reference, bulk = LoopedData(bundle), DataBackend(bundle)
    candidates = [((), [0]), (("V2",), [0]), (("V3", "NOPE"), [0]), (("V3",), [7])]
    assert _same_data_search(reference, bulk, "V4", "V1", candidates) == (("V2",), 0)
    assert bulk.ledger.counts == [2, 0, 0]
    # the walked queries were kept, and only those: a repeat is all hits
    assert _same_data_search(reference, bulk, "V4", "V1", candidates[:2]) == (("V2",), 0)
    assert bulk.ledger.hits == [2, 0, 0]


def test_random_data_searches_match_the_query_by_query_loop():
    outcomes = set()
    for ss in np.random.SeedSequence(71).spawn(12):
        rng = np.random.default_rng(ss)
        dag = random_dag(int(rng.integers(3, 9)), 0.35, rng)
        names = list(dag.variables)
        family = InterventionFamily(
            {v for v in names if rng.random() < 0.25} for _ in range(int(rng.integers(1, 4)))
        )
        bn = random_cpts(dag, int(rng.integers(2, 4)), seed=rng)
        sizes = [int(rng.choice([30, 200, 1000])) for _ in range(len(family))]
        bundle = _unequal_bundle(bn, family, sizes, int(rng.integers(2**32)))
        reference, bulk = LoopedData(bundle, 0.05), DataBackend(bundle, 0.05)
        # one backend pair for many searches, so the memo carries over
        for _ in range(6):
            y = str(rng.choice(names))
            for _ in range(10):
                search = _random_search(rng, names, y, len(family))
                answer = _same_data_search(reference, bulk, *search)
                outcomes.add(
                    "none" if answer is None else "error" if answer[0] is ValueError else "found"
                )
        assert sum(bulk.ledger.hits) > 0
    assert outcomes == {"none", "error", "found"}


def test_mimb_and_the_baseline_on_data_match_the_query_by_query_loop(alarm):
    family = generate_intervention_family(
        alarm.dag, "VTUB", 4, "zeta_zero", max_targets_per_set=3, seed=5
    )
    bundle = _unequal_bundle(alarm, family, [2000, 1200, 600, 2500], 6)
    for algorithm in (mimb, baseline):
        reference, bulk = LoopedData(bundle), DataBackend(bundle)
        assert algorithm(bulk, "VTUB") == algorithm(reference, "VTUB")
        _same_ledgers(reference, bulk)
        assert _bits(bulk) == _bits(reference)


# -- the search value ------------------------------------------------------------


def _generator_search(pool, max_size, containing, x_mask, holding):
    """The separator search as MIPC wrote it before the search value: the
    subsets of ``iter_subsets``, each with the datasets of x's holding mask
    ANDed with its members' (``holding`` maps each name to its mask)."""
    for subset in iter_subsets(pool, max_size, containing=containing):
        mask = x_mask
        for u in subset:
            mask &= holding[u]
        yield subset, tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def test_the_search_value_iterates_the_generators_pairs():
    names = [f"V{i}" for i in range(9)]
    shapes = set()
    for ss in np.random.SeedSequence(73).spawn(300):
        rng = np.random.default_rng(ss)
        pool = [str(v) for v in rng.permutation(names)[: int(rng.integers(0, 8))]]
        max_size = int(rng.integers(0, 5))
        containing = pool[-1] if pool and rng.random() < 0.5 else None
        n_datasets = int(rng.integers(1, 6))
        draw = lambda: 0 if rng.random() < 0.1 else int(rng.integers(2**n_datasets))
        x_mask = draw()
        holding = {v: draw() for v in pool}
        search = SeparatorSearch(pool, max_size, x_mask, [holding[v] for v in pool], containing)
        expected = list(_generator_search(pool, max_size, containing, x_mask, holding))
        assert list(search) == expected
        # the index-space view of the same subsets, one list per size
        bits = [1 << names.index(v) for v in pool]
        levels = list(search.levels(bits))
        for size, level in enumerate(levels, 1):
            assert {zmask.bit_count() for zmask, _, _ in level} == {size}
        masked = [subset for level in levels for subset in level]
        assert [zmask for zmask, _, _ in masked] == [
            sum(1 << names.index(v) for v in z) for z, _ in expected
        ]
        assert [dmask for _, dmask, _ in masked] == [
            sum(1 << k for k in datasets) for _, datasets in expected
        ]
        assert [search.names_of(zmask, bits) for zmask, _, _ in masked] == [z for z, _ in expected]
        shapes.add("empty" if not expected else "no datasets" if x_mask == 0 else "some")
    assert shapes == {"empty", "no datasets", "some"}


def test_a_search_value_checks_its_pool_and_masks():
    for pool, containing in [(["A", "B"], "A"), ([], "A"), (["A"], "B")]:
        with pytest.raises(ValueError, match="last member"):
            list(iter_subsets(pool, 3, containing))
        with pytest.raises(ValueError, match="last member"):
            SeparatorSearch(pool, 3, 1, [1] * len(pool), containing)
    with pytest.raises(ValueError, match="distinct"):
        SeparatorSearch(["A", "B", "A"], 3, 1, [1, 1, 1], "A")
    with pytest.raises(ValueError, match="one holding mask"):
        SeparatorSearch(["A", "B"], 2, 1, [1])
    with pytest.raises(ValueError, match="nonnegative"):
        SeparatorSearch(["A"], 1, -1, [1])


def _lane_counts(monkeypatch):
    """The lane count of every lane sweep from now on, in call order."""
    calls = []
    sweep = Dag._lane_sweep

    def counted(dag, yi, z_lanes, gates, lanes):
        calls.append(lanes.bit_length())
        return sweep(dag, yi, z_lanes, gates, lanes)

    monkeypatch.setattr(Dag, "_lane_sweep", counted)
    return calls


def _same_search_value(reference, bulk, x, y, search):
    """The search value asked of both backends directly, so the bulk side
    walks it in index space."""
    try:
        expected = first_separation(reference, x, y, search)
    except ValueError as exc:
        expected = (type(exc), str(exc))
    try:
        answer = first_separation(bulk, x, y, search)
    except ValueError as exc:
        answer = (type(exc), str(exc))
    assert answer == expected
    _same_ledgers(reference, bulk)
    return answer


def _fan_instance(n_noise, fan_last=False):
    """x -> M -> y and x -> z, with ``n_noise`` isolated nodes N0, N1, ...
    and three experiments that manipulate some of them: x and y are
    separated by any set holding M, and by no other; nothing separates x
    and z. The noise comes first in the node order if ``fan_last``."""
    noise = [f"N{i}" for i in range(n_noise)]
    fan = ["x", "M", "y", "z"]
    names = [*noise, *fan] if fan_last else [*fan, *noise]
    dag = Dag(names, [("x", "M"), ("M", "y"), ("x", "z")])
    family = InterventionFamily([set(), set(noise[:2]), set(noise[1:3])])
    return dag, family, noise


def test_a_separation_at_the_first_lane_of_a_later_batch(monkeypatch):
    # every noise singleton is asked in all three datasets first, so with
    # as many noise nodes as a batch has lanes, (M,) in dataset 0 is lane 0
    # of the fourth batch
    dag, family, noise = _fan_instance(citest._LANES)
    search = SeparatorSearch([*noise, "M"], 2, 0b111, [0b111] * (len(noise) + 1))
    reference, bulk = _pair(dag, family)
    lanes = _lane_counts(monkeypatch)
    assert _same_search_value(reference, bulk, "x", "y", search) == (("M",), 0)
    assert lanes == [citest._LANES] * 4
    assert bulk.ledger.counts == [citest._LANES + 1, citest._LANES, citest._LANES]
    # asked again, the walked queries are hits and nothing is swept
    lanes.clear()
    assert _same_search_value(reference, bulk, "x", "y", search) == (("M",), 0)
    assert lanes == [] and sum(bulk.ledger.hits) == 3 * citest._LANES + 1
    # (M,) in datasets 1 and 2 was swept past the separation and dropped,
    # so it is a miss when a search gets to it
    skip_0 = SeparatorSearch([*noise, "M"], 1, 0b110, [0b111] * (len(noise) + 1))
    assert _same_search_value(reference, bulk, "x", "y", skip_0) == (("M",), 1)
    assert lanes == [2] and bulk.ledger.hits[1] == 2 * citest._LANES


def test_searches_longer_than_one_batch(monkeypatch):
    dag, family, noise = _fan_instance(40)
    reference, bulk = _pair(dag, family)
    lanes = _lane_counts(monkeypatch)
    # no subset of the noise separates: every pair in the datasets that
    # hold both members, 780 pairs and 40 singletons in all
    holding = [(0b111, 0b101, 0b011, 0b110)[i % 4] for i in range(len(noise))]
    search = SeparatorSearch(noise, 2, 0b111, holding)
    assert _same_search_value(reference, bulk, "x", "y", search) is None
    assert len(lanes) > 3 and max(lanes) == citest._LANES
    # every miss is a lane, but a last batch of one is a single sweep
    assert bulk.ledger.total - 1 <= sum(lanes) <= bulk.ledger.total
    # the same search again is all hits, with no sweep
    lanes.clear()
    assert _same_search_value(reference, bulk, "x", "y", search) is None
    assert lanes == [] and bulk.ledger.hits == [c // 2 for c in bulk.ledger.counts]
    # memoised queries after a miss are left out of its batch: the pairs
    # of the last 20 noise nodes come last in the search of all 40
    late = SeparatorSearch(noise[20:], 2, 0b111, holding[20:])
    assert _same_search_value(reference, bulk, "x", "z", late) is None
    lanes.clear()
    before = bulk.ledger.total - sum(bulk.ledger.hits)
    search = SeparatorSearch(noise, 2, 0b111, holding)
    assert _same_search_value(reference, bulk, "x", "z", search) is None
    misses = bulk.ledger.total - sum(bulk.ledger.hits) - before
    assert misses - 1 <= sum(lanes) <= misses
    # with M the member every subset holds, (M,) comes first, asked in the
    # one dataset that holds x and M
    search = SeparatorSearch([*noise, "M"], 2, 0b110, [*holding, 0b010], "M")
    assert _same_search_value(reference, bulk, "x", "y", search) == (("M",), 1)


BAD_SEARCH_VALUES = {
    "unknown member after the separation": (
        "x", "y", (["M", "NOPE"], 2, 0b1, [0b1, 0b1]), (("M",), 0),
    ),
    "unknown member": ("x", "y", (["N0", "NOPE", "M"], 1, 0b11, [1, 3, 3]), "unknown variable"),
    "x in the pool": ("x", "y", (["N0", "x", "M"], 2, 0b11, [3, 3, 3]), "conditioning set"),
    "x is y": ("y", "y", (["N0"], 2, 0b10, [3]), "must differ"),
    "unknown x in a search of no query": ("NOPE", "y", (["N0"], 1, 0b1, [0b10]), None),
    "a dataset past the family": ("x", "y", (["N0", "M"], 2, 0b1001, [0b1000, 1]), "outside 0..2"),
}


@pytest.mark.parametrize("name", list(BAD_SEARCH_VALUES))
def test_a_bad_search_value_raises_at_the_same_query(name, monkeypatch):
    x, y, args, expected = BAD_SEARCH_VALUES[name]
    reference, bulk = _pair(*_fan_instance(2)[:2])
    assert _same_search_value(reference, bulk, "x", "y", SeparatorSearch(["M"], 1, 1, [1])) == (
        ("M",), 0,
    )
    lanes = _lane_counts(monkeypatch)
    answer = _same_search_value(reference, bulk, x, y, SeparatorSearch(*args))
    if isinstance(expected, str):
        assert answer[0] is ValueError and expected in answer[1]
    else:
        assert answer == expected
    assert lanes == []
    # the memo is left alike too
    assert _same_search_value(reference, bulk, "x", "y", SeparatorSearch(["M"], 1, 7, [7])) == (
        ("M",), 0,
    )


@pytest.mark.parametrize("lanes", [2, 5, 64])
def test_mimb_on_search_values_with_small_batches(lanes, monkeypatch):
    # few lanes per batch, so searches span many batches and separate at
    # every position of one, the first lane included
    monkeypatch.setattr(citest, "_LANES", lanes)
    counts = _lane_counts(monkeypatch)
    for dag, target, family in _criterion_4_instances(40, seed=79):
        _check_mimb(dag, target, family, len(dag.variables), False)
    dag, family = trace_example()
    _check_mimb(dag, "T", family, 3, True)
    assert counts and max(counts) == lanes


def test_the_baseline_on_the_oracle_matches_the_query_by_query_loop(alarm):
    instances = [(*trace_example()[:1], "T", trace_example()[1])]
    instances += list(_criterion_4_instances(30, seed=83))
    instances += list(_alarm_instances(alarm))[-1:]
    for dag, target, family in instances:
        reference, bulk = _pair(dag, family)
        assert baseline(bulk, target) == baseline(reference, target)
        _same_ledgers(reference, bulk)
        assert sum(bulk.ledger.hits) > 0


def _random_search_value(rng, names, y, n_datasets):
    """x and a search value for x and y: a random pool, size cap and
    containing member, with random holding masks (now and then none), and
    now and then a member that is unknown or x or y, or a mask bit past
    the family."""
    x = y if rng.random() < 0.03 else str(rng.choice([v for v in names if v != y]))
    others = [v for v in names if v not in (x, y)]
    pool = [str(v) for v in rng.permutation(others)[: int(rng.integers(0, len(others) + 1))]]
    if rng.random() < 0.05:
        pool.insert(int(rng.integers(len(pool) + 1)), str(rng.choice([x, y, "NOPE"])))
    width = n_datasets + (rng.random() < 0.05)
    draw = lambda: 0 if rng.random() < 0.1 else int(rng.integers(2**width))
    containing = pool[-1] if pool and rng.random() < 0.5 and pool[-1] not in pool[:-1] else None
    masks = [draw() for _ in pool]
    return x, SeparatorSearch(pool, int(rng.integers(0, 4)), draw(), masks, containing)


@pytest.mark.parametrize("lanes", [3, 256])
def test_random_search_values_match_the_query_by_query_loop(lanes, monkeypatch):
    monkeypatch.setattr(citest, "_LANES", lanes)
    outcomes = set()
    for ss in np.random.SeedSequence(89).spawn(30):
        rng = np.random.default_rng(ss)
        dag = random_dag(int(rng.integers(3, 12)), 0.3, rng)
        names = list(dag.variables)
        family = InterventionFamily(
            {v for v in names if rng.random() < 0.25} for _ in range(int(rng.integers(1, 5)))
        )
        reference, bulk = _pair(dag, family)
        # one backend pair for many searches, so the memo carries over
        # while y stays and is dropped at the first query that names
        # another y
        for _ in range(6):
            y = str(rng.choice(names))
            for _ in range(10):
                x, search = _random_search_value(rng, names, y, len(family))
                answer = _same_search_value(reference, bulk, x, y, search)
                outcomes.add(
                    "none" if answer is None else "error" if answer[0] is ValueError else "found"
                )
                # a lone query through test, so the memo mixes both forms
                z = [v for v in search.pool[:1] if v in names and v not in (x, y)]
                if x != y and x in names:
                    assert reference.test(x, y, z, 0) == bulk.test(x, y, z, 0)
                    _same_ledgers(reference, bulk)
        assert sum(bulk.ledger.hits) > 0
    assert outcomes == {"none", "error", "found"}


def test_a_search_of_no_query_keeps_the_memo():
    # the memo is dropped at the first query that names another y, not at
    # a search for another y that asks nothing
    dag, family, noise = _fan_instance(3)
    reference, bulk = _pair(dag, family)
    search = SeparatorSearch(noise, 2, 0b111, [0b111] * 3)
    nothing = SeparatorSearch(noise, 2, 0b100, [0b011] * 3)
    assert _same_search_value(reference, bulk, "x", "y", search) is None
    assert _same_search_value(reference, bulk, "x", "z", nothing) is None
    assert _same_search_value(reference, bulk, "x", "y", search) is None
    assert bulk.ledger.hits == [6, 6, 6]


# -- subsets decided from the memo at once -----------------------------------------


def _cut_instance():
    """x -> M -> y -> w and isolated N0, N1, N2, in three experiments of
    which the second manipulates M: there x and y are separated given any
    z, in the others given any z that holds M; w and y are never
    separated."""
    noise = ["N0", "N1", "N2"]
    dag = Dag(["x", "M", "y", "w", *noise], [("x", "M"), ("M", "y"), ("y", "w")])
    return dag, InterventionFamily([set(), {"M"}, set()]), noise


def _sweeps(monkeypatch):
    """The lane count of every sweep from now on, 1 for a single sweep,
    on either backend of a pair."""
    calls = _lane_counts(monkeypatch)
    single = Dag._connected_mask

    def counted(dag, yi, zmask):
        calls.append(1)
        return single(dag, yi, zmask)

    monkeypatch.setattr(Dag, "_connected_mask", counted)
    return calls


def _memoised_pair(monkeypatch):
    """A backend pair on the cut instance whose memos hold every subset of
    the noise of up to 2 members, swept in all three datasets, and a sweep
    counter started after that."""
    dag, family, noise = _cut_instance()
    reference, bulk = _pair(dag, family)
    everything = SeparatorSearch(noise, 2, 0b111, [0b111] * 3)
    assert _same_search_value(reference, bulk, "w", "y", everything) is None
    assert bulk.ledger.counts == [6, 6, 6] and bulk.ledger.hits == [0, 0, 0]
    return reference, bulk, noise, _sweeps(monkeypatch)


def test_a_memoised_subset_that_separates_at_its_second_dataset(monkeypatch):
    reference, bulk, noise, sweeps = _memoised_pair(monkeypatch)
    # (N0,) and (N1,) are asked in datasets 0 and 2 and connected in both;
    # (N2,) is connected in dataset 0 and separates in dataset 1, so its
    # dataset 2 is never asked
    search = SeparatorSearch(noise, 2, 0b111, [0b101, 0b101, 0b111])
    assert _same_search_value(reference, bulk, "x", "y", search) == (("N2",), 1)
    assert bulk.ledger.counts == [9, 7, 8] and bulk.ledger.hits == [3, 1, 2]
    assert sweeps == []


def test_a_partly_memoised_subset_is_walked_dataset_by_dataset(monkeypatch):
    dag, family, noise = _cut_instance()
    reference, bulk = _pair(dag, family)
    # (N0,) swept in datasets 0 and 2 only
    first = SeparatorSearch(noise[:1], 1, 0b101, [0b111])
    assert _same_search_value(reference, bulk, "w", "y", first) is None
    sweeps = _sweeps(monkeypatch)
    search = SeparatorSearch(noise, 2, 0b111, [0b111] * 3)
    # a hit in dataset 0, a miss in dataset 1 that separates, and dataset
    # 2 never asked; the lanes read ahead past it are dropped
    assert _same_search_value(reference, bulk, "x", "y", search) == (("N0",), 1)
    assert bulk.ledger.counts == [2, 1, 1] and bulk.ledger.hits == [1, 0, 0]
    assert sorted(sweeps) == [1, 16]
    # now (N0,) is swept in all three and decided at once, and every
    # other subset is a miss in each of its datasets
    assert _same_search_value(reference, bulk, "w", "y", search) is None
    assert bulk.ledger.counts == [8, 7, 7] and bulk.ledger.hits == [2, 1, 1]


def test_a_memoised_search_with_no_separation_counts_every_query(monkeypatch):
    reference, bulk, noise, sweeps = _memoised_pair(monkeypatch)
    # subsets asked in {0, 1}, {1, 2}, {0, 1, 2}, {1}, {0, 1} and {1, 2}
    search = SeparatorSearch(noise, 2, 0b111, [0b011, 0b110, 0b111])
    assert _same_search_value(reference, bulk, "w", "y", search) is None
    assert bulk.ledger.counts == [9, 12, 9] and bulk.ledger.hits == [3, 6, 3]
    assert sweeps == []


@pytest.mark.parametrize("n_noise", [60, 70])
def test_memo_rows_of_graphs_of_64_nodes_and_more(n_noise, monkeypatch):
    # with the noise first, the fan's nodes are the last four: up to node
    # 63 of a 64-node graph, or past node 64 of a 74-node one
    dag, family, noise = _fan_instance(n_noise, fan_last=True)
    reference, bulk = _pair(dag, family)
    lanes = _lane_counts(monkeypatch)
    holding = [(0b111, 0b101, 0b011, 0b110)[i % 4] for i in range(n_noise)]
    singletons = SeparatorSearch([*noise, "M"], 1, 0b111, [*holding, 0b111])
    pairs = SeparatorSearch(noise, 2, 0b111, holding)
    # each search swept as lanes first, then answered from the memo
    for _ in range(2):
        assert _same_search_value(reference, bulk, "x", "y", singletons) == (("M",), 0)
    for _ in range(2):
        assert _same_search_value(reference, bulk, "x", "z", pairs) is None
    assert max(lanes) == citest._LANES
    # the second run of each search is all hits
    assert 2 * sum(bulk.ledger.hits) == bulk.ledger.total
