import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mimb import (
    Dag,
    DataBackend,
    InterventionFamily,
    OracleBackend,
    baseline,
    generate_bundle,
    generate_intervention_family,
    is_conservative,
    mimb,
    mipc,
    random_cpts,
    random_dag,
    trace_example,
)
from mimb.util import iter_subsets, union_and_intersection


@pytest.fixture
def trace_backend():
    dag, family = trace_example()
    return OracleBackend(dag, family)


class TestTraceFixture:
    """The seven-variable walkthrough: every intermediate fact must hold."""

    def test_fixture_shape(self):
        dag, family = trace_example()
        assert dag.markov_blanket("T") == {"A", "B", "G", "C"}
        assert family.zeta("T") == 0
        assert is_conservative(family)

    def test_marginal_facts(self, trace_backend):
        t = trace_backend.test
        # E is dependent in the first two experiments, independent in the third
        assert not t("E", "T", (), 0).independent
        assert not t("E", "T", (), 1).independent
        assert t("E", "T", (), 2).independent
        # A and B are dependent everywhere
        for k in range(3):
            assert not t("A", "T", (), k).independent
            assert not t("B", "T", (), k).independent
        # F and C are independent everywhere
        for k in range(3):
            assert t("F", "T", (), k).independent
            assert t("C", "T", (), k).independent
        # G is independent only where it is manipulated
        assert t("G", "T", (), 0).independent
        assert not t("G", "T", (), 1).independent
        assert not t("G", "T", (), 2).independent

    def test_conditional_facts(self, trace_backend):
        t = trace_backend.test
        # candidate A survives conditioning on E
        assert not t("A", "T", ("E",), 0).independent
        assert not t("A", "T", ("E",), 1).independent
        # E falls to B in the second experiment but not the first
        assert not t("E", "T", ("B",), 0).independent
        assert t("E", "T", ("B",), 1).independent
        # B survives every subset of {E, A}
        for z in (("E",), ("A",), ("E", "A")):
            for k in range(3):
                zs = [v for v in z]
                assert not t("B", "T", zs, k).independent
        # G survives subsets of {A, B} where it is in play
        for z in (("A",), ("B",), ("A", "B")):
            for k in (1, 2):
                assert not t("G", "T", z, k).independent
        # spouse checks
        assert t("E", "T", ("B", "A"), 1).independent  # E is not a spouse
        assert t("C", "T", (), 1).independent
        assert not t("C", "T", ("G",), 1).independent  # C is a spouse via G

    def test_mipc_outputs(self, trace_backend):
        res = mipc(trace_backend, "T")
        assert res.cpc == ("A", "B", "G")
        assert [set(s) for s in res.cmb] == [
            {"A", "B"},
            {"A", "B", "G"},
            {"A", "B", "G"},
        ]
        assert res.sepsets["E"] == {"B"}
        assert res.sepsets["F"] == frozenset()
        assert res.sepsets["C"] == frozenset()
        assert (res.mb, res.parents) == union_and_intersection(res.cmb)
        assert (res.mb, res.parents) == ({"A", "B", "G"}, {"A", "B"})

    def test_neighbour_candidate_sets(self, trace_backend):
        assert set(mipc(trace_backend, "A").cpc) == {"E", "T"}
        assert set(mipc(trace_backend, "B").cpc) == {"E", "T"}
        assert set(mipc(trace_backend, "G").cpc) == {"C", "T"}

    def test_mimb_outputs(self, trace_backend):
        res = mimb(trace_backend, "T")
        assert res.mb == {"A", "B", "G", "C"}
        assert res.parents == {"A", "B"}
        # the spouse lands only in the experiment where it was certified
        assert [set(s) for s in res.cmb] == [
            {"A", "B"},
            {"A", "B", "G", "C"},
            {"A", "B", "G"},
        ]
        assert (res.mb, res.parents) == union_and_intersection(res.cmb)
        assert res.n_tests == trace_backend.ledger.total


class TestMipc:
    def test_observational_chain(self):
        dag = Dag(["A", "T", "B"], [("A", "T"), ("T", "B")])
        backend = OracleBackend(dag, InterventionFamily([set(), set()]))
        res = mipc(backend, "T")
        assert set(res.cpc) == {"A", "B"}

    def test_isolated_target(self):
        dag = Dag(["T", "X", "Y"], [("X", "Y")])
        backend = OracleBackend(dag, InterventionFamily([set()]))
        res = mipc(backend, "T")
        assert res.cpc == ()
        assert res.cmb == (frozenset(),)
        assert res.sepsets == {"X": frozenset(), "Y": frozenset()}

    def test_sepsets_only_for_non_members(self, trace_backend):
        res = mipc(trace_backend, "T")
        assert set(res.sepsets) == {"E", "F", "C"}


class TestSymmetryCorrection:
    @pytest.fixture
    def stuck_descendant(self):
        # T -> B <- A, A -> C, B -> C with A manipulated: C enters the
        # candidate set and no subset of it can remove C, because the
        # required conditioner A never becomes a candidate itself.
        dag = Dag(["T", "A", "B", "C"], [("T", "B"), ("A", "B"), ("A", "C"), ("B", "C")])
        return dag, InterventionFamily([{"A"}])

    def test_descendant_sticks_without_correction(self, stuck_descendant):
        dag, fam = stuck_descendant
        res = mimb(OracleBackend(dag, fam), "T", max_cond_size=4)
        assert "C" in res.cpc
        assert "C" in res.mb

    def test_correction_removes_descendant(self, stuck_descendant):
        dag, fam = stuck_descendant
        res = mimb(OracleBackend(dag, fam), "T", max_cond_size=4, symmetry_correction=True)
        assert res.cpc == ("B",)
        assert res.mb == {"A", "B"}  # the true blanket: child B, spouse A
        assert res.parents <= res.mb


def _witness(edges, target, family):
    """A ten-variable instance, X0..X9, from ``Xa→Xb`` edge strings."""
    names = [f"X{i}" for i in range(10)]
    dag = Dag(names, [tuple(edge.split("→")) for edge in edges.split()])
    return dag, target, InterventionFamily(family)


@pytest.fixture
def separator_reused_witness():
    # X0 ⊥ X6 | {X3} holds only in the last dataset, which manipulates the
    # common child X8; the spouse step reuses that separator elsewhere
    return _witness(
        "X0→X8 X1→X3 X1→X6 X3→X4 X3→X6 X4→X0 X5→X2 X5→X4 X6→X8 X7→X0 X7→X2 X9→X5 X9→X6",
        "X6",
        [{"X2", "X7"}, {"X1"}, {"X9"}, {"X5", "X8"}],
    )


@pytest.fixture
def symmetry_dropped_witness():
    # the correction drops the candidate X3, which has no separator, so the
    # spouse step conditions X3 on the empty set, where X6 connects it to X8
    return _witness(
        "X1→X0 X1→X3 X1→X4 X1→X6 X3→X7 X5→X3 X5→X7 X6→X2 X6→X3 X6→X4 X6→X7 X6→X9 X8→X4 X8→X6 X8→X7",
        "X8",
        [{"X2"}, {"X5"}, {"X5"}],
    )


class TestKnownMissesOnIdealTests:
    """Two instances where MIMB on the oracle misses a spouse, pinned as
    measured. A fix of either mechanism changes these on purpose."""

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_a_separator_from_one_dataset_misses_spouse_x0(
        self, separator_reused_witness, symmetry
    ):
        dag, target, family = separator_reused_witness
        res = mimb(OracleBackend(dag, family), target, 10, symmetry_correction=symmetry)
        assert dag.markov_blanket(target) == {"X0", "X1", "X3", "X8", "X9"}
        assert res.mb == {"X1", "X3", "X8", "X9"}
        assert res.parents == {"X1", "X3", "X9"}
        assert res.sepsets["X0"] == {"X3"}
        assert res.tests_per_dataset == (270, 373, 370, 77)

    @pytest.mark.parametrize(
        "symmetry, mb, tests",
        [
            (False, {"X1", "X3", "X4", "X5", "X6", "X7"}, (516, 877, 873)),
            (True, {"X1", "X4", "X5", "X6", "X7"}, (514, 879, 875)),
        ],
        ids=["plain", "corrected"],
    )
    def test_a_dropped_candidate_without_separator_misses_spouse_x3(
        self, symmetry_dropped_witness, symmetry, mb, tests
    ):
        dag, target, family = symmetry_dropped_witness
        res = mimb(OracleBackend(dag, family), target, 10, symmetry_correction=symmetry)
        assert dag.markov_blanket(target) == {"X1", "X3", "X4", "X5", "X6", "X7"}
        assert res.mb == mb
        assert ("X3" in res.cpc) is not symmetry
        assert "X3" not in res.sepsets
        assert res.tests_per_dataset == tests


class TestMimbProperties:
    def test_no_spouses_means_blanket_equals_candidates(self):
        dag = Dag(["A", "T", "B"], [("A", "T"), ("T", "B")])
        backend = OracleBackend(dag, InterventionFamily([set(), set()]))
        res = mimb(backend, "T")
        assert res.mb == set(res.cpc)

    def test_spouse_phase_is_sound_with_ideal_tests_under_correction(self):
        # with the symmetry correction the candidate set is exactly the true
        # parents/children, so every variable added beyond it is a spouse
        master = np.random.SeedSequence(41)
        for ss in master.spawn(200):
            rng = np.random.default_rng(ss)
            n = int(rng.integers(5, 10))
            dag = random_dag(n, 0.3, rng)
            target = dag.variables[int(rng.integers(n))]
            try:
                fam = generate_intervention_family(
                    dag, target, int(rng.integers(2, 5)), "zeta_zero",
                    require_conservative=True, seed=rng,
                )
            except Exception:
                continue
            res = mimb(
                OracleBackend(dag, fam), target, max_cond_size=n,
                symmetry_correction=True,
            )
            spouse_added = res.mb - set(res.cpc)
            assert spouse_added <= dag.spouses(target), (
                sorted(dag.edges), target, [sorted(s) for s in fam.sets],
            )

    def test_uncorrected_spouse_phase_can_overreach_regression(self):
        # A sticky candidate (X5, a grandchild reachable only through an
        # unconditionable spouse) seeds the spouse search, which then admits
        # X4 even though X4 is no spouse of X3. The symmetry correction
        # removes the sticky candidate and with it the false admission.
        dag = Dag(
            ["X0", "X1", "X2", "X3", "X4", "X5"],
            [("X0", "X5"), ("X1", "X0"), ("X1", "X5"),
             ("X3", "X0"), ("X4", "X2"), ("X4", "X5")],
        )
        fam = InterventionFamily([{"X0", "X1"}, {"X2", "X4"}, {"X1"}, {"X4"}])
        plain = mimb(OracleBackend(dag, fam), "X3", max_cond_size=6)
        assert "X4" in plain.mb
        assert "X4" not in dag.markov_blanket("X3")
        corrected = mimb(
            OracleBackend(dag, fam), "X3", max_cond_size=6, symmetry_correction=True
        )
        assert corrected.mb == dag.markov_blanket("X3") == {"X0", "X1"}

    def test_pc_subset_of_cpc_under_conservativity(self):
        # fuzz of the candidate-set completeness guarantee, no correction
        master = np.random.SeedSequence(43)
        done = 0
        for ss in master.spawn(1200):
            if done >= 500:
                break
            rng = np.random.default_rng(ss)
            n = int(rng.integers(5, 10))
            dag = random_dag(n, 0.3, rng)
            target = dag.variables[int(rng.integers(n))]
            regime = "zeta_zero" if rng.random() < 0.5 else "zeta_mid"
            try:
                fam = generate_intervention_family(
                    dag, target, int(rng.integers(2, 5)), regime,
                    require_conservative=True, seed=rng,
                )
            except Exception:
                continue
            done += 1
            res = mipc(OracleBackend(dag, fam), target, max_cond_size=n)
            pc = dag.parents(target) | dag.children(target)
            assert pc <= set(res.cpc), (
                sorted(dag.edges), target, [sorted(s) for s in fam.sets],
            )
        assert done >= 500

    def test_deterministic_on_data(self, alarm):
        fam = generate_intervention_family(
            alarm.dag, "VTUB", 3, "zeta_zero", seed=5, max_targets_per_set=3
        )
        bundle = generate_bundle(alarm, fam, 1000, seed=6)
        a = mimb(DataBackend(bundle, 0.01), "VTUB")
        b = mimb(DataBackend(bundle, 0.01), "VTUB")
        assert a.mb == b.mb and a.parents == b.parents
        assert a.cpc == b.cpc and a.n_tests == b.n_tests
        assert a.tests_per_dataset == b.tests_per_dataset

    def test_unreliable_dependence_does_not_admit_spouses(self):
        # tiny sample: the spouse check's second test is unreliable, so the
        # spouse must not be admitted on that evidence
        dag = Dag(["A", "T", "B", "F"], [("A", "T"), ("T", "B"), ("F", "B")])
        bn = random_cpts(dag, cardinality=4, dirichlet_alpha=0.7, seed=1)
        bundle = generate_bundle(bn, InterventionFamily([set()]), 60, seed=2)
        res = mimb(DataBackend(bundle, 0.2), "T", max_cond_size=2)
        assert "F" not in res.mb - set(res.cpc) or bundle[0].n_rows >= 5 * 4 * 4 * 16

    def test_ledger_equals_reported_tests(self, trace_backend):
        res = mimb(trace_backend, "T")
        assert res.n_tests == sum(res.tests_per_dataset)
        assert res.n_tests == trace_backend.ledger.total

    @pytest.mark.parametrize("algorithm", [mipc, mimb, baseline], ids=lambda f: f.__name__)
    def test_reported_tests_are_the_ledger_delta_of_the_call(self, trace_backend, algorithm):
        mimb(trace_backend, "A")  # an earlier run leaves the ledger non-zero
        start = trace_backend.ledger.snapshot()
        assert all(start)
        res = algorithm(trace_backend, "T")
        delta = tuple(a - b for a, b in zip(trace_backend.ledger.snapshot(), start))
        assert res.tests_per_dataset == delta
        assert res.n_tests == sum(delta) > 0


@pytest.mark.parametrize(
    "blankets, union, intersection",
    [
        ([], set(), set()),
        ([{"A", "B"}], {"A", "B"}, {"A", "B"}),
        ([{"A", "B"}, {"B", "C"}, frozenset({"B", "D"})], {"A", "B", "C", "D"}, {"B"}),
        ([{"A"}, set()], {"A"}, set()),
    ],
)
def test_union_and_intersection(blankets, union, intersection):
    assert union_and_intersection(blankets) == (union, intersection)
    assert all(type(s) is frozenset for s in union_and_intersection(iter(blankets)))


def _filtered_subsets(pool, max_size, containing=None):
    """The reference for ``iter_subsets``: every subset, filtered."""
    items = tuple(pool)
    for size in range(1, min(max_size, len(items)) + 1):
        for combo in itertools.combinations(items, size):
            if containing is None or containing in combo:
                yield combo


@st.composite
def _subset_queries(draw):
    # repeated names are allowed in the pool; a member, if any, is the
    # pool's last item and appears once, as the discovery algorithms pass it
    pool = draw(st.lists(st.sampled_from("ABCDEFGHI"), max_size=9))
    containing = None
    if pool and pool.count(pool[-1]) == 1 and draw(st.booleans()):
        containing = pool[-1]
    return pool, draw(st.integers(-1, 10)), containing


@given(_subset_queries())
@example((list("ABCD"), 3, "D"))
@example((list("ACAD"), 2, "D"))
def test_iter_subsets_matches_the_filter(query):
    # subset order fixes every test count, so the order must match too
    assert list(iter_subsets(*query)) == list(_filtered_subsets(*query))


@pytest.mark.parametrize(
    "pool, containing",
    [(list("ACBD"), "C"), (list("ABD"), "Z"), ([], "A"), (list("DAD"), "D")],
)
def test_iter_subsets_takes_the_member_only_last(pool, containing):
    with pytest.raises(ValueError, match="last member"):
        list(iter_subsets(pool, 3, containing))

