import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mimb.theorems
from mimb import (
    Dag,
    InterventionFamily,
    classify_regime,
    fuzz_theorems,
    is_conservative,
    oracle_mbs,
    random_dag,
    verify,
)
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
    _collider_partners,
)

import reference


@st.composite
def instances(draw, max_nodes=10, shuffled=False):
    """A random DAG of 1 to ``max_nodes`` nodes, a target, and 1-4
    experiments that may manipulate the target, its children, other
    variables or nothing.

    ``shuffled`` declares the names in a random order, so that name order
    (X10 before X2) and index order differ."""
    n = draw(st.integers(1, max_nodes))
    names = [f"X{i}" for i in range(n)]
    if shuffled:
        names = draw(st.permutations(names))
    pairs = list(itertools.combinations(draw(st.permutations(names)), 2))
    coins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dag = Dag(names, [pair for pair, coin in zip(pairs, coins) if coin])
    target = draw(st.sampled_from(names))
    children = sorted(dag.children(target))
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.sets(st.sampled_from(names), max_size=3))
        if draw(st.booleans()):
            s.add(target)
        if children:
            s |= draw(st.sets(st.sampled_from(children)))
        sets.append(s)
    return dag, target, InterventionFamily(sets)


@given(instances(max_nodes=14, shuffled=True))
def test_verification_matches_the_name_set_reference(instance):
    assert verify(*instance).to_json_dict() == reference.verify(*instance).to_json_dict()
    assert verify(*instance) == reference.verify(*instance)
    assert oracle_mbs(*instance) == reference.oracle_mbs(*instance)
    assert classify_regime(*instance) == reference.classify_regime(*instance)


def _collider_partners_reference(dag, target):
    return frozenset().union(*(dag.parents(c) for c in dag.children(target))) - {target}


def _multi_spouses_reference(dag, target):
    """The loop over every variable and child that the one pass replaced."""
    children = dag.children(target)
    return frozenset(
        m for m in dag.variables
        if m != target and sum(1 for c in children if m in dag.parents(c)) >= 2
    )


class TestOracleMbs:
    def test_fig2_scenario(self, fig2_dag, fig2_family):
        assert oracle_mbs(fig2_dag, "T", fig2_family) == (
            frozenset({"A"}),
            frozenset({"A", "B", "C"}),
            frozenset({"A", "B", "C"}),
        )

    def test_fig3_union(self, fig2_dag, fig3_family):
        mbs = oracle_mbs(fig2_dag, "T", fig3_family)
        assert frozenset().union(*mbs) == {"A", "B", "C"}

    def test_empty_interventions_repeat_the_blanket(self, fig2_dag):
        fam = InterventionFamily([set(), set(), set()])
        mbs = oracle_mbs(fig2_dag, "T", fam)
        assert all(mb == fig2_dag.markov_blanket("T") for mb in mbs)

    @given(instances())
    def test_matches_the_blanket_of_each_post_intervention_graph(self, instance):
        dag, target, family = instance
        assert oracle_mbs(dag, target, family) == tuple(
            dag.apply_intervention(s).markov_blanket(target) for s in family.sets
        )

    def test_unknown_names_are_rejected(self, fig2_dag):
        with pytest.raises(ValueError, match="unknown variables"):
            oracle_mbs(fig2_dag, "T", InterventionFamily([{"Q"}]))
        with pytest.raises(ValueError, match="unknown variable"):
            oracle_mbs(fig2_dag, "Q", InterventionFamily([set()]))


@given(instances())
def test_neighbourhood_matches_the_per_variable_references(instance):
    dag, target, family = instance
    partners, multi_spouses = map(dag._names, _collider_partners(dag, dag.index(target)))
    assert multi_spouses == _multi_spouses_reference(dag, target)
    assert partners == _collider_partners_reference(dag, target)
    p = verify(dag, target, family)
    assert p.mb == dag.markov_blanket(target)
    assert p.children_and_spouses == dag.children(target) | partners


class TestClassification:
    def test_fig4_scenario(self, fig2_dag, fig4_family):
        c = classify_regime(fig2_dag, "T", fig4_family)
        assert c.zeta_class == "all"
        assert not c.conservative
        assert c.conservative_minus_t
        assert c.children_covered

    def test_empty_family(self, fig2_dag):
        c = classify_regime(fig2_dag, "T", InterventionFamily([set(), set()]))
        assert c.zeta_class == "zero"
        assert c.conservative and c.children_untouched
        assert not c.children_covered

    def test_fig2_scenario(self, fig2_dag, fig2_family):
        c = classify_regime(fig2_dag, "T", fig2_family)
        assert c.zeta_class == "zero"
        assert c.conservative
        assert c.children_covered and not c.children_untouched

    @given(instances())
    def test_conservative_is_the_family_check(self, instance):
        # derived from conservative_minus_t and the zeta class, it must
        # agree with checking the whole family, target included
        dag, target, family = instance
        c = classify_regime(dag, target, family)
        assert c.conservative == is_conservative(family)
        assert verify(dag, target, family).classification == c


class TestPrediction:
    def test_zero_conservative_union(self, fig2_dag, fig2_family):
        p = verify(fig2_dag, "T", fig2_family)
        assert p.union_relation == UNION_EQUALS_MB
        assert p.intersection_relation == INTER_EQUALS_PA
        assert p.mb == {"A", "B", "C"}
        assert p.parents == {"A"}

    def test_zero_untouched_intersection(self, fig2_dag):
        fam = InterventionFamily([{"A"}, {"C"}])
        p = verify(fig2_dag, "T", fam)
        assert p.intersection_relation == INTER_EQUALS_MB

    def test_mid_covered_intersection_empty(self, fig2_dag):
        fam = InterventionFamily([{"B"}, {"T"}, set()])
        p = verify(fig2_dag, "T", fam)
        assert p.intersection_relation == INTER_EMPTY

    def test_zero_nonconservative_union_sandwich(self, fig2_dag):
        fam = InterventionFamily([{"B"}, {"B", "C"}])
        p = verify(fig2_dag, "T", fam)
        assert p.union_relation == UNION_BETWEEN_PA_AND_MB

    def test_all_minus_conservative_union(self, fig2_dag, fig4_family):
        p = verify(fig2_dag, "T", fig4_family)
        assert p.union_relation == UNION_EQUALS_CH_SP
        assert p.children_and_spouses == {"B", "C"}


class TestVerification:
    def test_fig2_passes(self, fig2_dag, fig2_family):
        report = verify(fig2_dag, "T", fig2_family)
        assert report.passed
        assert report.union_actual == {"A", "B", "C"}
        assert report.intersection_actual == {"A"}

    def test_fig4_union_misses_the_parent(self, fig2_dag, fig4_family):
        report = verify(fig2_dag, "T", fig4_family)
        assert report.passed
        assert report.union_actual == {"B", "C"}
        assert "A" not in report.union_actual

    def test_trivial_family_passes(self):
        dag = random_dag(8, 0.3, seed=3)
        fam = InterventionFamily([set(), set()])
        for target in dag.variables:
            assert verify(dag, target, fam).passed

    @given(instances())
    def test_every_instance_passes(self, instance):
        # the theory is exact for any family, not only the fuzzer's rows:
        # one experiment, any regime, covered or not
        report = verify(*instance)
        assert report.passed, report.to_json_dict()

    def test_shared_spouse_leak_is_lawful(self):
        # both children covered yet the shared spouse survives the
        # intersection; the parents claim must tolerate exactly this
        dag = Dag(["T", "c1", "c2", "s"],
                  [("T", "c1"), ("T", "c2"), ("s", "c1"), ("s", "c2")])
        fam = InterventionFamily([{"c1"}, {"c2"}])
        report = verify(dag, "T", fam)
        assert report.intersection_relation == INTER_EQUALS_PA
        assert report.intersection_actual == {"s"}
        assert report.passed

    def test_dual_role_child_leak_is_lawful(self):
        dag = Dag(["T", "c", "c2"], [("T", "c"), ("T", "c2"), ("c", "c2")])
        fam = InterventionFamily([{"c"}, {"c2"}])
        report = verify(dag, "T", fam)
        assert report.intersection_actual == {"c"}
        assert report.passed

    def test_a_stranger_in_every_blanket_fails_both_checks(self, monkeypatch):
        # every real instance passes, so show that each relation's check
        # can fail: one variable outside the target's blanket, added to
        # every per-dataset blanket, lands in the union and the
        # intersection and breaks every relation on both axes
        instances, real_verify = [], mimb.theorems.verify

        def recording(*args):
            instances.append(args)
            return real_verify(*args)

        monkeypatch.setattr(mimb.theorems, "verify", recording)
        fuzz_theorems(20, seed=3)

        stranger, real_blankets = None, mimb.theorems._blanket_masks
        monkeypatch.setattr(
            mimb.theorems, "_blanket_masks",
            lambda dag, ti, masks: tuple(
                mb | 1 << dag.index(stranger) for mb in real_blankets(dag, ti, masks)
            ),
        )
        relations = {"union": set(), "intersection": set()}
        checked = 0
        for dag, target, family in instances:
            outside = set(dag.variables) - dag.markov_blanket(target) - {target}
            if not outside:
                continue
            stranger = min(outside)
            report = real_verify(dag, target, family).to_json_dict()
            assert not report["union_ok"] and not report["intersection_ok"], report
            for axis, names in relations.items():
                names.add(report["predicted"][axis])
            checked += 1
        assert checked > 200
        assert relations == {
            "union": {UNION_EQUALS_MB, UNION_BETWEEN_PA_AND_MB,
                      UNION_EQUALS_CH_SP, UNION_SUBSET_CH_SP},
            "intersection": {INTER_EQUALS_PA, INTER_EQUALS_MB, INTER_BETWEEN_PA_AND_MB,
                             INTER_EMPTY, INTER_EQUALS_CH_SP, INTER_SUBSET_CH_SP},
        }

    def test_report_serialises(self, fig2_dag, fig2_family):
        report = verify(fig2_dag, "T", fig2_family)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["passed"] is True
        assert payload["actual"]["union"] == ["A", "B", "C"]


class TestSetAlgebra:
    def test_observational_dataset_never_hurts(self):
        # appending an empty experiment grows the union monotonically and
        # the intersection never exceeds the true blanket
        master = np.random.SeedSequence(17)
        for ss in master.spawn(50):
            rng = np.random.default_rng(ss)
            dag = random_dag(7, 0.3, rng)
            target = dag.variables[int(rng.integers(7))]
            sets = [
                {v for v in dag.variables if v != target and rng.random() < 0.2}
                for _ in range(3)
            ]
            fam = InterventionFamily(sets)
            extended = InterventionFamily(sets + [set()])
            mbs = oracle_mbs(dag, target, fam)
            mbs_ext = oracle_mbs(dag, target, extended)
            union = frozenset().union(*mbs)
            union_ext = frozenset().union(*mbs_ext)
            inter_ext = mbs_ext[0].intersection(*mbs_ext[1:])
            assert union <= union_ext
            assert inter_ext <= dag.markov_blanket(target)


class TestFuzzer:
    def test_small_run_is_clean_and_deterministic(self):
        a = fuzz_theorems(60, node_range=(6, 9), seed=12)
        b = fuzz_theorems(60, node_range=(6, 9), seed=12)
        assert a.total_failures == 0
        assert a.total_trials == 60 * 12
        assert a.to_json_dict() == b.to_json_dict()

    # the settings that used to redraw forever are checked through the CLI,
    # under a timeout, in test_cli.py
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"node_range": (0, 1)}, "two nodes or more"),
            ({"node_range": (5, 2)}, "node_range is reversed"),
            ({"n_datasets_range": (3, 2)}, "n_datasets_range is reversed"),
            ({"n_datasets_range": (1, 3)}, "two datasets or more"),
        ]
        + [
            ({"edge_prob": value}, r"edge_prob must be in \(0, 1\]")
            for value in (0.0, -1.0, 1.5, float("inf"), float("nan"))
        ],
    )
    def test_settings_that_fit_no_row_raise(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fuzz_theorems(1, **kwargs)

    def test_complete_graphs_are_a_valid_setting(self):
        summary = fuzz_theorems(2, node_range=(3, 5), edge_prob=1.0, seed=6)
        assert summary.total_failures == 0
        assert summary.total_trials == 2 * 12

    def test_each_instance_is_classified_once(self, monkeypatch):
        # the loop reaches all four through the module's attributes, which
        # a tracer rebinds to time each layer; the counts are pinned
        calls = dict.fromkeys(
            ("classify_regime", "verify", "random_dag", "generate_intervention_family"), 0
        )
        for name in calls:
            real = getattr(mimb.theorems, name)

            def counted(*args, name=name, real=real, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(mimb.theorems, name, counted)
        summary = fuzz_theorems(5, seed=3)
        assert calls["classify_regime"] == calls["verify"] == summary.total_trials == 60
        assert calls["generate_intervention_family"] == 60
        assert calls["random_dag"] == 73  # 13 graphs had no child for an uncovered row

    def test_fuzzed_graphs_build_no_sweep_tables(self, monkeypatch):
        # the fuzzer builds thousands of graphs and sweeps none of them, so
        # none may pay for the tables of the d-separation sweep or for the
        # adjacency lists of the lane sweep
        def refuse(dag):
            raise AssertionError("sweep tables built")

        monkeypatch.setattr(Dag, "_sweep_tables", refuse)
        monkeypatch.setattr(Dag, "_adjacency_lists", refuse)
        assert fuzz_theorems(5, seed=3).total_trials == 60

    def test_an_instance_outside_its_row_is_an_internal_error(self, monkeypatch):
        # a family manipulating the target everywhere fits no zeta_zero row
        monkeypatch.setattr(
            mimb.theorems, "generate_intervention_family",
            lambda dag, target, n, *args, **kwargs: InterventionFamily([{target}] * n),
        )
        with pytest.raises(RuntimeError, match=r"row 'union-zero-conservative' .*zeta_class='all'"):
            fuzz_theorems(1)

    def test_reports_do_not_depend_on_the_hash_seed(self):
        # the verification walks sets: hash the first 100 reports of a fuzz
        # run in subprocesses with forced hash seeds
        script = (
            "import hashlib, json\n"
            "import mimb.theorems as t\n"
            "h, reports, real = hashlib.sha256(), [], t.verify\n"
            "def verify(*args):\n"
            "    report = real(*args)\n"
            "    reports.append(report)\n"
            "    return report\n"
            "t.verify = verify\n"
            "t.fuzz_theorems(9, seed=5)\n"
            "for r in reports[:100]: h.update(json.dumps(r.to_json_dict()).encode())\n"
            "print(len(reports), h.hexdigest())\n"
        )
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
        assert outputs.pop() == (
            "108 c5645044a24857dba12aa6721b013477867449e5ff1b50d287054b602098d706"
        )

    def test_single_node_graphs_pass_vacuously(self):
        summary = fuzz_theorems(5, node_range=(1, 2), edge_prob=0.5,
                                n_datasets_range=(2, 3), seed=4)
        assert summary.total_failures == 0
