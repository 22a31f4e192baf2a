import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mimb import (
    BayesianNetwork,
    ConstraintError,
    Dag,
    InterventionFamily,
    generate_bundle,
    generate_intervention_family,
    is_conservative,
    random_cpts,
    random_dag,
)

import reference


def _regime_conservative(family, target):
    """The reference for the one conservativity rule: the family itself,
    or the family without the target when every experiment manipulates it."""
    if family.zeta(target) == len(family):
        return is_conservative(family.without(target))
    return is_conservative(family)


@given(st.lists(st.sets(st.sampled_from("TABC")), min_size=1, max_size=5))
def test_one_conservativity_rule_matches_the_regime_choice(sets):
    family = InterventionFamily(sets)
    assert is_conservative(family.without("T")) == _regime_conservative(family, "T")


def _random_dag_reference(n_nodes, edge_prob, rng):
    """The per-pair loop random_dag replaced: one scalar draw per coin."""
    names = tuple(f"X{i}" for i in range(n_nodes))
    order = rng.permutation(n_nodes)
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges.append((names[order[i]], names[order[j]]))
    return Dag(names, edges)


@given(
    st.integers(1, 10),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, 2**32 - 1),
)
@example(1, 0.5, 0)
@example(6, 0.0, 1)
@example(6, 1.0, 2)
def test_random_dag_matches_the_per_pair_loop(n_nodes, edge_prob, seed):
    # the same graph, and the generator left in the same state
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_dag(n_nodes, edge_prob, fast) == _random_dag_reference(n_nodes, edge_prob, slow)
    assert fast.random() == slow.random()


def _random_cpts_reference(dag, cardinality, dirichlet_alpha, rng):
    """The construction random_cpts replaced: explicit declaration-order
    parent orders and ``s{i}`` labels."""
    labels = tuple(f"s{i}" for i in range(cardinality))
    states = {v: labels for v in dag.variables}
    cpts = {}
    orders = {}
    for v in dag.variables:
        order = tuple(u for u in dag.variables if u in dag.parents(v))
        n_rows = cardinality ** len(order)
        cpts[v] = rng.dirichlet(np.full(cardinality, dirichlet_alpha), size=n_rows)
        orders[v] = order
    return BayesianNetwork(dag, states, cpts, parent_orders=orders)


@pytest.mark.parametrize("cardinality", [2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_random_cpts_matches_the_declaration_order_construction(cardinality, seed):
    dag = random_dag(1 + seed * 2, 0.5, seed)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    new = random_cpts(dag, cardinality, 0.7, fast)
    old = _random_cpts_reference(dag, cardinality, 0.7, slow)
    assert new.schema == old.schema
    assert new.parent_orders == old.parent_orders
    for v in dag.variables:
        assert np.array_equal(new.cpts[v], old.cpts[v])
    assert fast.random() == slow.random()


def _assert_same_family_and_stream(dag, target, n, regime, seed, **kwargs):
    """The sampler and its name-set reference return the same family, or
    the same error, and leave their generators in the same state."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    outcomes = []
    for sampler, rng in (
        (generate_intervention_family, fast),
        (reference.generate_intervention_family, slow),
    ):
        try:
            outcomes.append(sampler(dag, target, n, regime, seed=rng, **kwargs))
        except ConstraintError as exc:
            outcomes.append(f"ConstraintError: {exc}")
    assert outcomes[0] == outcomes[1], (target, n, regime, seed, kwargs)
    assert fast.random() == slow.random()


@pytest.mark.parametrize("regime", ["zeta_zero", "zeta_mid", "zeta_all"])
@pytest.mark.parametrize("conservative", [True, False])
@pytest.mark.parametrize("covered", [True, False])
def test_family_sampler_matches_the_name_set_reference_on_alarm(alarm, regime, conservative, covered):
    # ALARM's names are in no order related to their indices, so the
    # repairs must follow name order to draw as the reference does
    for target in alarm.dag.variables:
        for seed in range(4):
            _assert_same_family_and_stream(
                alarm.dag, target, 1 + seed, regime, seed,
                require_conservative=conservative, require_children_covered=covered,
            )


@pytest.mark.parametrize("n_nodes", [11, 12, 13, 14])
def test_family_sampler_matches_the_name_set_reference_on_random_graphs(n_nodes):
    # X10..X13 sort between X1 and X2; one manipulated variable per
    # experiment or all of them, so that many draws need the repair
    for seed in range(6):
        dag = random_dag(n_nodes, 0.3, seed=seed)
        for target in dag.variables:
            for regime in ("zeta_zero", "zeta_mid", "zeta_all"):
                for max_t in (None, 1, n_nodes):
                    _assert_same_family_and_stream(
                        dag, target, 2 + seed % 3, regime, seed,
                        require_conservative=seed % 2 == 0,
                        require_children_covered=seed % 4 < 2,
                        max_targets_per_set=max_t,
                    )


class TestRandomDag:
    def test_edge_prob_zero_is_empty(self):
        assert random_dag(6, 0.0, seed=0).edges == frozenset()

    def test_edge_prob_one_is_complete(self):
        dag = random_dag(4, 1.0, seed=0)
        assert len(dag.edges) == 6

    def test_always_acyclic(self):
        # construction would raise on a cycle, so surviving construction
        # plus a full topological order is the check
        for seed in range(200):
            dag = random_dag(8, 0.25, seed=seed)
            assert len(dag.topological_order()) == 8

    def test_deterministic(self):
        assert random_dag(7, 0.4, seed=5) == random_dag(7, 0.4, seed=5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            random_dag(0, 0.5, seed=1)
        with pytest.raises(ValueError):
            random_dag(3, 1.5, seed=1)


class TestRandomCpts:
    def test_shapes_and_sums(self):
        dag = random_dag(5, 0.5, seed=2)
        bn = random_cpts(dag, cardinality=3, dirichlet_alpha=1.0, seed=3)
        for v in dag.variables:
            table = bn.cpts[v]
            assert table.shape == (3 ** len(dag.parents(v)), 3)
            assert np.allclose(table.sum(axis=1), 1.0)

    def test_rejects_bad_args(self):
        dag = random_dag(3, 0.5, seed=2)
        with pytest.raises(ValueError):
            random_cpts(dag, cardinality=1)
        for alpha in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                random_cpts(dag, dirichlet_alpha=alpha)


class TestInterventionFamilies:
    def test_zeta_zero_never_touches_target(self, alarm):
        for seed in range(30):
            fam = generate_intervention_family(alarm.dag, "VTUB", 4, "zeta_zero", seed=seed)
            assert fam.zeta("VTUB") == 0

    def test_zeta_mid_is_strictly_between(self, alarm):
        for seed in range(30):
            fam = generate_intervention_family(alarm.dag, "VTUB", 5, "zeta_mid", seed=seed)
            assert 0 < fam.zeta("VTUB") < 5

    def test_zeta_all_touches_every_experiment(self, alarm):
        for seed in range(30):
            fam = generate_intervention_family(alarm.dag, "VTUB", 3, "zeta_all", seed=seed)
            assert fam.zeta("VTUB") == 3
            assert is_conservative(fam.without("VTUB"))

    def test_conservativity_enforced(self, alarm):
        for seed in range(50):
            fam = generate_intervention_family(
                alarm.dag, "VTUB", 3, "zeta_zero", require_conservative=True, seed=seed
            )
            assert is_conservative(fam)

    def test_children_coverage(self, fig2_dag):
        for seed in range(30):
            fam = generate_intervention_family(
                fig2_dag,
                "T",
                3,
                "zeta_zero",
                require_children_covered=True,
                seed=seed,
            )
            assert "B" in fam.union_of_targets()

    def test_cli_regime_aliases_accepted(self, fig2_dag):
        fam = generate_intervention_family(fig2_dag, "T", 2, "zeta0", seed=1)
        assert fam.zeta("T") == 0

    def test_unsatisfiable_combinations_are_reported(self, fig2_dag):
        with pytest.raises(ConstraintError):
            generate_intervention_family(fig2_dag, "T", 1, "zeta_mid", seed=0)
        with pytest.raises(ConstraintError):
            generate_intervention_family(
                fig2_dag, "T", 1, "zeta_zero", require_conservative=True, seed=0
            )
        with pytest.raises(ValueError, match="unknown regime"):
            generate_intervention_family(fig2_dag, "T", 2, "sometimes", seed=0)

    def test_single_experiment_zeta_all_manipulates_only_the_target(self, fig2_dag):
        fam = generate_intervention_family(
            fig2_dag, "T", 1, "zeta_all", require_conservative=True, seed=0
        )
        assert fam.sets == (frozenset({"T"}),)
        assert is_conservative(fam.without("T"))

    @pytest.mark.parametrize("regime", ["zeta_zero", "zeta_mid", "zeta_all"])
    @pytest.mark.parametrize("conservative", [True, False])
    @pytest.mark.parametrize("covered", [True, False])
    def test_repair_meets_every_rule_on_small_graphs(self, fig2_dag, regime, conservative, covered):
        graphs = [(fig2_dag, "T")]
        for seed in range(40):
            dag = random_dag(2 + seed % 5, 0.5, seed=seed)
            graphs.append((dag, dag.variables[seed % len(dag.variables)]))
        repaired = 0
        for i, (dag, target) in enumerate(graphs):
            children = dag.children(target)
            for n in range(1, 5):
                # one manipulated variable per experiment, or all of them,
                # so that many draws need the repair
                for max_t in (1, len(dag.variables)):
                    kwargs = dict(max_targets_per_set=max_t, seed=i)
                    try:
                        fam = generate_intervention_family(
                            dag, target, n, regime, require_conservative=conservative,
                            require_children_covered=covered, **kwargs,
                        )
                    except ConstraintError:
                        # exactly the settings no family can meet
                        assert n == 1 and (regime == "zeta_mid" or (
                            conservative and len(dag.variables) > 1
                            and (regime != "zeta_all" or (covered and children))
                        ))
                        continue
                    zeta = fam.zeta(target)
                    assert {"zeta_zero": zeta == 0, "zeta_mid": 0 < zeta < n,
                            "zeta_all": zeta == n}[regime]
                    if conservative:
                        assert is_conservative(fam.without(target))
                    if covered:
                        assert children <= fam.union_of_targets()
                    if n == 1 and conservative and regime == "zeta_all":
                        continue  # returned without a draw
                    # the unconstrained call makes the same draw: the repair
                    # only adds children and drops variables other than the
                    # target
                    draw = generate_intervention_family(
                        dag, target, n, regime, require_conservative=False, **kwargs
                    )
                    for got, drawn in zip(fam, draw):
                        assert got - drawn <= children and target not in drawn ^ got
                    repaired += fam != draw
        assert (repaired > 0) == (conservative or covered)

    def test_deterministic(self, alarm):
        a = generate_intervention_family(alarm.dag, "CCHL", 5, "zeta_mid", seed=77)
        b = generate_intervention_family(alarm.dag, "CCHL", 5, "zeta_mid", seed=77)
        assert a == b


class TestBundles:
    def test_observational_family_yields_untouched_networks(self, alarm):
        from mimb import InterventionFamily

        fam = InterventionFamily([set(), set()])
        bundle = generate_bundle(alarm, fam, 200, seed=5)
        assert len(bundle) == 2
        assert bundle.interventions() == [frozenset(), frozenset()]
        assert bundle.schema.names == alarm.schema.names

    def test_bit_identical_for_same_seed(self, alarm):
        fam = generate_intervention_family(alarm.dag, "VTUB", 3, "zeta_zero", seed=1)
        a = generate_bundle(alarm, fam, 300, seed=9)
        b = generate_bundle(alarm, fam, 300, seed=9)
        for da, db in zip(a, b):
            assert (da.rows == db.rows).all()

    def test_provenance_tags_follow_family(self, alarm):
        fam = generate_intervention_family(alarm.dag, "VTUB", 3, "zeta_zero", seed=2)
        bundle = generate_bundle(alarm, fam, 100, seed=3)
        assert bundle.interventions() == list(fam.sets)

    def test_bit_identical_across_hash_seeds(self, alarm):
        # the whole pipeline must not depend on the process hash seed:
        # re-run the same generation in subprocesses with forced seeds
        import os
        import subprocess
        import sys

        script = (
            "import hashlib, numpy as np\n"
            "from importlib.resources import files\n"
            "from mimb import parse_network, generate_intervention_family, generate_bundle\n"
            "bn = parse_network((files('mimb') / 'data' / 'alarm.net').read_text())\n"
            "fam = generate_intervention_family(bn.dag, 'VTUB', 3, 'zeta_zero',"
            " max_targets_per_set=3, seed=11)\n"
            "bundle = generate_bundle(bn, fam, 500, seed=12)\n"
            "h = hashlib.sha256()\n"
            "for ds in bundle: h.update(ds.rows.tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1
