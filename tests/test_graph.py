import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimb import (
    Dag,
    InterventionFamily,
    generate_intervention_family,
    is_conservative,
    random_dag,
)
from mimb.citest import _lane_masks
from mimb.util import iter_subsets

from reference import brute_force_d_separated


def per_bit_connected_mask(dag: Dag, yi: int, zmask: int) -> int:
    """``Dag._connected_mask`` with one parent-mask and one child-mask
    lookup per node of each layer, in place of the chunk tables; the
    reference for graphs too large for ``brute_force_d_separated``."""
    open_ = ~zmask
    up_seen = down_seen = 0
    up, down = 1 << yi, 0
    while up or down:
        up_seen |= up
        down_seen |= down
        to_parents = (up & open_) | (down & zmask)
        to_children = (up | down) & open_
        up = down = 0
        m = to_parents | to_children
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            if to_parents & bit:
                up |= dag._pa[v]
            if to_children & bit:
                down |= dag._ch[v]
            m ^= bit
        up &= ~up_seen
        down &= ~down_seen
    return up_seen | down_seen


class TestConstruction:
    def test_rejects_duplicate_variables(self):
        with pytest.raises(ValueError, match="duplicate variable"):
            Dag(["A", "A"])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown variable"):
            Dag(["A", "B"], [("A", "C")])

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self edge"):
            Dag(["A"], [("A", "A")])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            Dag(["A", "B"], [("A", "B"), ("A", "B")])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])

    def test_value_semantics(self):
        a = Dag(["A", "B"], [("A", "B")])
        b = Dag(["A", "B"], [("A", "B")])
        assert a == b and hash(a) == hash(b)
        assert a != Dag(["A", "B"])

    @given(st.integers(1, 14), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_random_dag_is_the_checked_construction(self, n_nodes, edge_prob, seed):
        # random_dag skips the checks; the graph it builds from masks must
        # be the one the public constructor builds from its edges
        dag = random_dag(n_nodes, edge_prob, seed)
        checked = Dag([f"X{i}" for i in range(n_nodes)], sorted(dag.edges))
        _assert_same_graph(dag, checked)


def _assert_same_graph(dag: Dag, checked: Dag) -> None:
    assert dag == checked and hash(dag) == hash(checked)
    assert dag.topological_order() == checked.topological_order()
    for v in checked.variables:
        assert dag.parents(v) == checked.parents(v)
        assert dag.children(v) == checked.children(v)


class TestAccessors:
    def test_fig2_neighbourhood(self, fig2_dag):
        assert fig2_dag.parents("T") == {"A"}
        assert fig2_dag.children("T") == {"B"}
        assert fig2_dag.spouses("T") == {"C"}

    def test_root_has_no_parents(self, fig2_dag):
        assert fig2_dag.parents("A") == frozenset()

    def test_topological_order_respects_edges(self):
        dag = Dag(["C", "A", "B"], [("A", "B"), ("B", "C")])
        order = dag.topological_order()
        assert order.index("A") < order.index("B") < order.index("C")


class TestDSeparation:
    def test_chain_blocked_by_middle(self):
        dag = Dag(["A", "T", "B"], [("A", "T"), ("T", "B")])
        assert dag.d_separated("A", "B", {"T"})
        assert not dag.d_separated("A", "B")

    def test_collider_opened_by_conditioning(self):
        dag = Dag(["A", "T", "B"], [("A", "T"), ("B", "T")])
        assert dag.d_separated("A", "B")
        assert not dag.d_separated("A", "B", {"T"})

    def test_fig1_marginal_dependence(self, fig1_dag):
        assert not fig1_dag.d_separated("A", "T")

    def test_rejects_bad_queries(self, fig1_dag):
        with pytest.raises(ValueError):
            fig1_dag.d_separated("A", "A")
        with pytest.raises(ValueError):
            fig1_dag.d_separated("A", "T", {"A"})
        with pytest.raises(ValueError):
            fig1_dag.d_separated("A", "Z")


class TestMarkovBlanket:
    def test_fig1(self, fig1_dag):
        assert fig1_dag.markov_blanket("T") == {"A", "B", "F"}

    def test_single_node(self):
        assert Dag(["X"]).markov_blanket("X") == frozenset()

    def test_fig2(self, fig2_dag):
        assert fig2_dag.markov_blanket("T") == {"A", "B", "C"}

    def test_symmetry_on_random_dags(self):
        master = np.random.SeedSequence(5)
        for ss in master.spawn(40):
            rng = np.random.default_rng(ss)
            dag = random_dag(int(rng.integers(3, 9)), 0.35, rng)
            for x in dag.variables:
                for y in dag.markov_blanket(x):
                    assert x in dag.markov_blanket(y)


class TestIntervention:
    def test_fig2_child_manipulated(self, fig2_dag):
        post = fig2_dag.apply_intervention({"B"})
        assert post.edges == {("A", "T")}
        assert post.markov_blanket("T") == {"A"}
        assert fig2_dag.edges == {("A", "T"), ("T", "B"), ("C", "B")}  # unchanged

    def test_empty_target_set_is_identity(self, fig2_dag):
        assert fig2_dag.apply_intervention(set()) == fig2_dag

    def test_fig4_target_and_child(self, fig2_dag):
        assert fig2_dag.apply_intervention({"B", "T"}).markov_blanket("T") == frozenset()
        assert fig2_dag.apply_intervention({"T"}).markov_blanket("T") == {"B", "C"}

    def test_removes_exactly_in_edges(self):
        master = np.random.SeedSequence(6)
        for ss in master.spawn(30):
            rng = np.random.default_rng(ss)
            dag = random_dag(7, 0.4, rng)
            targets = {v for v in dag.variables if rng.random() < 0.3}
            post = dag.apply_intervention(targets)
            for v in dag.variables:
                if v in targets:
                    assert post.parents(v) == frozenset()
                else:
                    assert post.parents(v) == dag.parents(v)

    def test_matches_the_checked_rebuild_on_alarm(self, alarm):
        # the surgery copy from masks against the public constructor on the
        # surviving edges, sorted by index as the copy used to be built
        dag = alarm.dag
        rng = np.random.default_rng(4)
        target_sets = [{v} for v in dag.variables] + [
            set(rng.choice(dag.variables, size=int(rng.integers(2, 12)), replace=False).tolist())
            for _ in range(100)
        ]
        for targets in target_sets:
            kept = sorted(
                (e for e in dag.edges if e[1] not in targets),
                key=lambda e: (dag.index(e[0]), dag.index(e[1])),
            )
            _assert_same_graph(dag.apply_intervention(targets), Dag(dag.variables, kept))


class TestConservativity:
    def test_examples(self):
        assert is_conservative(InterventionFamily([{"A"}, {"B"}]))
        assert not is_conservative(InterventionFamily([{"A"}, {"A", "B"}]))
        assert is_conservative(InterventionFamily([set(), set()]))

    @given(
        st.lists(
            st.sets(st.sampled_from("ABCDE"), max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_appending_empty_set_preserves_conservativity(self, sets):
        family = InterventionFamily(sets)
        if is_conservative(family):
            assert is_conservative(InterventionFamily(list(sets) + [set()]))

    def test_family_helpers(self):
        fam = InterventionFamily([{"A", "T"}, {"T"}])
        assert fam.zeta("T") == 2
        assert fam.union_of_targets() == {"A", "T"}
        assert fam.without("T").sets == (frozenset({"A"}), frozenset())
        with pytest.raises(ValueError, match="unknown"):
            fam.validate_names(["T"])


class TestBruteForceOracle:
    def test_matches_examples(self, fig1_dag):
        chain = Dag(["A", "T", "B"], [("A", "T"), ("T", "B")])
        collider = Dag(["A", "T", "B"], [("A", "T"), ("B", "T")])
        fork = Dag(["A", "C", "B"], [("C", "A"), ("C", "B")])
        assert brute_force_d_separated(chain, "A", "B", {"T"})
        assert not brute_force_d_separated(collider, "A", "B", {"T"})
        assert not brute_force_d_separated(fig1_dag, "A", "T")
        assert brute_force_d_separated(fork, "A", "B", {"C"})
        assert not brute_force_d_separated(fork, "A", "B")

    def test_agreement_on_random_dags(self):
        # full 500-graph sweep lives in the acceptance suite
        master = np.random.SeedSequence(7)
        for ss in master.spawn(60):
            rng = np.random.default_rng(ss)
            dag = random_dag(int(rng.integers(3, 9)), 0.3, rng)
            names = dag.variables
            for x, y in itertools.combinations(names, 2):
                rest = [v for v in names if v not in (x, y)]
                for z in [(), *iter_subsets(rest, 3)]:
                    assert dag.d_separated(x, y, z) == brute_force_d_separated(dag, x, y, z)


class TestSweepAcrossChunks:
    """The sweep reads its graph through one table per 8-node chunk, so
    these graphs have nodes, edges and frontiers in several chunks."""

    # sparse enough for path enumeration, whose cost grows with the paths
    @pytest.mark.parametrize("n_nodes, edge_prob", [(9, 0.35), (16, 0.15), (17, 0.14), (24, 0.08)])
    def test_matches_brute_force(self, n_nodes, edge_prob):
        for ss in np.random.SeedSequence(n_nodes).spawn(6):
            rng = np.random.default_rng(ss)
            dag = random_dag(n_nodes, edge_prob, rng)
            names = dag.variables
            for _ in range(12):
                y = names[int(rng.integers(n_nodes))]
                others = [v for v in names if v != y]
                z = [str(v) for v in rng.choice(others, int(rng.integers(0, 4)), replace=False)]
                zmask = sum(1 << dag.index(v) for v in z)
                reached = dag._connected_mask(dag.index(y), zmask)
                for x in others:
                    if x not in z:
                        connected = bool(reached >> dag.index(x) & 1)
                        assert connected == (not brute_force_d_separated(dag, x, y, z))

    def test_matches_the_per_bit_sweep_on_alarm(self, alarm):
        family = generate_intervention_family(
            alarm.dag, "HR", 5, "zeta_zero",
            require_conservative=True, max_targets_per_set=3, seed=7,
        )
        n = len(alarm.dag.variables)
        for dag in [alarm.dag.apply_intervention(s) for s in family]:
            for yi in range(n):
                others = [1 << v for v in range(n) if v != yi]
                for size in range(3):
                    for z in itertools.combinations(others, size):
                        zmask = sum(z)
                        assert dag._connected_mask(yi, zmask) == per_bit_connected_mask(dag, yi, zmask)

    def test_tables_are_built_on_the_first_sweep_only(self, alarm):
        dag = Dag(alarm.dag.variables, sorted(alarm.dag.edges))
        assert dag._tables is None
        dag.d_separated("HR", "CO")
        tables = dag._tables
        assert len(tables) == 5  # 37 nodes
        dag.d_separated("HR", "BP", ("CO",))
        assert dag._tables is tables
        # the lane sweep's adjacency lists, likewise
        n = len(dag.variables)
        assert dag._lists is None
        dag._lane_sweep(dag.index("HR"), [0] * n, [0b11] * n, 0b11)
        lists = dag._lists
        assert lists == (
            tuple(tuple(sorted(map(dag.index, dag.parents(v)))) for v in dag.variables),
            tuple(tuple(sorted(map(dag.index, dag.children(v)))) for v in dag.variables),
        )
        dag._lane_sweep(dag.index("CO"), [0] * n, [1] * n, 1)
        assert dag._lists is lists
        # value semantics ignore them
        assert dag == alarm.dag and hash(dag) == hash(alarm.dag)
        assert dag == Dag(alarm.dag.variables, alarm.dag.edges)
        assert hash(dag) == hash(Dag(alarm.dag.variables, alarm.dag.edges))


def _lane_batch(rng, n_nodes, edge_prob, n_sets, n_lanes):
    """A random DAG of ``n_nodes`` nodes, a random family of ``n_sets``
    experiments over it, a source yi and ``n_lanes`` lanes, each a
    conditioning set (never holding y) and an experiment, in random
    order."""
    dag = random_dag(n_nodes, edge_prob, rng)
    names = dag.variables
    family = InterventionFamily(
        {v for v in names if rng.random() < 0.15} for _ in range(n_sets)
    )
    yi = int(rng.integers(n_nodes))
    lanes = []
    for _ in range(n_lanes):
        size = int(rng.integers(0, min(5, n_nodes - 1) + 1))
        z = rng.choice([v for v in range(n_nodes) if v != yi], size, replace=False)
        lanes.append((sum(1 << int(v) for v in z), int(rng.integers(n_sets))))
    return dag, family, yi, lanes


@st.composite
def _lane_batches(draw):
    """A :func:`_lane_batch` of 1-70 nodes, 1-6 experiments and 1-300
    lanes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_nodes = draw(st.integers(1, 70))
    edge_prob = draw(st.sampled_from([0.03, 0.08, 0.2, 0.4]))
    return _lane_batch(rng, n_nodes, edge_prob, draw(st.integers(1, 6)), draw(st.integers(1, 300)))


class TestLaneSweep:
    """``Dag._lane_sweep`` carries many (z, experiment) queries as bit
    lanes over the intact graph; each lane must reach what the single
    sweep reaches on that lane's post-intervention graph, both read from
    the per-node table and from the per-lane node masks that
    ``citest._lane_masks`` turns it into."""

    @staticmethod
    def _check(dag, family, yi, lanes):
        n_nodes = len(dag.variables)
        every = (1 << len(lanes)) - 1
        z_lanes = [0] * n_nodes
        gates = [every] * n_nodes
        for j, (zmask, k) in enumerate(lanes):
            for v in range(n_nodes):
                if zmask >> v & 1:
                    z_lanes[v] |= 1 << j
                if dag.variables[v] in family[k]:
                    gates[v] &= ~(1 << j)
        table = dag._lane_sweep(yi, z_lanes, gates, every)
        assert len(table) == n_nodes
        assert table[yi] == every
        assert all(0 <= lanes_of <= every for lanes_of in table)
        masks = _lane_masks(table, len(lanes))
        assert len(masks) == len(lanes)
        post_dags = [dag.apply_intervention(s) for s in family]
        for j, (zmask, k) in enumerate(lanes):
            reached = sum(1 << v for v in range(n_nodes) if table[v] >> j & 1)
            assert reached == post_dags[k]._connected_mask(yi, zmask) == masks[j]

    @settings(max_examples=80, deadline=None)
    @given(_lane_batches())
    def test_each_lane_is_its_experiments_single_sweep(self, batch):
        self._check(*batch)

    @pytest.mark.parametrize(
        "n_nodes, n_lanes", [(9, 1), (37, 256), (64, 256), (65, 7), (70, 1), (140, 256)]
    )
    def test_one_lane_every_lane_and_graphs_past_64_nodes(self, n_nodes, n_lanes):
        rng = np.random.default_rng(n_nodes * 1000 + n_lanes)
        self._check(*_lane_batch(rng, n_nodes, 0.06, 4, n_lanes))


class TestEdgeCharacterisation:
    def test_edge_iff_never_separable(self):
        # adjacency is exactly inseparability under every conditioning set
        master = np.random.SeedSequence(8)
        for ss in master.spawn(25):
            rng = np.random.default_rng(ss)
            dag = random_dag(6, 0.35, rng)
            names = dag.variables
            for x, t in itertools.combinations(names, 2):
                adjacent = (x, t) in dag.edges or (t, x) in dag.edges
                rest = [v for v in names if v not in (x, t)]
                separable = any(
                    dag.d_separated(x, t, z)
                    for z in [(), *iter_subsets(rest, len(rest))]
                )
                assert adjacent == (not separable)
