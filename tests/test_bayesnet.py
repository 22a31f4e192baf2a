import numpy as np
import pytest

from mimb import (
    BayesianNetwork,
    Dag,
    Dataset,
    ParseError,
    Schema,
    format_network,
    forward_sample,
    g2_test,
    parse_network,
    randomize_manipulated_cpts,
)

from reference import joint_table

TWO_VAR = """\
# toy network
VAR A yes no
VAR B yes no
PARENTS B A
CPT A
0.3 0.7
CPT B
0.9 0.1
0.2 0.8
"""


class TestParser:
    def test_two_variable_file(self):
        bn = parse_network(TWO_VAR)
        assert bn.variables == ("A", "B")
        assert bn.dag.edges == {("A", "B")}
        assert np.allclose(bn.cpts["B"], [[0.9, 0.1], [0.2, 0.8]])
        assert bn.schema.states_of("A") == ("yes", "no")

    def test_round_trip(self):
        bn = parse_network(TWO_VAR)
        again = parse_network(format_network(bn))
        assert again == bn

    def test_row_sum_error_carries_line(self):
        bad = TWO_VAR.replace("0.9 0.1", "0.8 0.1")
        with pytest.raises(ParseError, match=r"line 8: row sum 0\.9 != 1"):
            parse_network(bad)

    def test_unknown_parent(self):
        with pytest.raises(ParseError, match="unknown parent name 'Z'"):
            parse_network("VAR A a b\nPARENTS A Z\nCPT A\n0.5 0.5\n")

    @pytest.mark.parametrize(
        "parents_line, message",
        [
            ("PARENTS B A A", "a parent of 'B' is listed twice"),
            ("PARENTS A A", "'A' is listed as its own parent"),
        ],
    )
    def test_bad_parents_line_carries_line(self, parents_line, message):
        text = f"VAR A a b\nVAR B a b\n{parents_line}\nCPT A\n0.5 0.5\n"
        with pytest.raises(ParseError, match=f"line 3: {message}") as info:
            parse_network(text)
        assert info.value.line == 3

    def test_cycle_is_a_graph_error(self):
        text = "VAR A a b\nVAR B a b\nPARENTS A B\nPARENTS B A\n"
        text += "CPT A\n0.5 0.5\n0.5 0.5\nCPT B\n0.5 0.5\n0.5 0.5\n"
        with pytest.raises(ValueError, match="cycle") as info:
            parse_network(text)
        assert not isinstance(info.value, ParseError)

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="missing"):
            parse_network("VAR A a b\nVAR B a b\nPARENTS B A\nCPT B\n0.5 0.5\n")

    def test_duplicate_declarations(self):
        with pytest.raises(ParseError, match="duplicate VAR"):
            parse_network("VAR A a b\nVAR A a b\n")
        with pytest.raises(ParseError, match="duplicate CPT"):
            parse_network("VAR A a b\nCPT A\n0.5 0.5\nCPT A\n0.5 0.5\n")

    def test_cpt_for_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_network("CPT A\n")

    def test_parents_after_cpt(self):
        text = "VAR A a b\nVAR B a b\nCPT B\n0.5 0.5\nPARENTS B A\nCPT A\n0.5 0.5\n"
        with pytest.raises(ParseError, match="after its CPT"):
            parse_network(text)

    def test_negative_probability(self):
        with pytest.raises(ParseError, match="negative"):
            parse_network("VAR A a b\nCPT A\n1.5 -0.5\n")

    @pytest.mark.parametrize("row", ["nan 1", "nan nan", "1 nan", "inf 0", "-inf inf"])
    def test_non_finite_probability(self, row):
        with pytest.raises(ParseError, match="line 3: non-finite probability in CPT of 'A'"):
            parse_network(f"VAR A a b\nCPT A\n{row}\n")

    def test_tolerant_rows_are_renormalised(self):
        text = "VAR A a b\nCPT A\n0.5000004 0.5\n"
        bn = parse_network(text)
        assert abs(bn.cpts["A"].sum() - 1.0) < 1e-12


class TestRowOrdering:
    def test_last_parent_varies_fastest(self):
        text = (
            "VAR P1 a b\nVAR P2 a b\nVAR C x y\n"
            "PARENTS C P1 P2\n"
            "CPT P1\n0.5 0.5\nCPT P2\n0.5 0.5\n"
            "CPT C\n"
            "0.1 0.9\n"  # P1=a P2=a
            "0.2 0.8\n"  # P1=a P2=b
            "0.3 0.7\n"  # P1=b P2=a
            "0.4 0.6\n"  # P1=b P2=b
        )
        bn = parse_network(text)
        assert bn.row_index("C", {"P1": 0, "P2": 1}) == 1
        assert bn.row_index("C", {"P1": 1, "P2": 0}) == 2
        assert bn.cpts["C"][2, 0] == pytest.approx(0.3)


class TestValidation:
    def test_cpt_shape_mismatch(self):
        dag = Dag(["A", "B"], [("A", "B")])
        states = {"A": ("0", "1"), "B": ("0", "1")}
        with pytest.raises(ValueError, match="shape"):
            BayesianNetwork(dag, states, {"A": np.array([[0.5, 0.5]]), "B": np.array([[1.0, 0.0]])})

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_entries(self, row):
        with pytest.raises(ValueError, match="CPT for 'A' contains non-finite entries"):
            BayesianNetwork(Dag(["A"]), {"A": ("0", "1")}, {"A": np.array([row])})

    def test_row_sum_tolerance(self):
        dag = Dag(["A"])
        with pytest.raises(ValueError, match="sums to"):
            BayesianNetwork(dag, {"A": ("0", "1")}, {"A": np.array([[0.6, 0.5]])})


class TestForwardSampling:
    def test_deterministic_cpts_force_one_configuration(self):
        text = (
            "VAR A a b\nVAR B a b\nPARENTS B A\n"
            "CPT A\n0 1\nCPT B\n0 1\n1 0\n"
        )
        bn = parse_network(text)
        data = forward_sample(bn, 50, seed=3)
        assert (data.rows == [1, 0]).all()

    def test_binomial_frequency(self):
        bn = parse_network("VAR A zero one\nCPT A\n0.75 0.25\n")
        data = forward_sample(bn, 100000, seed=9)
        freq = data.rows.mean()
        assert abs(freq - 0.25) < 0.01

    def test_same_seed_same_rows(self):
        bn = parse_network(TWO_VAR)
        a = forward_sample(bn, 1000, seed=4)
        b = forward_sample(bn, 1000, seed=4)
        c = forward_sample(bn, 1000, seed=5)
        assert (a.rows == b.rows).all()
        assert (a.rows != c.rows).any()

    def test_rejects_zero_rows(self):
        bn = parse_network(TWO_VAR)
        with pytest.raises(ValueError):
            forward_sample(bn, 0, seed=1)

    def test_rows_are_column_major(self):
        data = forward_sample(parse_network(TWO_VAR), 100, seed=6)
        assert data.rows.flags.f_contiguous and data.rows.dtype == np.int64
        assert data.column("B").flags.c_contiguous
        assert np.shares_memory(data.column("B"), data.rows)


class TestDataset:
    schema = Schema(("A", "B"), (("0", "1"), ("0", "1", "2")))

    def test_other_integer_rows_become_int64_column_major(self):
        rows = np.array([[0, 2], [1, 1], [0, 0]], dtype=np.int8)
        data = Dataset(self.schema, rows)
        assert data.rows.dtype == np.int64 and data.rows.flags.f_contiguous
        assert (data.rows == rows).all()
        assert list(data.column("B")) == [2, 1, 0]

    def test_rejects_non_integer_rows(self):
        with pytest.raises(ValueError, match="integer"):
            Dataset(self.schema, np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="out of range"):
            Dataset(self.schema, np.array([[0, 3]]))

    def test_schema_index(self):
        assert [self.schema.index(n) for n in ("A", "B")] == [0, 1]
        with pytest.raises(ValueError, match="unknown variable"):
            self.schema.index("C")
        with pytest.raises(ValueError, match="duplicate variable names"):
            Schema(("A", "A"), (("0", "1"), ("0", "1")))


class TestManipulation:
    def test_no_targets_leaves_network_alone(self):
        bn = parse_network(TWO_VAR)
        assert randomize_manipulated_cpts(bn, set(), seed=1) == bn

    def test_dirichlet_alpha_one_is_uniform(self):
        bn = parse_network(TWO_VAR)
        draws = [
            randomize_manipulated_cpts(bn, {"B"}, seed=i).cpts["B"][0, 0]
            for i in range(10000)
        ]
        assert abs(np.mean(draws) - 0.5) < 0.02

    def test_rejects_bad_alpha(self):
        bn = parse_network(TWO_VAR)
        for alpha in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                randomize_manipulated_cpts(bn, {"B"}, dirichlet_alpha=alpha)

    def test_graph_matches_surgery(self, alarm):
        targets = {"VTUB", "KINK"}
        manipulated = randomize_manipulated_cpts(alarm, targets, seed=2)
        assert manipulated.dag == alarm.dag.apply_intervention(targets)
        assert manipulated.parent_orders["VTUB"] == ()
        # untouched variables keep their tables
        assert np.array_equal(manipulated.cpts["PRSS"], alarm.cpts["PRSS"])

    def test_manipulating_target_breaks_parent_dependence(self, fig1_dag):
        # sampling the manipulated network makes A and T look independent
        rng = np.random.default_rng(11)
        from mimb import random_cpts

        bn = random_cpts(fig1_dag, cardinality=2, dirichlet_alpha=0.5, seed=21)
        manipulated = randomize_manipulated_cpts(bn, {"T"}, seed=3)
        data = forward_sample(manipulated, 5000, seed=4)
        assert g2_test(data, "A", "T", (), alpha=0.01).independent

    def test_post_intervention_factorisation(self):
        # exact joint of the manipulated network equals the surgery formula
        text = (
            "VAR A a b\nVAR B a b\nVAR C a b\n"
            "PARENTS B A\nPARENTS C B\n"
            "CPT A\n0.3 0.7\nCPT B\n0.9 0.1\n0.2 0.8\nCPT C\n0.6 0.4\n0.25 0.75\n"
        )
        bn = parse_network(text)
        manipulated = randomize_manipulated_cpts(bn, {"B"}, seed=8)
        actual = joint_table(manipulated)
        row_b = manipulated.cpts["B"][0]
        expected = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    expected[a, b, c] = (
                        bn.cpts["A"][0, a] * row_b[b] * bn.cpts["C"][b, c]
                    )
        assert np.allclose(actual, expected, atol=1e-12)


class TestSamplingConsistency:
    def test_empirical_joint_matches_enumeration(self):
        text = (
            "VAR A a b\nVAR B a b\nVAR C a b\nVAR D a b\n"
            "PARENTS B A\nPARENTS C A B\nPARENTS D C\n"
            "CPT A\n0.4 0.6\n"
            "CPT B\n0.7 0.3\n0.15 0.85\n"
            "CPT C\n0.9 0.1\n0.5 0.5\n0.3 0.7\n0.05 0.95\n"
            "CPT D\n0.8 0.2\n0.35 0.65\n"
        )
        bn = parse_network(text)
        exact = joint_table(bn)
        data = forward_sample(bn, 200000, seed=17)
        counts = np.zeros((2, 2, 2, 2))
        for row in data.rows:
            counts[tuple(row)] += 1
        empirical = counts / counts.sum()
        tv = 0.5 * np.abs(empirical - exact).sum()
        assert tv < 0.01


class TestAlarmConversion:
    def test_counts(self, alarm):
        assert len(alarm.variables) == 37
        assert len(alarm.dag.edges) == 46

    def test_target_neighbourhoods(self, alarm):
        assert alarm.dag.parents("VTUB") == {"DISC", "VMCH"}
        assert alarm.dag.markov_blanket("VTUB") == {
            "DISC", "VMCH", "PRSS", "VLNG", "INT", "KINK",
        }
        assert alarm.dag.parents("CCHL") == {"ANES", "SAO2", "TPR", "ACO2"}

    def test_round_trip(self, alarm):
        assert parse_network(format_network(alarm)) == alarm
