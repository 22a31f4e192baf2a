import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mimb.citest
from mimb import (
    DataBackend,
    Dataset,
    InterventionFamily,
    OracleBackend,
    Schema,
    chi_square_upper_tail,
    contingency_counts,
    forward_sample,
    g2_statistic,
    g2_test,
    generate_bundle,
    generate_intervention_family,
    mimb as mimb_discovery,
    parse_network,
    random_cpts,
    random_dag,
    trace_example,
)
from mimb.bayesnet import DatasetBundle
from mimb.citest import CiResult, TestLedger as Ledger, _g2, _g2_batch, first_separation

from reference import brute_force_d_separated


# -- independent oracles -------------------------------------------------------


def gamma_q_oracle(a: float, x: float) -> float:
    """Regularised upper incomplete gamma via series / continued fraction."""
    if x < a + 1.0:
        # lower series, complemented
        term = 1.0 / a
        total = term
        n = a
        for _ in range(500):
            n += 1.0
            term *= x / n
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        lower = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return 1.0 - lower
    # Lentz continued fraction for the upper function
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def g2_direct(counts: np.ndarray) -> tuple[float, int]:
    """Literal per-stratum loop evaluation of the statistic and dof."""
    arr = np.asarray(counts, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    stat = 0.0
    dof = 0
    for k in range(arr.shape[2]):
        block = arr[:, :, k]
        n = block.sum()
        if n == 0:
            continue
        rows = block.sum(axis=1)
        cols = block.sum(axis=0)
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                o = block[i, j]
                if o > 0:
                    stat += 2.0 * o * math.log(o * n / (rows[i] * cols[j]))
        dof += max(int((rows > 0).sum()) - 1, 0) * max(int((cols > 0).sum()) - 1, 0)
    return stat, dof


class TestChiSquareUpperTail:
    def test_zero_statistic_is_one(self):
        for dof in (1, 2, 5, 30):
            assert chi_square_upper_tail(0.0, dof) == 1.0

    def test_published_quantile(self):
        assert chi_square_upper_tail(3.841, 1) == pytest.approx(0.0500, abs=2e-4)

    def test_example_statistic(self):
        assert chi_square_upper_tail(6.796, 1) == pytest.approx(0.00914, abs=2e-4)

    def test_matches_series_oracle(self):
        for dof in (1, 2, 3, 5, 10, 40):
            for stat in (0.05, 0.5, 1.0, 3.0, 7.7, 15.0, 42.0):
                mine = chi_square_upper_tail(stat, dof)
                ref = gamma_q_oracle(dof / 2.0, stat / 2.0)
                assert mine == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            chi_square_upper_tail(1.0, 0)

    def test_bit_identical_to_gammaincc_from_the_first_call(self):
        # scipy is bound on the first tail a process computes, so the first
        # call runs in a fresh interpreter before anything else loads scipy
        script = (
            "import sys\n"
            "from mimb import chi_square_upper_tail as tail\n"
            "assert 'scipy.special' not in sys.modules\n"
            "first = tail(3.841, 1)\n"
            "from scipy.special import gammaincc\n"
            "def ref(s, d): return float(gammaincc(d / 2, s / 2)).hex()\n"
            "bad = [] if first.hex() == ref(3.841, 1) else [(3.841, 1)]\n"
            "for d in range(1, 601):\n"
            "    for s in (1e-12, 0.5, 3.841, 42.0, 1e4, float('inf')):\n"
            "        if tail(s, d).hex() != ref(s, d): bad.append((s, d))\n"
            "print(bad)\n"
        )
        src = Path(mimb.citest.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestG2Statistic:
    def test_frozen_example(self):
        stat, dof = g2_statistic(np.array([[10, 20], [20, 10]]))
        # direct evaluation: 200 ln 2 - 120 ln 3 = 6.79596...
        assert stat == pytest.approx(6.796, abs=1e-3)
        assert stat == pytest.approx(200 * math.log(2) - 120 * math.log(3), abs=1e-12)
        assert dof == 1

    def test_independent_table_scores_zero(self):
        stat, dof = g2_statistic(np.full((2, 2), 25))
        assert stat == 0.0 and dof == 1

    def test_empty_stratum_contributes_nothing(self):
        base = np.array([[10, 20], [20, 10]])
        padded = np.zeros((2, 2, 2))
        padded[:, :, 0] = base
        stat_b, dof_b = g2_statistic(base)
        stat_p, dof_p = g2_statistic(padded)
        assert stat_p == pytest.approx(stat_b) and dof_p == dof_b

    def test_degenerate_margin_drops_dof(self):
        stat, dof = g2_statistic(np.array([[5, 7], [0, 0]]))
        assert stat == 0.0 and dof == 0

    def test_matches_direct_formula_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            shape = (
                int(rng.integers(2, 5)),
                int(rng.integers(2, 5)),
                int(rng.integers(1, 6)),
            )
            counts = rng.integers(0, 30, size=shape)
            stat, dof = g2_statistic(counts)
            ref_stat, ref_dof = g2_direct(counts)
            assert stat == pytest.approx(ref_stat, abs=1e-9)
            assert dof == ref_dof

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 40, size=(3, 4, 2))
        stat, dof = g2_statistic(counts)
        swapped = np.swapaxes(counts, 0, 1)
        assert g2_statistic(swapped) == (pytest.approx(stat), dof)
        relabeled = counts[::-1, :, :][:, ::-1, :]
        assert g2_statistic(relabeled) == (pytest.approx(stat), dof)

    def test_additive_across_strata(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 25, size=(3, 3, 4))
        stat, dof = g2_statistic(counts)
        parts = [g2_statistic(counts[:, :, [k]]) for k in range(4)]
        assert stat == pytest.approx(sum(p[0] for p in parts), abs=1e-9)
        assert dof == sum(p[1] for p in parts)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            g2_statistic(np.array([[1, -1], [0, 2]]))


def _binary_dataset(columns: dict[str, np.ndarray]) -> Dataset:
    names = tuple(columns)
    schema = Schema(names, tuple(("0", "1") for _ in names))
    rows = np.column_stack([columns[c] for c in names])
    return Dataset(schema, rows)


class TestG2Test:
    def test_duplicated_column_is_dependent(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=1000)
        data = _binary_dataset({"X": x, "Y": x.copy()})
        res = g2_test(data, "X", "Y", (), alpha=0.01)
        assert not res.independent
        assert res.p_value < 1e-10

    def test_null_calibration(self):
        rng = np.random.default_rng(4)
        rejections = 0
        reps = 500
        for _ in range(reps):
            data = _binary_dataset(
                {"X": rng.integers(0, 2, 1000), "Y": rng.integers(0, 2, 1000)}
            )
            res = g2_test(data, "X", "Y", (), alpha=0.05)
            rejections += not res.independent
        assert 0.02 <= rejections / reps <= 0.09

    def test_collider_conditioning_creates_dependence(self):
        # noisy XOR collider: X and Y marginally independent, strongly
        # dependent once W is conditioned on
        text = (
            "VAR X a b\nVAR Y a b\nVAR W a b\n"
            "PARENTS W X Y\n"
            "CPT X\n0.5 0.5\nCPT Y\n0.5 0.5\n"
            "CPT W\n0.9 0.1\n0.1 0.9\n0.1 0.9\n0.9 0.1\n"
        )
        bn = parse_network(text)
        data = forward_sample(bn, 5000, seed=14)
        assert g2_test(data, "X", "Y", (), alpha=0.01).independent
        assert not g2_test(data, "X", "Y", ("W",), alpha=0.01).independent

    def test_unreliable_when_too_many_cells(self):
        rng = np.random.default_rng(5)
        cols = {name: rng.integers(0, 2, 30) for name in "XYABC"}
        data = _binary_dataset(cols)
        res = g2_test(data, "X", "Y", ("A", "B", "C"), alpha=0.05)
        assert not res.reliable
        assert not res.independent  # unreliable keeps the dependence

    def test_ledger_counts_every_call(self):
        ledger = Ledger(2)
        for dataset_index in (0, 1, 1):
            ledger.counts[dataset_index] += 1
        assert ledger.snapshot() == (1, 2)
        assert ledger.total == 3
        assert ledger.since((1, 1)) == (0, 1)

    def test_rejects_overlapping_roles(self):
        rng = np.random.default_rng(7)
        data = _binary_dataset(
            {"X": rng.integers(0, 2, 50), "Y": rng.integers(0, 2, 50), "Z": rng.integers(0, 2, 50)}
        )
        with pytest.raises(ValueError):
            g2_test(data, "X", "X", ())
        with pytest.raises(ValueError):
            g2_test(data, "X", "Y", ("X",))
        with pytest.raises(ValueError):
            g2_test(data, "X", "Y", ("Z", "Z"))

    def test_contingency_counts_shape(self):
        rng = np.random.default_rng(8)
        data = _binary_dataset(
            {"X": rng.integers(0, 2, 100), "Y": rng.integers(0, 2, 100), "Z": rng.integers(0, 2, 100)}
        )
        counts = contingency_counts(data, "X", "Y", ("Z",))
        assert counts.shape == (2, 2, 2)
        assert counts.sum() == 100


def _random_dataset(rng, cards, n_rows) -> Dataset:
    names = tuple(f"V{i}" for i in range(len(cards)))
    schema = Schema(names, tuple(tuple(str(s) for s in range(c)) for c in cards))
    rows = np.column_stack([rng.integers(0, c, n_rows) for c in cards])
    return Dataset(schema, rows)


def _reference(data: Dataset, x, y, z, min_rows_per_cell=5):
    """The G-squared test from the public reference functions, dense table."""
    counts = contingency_counts(data, x, y, z)
    stat, dof = g2_statistic(counts)
    return stat, dof, data.n_rows >= min_rows_per_cell * counts.size and dof > 0


class TestKernel:
    """``g2_test`` against ``contingency_counts`` + ``g2_statistic``."""

    def test_matches_reference_in_either_order(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            cards = [int(c) for c in rng.integers(2, 5, size=int(rng.integers(2, 7)))]
            # few rows against many z-configurations exercises the relabelled
            # tables; many rows the dense ones
            n_rows = int(rng.choice([1, 7, 40, 400, 3000]))
            data = _random_dataset(rng, cards, n_rows)
            names = list(data.schema.names)
            rng.shuffle(names)
            x, y, *z = names[: 2 + int(rng.integers(0, len(names) - 1))]
            res = g2_test(data, x, y, z)
            for a, b in ((x, y), (y, x)):
                stat, dof, reliable = _reference(data, a, b, z)
                assert res.dof == dof and res.reliable == reliable, trial
                assert res.statistic == pytest.approx(stat, rel=1e-9), trial

    def test_strongly_dependent_and_structured_tables(self):
        # V1 is a function of V0 within each stratum of V2
        rng = np.random.default_rng(12)
        x = rng.integers(0, 3, 2000)
        z = rng.integers(0, 2, 2000)
        schema = Schema(("V0", "V1", "V2"), (("a", "b", "c"), ("a", "b", "c"), ("a", "b")))
        data = Dataset(schema, np.column_stack([x, (x + z) % 3, z]))
        res = g2_test(data, "V0", "V1", ["V2"])
        stat, dof, reliable = _reference(data, "V0", "V1", ["V2"])
        assert (res.dof, res.reliable) == (dof, reliable) == (8, True)
        assert res.statistic == pytest.approx(stat, rel=1e-9)
        assert res.p_value == 0.0 and not res.independent

    @pytest.mark.parametrize("n_z", [12, 31])
    def test_many_conditioning_variables_stay_bounded(self, n_z):
        # the dense table would hold 16 * 4**n_z cells (over 2 GB at 12,
        # past int64 keys at 31); only observed strata are counted
        rng = np.random.default_rng(n_z)
        n_rows = 100
        data = _random_dataset(rng, [4] * (n_z + 2), n_rows)
        x, y, *z = data.schema.names
        tracemalloc.start()
        try:
            res = g2_test(data, x, y, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dozen arrays of rx * ry * n_rows int64 cells at most
        assert peak < 12 * 16 * n_rows * 8
        assert not res.reliable and not res.independent
        # reference: one dense (4, 4) table per observed z-configuration
        strata: dict[tuple, np.ndarray] = {}
        for row in data.rows:
            block = strata.setdefault(tuple(row[2:]), np.zeros((4, 4)))
            block[row[0], row[1]] += 1
        stat, dof = g2_statistic(np.stack([strata[k] for k in sorted(strata)], axis=2))
        assert res.dof == dof
        assert res.statistic == pytest.approx(stat, rel=1e-9)


_cards = st.lists(st.integers(2, 4), min_size=2, max_size=6)


@st.composite
def _queries(draw):
    cards = draw(_cards)
    n_rows = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    data = _random_dataset(np.random.default_rng(seed), cards, n_rows)
    names = draw(st.permutations(data.schema.names))
    k = draw(st.integers(0, len(names) - 2))
    return data, names[0], names[1], list(names[2 : 2 + k])


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(_queries(), st.randoms(use_true_random=False))
    def test_argument_order_is_irrelevant(self, query, rnd):
        data, x, y, z = query
        shuffled = list(z)
        rnd.shuffle(shuffled)
        assert g2_test(data, y, x, shuffled) == g2_test(data, x, y, z)

    @settings(max_examples=150, deadline=None)
    @given(_queries(), st.integers(0, 2**32 - 1))
    def test_relabelling_states_keeps_statistic_and_dof(self, query, seed):
        data, x, y, z = query
        rng = np.random.default_rng(seed)
        perms = [rng.permutation(len(s)) for s in data.schema.states]
        relabelled = Dataset(
            data.schema, np.column_stack([p[data.rows[:, j]] for j, p in enumerate(perms)])
        )
        res = g2_test(data, x, y, z)
        other = g2_test(relabelled, x, y, z)
        assert (other.dof, other.reliable) == (res.dof, res.reliable)
        assert other.statistic == pytest.approx(res.statistic, rel=1e-9, abs=1e-9)


def _chained_dataset(rng, cards, n_rows, copy) -> Dataset:
    """Columns V0, V1, ..., each after the first a copy of the one before
    (modulo its own cardinality) in about ``copy`` of the rows and uniform
    in the others."""
    columns = [rng.integers(0, cards[0], n_rows)]
    for card in cards[1:]:
        fresh = rng.integers(0, card, n_rows)
        columns.append(np.where(rng.random(n_rows) < copy, columns[-1] % card, fresh))
    names = tuple(f"V{i}" for i in range(len(cards)))
    schema = Schema(names, tuple(tuple(map(str, range(c))) for c in cards))
    return Dataset(schema, np.column_stack(columns))


@st.composite
def _batches(draw):
    """A bundle of one to three datasets of six variables with 2 to 5
    states, and tests of V0 and V1 given 0 to 4 of the others, canonical,
    each in one of the datasets."""
    cards = draw(st.lists(st.integers(2, 5), min_size=6, max_size=6))
    sizes = draw(st.lists(st.sampled_from([7, 40, 400, 3000]), min_size=1, max_size=3))
    copy = draw(st.sampled_from([0.0, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bundle = DatasetBundle([_chained_dataset(rng, cards, n, copy) for n in sizes])
    z = st.lists(st.sampled_from(["V2", "V3", "V4", "V5"]), max_size=4, unique=True)
    tests = draw(
        st.lists(st.tuples(z, st.integers(0, len(sizes) - 1)), min_size=1, max_size=12)
    )
    return bundle, [("V0", "V1", tuple(sorted(zs)), k) for zs, k in tests]


def _bits(res: CiResult) -> tuple:
    return (res.statistic.hex(), res.dof, res.p_value.hex(), res.reliable, res.independent)


def _is_dense(bundle, test) -> bool:
    """Whether ``test``'s z has no more configurations than its dataset has
    rows, as the batched kernel requires."""
    schema = bundle.schema
    return math.prod(len(schema.states_of(v)) for v in test[2]) <= bundle[test[3]].n_rows


class TestBatchedKernel:
    """``_g2_batch`` and the bulk search of ``DataBackend`` against ``_g2``,
    bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(_batches(), st.sampled_from([0.01, 0.05, 0.5]))
    def test_a_batch_equals_g2(self, batch, alpha):
        bundle, tests = batch
        dense = [t for t in tests if _is_dense(bundle, t)]
        results = _g2_batch(bundle, dense, alpha) if dense else []
        assert [_bits(r) for r in results] == [
            _bits(_g2(bundle[k], x, y, zs, alpha)) for x, y, zs, k in dense
        ]

    @settings(max_examples=100, deadline=None)
    @given(_batches(), st.sampled_from([0.01, 0.05, 0.5]))
    def test_a_search_answers_as_g2(self, batch, alpha):
        # z with more configurations than rows are among the queries too
        bundle, tests = batch
        backend = DataBackend(bundle, alpha)
        candidates = [(zs, [k]) for _, _, zs, k in tests]
        found = first_separation(backend, "V1", "V0", candidates)
        walked = candidates
        if found is not None:
            walked = candidates[: candidates.index((found[0], [found[1]])) + 1]
        assert backend.ledger.total == len(walked)
        assert {key: _bits(r) for key, r in backend._memo.items()} == {
            ("V0", "V1", zs, k): _bits(_g2(bundle[k], "V0", "V1", zs, alpha))
            for zs, (k,) in walked
        }

    def test_batches_double_from_8_to_64_and_leave_wide_z_to_g2(self, monkeypatch):
        rng = np.random.default_rng(3)
        bundle = DatasetBundle([_chained_dataset(rng, [3] * 10, n, 1.0) for n in (3000, 20)])
        batches, single = [], []
        batched, kernel = mimb.citest._g2_batch, mimb.citest._g2
        monkeypatch.setattr(
            mimb.citest, "_g2_batch", lambda b, t, a: batches.append(t) or batched(b, t, a)
        )
        monkeypatch.setattr(
            mimb.citest, "_g2", lambda data, *q: single.append(q) or kernel(data, *q)
        )
        # V0 and V1 are copies, so nothing separates them and every query
        # of the search is asked; in the small dataset each z of three
        # 3-state names has 27 configurations, more than its 20 rows
        pool = [f"V{i}" for i in range(2, 10)]
        subsets = [s for r in range(4) for s in itertools.combinations(pool, r)]
        backend = DataBackend(bundle)
        assert first_separation(backend, "V0", "V1", [(s, [0, 1]) for s in subsets]) is None
        assert backend.ledger.total == 2 * len(subsets) == 186
        assert [q[2] for q in single] == [s for s in subsets if len(s) == 3]
        assert [len(b) for b in batches] == [8, 16, 32, 64, 186 - len(single) - 120]
        assert all(k == 0 or len(zs) < 3 for b in batches for _, _, zs, k in b)
        # a new query ahead of the same search: read-ahead skips memo hits,
        # so the new query is computed alone
        batches.clear()
        single.clear()
        wider = ("V2", "V3", "V4", "V5")
        search = [(wider, [0])] + [(s, [0, 1]) for s in subsets]
        assert first_separation(backend, "V0", "V1", search) is None
        assert batches == [] and [q[2] for q in single] == [wider]
        assert backend.ledger.hits == [len(subsets)] * 2


class TestMemo:
    def _backend(self, alarm):
        bundle = generate_bundle(alarm, InterventionFamily([set(), {"HR"}]), 500, seed=2)
        return DataBackend(bundle, alpha=0.05)

    def test_ledger_counts_every_query_and_hits(self, alarm, monkeypatch):
        backend = self._backend(alarm)
        computed = []
        kernel = mimb.citest._g2
        monkeypatch.setattr(
            mimb.citest, "_g2", lambda data, *a: computed.append(a) or kernel(data, *a)
        )
        queries = [
            ("HR", "CO", (), 0),
            ("CO", "HR", (), 0),  # same canonical key
            ("HR", "CO", (), 1),  # other dataset
            ("HR", "BP", ("CO", "TPR"), 0),
            ("BP", "HR", ("TPR", "CO"), 0),  # same canonical key
            ("HR", "BP", ("CO", "TPR"), 0),
            ("HR", "BP", ("CO",), 0),
        ]
        results = [backend.test(*q) for q in queries]
        ledger = backend.ledger
        assert ledger.snapshot() == (6, 1) and ledger.total == len(queries)
        assert ledger.hits == [3, 0]
        assert sum(ledger.hits) + len(computed) == ledger.total
        assert results[0] == results[1] and results[3] == results[4] == results[5]
        data = backend.bundle[0]
        assert results[3] == g2_test(data, "HR", "BP", ("CO", "TPR"), alpha=0.05)

    def test_invalid_queries_are_rejected_before_the_memo(self, alarm):
        backend = self._backend(alarm)
        backend.test("HR", "CO", (), 0)
        with pytest.raises(ValueError):
            backend.test("HR", "HR", (), 0)
        with pytest.raises(ValueError):
            backend.test("HR", "CO", ("CO",), 0)
        with pytest.raises(ValueError, match="dataset index 2 is outside 0..1"):
            backend.test("HR", "CO", (), 2)
        assert backend.ledger.total == 1 and backend.ledger.hits == [0, 0]
        with pytest.raises(ValueError, match="unknown"):
            backend.test("HR", "NOPE", (), 0)

    def test_unknown_names_are_not_counted(self, alarm):
        backend = self._backend(alarm)
        with pytest.raises(ValueError, match="unknown variable 'NOPE'"):
            backend.test("HR", "NOPE", (), 0)
        with pytest.raises(ValueError, match="unknown variable 'NOPE'"):
            backend.test("HR", "CO", ("NOPE",), 1)
        with pytest.raises(ValueError, match="unknown variable 'NOPE'"):
            g2_test(backend.bundle[0], "NOPE", "HR")
        assert backend.ledger.total == 0 and backend.ledger.hits == [0, 0]


class TestBackends:
    def test_oracle_backend_post_intervention_views(self, fig1_dag):
        fam = InterventionFamily([{"A"}, {"T"}])
        backend = OracleBackend(fig1_dag, fam)
        # manipulating a parent keeps the edge into the target
        assert not backend.test("A", "T", (), 0).independent
        # manipulating the target cuts it
        assert backend.test("A", "T", (), 1).independent
        assert backend.ledger.total == 2
        assert all(r.reliable for r in (backend.test("A", "T", (), 0),))

    def test_backends_agree_on_strong_network(self):
        # two components: within-chain pairs dependent, across pairs exactly
        # independent, all effects strong enough for 20000 rows
        text = (
            "VAR A a b\nVAR B a b\nVAR C a b\nVAR D a b\nVAR E a b\n"
            "PARENTS B A\nPARENTS C B\nPARENTS E D\n"
            "CPT A\n0.4 0.6\n"
            "CPT B\n0.85 0.15\n0.2 0.8\n"
            "CPT C\n0.8 0.2\n0.25 0.75\n"
            "CPT D\n0.5 0.5\n"
            "CPT E\n0.9 0.1\n0.15 0.85\n"
        )
        bn = parse_network(text)
        dag = bn.dag
        fam = InterventionFamily([set()])
        oracle = OracleBackend(dag, fam)
        agree = total = 0
        for seed in range(10):
            bundle = generate_bundle(bn, fam, 20000, seed=seed)
            data_backend = DataBackend(bundle, alpha=0.01)
            for i, x in enumerate(dag.variables):
                for y in dag.variables[i + 1 :]:
                    total += 1
                    agree += (
                        data_backend.test(x, y, (), 0).independent
                        == oracle.test(x, y, (), 0).independent
                    )
        assert agree / total >= 0.99

    def test_data_backend_exposes_schema(self, alarm):
        fam = InterventionFamily([set()])
        bundle = generate_bundle(alarm, fam, 100, seed=1)
        backend = DataBackend(bundle, alpha=0.05)
        assert backend.variables == alarm.schema.names
        assert backend.n_datasets == 1

    def test_oracle_backend_does_not_count_unknown_names(self):
        backend = OracleBackend(*trace_example())
        with pytest.raises(ValueError, match="NOPE"):
            backend.test("T", "NOPE", (), 0)
        with pytest.raises(ValueError, match="NOPE"):
            backend.test("T", "A", ("NOPE",), 1)
        assert backend.ledger.total == 0
        backend.test("T", "A", (), 0)
        assert backend.ledger.snapshot()[0] == 1

    @pytest.mark.parametrize("index", [-1, 3])
    def test_data_backend_rejects_a_dataset_index_outside_the_bundle(self, index):
        dag, family = trace_example()
        backend = DataBackend(generate_bundle(random_cpts(dag, seed=1), family, 50, seed=2))
        with pytest.raises(ValueError, match=f"dataset index {index} is outside 0..2"):
            backend.test("A", "T", (), index)
        assert backend.ledger.counts == backend.ledger.hits == [0, 0, 0]

    @pytest.mark.parametrize("index", [-1, 3])
    def test_oracle_backend_rejects_a_dataset_index_outside_the_family(self, index):
        backend = OracleBackend(*trace_example())
        with pytest.raises(ValueError, match=f"dataset index {index} is outside 0..2"):
            backend.test("A", "T", (), index)
        assert backend.ledger.counts == backend.ledger.hits == [0, 0, 0]

    def test_oracle_backend_rejects_unknown_names(self, fig1_dag):
        with pytest.raises(ValueError, match="unknown"):
            OracleBackend(fig1_dag, InterventionFamily([{"Z"}]))


class _PathEnumerationOracle(OracleBackend):
    """The oracle backend without its sweep or memo: every query is
    answered by :func:`brute_force_d_separated` on its own. Separator
    searches come through this ``test`` too: it overrides the ``test`` of
    the class whose bulk search it inherits."""

    def test(self, x, y, z, dataset_index):
        separated = brute_force_d_separated(self.post_dags[dataset_index], x, y, z)
        self.ledger.counts[dataset_index] += 1
        return CiResult(
            statistic=0.0 if separated else math.inf,
            dof=0,
            p_value=1.0 if separated else 0.0,
            independent=separated,
            reliable=True,
        )


class TestOracleMemo:
    def test_answers_match_brute_force(self):
        master = np.random.SeedSequence(21)
        for ss in master.spawn(12):
            rng = np.random.default_rng(ss)
            dag = random_dag(int(rng.integers(3, 9)), 0.35, rng)
            names = dag.variables
            family = InterventionFamily(
                {v for v in names if rng.random() < 0.25}
                for _ in range(int(rng.integers(1, 4)))
            )
            backend = OracleBackend(dag, family)
            queries = [
                (x, y, z, k)
                for x, y in itertools.permutations(names, 2)
                for size in range(4)
                for z in itertools.combinations([v for v in names if v not in (x, y)], size)
                for k in range(len(family))
            ]
            # shuffled, so y changes between most queries and the memo is
            # dropped again and again
            order = rng.permutation(len(queries))
            asked = [0] * len(family)
            for i in order:
                x, y, z, k = queries[i]
                expected = brute_force_d_separated(backend.post_dags[k], x, y, z)
                # the second and third forms repeat (y, z, k): memo hits
                for form in (z, set(z), z + z):
                    res = backend.test(x, y, form, k)
                    assert res.independent == expected
                    assert res.p_value == (1.0 if expected else 0.0)
                    assert res.reliable
                asked[k] += 3
            assert backend.ledger.counts == asked
            assert all(h >= 2 * n // 3 for h, n in zip(backend.ledger.hits, asked))
            assert all(h > 0 for h in backend.ledger.hits)

    def test_failed_queries_count_nothing_and_keep_the_memo(self):
        dag, family = trace_example()
        backend = OracleBackend(dag, family)
        bad = [
            (("T", "NOPE", (), 0), "unknown variable 'NOPE'"),
            (("NOPE", "T", (), 1), "unknown variable 'NOPE'"),
            (("A", "T", ("NOPE",), 2), "unknown variable 'NOPE'"),
            (("T", "T", (), 0), "must differ"),
            (("A", "T", ("A",), 1), "conditioning set"),
            (("A", "T", ("B", "T", "T"), 2), "conditioning set"),
            # another y: must not drop the memo for T either
            (("T", "G", ("T",), 0), "conditioning set"),
        ]
        for query, message in bad:
            with pytest.raises(ValueError, match=message):
                backend.test(*query)
        assert backend.ledger.counts == [0, 0, 0]
        assert backend.ledger.hits == [0, 0, 0]

        asked = 0
        for x in ("E", "A", "B", "F", "C"):
            for k in range(3):
                for query, message in bad:
                    with pytest.raises(ValueError, match=message):
                        backend.test(*query)
                separated = brute_force_d_separated(backend.post_dags[k], x, "T", ("G",))
                assert backend.test(x, "T", ("G",), k).independent == separated
                asked += 1
        assert backend.ledger.counts == [asked // 3] * 3
        # one sweep per dataset, every later query a hit
        assert backend.ledger.hits == [asked // 3 - 1] * 3

    def test_answers_are_the_two_shared_results(self):
        backend = OracleBackend(*trace_example())
        separated = backend.test("E", "T", ("A", "B"), 0)
        connected = backend.test("A", "T", (), 0)
        assert separated == CiResult(0.0, 0, 1.0, True, True)
        assert connected == CiResult(math.inf, 0, 0.0, False, True)
        assert backend.test("F", "T", (), 1) is separated
        assert backend.test("B", "T", (), 1) is connected

    @pytest.mark.parametrize("case", ["trace", "alarm-VTUB"])
    def test_discovery_matches_the_path_enumeration_backend(self, case, alarm):
        if case == "trace":
            dag, family = trace_example()
            target = "T"
        else:
            dag, target = alarm.dag, "VTUB"
            family = generate_intervention_family(
                dag, target, 3, "zeta_zero", require_conservative=True,
                max_targets_per_set=3, seed=5,
            )
        fast = OracleBackend(dag, family)
        result = mimb_discovery(fast, target)
        assert result == mimb_discovery(_PathEnumerationOracle(dag, family), target)
        assert sum(fast.ledger.hits) > 0
