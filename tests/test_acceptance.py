"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
The heavy synthetic benchmarks share module-scoped runs. Criterion 10's
real-world half needs the public education CSV (path in the
MIMB_EDUCATION_CSV environment variable); it is skipped when absent.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from mimb import (
    OracleBackend,
    chi_square_upper_tail,
    fuzz_theorems,
    g2_statistic,
    g2_test,
    generate_intervention_family,
    mimb,
    mipc,
    random_dag,
    run_benchmark,
    trace_example,
)
from mimb.bayesnet import Dataset, Schema
from mimb.cli import main as cli_main
from mimb.tabular import apply_mask, read_table, split_mask

from reference import brute_force_d_separated

BENCH_SEED = 7
FUZZ_SEED = 0


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def vtub_runs(alarm):
    """The VTUB protocol: nData=5, 5000 rows, zeta_T=0, conservative,
    10 repetitions, shared by criteria 6, 7 and 9."""
    runs = {}
    t0 = time.time()
    for alpha in (0.01, 0.05):
        for algo in ("mimb", "baseline"):
            runs[(algo, alpha)] = run_benchmark(
                alarm,
                "VTUB",
                algorithm=algo,
                n_datasets=5,
                rows_per_dataset=5000,
                regime="zeta_zero",
                require_conservative=True,
                alpha=alpha,
                max_cond_size=3,
                reps=10,
                seed=BENCH_SEED,
                max_targets_per_set=3,
            )
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_1_dsep_oracle_equivalence():
    t0 = time.time()
    master = np.random.SeedSequence(31)
    mismatches = checks = 0
    for ss in master.spawn(500):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(4, 9))
        dag = random_dag(n, 0.3, rng)
        names = dag.variables
        for x, y in itertools.combinations(names, 2):
            rest = [v for v in names if v not in (x, y)]
            for size in range(0, min(3, len(rest)) + 1):
                for z in itertools.combinations(rest, size):
                    checks += 1
                    if dag.d_separated(x, y, z) != brute_force_d_separated(dag, x, y, z):
                        mismatches += 1
    elapsed = time.time() - t0
    verdict(
        1,
        mismatches == 0 and elapsed < 30,
        f"{checks} queries on 500 graphs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_theorem_fuzz():
    t0 = time.time()
    summary = fuzz_theorems(
        1000, node_range=(6, 10), edge_prob=0.3, n_datasets_range=(2, 4), seed=FUZZ_SEED
    )
    elapsed = time.time() - t0
    verdict(
        2,
        summary.total_failures == 0 and elapsed < 120,
        f"{summary.total_trials} instances over 12 regime rows, "
        f"{summary.total_failures} failures, {elapsed:.1f}s",
    )


def test_criterion_3_worked_trace():
    dag, family = trace_example()
    backend = OracleBackend(dag, family)
    t = backend.test

    facts = [
        # (x, z, dataset, independent)
        ("E", (), 0, False), ("E", (), 1, False), ("E", (), 2, True),
        ("A", (), 0, False), ("A", (), 1, False), ("A", (), 2, False),
        ("B", (), 0, False), ("B", (), 1, False), ("B", (), 2, False),
        ("F", (), 0, True), ("F", (), 1, True), ("F", (), 2, True),
        ("C", (), 0, True), ("C", (), 1, True), ("C", (), 2, True),
        ("G", (), 0, True), ("G", (), 1, False), ("G", (), 2, False),
        ("A", ("E",), 0, False), ("A", ("E",), 1, False),
        ("E", ("A",), 0, False), ("E", ("A",), 1, False),
        ("B", ("E",), 0, False), ("B", ("A",), 1, False), ("B", ("E", "A"), 0, False),
        ("E", ("B",), 0, False), ("E", ("B",), 1, True),
        ("G", ("A",), 1, False), ("G", ("B",), 2, False), ("G", ("A", "B"), 1, False),
        ("E", ("B", "A"), 1, True),
        ("C", ("G",), 1, False),
    ]
    fact_failures = [
        (x, z, k)
        for (x, z, k, indep) in facts
        if t(x, "T", z, k).independent != indep
    ]

    pc_res = mipc(backend, "T")
    mb_res = mimb(OracleBackend(dag, family), "T")
    exact = (
        pc_res.cpc == ("A", "B", "G")
        and [set(s) for s in pc_res.cmb]
        == [{"A", "B"}, {"A", "B", "G"}, {"A", "B", "G"}]
        and pc_res.sepsets["E"] == {"B"}
        and pc_res.sepsets["F"] == frozenset()
        and pc_res.sepsets["C"] == frozenset()
        and mb_res.mb == {"A", "B", "G", "C"}
        and mb_res.parents == {"A", "B"}
    )
    verdict(
        3,
        not fact_failures and exact,
        f"{len(facts)} trace facts verified, cpc/sepsets/blanket/parents exact"
        + (f"; fact failures: {fact_failures}" if fact_failures else ""),
    )


def test_criterion_4_ideal_test_exactness():
    master = np.random.SeedSequence(FUZZ_SEED)
    mb_bad = pa_bad = pc_bad = 0
    mb_n = pa_n = 0
    witnesses = []
    for ss in master.spawn(300):
        rng = np.random.default_rng(ss)
        n_nodes = int(rng.integers(6, 11))
        dag = random_dag(n_nodes, 0.3, rng)
        target = dag.variables[int(rng.integers(n_nodes))]
        n_datasets = int(rng.integers(3, 6))
        regime = "zeta_zero" if rng.random() < 0.5 else "zeta_mid"
        covered = regime == "zeta_zero" and bool(rng.random() < 0.7)
        fam = generate_intervention_family(
            dag, target, n_datasets, regime,
            require_conservative=True, require_children_covered=covered, seed=rng,
        )
        corrected = mimb(
            OracleBackend(dag, fam), target,
            max_cond_size=n_nodes, symmetry_correction=True,
        )
        mb_n += 1
        if corrected.mb != dag.markov_blanket(target):
            mb_bad += 1
            if len(witnesses) < 3:
                witnesses.append((sorted(dag.edges), target, [sorted(s) for s in fam.sets]))
        if regime == "zeta_zero" and covered:
            pa_n += 1
            if corrected.parents != dag.parents(target):
                pa_bad += 1
        plain = mipc(OracleBackend(dag, fam), target, max_cond_size=n_nodes)
        pc = dag.parents(target) | dag.children(target)
        if not pc <= set(plain.cpc):
            pc_bad += 1
    detail = (
        f"blanket exact {mb_n - mb_bad}/{mb_n}, parents exact {pa_n - pa_bad}/{pa_n}, "
        f"pc-completeness without correction {300 - pc_bad}/300"
    )
    if witnesses:
        detail += f"; first witnesses: {witnesses}"
    verdict(4, mb_bad == 0 and pa_bad == 0 and pc_bad == 0, detail)


def _g2_direct(counts):
    arr = np.asarray(counts, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    stat, dof = 0.0, 0
    for k in range(arr.shape[2]):
        block = arr[:, :, k]
        n = block.sum()
        if n == 0:
            continue
        rows, cols = block.sum(axis=1), block.sum(axis=0)
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                o = block[i, j]
                if o > 0:
                    stat += 2.0 * o * math.log(o * n / (rows[i] * cols[j]))
        dof += max(int((rows > 0).sum()) - 1, 0) * max(int((cols > 0).sum()) - 1, 0)
    return stat, dof


def test_criterion_5_g2_calibration():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        counts = rng.integers(0, 40, size=shape)
        stat, dof = g2_statistic(counts)
        ref_stat, ref_dof = _g2_direct(counts)
        assert dof == ref_dof
        worst = max(worst, abs(stat - ref_stat))

    schema = Schema(("X", "Y"), (("0", "1"), ("0", "1")))
    rejections = 0
    reps = 2000
    for _ in range(reps):
        rows = rng.integers(0, 2, size=(1000, 2))
        res = g2_test(Dataset(schema, rows), "X", "Y", (), alpha=0.05)
        rejections += not res.independent
    rate = rejections / reps

    tail = chi_square_upper_tail(3.841, 1)
    passed = worst <= 1e-9 and 0.03 <= rate <= 0.07 and abs(tail - 0.050) <= 2e-4
    verdict(
        5,
        passed,
        f"max |statistic error| {worst:.2e} over 1000 tables, "
        f"null rejection rate {rate:.3f} at alpha=0.05, "
        f"upper tail(3.841, 1) = {tail:.5f}",
    )


def test_criterion_6_alarm_blanket_benchmark(vtub_runs):
    mimb_f1 = vtub_runs[("mimb", 0.01)].mb_f1[0]
    base_f1 = vtub_runs[("baseline", 0.01)].mb_f1[0]
    elapsed = vtub_runs["elapsed"]
    verdict(
        6,
        mimb_f1 >= 0.95 and base_f1 >= 0.95 and elapsed < 300,
        f"VTUB mean F1: mimb {mimb_f1:.4f}, baseline {base_f1:.4f} "
        f"(threshold 0.95); all four 10-rep protocols in {elapsed:.0f}s",
    )


def test_criterion_7_efficiency(vtub_runs):
    pairs = list(
        zip(
            (o.n_tests for o in vtub_runs[("mimb", 0.01)].outcomes),
            (o.n_tests for o in vtub_runs[("baseline", 0.01)].outcomes),
        )
    )
    wins = sum(1 for m, b in pairs if m < b)
    verdict(
        7,
        wins >= 9,
        f"mimb ran fewer tests than baseline on the same bundles in {wins}/10 reps "
        f"(mean {np.mean([m for m, _ in pairs]):.0f} vs {np.mean([b for _, b in pairs]):.0f})",
    )


def test_criterion_8_parent_recovery(alarm):
    report = run_benchmark(
        alarm,
        "VTUB",
        algorithm="mimb",
        n_datasets=5,
        rows_per_dataset=5000,
        regime="zeta_zero",
        require_conservative=True,
        require_children_covered=True,
        alpha=0.01,
        max_cond_size=3,
        reps=10,
        seed=BENCH_SEED + 4,
        max_targets_per_set=3,
    )
    pa_f1 = report.pa_f1[0]
    verdict(
        8,
        pa_f1 >= 0.90,
        f"intersection parent recovery for VTUB: mean F1 {pa_f1:.4f} "
        f"against true parents {report.truth_pa} (threshold 0.90)",
    )


def test_criterion_9_alpha_sensitivity(vtub_runs, alarm):
    # The F1 floor is checked on the criterion-6 protocol itself. The
    # degradation comparison contrasts two deltas of order 0.01-0.05, which
    # one 10-repetition draw cannot resolve, so it aggregates three
    # consecutive protocol blocks starting at (and including) the benchmark
    # seed.
    mimb_f1_05 = vtub_runs[("mimb", 0.05)].mb_f1[0]
    drops = {"mimb": [], "baseline": []}
    for seed in (BENCH_SEED, BENCH_SEED + 1, BENCH_SEED + 2):
        for algo in drops:
            precision = {}
            for alpha in (0.01, 0.05):
                if seed == BENCH_SEED:
                    report = vtub_runs[(algo, alpha)]
                else:
                    report = run_benchmark(
                        alarm,
                        "VTUB",
                        algorithm=algo,
                        n_datasets=5,
                        rows_per_dataset=5000,
                        regime="zeta_zero",
                        require_conservative=True,
                        alpha=alpha,
                        max_cond_size=3,
                        reps=10,
                        seed=seed,
                        max_targets_per_set=3,
                    )
                precision[alpha] = report.mb_precision[0]
            drops[algo].append(precision[0.01] - precision[0.05])
    deg_mimb = float(np.mean(drops["mimb"]))
    deg_base = float(np.mean(drops["baseline"]))
    verdict(
        9,
        mimb_f1_05 >= 0.90 and deg_mimb <= deg_base + 1e-9,
        f"alpha=0.05: mimb F1 {mimb_f1_05:.4f} (threshold 0.90); mean precision "
        f"drop over 3 protocol blocks: mimb {deg_mimb:.4f} vs baseline {deg_base:.4f}",
    )


def test_criterion_10_real_world_workflow(tmp_path, capsys):
    # substitute check: the split sizes on the public education dataset,
    # plus an end-to-end discover run on a split bundle
    csv_path = os.environ.get("MIMB_EDUCATION_CSV")
    sizes_checked = False
    sizes = None
    if csv_path and os.path.exists(csv_path):
        table = read_table(csv_path)
        # the published distance column is in tens of miles; accept a
        # plain-miles variant too
        for threshold in (1.0, 10.0):
            try:
                mask = split_mask(table, "distance", threshold=threshold)
                low, high = apply_mask(table, mask, "distance")
            except ValueError:
                continue
            if (low.n_rows, high.n_rows) == (2231, 2508):
                sizes_checked = True
                sizes = (low.n_rows, high.n_rows)
                break
        assert sizes_checked, "education CSV did not split 2231/2508 at 10 miles"

    # unconditional half: synthetic raw CSV through split + discover
    rng = np.random.default_rng(0)
    n = 600
    dist = rng.uniform(0, 20, n)
    score_col = rng.normal(50, 10, n) + 5 * (dist < 10)
    outcome = np.where(rng.random(n) < 1 / (1 + np.exp(-(score_col - 50) / 10)), "yes", "no")
    raw = tmp_path / "raw.csv"
    with open(raw, "w") as fh:
        fh.write("distance,score,outcome\n")
        for d, s, o in zip(dist, score_col, outcome):
            fh.write(f"{d:.3f},{s:.3f},{o}\n")
    out_dir = tmp_path / "split"
    assert cli_main([
        "split", "--data", str(raw), "--by", "distance", "--threshold", "10",
        "--discretize", "score:3", "--discretize", "distance:2",
        "--target", "outcome", "--out", str(out_dir),
    ]) == 0
    report_path = tmp_path / "report.json"
    assert cli_main([
        "discover", "--manifest", str(out_dir / "manifest.json"),
        "--target", "outcome", "--algo", "mimb", "--alpha", "0.05",
        "--out", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    well_formed = (
        {"mb", "parents", "n_tests", "cmb"} <= set(report)
        and report["mb"] == sorted(report["mb"])
    )
    capsys.readouterr()
    detail = "synthetic split + discover end-to-end produced a well-formed report"
    if sizes_checked:
        detail += f"; education CSV split sizes {sizes}"
    else:
        detail += "; education CSV not supplied (set MIMB_EDUCATION_CSV to check 2231/2508)"
    verdict(10, well_formed, detail)
