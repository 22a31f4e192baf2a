"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

workloads = run.import_workloads()
import tracing  # noqa: E402  (needs the package path set up above)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_VTUB = workloads.VtubParams(rows_per_dataset=1000, n_datasets=2, round_tasks=1)
TINY = {
    "vtub-mimb": lambda: workloads.VtubMimb(TINY_VTUB),
    "vtub-baseline": lambda: workloads.VtubBaseline(TINY_VTUB),
    "alarm-oracle": lambda: workloads.AlarmOracle(
        workloads.OracleParams(targets=("LVV", "PCWP"), round_tasks=2)
    ),
    "theorem-fuzz": lambda: workloads.TheoremFuzz(
        workloads.FuzzParams(trials_per_row=1, round_tasks=2)
    ),
}
TINY_SEED = 3

COUNTS = [
    "citest.tests", "citest.tests_z0", "citest.tests_z1", "citest.tests_z2",
    "citest.tests_z3", "citest.unreliable_frac", "citest.distinct_frac",
    "citest.yz_distinct_frac", "graph.dsep_queries", "simulate.family_calls",
    "bayesnet.rows_sampled", "tabular.bytes", "discovery.mipc_calls",
    "hiton.pc_calls", "theorems.verify_calls",
]


def ready(wl, tmp_path):
    wl.setup(run.ROOT, tmp_path)
    wl.warm_up()
    return wl


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_end_to_end_metric_printed_with_unit(name, tmp_path):
    wl = ready(TINY[name](), tmp_path)
    metrics, rec = run.measure(wl, TINY_SEED, 0.01, [0.5])
    lines = run.report_lines(name, TINY_SEED, 0, metrics, rec, {})
    last = json.loads(run.final_json(metrics, [n for n, _ in run.END_TO_END], rec))

    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert last["metrics"][m["name"]]["value"] > 0
    # the full report: every metric that applies to the workload
    expected = {"setup_s", "wall_s", "jobs_per_s", "peak_rss_mb", "fail_frac"}
    if wl.has_tests:
        expected |= {"tests_per_s", "n_tests"}
    if wl.has_f1:
        expected |= {"mb_f1", "pa_f1"}
    assert expected <= set(metrics)
    for key in expected:
        value, unit = metrics[key]
        assert any(line.split() == [key, f"{value:.6g}", unit] for line in lines)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_and_outputs_match(name, tmp_path):
    wl = ready(TINY[name](), tmp_path)
    first, rec1, _, _ = run.measure_traced(wl, TINY_SEED)
    second, rec2, _, _ = run.measure_traced(wl, TINY_SEED)
    # traced outputs equal the untraced ones, or the recorder counts a failure
    assert rec1.failed == rec2.failed == 0
    for key in COUNTS:
        assert first[key] == second[key], key
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in first.items()} == names
    if wl.has_tests:
        assert first["citest.tests"][0] > 0
        assert 0 < first["citest.distinct_frac"][0] <= 1


def test_tracing_restores_the_package():
    import mimb.citest
    import mimb.graph

    before = (mimb.citest.g2_statistic, mimb.graph.Dag.d_separated)
    wl = workloads.VtubMimb(TINY_VTUB)
    with tracing.instrument(tracing.Tracer(), wl):
        assert mimb.citest.g2_statistic is not before[0]
    assert (mimb.citest.g2_statistic, mimb.graph.Dag.d_separated) == before


def test_golden_task_passes_and_a_perturbed_one_fails(tmp_path, monkeypatch):
    wl = ready(workloads.VtubBaseline(), tmp_path)
    golden = run.load_golden(wl, wl.default_seed)
    assert golden, "golden snapshot missing for vtub-baseline"
    task = next(wl.tasks(wl.default_seed))

    rec = run.Recorder(wl, golden)
    rec.run(task)
    assert (rec.attempted, rec.failed, rec.golden_checked) == (1, 0, 1)

    real = workloads.hiton.baseline

    def perturbed(*args, **kwargs):
        res = real(*args, **kwargs)
        first = res.per_dataset[0]
        dropped = dataclasses.replace(first, sepsets={})
        return dataclasses.replace(res, per_dataset=(dropped,) + res.per_dataset[1:])

    monkeypatch.setattr(workloads.hiton, "baseline", perturbed)
    rec = run.Recorder(wl, golden)
    rec.run(task)
    assert rec.failed == 1 and "golden" in rec.problems[0]


def test_invariants_catch_a_perturbed_output_on_any_seed(tmp_path, monkeypatch):
    wl = ready(TINY["alarm-oracle"](), tmp_path)
    real = workloads.discovery.mimb
    monkeypatch.setattr(
        workloads.discovery, "mimb",
        lambda *a, **k: dataclasses.replace(real(*a, **k), parents=frozenset({"not-in-mb"})),
    )
    metrics, rec = run.measure(wl, TINY_SEED, 0.01, [0.5])
    assert rec.failed == rec.attempted == 2
    assert metrics["fail_frac"] == (1.0, "fraction")


def test_fuzz_verification_failures_count_per_instance(tmp_path, monkeypatch):
    wl = ready(TINY["theorem-fuzz"](), tmp_path)
    real = workloads.theorems.verify
    calls = []

    def every_fifth_fails(*args):
        report = real(*args)
        calls.append(1)
        return report if len(calls) % 5 else dataclasses.replace(report, union_ok=False)

    monkeypatch.setattr(workloads.theorems, "verify", every_fifth_fails)
    task = next(wl.tasks(TINY_SEED))
    rec = run.Recorder(wl, None)
    rec.run(task)
    assert rec.attempted == 12
    assert rec.failed == 2


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vtub-mimb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
