"""The four benchmark workloads: how each builds its tasks from a seed, runs
one task through the package's public functions, and checks the outputs.

A task is what the closed loop runs between two clock reads: one VTUB
repetition, one oracle target, or one chunk of theorem-fuzz instances. A
task holds one or more jobs (one rep, one target, ``12 * trials_per_row``
verified instances); job counts are what ``jobs_per_s`` and ``fail_frac``
count.

Every call into the package goes through a module attribute
(``simulate.generate_bundle(...)``, not a name imported from it), so the
traced run can rebind those attributes and time each layer from outside.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from mimb import citest, cli, discovery, hiton, metrics, simulate, tabular, theorems
from mimb.bayesnet import parse_network

# Seeds of the acceptance suite (tests/test_acceptance.py).
BENCH_SEED = 7
FUZZ_SEED = 0

# Fuzz chunk c of workload seed s runs fuzz_theorems with seed
# s * FUZZ_STRIDE + c, so chunk 0 of the default seed is the acceptance
# suite's own fuzz stream and no two (seed, chunk) pairs share a stream.
FUZZ_STRIDE = 100_000


@dataclass(frozen=True)
class Task:
    index: int
    jobs: int
    seed: object  # SeedSequence, or an int for fuzz chunks
    target: str | None = None


@dataclass
class TaskResult:
    """What one task produced: JSON-shaped outputs for the golden
    comparison, the ledger test count and the per-job F1 scores."""

    outputs: dict
    n_tests: int = 0
    mb_f1: float | None = None
    pa_f1: float | None = None


def canonical(obj):
    """JSON round trip, so outputs compare equal to the stored snapshot."""
    return json.loads(json.dumps(obj, sort_keys=True))


def fresh(ss: np.random.SeedSequence) -> np.random.SeedSequence:
    """A copy of a seed sequence; ``spawn`` advances the one it is called
    on, and a task must draw the same inputs each time it runs."""
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key)


def _sorted_sets(sepsets: dict) -> dict:
    return {v: sorted(s) for v, s in sorted(sepsets.items())}


class Workload:
    """Base: subclasses define their parameters, task stream and
    ``run_task``; tests pass smaller parameters."""

    name: str
    default_seed: int
    Params: type
    has_tests = True  # the workload spends ledger tests
    has_f1 = False

    def __init__(self, params=None):
        self.params = params or self.Params()

    @property
    def round_tasks(self) -> int:
        return self.params.round_tasks

    def fingerprint(self) -> dict:
        """The parameters that shape the tasks' inputs and outputs."""
        params = asdict(self.params)
        del params["round_tasks"]
        return params

    def setup(self, root: Path, workdir: Path) -> None:
        self.workdir = workdir
        self.alarm_path = root / "src" / "mimb" / "data" / "alarm.net"
        self.alarm = parse_network(self.alarm_path.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        raise NotImplementedError

    def tasks(self, seed: int):
        raise NotImplementedError

    def run_task(self, task: Task) -> TaskResult:
        raise NotImplementedError

    def invariant_problems(self, result: TaskResult) -> list[str]:
        """Checks that hold on every seed, golden or not."""
        out = result.outputs
        problems = []
        if not set(out["parents"]) <= set(out["mb"]):
            problems.append("parents not a subset of mb")
        if sum(out["tests_per_dataset"]) != result.n_tests:
            problems.append("sum(tests_per_dataset) != n_tests")
        return problems

    def failed_jobs(self, task: Task, result: TaskResult, golden: dict | None) -> tuple[int, list[str]]:
        problems = self.invariant_problems(result)
        if golden is not None and result.outputs != golden:
            diff = sorted(k for k in set(golden) | set(result.outputs)
                          if golden.get(k) != result.outputs.get(k))
            problems.append(f"differs from golden snapshot in {diff}")
        return (task.jobs if problems else 0), problems


# -- VTUB on ALARM -------------------------------------------------------------


@dataclass(frozen=True)
class VtubParams:
    target: str = "VTUB"
    n_datasets: int = 5
    rows_per_dataset: int = 5000
    regime: str = "zeta_zero"
    max_targets_per_set: int = 3
    alpha: float = 0.01
    max_cond: int = 3
    round_tasks: int = 4


class _Vtub(Workload):
    default_seed = BENCH_SEED
    Params = VtubParams
    has_f1 = True

    def setup(self, root: Path, workdir: Path) -> None:
        super().setup(root, workdir)
        p = self.params
        self.truth_mb = self.alarm.dag.markov_blanket(p.target)
        self.truth_pa = self.alarm.dag.parents(p.target)

    def tasks(self, seed: int):
        # one spawn per rep gives the same children as run_benchmark's
        # master.spawn(reps), in the same order
        master = np.random.SeedSequence(seed)
        i = 0
        while True:
            yield Task(index=i, jobs=1, seed=master.spawn(1)[0])
            i += 1

    def _bundle(self, rep_seed, rows: int | None = None, n_datasets: int | None = None):
        p = self.params
        fam_seed, data_seed = fresh(rep_seed).spawn(2)
        family = simulate.generate_intervention_family(
            self.alarm.dag,
            p.target,
            n_datasets or p.n_datasets,
            p.regime,
            require_conservative=True,
            require_children_covered=False,
            max_targets_per_set=p.max_targets_per_set,
            seed=fam_seed,
        )
        return simulate.generate_bundle(
            self.alarm, family, rows or p.rows_per_dataset, 1.0, data_seed
        )

    def _warm_up_bundle(self):
        """Two small datasets: every code path of a task, at a fraction of
        its cost."""
        return self._bundle(np.random.SeedSequence(BENCH_SEED + 1000), rows=1000, n_datasets=2)

    def _scored(self, outputs: dict, n_tests: int) -> TaskResult:
        return TaskResult(
            outputs=canonical(outputs),
            n_tests=n_tests,
            mb_f1=metrics.score(outputs["mb"], self.truth_mb).f1,
            pa_f1=metrics.score(outputs["parents"], self.truth_pa).f1,
        )


class VtubMimb(_Vtub):
    """MIMB along the user's file path: write_bundle, then `mimb discover`."""

    name = "vtub-mimb"

    def _discover(self, bundle, tag: str, max_cond: int | None = None) -> dict:
        p = self.params
        bundle_dir = self.workdir / tag
        manifest = tabular.write_bundle(
            bundle, bundle_dir, network=str(self.alarm_path), target=p.target
        )
        report_path = self.workdir / f"{tag}-report.json"
        code = cli.main([
            "discover", "--manifest", str(manifest), "--target", p.target,
            "--algo", "mimb", "--alpha", str(p.alpha), "--max-cond", str(max_cond or p.max_cond),
            "--out", str(report_path),
        ])
        if code != 0:
            raise RuntimeError(f"mimb discover exited with {code}")
        return json.loads(report_path.read_text(encoding="utf-8"))

    def warm_up(self) -> None:
        self._discover(self._warm_up_bundle(), "warm-up", max_cond=1)
        shutil.rmtree(self.workdir / "warm-up")

    def run_task(self, task: Task) -> TaskResult:
        report = self._discover(self._bundle(task.seed), "task")
        outputs = {
            "mb": report["mb"],
            "parents": report["parents"],
            "cpc": report["cpc"],
            "sepsets": report["sepsets"],
            "tests_per_dataset": report["n_tests_per_dataset"],
        }
        return self._scored(outputs, report["n_tests"])


class VtubBaseline(_Vtub):
    """The per-dataset HITON baseline on bundles kept in memory."""

    name = "vtub-baseline"
    make_backend = citest.DataBackend  # the traced run wraps it

    def _baseline(self, bundle, max_cond: int | None = None):
        p = self.params
        backend = self.make_backend(bundle, p.alpha)
        return hiton.baseline(backend, p.target, max_cond or p.max_cond)

    def warm_up(self) -> None:
        self._baseline(self._warm_up_bundle(), max_cond=1)

    def run_task(self, task: Task) -> TaskResult:
        res = self._baseline(self._bundle(task.seed))
        outputs = {
            "mb": sorted(res.mb),
            "parents": sorted(res.parents),
            "per_dataset_mb": [sorted(r.mb) for r in res.per_dataset],
            "cpc": [list(r.pc) for r in res.per_dataset],
            "sepsets": [_sorted_sets(r.sepsets) for r in res.per_dataset],
            "tests_per_dataset": list(res.tests_per_dataset),
        }
        return self._scored(outputs, res.n_tests)

    def invariant_problems(self, result: TaskResult) -> list[str]:
        problems = super().invariant_problems(result)
        per = [set(s) for s in result.outputs["per_dataset_mb"]]
        if set(result.outputs["mb"]) != set().union(*per):
            problems.append("mb is not the union of the per-dataset blankets")
        if set(result.outputs["parents"]) != set.intersection(*per):
            problems.append("parents are not the intersection of the per-dataset blankets")
        return problems


# -- MIMB on the d-separation oracle -------------------------------------------


@dataclass(frozen=True)
class OracleParams:
    # HR and CO are the two heaviest targets, with the most repeated
    # d-separation queries; the other four are the next heaviest, so every
    # task is long enough to time and a run still covers many families.
    targets: tuple[str, ...] = ("HR", "CO", "ACO2", "HRBP", "ERCA", "TPR")
    n_datasets: int = 5
    regime: str = "zeta_zero"
    max_targets_per_set: int = 3
    max_cond: int = 3
    round_tasks: int = 4


class AlarmOracle(Workload):
    """MIMB with ideal tests: d-separation on post-intervention graphs."""

    name = "alarm-oracle"
    default_seed = BENCH_SEED
    Params = OracleParams
    make_backend = citest.OracleBackend  # the traced run wraps it

    def tasks(self, seed: int):
        master = np.random.SeedSequence(seed)
        targets = self.params.targets
        i = 0
        while True:
            yield Task(index=i, jobs=1, seed=master.spawn(1)[0], target=targets[i % len(targets)])
            i += 1

    def warm_up(self) -> None:
        dag, family = discovery.trace_example()
        discovery.mimb(self.make_backend(dag, family), "T", self.params.max_cond)

    def run_task(self, task: Task) -> TaskResult:
        p = self.params
        dag = self.alarm.dag
        family = simulate.generate_intervention_family(
            dag,
            task.target,
            p.n_datasets,
            p.regime,
            require_conservative=True,
            max_targets_per_set=p.max_targets_per_set,
            seed=fresh(task.seed),
        )
        res = discovery.mimb(self.make_backend(dag, family), task.target, p.max_cond)
        outputs = {
            "target": task.target,
            "mb": sorted(res.mb),
            "parents": sorted(res.parents),
            "cpc": list(res.cpc),
            "sepsets": _sorted_sets(res.sepsets),
            "tests_per_dataset": list(res.tests_per_dataset),
        }
        return TaskResult(outputs=canonical(outputs), n_tests=res.n_tests)


# -- the regime-theorem fuzzer -------------------------------------------------


@dataclass(frozen=True)
class FuzzParams:
    trials_per_row: int = 10
    node_range: tuple[int, int] = (6, 10)
    edge_prob: float = 0.3
    n_datasets_range: tuple[int, int] = (2, 4)
    round_tasks: int = 40


class TheoremFuzz(Workload):
    """fuzz_theorems over all 12 regime rows; one job per verified instance."""

    name = "theorem-fuzz"
    default_seed = FUZZ_SEED
    Params = FuzzParams
    has_tests = False

    def _fuzz(self, trials: int, seed: int):
        p = self.params
        return theorems.fuzz_theorems(
            trials,
            node_range=tuple(p.node_range),
            edge_prob=p.edge_prob,
            n_datasets_range=tuple(p.n_datasets_range),
            seed=seed,
        )

    def warm_up(self) -> None:
        self._fuzz(1, FUZZ_STRIDE - 1)

    def tasks(self, seed: int):
        jobs = self.params.trials_per_row * len(theorems.ROW_NAMES)
        c = 0
        while True:
            yield Task(index=c, jobs=jobs, seed=seed * FUZZ_STRIDE + c)
            c += 1

    def run_task(self, task: Task) -> TaskResult:
        summary = self._fuzz(self.params.trials_per_row, task.seed)
        rows = {name: [r.trials, r.failures] for name, r in summary.rows.items()}
        return TaskResult(outputs=canonical({"rows": rows}))

    def invariant_problems(self, result: TaskResult) -> list[str]:
        rows = result.outputs["rows"]
        problems = []
        if sorted(rows) != sorted(theorems.ROW_NAMES):
            problems.append("regime rows missing")
        if any(trials != self.params.trials_per_row for trials, _ in rows.values()):
            problems.append("a row ran the wrong number of trials")
        failures = sum(f for _, f in rows.values())
        if failures:
            problems.append(f"{failures} instances failed verification")
        return problems

    def failed_jobs(self, task: Task, result: TaskResult, golden: dict | None) -> tuple[int, list[str]]:
        n, problems = super().failed_jobs(task, result, golden)
        # instances that failed verification are the failed jobs; a chunk
        # that went wrong in any other way fails as a whole
        failures = sum(f for _, f in result.outputs["rows"].values())
        return (failures or n), problems


WORKLOADS = {
    w.name: w for w in (VtubMimb, VtubBaseline, AlarmOracle, TheoremFuzz)
}


def make(name: str) -> Workload:
    return WORKLOADS[name]()
