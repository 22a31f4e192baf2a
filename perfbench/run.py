"""Benchmark for the mimb package: one workload per run, a closed loop of
tasks in one process with one thread, outputs checked on every task.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload vtub-mimb --seed 7 --seconds 20 --trace 0

``--trace 0`` times the workload with nothing instrumented and prints the
end-to-end metrics; ``--trace 1`` runs the workload's fixed first round once
plain and once with every layer instrumented, and prints the per-layer
metrics. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record, and the spans of a traced run, go to
``perfbench/out/``.

Workloads, seeds and checks are described in ``workloads.py``. On a
workload's default seed every task is compared with ``golden.json``,
recorded by ``record_golden.py``; on any other seed only the invariants are
checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

WORKLOAD_NAMES = ("vtub-mimb", "vtub-baseline", "alarm-oracle", "theorem-fuzz")

# Set-up is timed this many times per run: the run itself plus fresh
# processes that only set up, so that import time shows in the median.
SETUP_SAMPLES = 5

# (name, unit) of the end-to-end metrics in the final JSON line; the same
# list as "end_to_end" in BENCHMARK.json. work_per_s is the median over a
# run's tasks of each task's ledger tests per second (verified instances per
# second on theorem-fuzz). The median, not the total, because task costs are
# heavy-tailed and depend on the seed: an oracle family for HR can cost ten
# times another, and about one fuzz chunk in eight runs into the 10,000-draw
# rejection loop of generate_intervention_family. The totals are printed as
# tests_per_s and jobs_per_s.
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric (tracing.layer_metrics), from its name."""
    if name.endswith("_frac"):
        return "fraction"
    if "_us_p" in name:
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "count"


class SetupError(RuntimeError):
    pass


def import_workloads():
    """Put the checkout's ``src/`` first on the path and import the
    benchmark's workload module (and through it the package)."""
    src = ROOT / "src"
    if not (src / "mimb" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'mimb'}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import mimb
    import workloads

    if Path(mimb.__file__).resolve().parent != (src / "mimb").resolve():
        raise SetupError(f"imported mimb from {mimb.__file__}, not from {src}")
    return workloads


def set_up(name: str):
    """Imports, ALARM parse, work directory and warm-up; returns the ready
    workload and the seconds it took."""
    t0 = clock()
    workloads = import_workloads()
    wl = workloads.make(name)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl.setup(ROOT, workdir)
    wl.warm_up()
    return wl, clock() - t0


def probe_setup(name: str) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def load_golden(wl, seed: int) -> list | None:
    """Golden outputs per task, when this run's inputs are the recorded ones."""
    if seed != wl.default_seed or not GOLDEN_PATH.is_file():
        return None
    entry = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(wl.name)
    if not entry or entry["seed"] != seed or entry["params"] != json.loads(json.dumps(wl.fingerprint())):
        return None
    return entry["tasks"]


class Recorder:
    """Runs tasks, times them and checks what they return."""

    def __init__(self, wl, golden: list | None):
        self.wl = wl
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.problems: list[str] = []
        self.tasks: list[dict] = []  # per task: index, jobs, tests, seconds

    def run(self, task, expect: dict | None = None):
        """One task; ``expect`` is another run's output for the same task,
        which this one must equal. Returns (seconds, result or None)."""
        wl = self.wl
        self.attempted += task.jobs
        t0 = clock()
        try:
            result = wl.run_task(task)
        except Exception:
            seconds = clock() - t0
            self.failed += task.jobs
            self.problems.append(f"task {task.index}: raised\n{traceback.format_exc()}")
            print(self.problems[-1], file=sys.stderr)
            return seconds, None
        seconds = clock() - t0
        self.tasks.append({"index": task.index, "jobs": task.jobs,
                           "tests": result.n_tests, "seconds": seconds})
        golden = None
        if self.golden is not None and task.index < len(self.golden):
            golden = self.golden[task.index]
            self.golden_checked += 1
        n_failed, problems = wl.failed_jobs(task, result, golden)
        if expect is not None and result.outputs != expect:
            problems.append("traced output differs from the untraced output")
            n_failed = task.jobs
        self.failed += n_failed
        for p in problems:
            self.problems.append(f"task {task.index}: {p}")
            print(self.problems[-1], file=sys.stderr)
        return seconds, result


def round_summary(wl, results) -> dict:
    """Exact figures of the fixed first round: ledger tests and mean F1."""
    done = [r for r in results if r is not None]
    out = {}
    if wl.has_tests:
        out["n_tests"] = (sum(r.n_tests for r in done), "count")
    if wl.has_f1 and done:
        out["mb_f1"] = (statistics.fmean(r.mb_f1 for r in done), "score")
        out["pa_f1"] = (statistics.fmean(r.pa_f1 for r in done), "score")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float, setup_times: list[float]) -> tuple[dict, Recorder]:
    """Closed loop: the next task starts when the previous one ends, until
    ``seconds`` have passed and the first round is complete."""
    rec = Recorder(wl, load_golden(wl, seed))
    tasks = wl.tasks(seed)
    jobs = tests = 0
    first_round = []
    t_start = clock()
    for task in tasks:
        if task.index >= wl.round_tasks and clock() - t_start >= seconds:
            break
        _, result = rec.run(task)
        jobs += task.jobs
        if result is not None:
            tests += result.n_tests
        if task.index < wl.round_tasks:
            first_round.append(result)
    wall = clock() - t_start
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (jobs / wall, "1/s"),
    }
    if wl.has_tests:
        m["tests_per_s"] = (tests / wall, "1/s")
    # per task: ledger tests (verified instances on theorem-fuzz) per second
    rates = [(t["tests"] if wl.has_tests else t["jobs"]) / t["seconds"] for t in rec.tasks]
    m["work_per_s"] = (statistics.median(rates), "1/s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    m["fail_frac"] = (rec.failed / rec.attempted, "fraction")
    m.update(round_summary(wl, first_round))
    return m, rec


def measure_traced(wl, seed: int):
    """The first round plain, then the same round traced. Returns the
    per-layer metrics of the traced round, the recorder, the tracer and the
    round's exact figures."""
    import tracing

    rec = Recorder(wl, load_golden(wl, seed))
    round_tasks = []
    for task in wl.tasks(seed):
        if task.index >= wl.round_tasks:
            break
        round_tasks.append(task)

    plain_wall = 0.0
    plain_out = []
    for task in round_tasks:
        seconds, result = rec.run(task)
        plain_wall += seconds
        plain_out.append(None if result is None else result.outputs)

    tracer = tracing.Tracer()
    traced_wall = 0.0
    traced_results = []
    with tracing.instrument(tracer, wl):
        for task, expect in zip(round_tasks, plain_out):
            with tracer.task(task.index):
                seconds, result = rec.run(task, expect)
            traced_wall += seconds
            traced_results.append(result)
    m = tracing.layer_metrics(tracer)
    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics = {k: (v, layer_unit(k)) for k, v in m.items()}
    return metrics, rec, tracer, round_summary(wl, traced_results)


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=ROOT, env=env,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def report_lines(name: str, seed: int, trace: int, metrics: dict, rec: Recorder, env: dict) -> list[str]:
    lines = [
        f"workload {name}  seed {seed}  trace {trace}",
        "env " + json.dumps(env, sort_keys=True),
        f"jobs attempted {rec.attempted}, failed {rec.failed}, "
        f"tasks compared with the golden snapshot {rec.golden_checked}",
    ]
    for key, (value, unit) in metrics.items():
        lines.append(f"{key:28s} {value:.6g} {unit}")
    return lines


def final_json(metrics: dict, wanted, rec: Recorder) -> str:
    return json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    })


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: the golden one)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl, setup_s = set_up(args.workload)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        seed = wl.default_seed if args.seed is None else args.seed
        if args.trace:
            metrics, rec, tracer, summary = measure_traced(wl, seed)
            tracer.save(OUT_DIR / f"spans-{wl.name}.npz")
            wanted = list(metrics)
            shown = {**metrics, **summary}
        else:
            setups = [setup_s] + [probe_setup(wl.name) for _ in range(SETUP_SAMPLES - 1)]
            metrics, rec = measure(wl, seed, args.seconds, setups)
            wanted = [name for name, _ in END_TO_END]
            shown = metrics
        env = environment()
        lines = report_lines(wl.name, seed, args.trace, shown, rec, env)
        record = {
            "workload": wl.name, "seed": seed, "trace": args.trace, "env": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
            "attempted": rec.attempted, "failed": rec.failed, "problems": rec.problems,
            "tasks": rec.tasks,
        }
        (OUT_DIR / f"result-{wl.name}-seed{seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
        print("\n".join(lines))
        print(final_json(shown, wanted, rec))
        return 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
