"""Record the golden snapshot: the outputs of the first tasks of every
workload at its default seed, written to ``perfbench/golden.json``.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_golden.py [workload ...]

The snapshot holds more tasks than one run reaches, so a faster program is
still compared task by task. For the two VTUB workloads the recorded ledger
counts are cross-checked against ``mimb.run_benchmark`` on the same seed,
which runs the same repetitions in memory.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# tasks recorded per workload
COUNTS = {"vtub-mimb": 40, "vtub-baseline": 40, "alarm-oracle": 40, "theorem-fuzz": 200}


def record(name: str) -> dict:
    wl, _ = run.set_up(name)
    try:
        seed = wl.default_seed
        tasks = []
        for task in wl.tasks(seed):
            if task.index >= COUNTS[name]:
                break
            result = wl.run_task(task)
            _, problems = wl.failed_jobs(task, result, None)
            if problems:
                raise SystemExit(f"{name} task {task.index}: {problems}")
            tasks.append(result.outputs)
            print(f"{name} task {task.index} recorded", file=sys.stderr)
        if name.startswith("vtub-"):
            cross_check(wl, seed, tasks)
        return {"seed": seed, "params": json.loads(json.dumps(wl.fingerprint())), "tasks": tasks}
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def cross_check(wl, seed: int, tasks: list) -> None:
    import mimb

    p = wl.params
    report = mimb.run_benchmark(
        wl.alarm, p.target, algorithm=wl.name.removeprefix("vtub-"),
        n_datasets=p.n_datasets, rows_per_dataset=p.rows_per_dataset, regime=p.regime,
        require_conservative=True, alpha=p.alpha, max_cond_size=p.max_cond,
        reps=4, seed=seed, max_targets_per_set=p.max_targets_per_set,
    )
    for rep, task in zip(report.outcomes, tasks):
        if rep.n_tests != sum(task["tests_per_dataset"]) or rep.mb_found != task["mb"]:
            raise SystemExit(f"{wl.name}: task differs from run_benchmark's repetition")


def main(argv: list[str]) -> int:
    names = argv or list(run.WORKLOAD_NAMES)
    golden = {}
    if run.GOLDEN_PATH.is_file():
        golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    for name in names:
        golden[name] = record(name)
    # one task per line keeps the file reviewable in a diff
    parts = []
    for name in run.WORKLOAD_NAMES:
        if name not in golden:
            continue
        entry = golden[name]
        head = json.dumps({"seed": entry["seed"], "params": entry["params"]})[:-1]
        body = ",\n".join("    " + json.dumps(t, sort_keys=True) for t in entry["tasks"])
        parts.append(f'  "{name}": {head}, "tasks": [\n{body}\n  ]}}')
    run.GOLDEN_PATH.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
