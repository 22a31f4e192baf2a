"""Evaluation metrics and the repeated benchmark protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .bayesnet import BayesianNetwork
from .citest import DataBackend
from .discovery import mimb
from .hiton import baseline
from .simulate import generate_bundle, generate_intervention_family


class Scores(NamedTuple):
    precision: float
    recall: float
    f1: float


def score(found: Iterable[str], truth: Iterable[str]) -> Scores:
    """Set precision/recall/F1 of a discovery against the truth.

    An empty discovery scores precision 1 only when the truth is empty too;
    F1 is 0 whenever precision + recall is 0.
    """
    found_set = frozenset(found)
    truth_set = frozenset(truth)
    hits = len(found_set & truth_set)
    if found_set:
        precision = hits / len(found_set)
    else:
        precision = 1.0 if not truth_set else 0.0
    if truth_set:
        recall = hits / len(truth_set)
    else:
        recall = 1.0 if not found_set else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Scores(precision, recall, f1)


def mean_std(values: Iterable[float]) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    return float(arr.mean()), float(arr.std(ddof=0))


def format_pm(mean: float, std: float) -> str:
    return f"{mean:.2f}±{std:.2f}"


@dataclass
class RepOutcome:
    mb_found: list[str]
    pa_found: list[str]
    mb_scores: Scores
    pa_scores: Scores
    n_tests: int


@dataclass
class EvalReport:
    """Aggregated discovery quality over repeated simulations."""

    algorithm: str
    target: str
    reps: int
    alpha: float
    n_datasets: int
    rows_per_dataset: int
    regime: str
    seed: int
    truth_mb: list[str]
    truth_pa: list[str]
    outcomes: list[RepOutcome] = field(default_factory=list)

    def _agg(self, key) -> tuple[float, float]:
        return mean_std(key(o) for o in self.outcomes)

    @property
    def mb_precision(self) -> tuple[float, float]:
        return self._agg(lambda o: o.mb_scores.precision)

    @property
    def mb_recall(self) -> tuple[float, float]:
        return self._agg(lambda o: o.mb_scores.recall)

    @property
    def mb_f1(self) -> tuple[float, float]:
        return self._agg(lambda o: o.mb_scores.f1)

    @property
    def pa_precision(self) -> tuple[float, float]:
        return self._agg(lambda o: o.pa_scores.precision)

    @property
    def pa_recall(self) -> tuple[float, float]:
        return self._agg(lambda o: o.pa_scores.recall)

    @property
    def pa_f1(self) -> tuple[float, float]:
        return self._agg(lambda o: o.pa_scores.f1)

    @property
    def n_tests(self) -> tuple[float, float]:
        return self._agg(lambda o: o.n_tests)

    def to_json_dict(self) -> dict:
        def pm(pair):
            return {"mean": pair[0], "std": pair[1], "pretty": format_pm(*pair)}

        return {
            "algorithm": self.algorithm,
            "target": self.target,
            "reps": self.reps,
            "alpha": self.alpha,
            "n_datasets": self.n_datasets,
            "rows_per_dataset": self.rows_per_dataset,
            "regime": self.regime,
            "seed": self.seed,
            "truth": {"mb": self.truth_mb, "parents": self.truth_pa},
            "mb": {
                "precision": pm(self.mb_precision),
                "recall": pm(self.mb_recall),
                "f1": pm(self.mb_f1),
            },
            "parents": {
                "precision": pm(self.pa_precision),
                "recall": pm(self.pa_recall),
                "f1": pm(self.pa_f1),
            },
            "n_tests": pm(self.n_tests),
            "per_rep": [
                {
                    "mb_found": o.mb_found,
                    "pa_found": o.pa_found,
                    "mb_f1": o.mb_scores.f1,
                    "pa_f1": o.pa_scores.f1,
                    "n_tests": o.n_tests,
                }
                for o in self.outcomes
            ],
        }


def run_benchmark(
    bn: BayesianNetwork,
    target: str,
    *,
    algorithm: str = "mimb",
    n_datasets: int = 5,
    rows_per_dataset: int = 5000,
    regime: str = "zeta_zero",
    require_conservative: bool = True,
    require_children_covered: bool = False,
    alpha: float = 0.01,
    max_cond_size: int = 3,
    reps: int = 10,
    seed: int = 0,
    symmetry_correction: bool = False,
    max_targets_per_set: int | None = None,
) -> EvalReport:
    """Repeat the synthetic protocol and score against the graph truth.

    Each repetition draws a fresh intervention family and bundle from an
    independent substream of the master seed, runs the requested algorithm
    with G-squared tests, and scores the discovered blanket against the
    network's exact blanket and the discovered parent set against the exact
    parents.
    """
    if algorithm not in ("mimb", "baseline"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    truth_mb = bn.dag.markov_blanket(target)
    truth_pa = bn.dag.parents(target)
    report = EvalReport(
        algorithm=algorithm,
        target=target,
        reps=reps,
        alpha=alpha,
        n_datasets=n_datasets,
        rows_per_dataset=rows_per_dataset,
        regime=regime,
        seed=seed,
        truth_mb=sorted(truth_mb),
        truth_pa=sorted(truth_pa),
    )
    master = np.random.SeedSequence(seed)
    for rep_stream in master.spawn(reps):
        fam_seed, data_seed = rep_stream.spawn(2)
        family = generate_intervention_family(
            bn.dag,
            target,
            n_datasets,
            regime,
            require_conservative=require_conservative,
            require_children_covered=require_children_covered,
            max_targets_per_set=max_targets_per_set,
            seed=fam_seed,
        )
        bundle = generate_bundle(bn, family, rows_per_dataset, seed=data_seed)
        backend = DataBackend(bundle, alpha)
        if algorithm == "mimb":
            result = mimb(
                backend,
                target,
                max_cond_size,
                symmetry_correction=symmetry_correction,
            )
        else:
            result = baseline(backend, target, max_cond_size)
        report.outcomes.append(
            RepOutcome(
                mb_found=sorted(result.mb),
                pa_found=sorted(result.parents),
                mb_scores=score(result.mb, truth_mb),
                pa_scores=score(result.parents, truth_pa),
                n_tests=result.n_tests,
            )
        )
    return report
