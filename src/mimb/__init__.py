"""Markov blanket and cause discovery from multiple interventional datasets.

The package discovers the Markov blanket and the parent set of a target
variable from several discrete datasets generated under unknown
interventions: a baseline that runs single-dataset discovery everywhere and
aggregates, and a cross-dataset algorithm (MIPC/MIMB) that shares evidence
between datasets. A graph-level oracle harness verifies exactly what the
union and intersection of per-dataset blankets can recover under each
manipulation regime.
"""

from .bayesnet import (
    BayesianNetwork,
    Dataset,
    DatasetBundle,
    ParseError,
    Schema,
    format_network,
    forward_sample,
    parse_network,
    randomize_manipulated_cpts,
)
from .citest import (
    CiBackend,
    CiResult,
    DataBackend,
    OracleBackend,
    TestLedger,
    chi_square_upper_tail,
    contingency_counts,
    g2_statistic,
    g2_test,
)
from .discovery import DiscoveryResult, mimb, mipc, trace_example
from .graph import Dag, InterventionFamily, is_conservative
from .hiton import BaselineResult, SingleMbResult, baseline, hiton_mb, hiton_pc
from .metrics import EvalReport, Scores, run_benchmark, score
from .simulate import (
    ConstraintError,
    generate_bundle,
    generate_intervention_family,
    random_cpts,
    random_dag,
)
from .theorems import (
    FuzzSummary,
    RegimeClassification,
    VerificationReport,
    classify_regime,
    fuzz_theorems,
    oracle_mbs,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "BayesianNetwork",
    "BaselineResult",
    "CiBackend",
    "CiResult",
    "ConstraintError",
    "Dag",
    "DataBackend",
    "Dataset",
    "DatasetBundle",
    "DiscoveryResult",
    "EvalReport",
    "FuzzSummary",
    "InterventionFamily",
    "OracleBackend",
    "ParseError",
    "RegimeClassification",
    "Schema",
    "Scores",
    "SingleMbResult",
    "TestLedger",
    "VerificationReport",
    "baseline",
    "chi_square_upper_tail",
    "classify_regime",
    "contingency_counts",
    "format_network",
    "forward_sample",
    "fuzz_theorems",
    "g2_statistic",
    "g2_test",
    "generate_bundle",
    "generate_intervention_family",
    "hiton_mb",
    "hiton_pc",
    "is_conservative",
    "mimb",
    "mipc",
    "oracle_mbs",
    "parse_network",
    "random_cpts",
    "random_dag",
    "randomize_manipulated_cpts",
    "run_benchmark",
    "score",
    "trace_example",
    "verify",
]
