"""Command line interface.

Subcommands cover the full workflow: generate interventional bundles from a
network file, discover blankets/parents from a bundle manifest, verify the
regime theory by fuzzing, run the repeated benchmark protocol, and split a
raw CSV into two interventional datasets.

Exit codes: 0 success, 2 input error, 3 unsatisfiable constraints,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

from .bayesnet import ParseError, parse_network
from .citest import DataBackend, OracleBackend
from .discovery import mimb
from .hiton import baseline
from .metrics import run_benchmark
from .simulate import ConstraintError, generate_bundle, generate_intervention_family
from .tabular import (
    MANIFEST_NAME,
    apply_mask,
    discretize,
    family_from_manifest,
    load_bundle,
    read_manifest,
    read_table,
    split_mask,
    write_bundle,
    write_table,
)
from .theorems import fuzz_theorems

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSTRAINT = 3
EXIT_INTERNAL = 4


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_network(path: str):
    return parse_network(Path(path).read_text(encoding="utf-8"))


def _int_range(text: str) -> tuple[int, int]:
    """An argparse type: ``N`` or ``LO-HI``, integers with 1 <= LO <= HI."""
    lo, dash, hi = text.partition("-")
    try:
        low = int(lo)
        high = int(hi) if dash else low
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO-HI, got {text!r}") from None
    if low < 1:
        raise argparse.ArgumentTypeError(f"must be 1 or more, got {text}")
    if high < low:
        raise argparse.ArgumentTypeError(f"reversed range {text}")
    return low, high


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {low} or more, got {value}")
        return value

    return parse


def _float_between(low: float, high: float, *, include_high: bool = False):
    """An argparse type: a number strictly between ``low`` and ``high``, or
    equal to ``high`` with ``include_high`` (so never NaN, and finite when
    both bounds are)."""
    if include_high:
        bounds = f"in ({low:g}, {high:g}]"
    else:
        bounds = f"strictly between {low:g} and {high:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (low < value < high or include_high and value == high):
            raise argparse.ArgumentTypeError(f"must lie {bounds}, got {text}")
        return value

    return parse


def _discretize_spec(text: str) -> tuple[str, int]:
    """An argparse type: ``VAR:BINS``, with BINS an integer of 2 or more."""
    name, colon, bins = text.partition(":")
    try:
        count = int(bins)
    except ValueError:
        count = 0
    if not colon or count < 2:
        raise argparse.ArgumentTypeError(
            f"expected VAR:BINS with an integer BINS of 2 or more, got {text!r}"
        )
    return name, count


def cmd_generate(args: argparse.Namespace) -> int:
    bn = _load_network(args.network)
    family = generate_intervention_family(
        bn.dag,
        args.target,
        args.n_datasets,
        args.regime,
        require_conservative=args.conservative,
        require_children_covered=args.cover_children,
        max_targets_per_set=args.max_targets,
        seed=args.seed,
    )
    bundle = generate_bundle(bn, family, args.samples, args.alpha_dirichlet, args.seed)
    manifest = write_bundle(
        bundle,
        args.out,
        network=str(Path(args.network).resolve()),
        target=args.target,
        seed=args.seed,
    )
    _emit(
        {
            "manifest": str(manifest),
            "n_datasets": len(bundle),
            "samples": args.samples,
            "interventions": [sorted(s) for s in family.sets],
        },
        None,
    )
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.manifest)
    states = None
    network = None
    net_path = None
    if manifest.get("network"):
        net_path = Path(manifest["network"])
        if not net_path.is_absolute():
            net_path = Path(args.manifest).parent / net_path
        if net_path.exists():
            network = _load_network(str(net_path))
            states = {
                v: network.schema.states_of(v) for v in network.variables
            }

    if args.backend == "oracle":
        if net_path is None:
            raise ValueError("oracle backend needs a manifest with a network file")
        if network is None:
            raise ValueError(
                f"oracle backend: network file {str(net_path)!r} does not exist"
            )
        family = family_from_manifest(manifest)
        backend = OracleBackend(network.dag, family)
    else:
        bundle = load_bundle(args.manifest, states)
        backend = DataBackend(bundle, args.alpha)

    if args.algo == "mimb":
        result = mimb(
            backend,
            args.target,
            args.max_cond,
            symmetry_correction=args.symmetry,
        )
        body = {
            "cpc": sorted(result.cpc),
            "cmb": [sorted(s) for s in result.cmb],
            "sepsets": {v: sorted(s) for v, s in sorted(result.sepsets.items())},
        }
    else:
        result = baseline(backend, args.target, args.max_cond)
        body = {"per_dataset_mb": [sorted(r.mb) for r in result.per_dataset]}

    _emit(
        {
            "algorithm": args.algo,
            "target": args.target,
            "alpha": args.alpha,
            "max_cond": args.max_cond,
            "symmetry_correction": bool(args.symmetry),
            "backend": args.backend,
            "mb": sorted(result.mb),
            "parents": sorted(result.parents),
            **body,
            "n_tests": result.n_tests,
            "n_tests_per_dataset": list(result.tests_per_dataset),
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify_theorems(args: argparse.Namespace) -> int:
    summary = fuzz_theorems(
        args.trials,
        node_range=args.nodes,
        edge_prob=args.edge_prob,
        n_datasets_range=args.n_datasets,
        seed=args.seed,
    )
    _emit(summary.to_json_dict(), args.out)
    return EXIT_OK if summary.passed else EXIT_INTERNAL


def cmd_benchmark(args: argparse.Namespace) -> int:
    bn = _load_network(args.network)
    algorithms = ["mimb", "baseline"] if args.algo == "both" else [args.algo]
    reports = {}
    for algo in algorithms:
        report = run_benchmark(
            bn,
            args.target,
            algorithm=algo,
            n_datasets=args.n_datasets,
            rows_per_dataset=args.samples,
            regime=args.regime,
            require_conservative=args.conservative,
            require_children_covered=args.cover_children,
            alpha=args.alpha,
            max_cond_size=args.max_cond,
            reps=args.reps,
            seed=args.seed,
            symmetry_correction=args.symmetry,
            max_targets_per_set=args.max_targets,
        )
        reports[algo] = report.to_json_dict()
    _emit(reports, args.out)
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    table = read_table(args.data)
    # the membership mask comes from the raw column; discretisation happens
    # afterwards on the whole table so both halves share bin boundaries
    mask = split_mask(table, args.by, threshold=args.threshold, label=args.label)
    for name, bins in args.discretize or []:
        table = discretize(table, name, bins)
    low, high = apply_mask(table, mask, args.by)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_table(low, out / "dataset_00.csv")
    write_table(high, out / "dataset_01.csv")
    manifest = {
        "datasets": ["dataset_00.csv", "dataset_01.csv"],
        "interventions": [[args.by], [args.by]],
        "network": None,
        "target": args.target,
        "split": {
            "by": args.by,
            "threshold": args.threshold,
            "label": args.label,
        },
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    _emit(
        {
            "manifest": str(path),
            "sizes": [low.n_rows, high.n_rows],
        },
        None,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimb",
        description="Markov blanket discovery from multiple interventional datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # how generate and benchmark sample a bundle from a network
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--network", required=True)
    sampling.add_argument("--target", required=True)
    sampling.add_argument("--n-datasets", type=_int_at_least(1), default=5)
    sampling.add_argument("--samples", type=_int_at_least(1), default=5000)
    sampling.add_argument("--regime", choices=["zeta0", "mid", "all"], default="zeta0")
    sampling.add_argument("--conservative", action=argparse.BooleanOptionalAction, default=True)
    sampling.add_argument("--cover-children", action="store_true")
    sampling.add_argument("--max-targets", type=_int_at_least(1), default=None)
    sampling.add_argument("--seed", type=_int_at_least(0), default=0)

    # how discover and benchmark run the conditional independence tests
    testing = argparse.ArgumentParser(add_help=False)
    testing.add_argument("--alpha", type=_float_between(0, 1), default=0.01)
    testing.add_argument("--max-cond", type=_int_at_least(0), default=3)
    testing.add_argument("--symmetry", action="store_true")

    p = sub.add_parser(
        "generate", parents=[sampling], help="sample an interventional bundle from a network"
    )
    p.add_argument("--alpha-dirichlet", type=_float_between(0, math.inf), default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "discover", parents=[testing], help="run a discovery algorithm on a bundle"
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--algo", choices=["mimb", "baseline"], default="mimb")
    p.add_argument("--backend", choices=["data", "oracle"], default="data")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("verify-theorems", help="fuzz the regime theory on random graphs")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument(
        "--nodes", type=_int_range, default="6-10", help="node count or range, e.g. 8 or 6-10"
    )
    p.add_argument("--edge-prob", type=_float_between(0, 1, include_high=True), default=0.3)
    p.add_argument("--n-datasets", type=_int_range, default="2-4")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser(
        "benchmark",
        parents=[sampling, testing],
        help="repeat the synthetic protocol and score it",
    )
    p.add_argument("--algo", choices=["mimb", "baseline", "both"], default="both")
    p.add_argument("--reps", type=_int_at_least(1), default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("split", help="split one CSV into two interventional datasets")
    p.add_argument("--data", required=True)
    p.add_argument("--by", required=True)
    rule = p.add_mutually_exclusive_group(required=True)
    rule.add_argument("--threshold", type=float)
    rule.add_argument("--label")
    p.add_argument(
        "--discretize", action="append", type=_discretize_spec, metavar="VAR:BINS"
    )
    p.add_argument("--target", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
