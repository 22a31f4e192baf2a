import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mimb.theorems
from mimb import InterventionFamily, format_network, random_cpts, trace_example
from mimb.cli import build_parser, main

TINY_NET = """\
VAR A a b
VAR T a b
VAR B a b
PARENTS T A
PARENTS B T
CPT A
0.4 0.6
CPT T
0.85 0.15
0.2 0.8
CPT B
0.9 0.1
0.25 0.75
"""


@pytest.fixture
def tiny_network(tmp_path):
    path = tmp_path / "tiny.net"
    path.write_text(TINY_NET)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def readme_cli_examples():
    """The arguments of every ``mimb ...`` command in the README's bash
    blocks, backslash-continued lines joined, split as a shell would."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    text = "\n".join(re.findall(r"```bash\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("mimb ")]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_example_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_shows_every_subcommand():
    commands = {argv[0] for argv in readme_cli_examples()}
    assert commands == {"generate", "discover", "verify-theorems", "benchmark", "split"}


def test_readme_quick_start_gives_its_commented_results():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(block, namespace)
    # a comment that is a Python value is the result of its line
    commented = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            commented[code.strip()] = eval(comment, {"frozenset": frozenset})
        except (SyntaxError, NameError):
            continue  # a comment in words
    assert commented == {
        "result.mb": frozenset("ABCG"),
        "result.parents": frozenset("AB"),
        "result.n_tests": 199,
    }
    for code, value in commented.items():
        assert eval(code, namespace) == value


class TestGenerateAndDiscover:
    def test_round_trip(self, tiny_network, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        code = run_cli(
            "generate", "--network", tiny_network, "--target", "T",
            "--n-datasets", 3, "--samples", 400, "--regime", "zeta0",
            "--seed", 5, "--out", out_dir,
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["datasets"]) == 3
        assert manifest["target"] == "T"
        assert all((out_dir / name).exists() for name in manifest["datasets"])
        capsys.readouterr()

        report_path = tmp_path / "report.json"
        code = run_cli(
            "discover", "--manifest", out_dir / "manifest.json",
            "--target", "T", "--algo", "mimb", "--alpha", 0.05,
            "--out", report_path,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["algorithm"] == "mimb"
        assert isinstance(report["n_tests"], int)
        assert sum(report["n_tests_per_dataset"]) == report["n_tests"]
        assert report["mb"] == sorted(report["mb"])

        # identical invocation reproduces the identical report
        second = tmp_path / "report2.json"
        run_cli(
            "discover", "--manifest", out_dir / "manifest.json",
            "--target", "T", "--algo", "mimb", "--alpha", 0.05,
            "--out", second,
        )
        assert second.read_text() == report_path.read_text()

        # the manifest carries enough ground truth to rescore the discovery
        from mimb import parse_network, score
        from mimb.tabular import family_from_manifest

        net = parse_network(Path(manifest["network"]).read_text())
        truth = net.dag.markov_blanket(manifest["target"])
        family_from_manifest(manifest)  # manipulated sets are recorded
        rescored = score(report["mb"], truth)
        assert 0.0 <= rescored.f1 <= 1.0

    def test_baseline_report_shape(self, tiny_network, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        run_cli(
            "generate", "--network", tiny_network, "--target", "T",
            "--n-datasets", 2, "--samples", 300, "--seed", 1, "--out", out_dir,
        )
        capsys.readouterr()
        report_path = tmp_path / "base.json"
        assert run_cli(
            "discover", "--manifest", out_dir / "manifest.json",
            "--target", "T", "--algo", "baseline", "--out", report_path,
        ) == 0
        report = json.loads(report_path.read_text())
        assert "per_dataset_mb" in report and len(report["per_dataset_mb"]) == 2


class TestOracleDiscover:
    def test_worked_example_via_cli(self, tmp_path, capsys):
        dag, family = trace_example()
        bn = random_cpts(dag, cardinality=2, seed=0)
        net_path = tmp_path / "trace.net"
        net_path.write_text(format_network(bn))
        manifest = {
            "datasets": [],
            "interventions": [sorted(s) for s in family.sets],
            "network": str(net_path),
            "target": "T",
        }
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        report_path = tmp_path / "report.json"
        code = run_cli(
            "discover", "--manifest", manifest_path, "--target", "T",
            "--backend", "oracle", "--out", report_path,
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mb"] == ["A", "B", "C", "G"]
        assert report["parents"] == ["A", "B"]
        assert report["sepsets"]["E"] == ["B"]


class TestOtherCommands:
    def test_verify_theorems(self, tmp_path, capsys):
        out = tmp_path / "fuzz.json"
        code = run_cli(
            "verify-theorems", "--trials", 20, "--nodes", "5-7",
            "--edge-prob", 0.3, "--n-datasets", "2-3", "--seed", 3,
            "--out", out,
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["passed"] is True
        assert summary["total_trials"] == 20 * 12

    def test_verify_theorems_instance_outside_its_row_is_internal(self, monkeypatch, capsys):
        # a family manipulating the target everywhere fits no zeta_zero row
        monkeypatch.setattr(
            mimb.theorems, "generate_intervention_family",
            lambda dag, target, n, *args, **kwargs: InterventionFamily([{target}] * n),
        )
        assert run_cli("verify-theorems", "--trials", 1) == 4
        assert "RuntimeError: row 'union-zero-conservative'" in capsys.readouterr().err

    def test_benchmark(self, tiny_network, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = run_cli(
            "benchmark", "--network", tiny_network, "--target", "T",
            "--algo", "both", "--n-datasets", 2, "--samples", 300,
            "--reps", 2, "--seed", 4, "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"mimb", "baseline"}
        assert payload["mimb"]["reps"] == 2

    def test_split_with_discretize(self, tmp_path, capsys):
        csv = tmp_path / "raw.csv"
        rows = ["dist,score,outcome"]
        for i in range(40):
            rows.append(f"{i % 20},{i * 3.7},{'yes' if i % 3 else 'no'}")
        csv.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "split"
        code = run_cli(
            "split", "--data", csv, "--by", "dist", "--threshold", 10,
            "--discretize", "score:2", "--target", "outcome", "--out", out_dir,
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["interventions"] == [["dist"], ["dist"]]
        first = (out_dir / "dataset_00.csv").read_text().strip().splitlines()
        second = (out_dir / "dataset_01.csv").read_text().strip().splitlines()
        assert len(first) - 1 + len(second) - 1 == 40


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert run_cli(
            "discover", "--manifest", tmp_path / "nope.json", "--target", "T"
        ) == 2

    def test_unsatisfiable_constraints(self, tiny_network, tmp_path, capsys):
        code = run_cli(
            "generate", "--network", tiny_network, "--target", "T",
            "--n-datasets", 1, "--regime", "mid", "--out", tmp_path / "x",
        )
        assert code == 3

    def test_bad_parents_line_is_an_input_error(self, tmp_path, capsys):
        net = tmp_path / "bad.net"
        net.write_text(TINY_NET.replace("PARENTS T A", "PARENTS T A A"))
        code = run_cli("generate", "--network", net, "--target", "T", "--out", tmp_path / "x")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 4: a parent of 'T' is listed twice")

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            (command, *case)
            for command in ("discover", "benchmark")
            for case in [
                ("--max-cond", -1, "must be 0 or more"),
                ("--max-cond", "two", "expected an integer"),
                ("--alpha", 0, "strictly between 0 and 1"),
                ("--alpha", 1, "strictly between 0 and 1"),
                ("--alpha", -0.5, "strictly between 0 and 1"),
                ("--alpha", "nan", "strictly between 0 and 1"),
            ]
        ]
        + [
            ("verify-theorems", "--trials", -3, "must be 1 or more"),
            ("verify-theorems", "--trials", 0, "must be 1 or more"),
            ("benchmark", "--reps", 0, "must be 1 or more"),
        ]
        + [
            # a negative seed used to reach SeedSequence, whose message
            # names no option
            (command, "--seed", value, message)
            for command in ("generate", "benchmark", "verify-theorems")
            for value, message in [(-1, "must be 0 or more, got -1"), ("x", "expected an integer")]
        ]
        + [
            (command, flag, 0, "must be 1 or more")
            for command in ("generate", "benchmark")
            for flag in ("--n-datasets", "--samples", "--max-targets")
        ]
        + [
            ("generate", "--alpha-dirichlet", value, "strictly between 0 and inf")
            for value in ("nan", "inf", 0, -2)
        ]
        + [
            ("verify-theorems", flag, *case)
            for flag in ("--nodes", "--n-datasets")
            for case in [
                ("a-b", "expected N or LO-HI"),
                ("3-", "expected N or LO-HI"),
                ("-3", "expected N or LO-HI"),
                ("5-2", "reversed range"),
                ("0", "must be 1 or more"),
                ("0-3", "must be 1 or more"),
            ]
        ]
        + [
            # these used to get past the fuzzer's own check, or to be caught
            # only by it, with a message that did not name the flag
            ("verify-theorems", "--edge-prob", value, "must lie in (0, 1]")
            for value in ("nan", "inf", "1.5", 0, "-1")
        ]
        + [
            ("split", "--discretize", spec, f"of 2 or more, got {spec!r}")
            for spec in ("score", "score:x", "score:", "score:1", "score:2.5")
        ],
    )
    def test_bad_test_settings_are_input_errors(
        self, command, flag, value, message, tmp_path, capsys
    ):
        # every other required argument; parsing fails before any is used
        required = {
            "discover": ["--manifest", tmp_path / "missing", "--target", "T"],
            "benchmark": ["--network", tmp_path / "missing", "--target", "T"],
            "generate": ["--network", tmp_path / "missing", "--target", "T", "--out", tmp_path],
            "verify-theorems": [],
            "split": ["--data", tmp_path / "missing", "--by", "score", "--out", tmp_path],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *required, flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err and message in err

    @pytest.mark.parametrize(
        "rule, message",
        [
            ([], "one of the arguments --threshold --label is required"),
            (
                ["--threshold", "1", "--label", "a"],
                "argument --label: not allowed with argument --threshold",
            ),
        ],
        ids=["neither", "both"],
    )
    def test_split_needs_exactly_one_rule_before_reading(self, rule, message, tmp_path, capsys):
        # the data file does not exist: parsing must fail first
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "split", "--data", tmp_path / "missing.csv", "--by", "score",
                "--out", tmp_path / "out", *rule,
            )
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--nodes", "1"], "two nodes or more"),
            (["--nodes", "1-1"], "two nodes or more"),
            # these used to do part of the work and then exit 3
            (["--n-datasets", "1"], "two datasets or more"),
            (["--n-datasets", "1-3"], "two datasets or more"),
        ],
    )
    def test_fuzzer_settings_that_fit_no_row_are_input_errors(self, args, message):
        # these used to redraw forever; the timeout turns a hang into a failure
        proc = subprocess.run(
            [sys.executable, "-m", "mimb.cli", "verify-theorems", "--trials", "1", *args],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and message in proc.stderr

    @pytest.mark.parametrize(
        "manifest, csv_header, message",
        [
            ({"network": "tiny.net"}, "A,T,X", "column 'X' has no declared states"),
            ({"datasets": ["d.csv", 1]}, "A,T,B", "datasets[1] is not a file name"),
            (
                {"datasets": ["d.csv", "d.csv"], "interventions": [["A"]]},
                "A,T,B",
                "1 interventions for 2 datasets",
            ),
            ({"interventions": "A"}, "A,T,B", "must be a list of lists"),
            ({"interventions": [["A"], 7]}, "A,T,B", "must be a list of lists"),
            ({"network": 3}, "A,T,B", "'network' is not a file name"),
            ("datasets.csv", "A,T,B", "lacks a 'datasets' list"),
        ],
    )
    def test_hostile_manifests_are_input_errors(
        self, manifest, csv_header, message, tiny_network, tmp_path, capsys
    ):
        (tmp_path / "d.csv").write_text(csv_header + "\na,a,a\nb,b,b\n")
        if isinstance(manifest, dict):
            manifest = {"datasets": ["d.csv"], **manifest}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run_cli("discover", "--manifest", path, "--target", "T") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_oracle_names_a_missing_network_file(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text("A,T\n" + "a,a\nb,b\na,b\nb,a\n" * 10)
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps({"datasets": ["d.csv"], "interventions": [[]], "network": "gone.net"})
        )
        assert run_cli(
            "discover", "--manifest", path, "--target", "T", "--backend", "oracle"
        ) == 2
        missing = str(tmp_path / "gone.net")
        assert capsys.readouterr().err == (
            f"error: oracle backend: network file {missing!r} does not exist\n"
        )
        # the data backend falls back to the states it observes
        assert run_cli("discover", "--manifest", path, "--target", "T") == 0

    @pytest.mark.parametrize(
        "second, message",
        [
            ("A,B\na,a\n", "{d1}: columns differ from those of {d0}"),
            ("A,T\na,a\nb\n", "{d1}: row 1 has 1 cells, expected 2"),
            (
                "A,T\na,caf\xe9\n",  # written as Latin-1, so not UTF-8
                "{d1}: 'utf-8' codec can't decode byte 0xe9 in position 9: "
                "invalid continuation byte",
            ),
        ],
    )
    def test_a_bad_bundle_csv_is_named(self, second, message, tmp_path, capsys):
        (tmp_path / "d0.csv").write_text("A,T\na,a\nb,b\n")
        (tmp_path / "d1.csv").write_bytes(second.encode("latin-1"))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"datasets": ["d0.csv", "d1.csv"]}))
        assert run_cli("discover", "--manifest", path, "--target", "T") == 2
        message = message.format(d0=tmp_path / "d0.csv", d1=tmp_path / "d1.csv")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("A,T\na,a\n", "A,T\na,a\nb,a2\n", "{d1}: row 1: label 'a2' not among the states of 'T'"),
            ("A,A\na,a\n", "A,A\nb,b\n", "{d0}: duplicate variable names"),
            ("A,X\na,a\n", "A,X\nb,b\n", "{d0}: column 'X' has no declared states"),
        ],
    )
    def test_a_csv_that_breaks_the_declared_states_is_named(
        self, first, second, message, tmp_path, capsys
    ):
        (tmp_path / "d0.csv").write_text(first)
        (tmp_path / "d1.csv").write_text(second)
        # the network declares the states a and b of A and T
        (tmp_path / "net.net").write_text("VAR A a b\nVAR T a b\nCPT A\n0.5 0.5\nCPT T\n0.5 0.5\n")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"datasets": ["d0.csv", "d1.csv"], "network": "net.net"}))
        assert run_cli("discover", "--manifest", path, "--target", "T") == 2
        message = message.format(d0=tmp_path / "d0.csv", d1=tmp_path / "d1.csv")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unparsable_csv_is_an_input_error(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text('A,T\n"a' + "x" * 200_000 + '",b\n')
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"datasets": ["d.csv"]}))
        assert run_cli("discover", "--manifest", path, "--target", "T") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mimb.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "discover" in proc.stdout
