"""Every imported name is used: a stdlib ``ast`` stand-in for an
unused-import lint over the package modules and the test files. And every
private module-level function or class of the package is used by the
package, so a helper goes with its last caller.

``mimb/__init__.py`` is left out of the import check, since its imports are
the public re-exports; ``mimb.__all__`` must list exactly those.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mimb

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mimb").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"]
FILES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["line 1: os"]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb\n", ["line 1: c"]),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n    return json\n", []),
        ("from typing import Iterator\ndef f() -> Iterator[int]: ...\n", []),
    ],
)
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused


def _references(node: ast.AST) -> Counter:
    """Names read in the subtree, plain or as an attribute."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """Private module-level functions and classes that no expression in
    the sources reads outside their own body."""
    trees = [ast.parse(source) for source in sources]
    used = sum((_references(tree) for tree in trees), Counter())
    return [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used[node.name] == _references(node)[node.name]
    ]


def test_no_unreferenced_private_definitions():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unreferenced_private_definitions(sources) == []


@pytest.mark.parametrize(
    "sources, unreferenced",
    [
        (["def _f(): ...\n"], ["_f"]),
        (["class _C: ...\n", "x = 1\n"], ["_C"]),
        (["def _f(): ...\n", "from a import _f\n_f()\n"], []),
        (["def _f(): ...\ny = m._f\n"], []),
        (["def _f(n):\n    return _f(n - 1)\n"], ["_f"]),
        (["def _f(n):\n    return _f(n - 1)\n", "_f(3)\n"], []),
        (["def __getattr__(name): ...\ndef f(): ...\n"], []),
    ],
)
def test_the_private_check_itself(sources, unreferenced):
    assert unreferenced_private_definitions(sources) == unreferenced


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((ROOT / "src" / "mimb" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # a name listed twice would make the sorted lists differ
    assert sorted(mimb.__all__) == sorted(imported)
    assert [name for name in mimb.__all__ if not hasattr(mimb, name)] == []


def csv_calls(source: str) -> Counter:
    """Calls of ``csv.reader`` and ``csv.writer`` (or of either imported
    from ``csv``), counted by function name."""
    tree = ast.parse(source)
    bare = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csv"
        for alias in node.names
    }

    def called(func: ast.expr) -> str | None:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.attr if func.value.id == "csv" else None
        return bare.get(func.id) if isinstance(func, ast.Name) else None

    return Counter(
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (name := called(node.func)) in ("reader", "writer")
    )


def test_one_csv_parser():
    # the CSV dialect lives in one module, which parses in one place
    calls = {p.name: csv_calls(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert {name: dict(n) for name, n in calls.items() if n} == {
        "tabular.py": {"reader": 1, "writer": 2}
    }


@pytest.mark.parametrize(
    "source, calls",
    [
        ("import csv\ncsv.reader(f)\n", {"reader": 1}),
        ("import csv\ncsv.writer(f)\nr = csv.reader\n", {"writer": 1}),
        ("from csv import reader as parse\nparse(f)\nparse(g)\n", {"reader": 2}),
        ("import csv\nx.reader(f)\nx.writer(f)\n", {}),
        ("from csv import writer\nwriter(f).writerow(r)\nw = writer\n", {"writer": 1}),
        ("from csv import writer as w, reader\nw(f)\nreader(g)\nw(h)\n", {"reader": 1, "writer": 2}),
    ],
)
def test_the_csv_reader_check_itself(source, calls):
    assert csv_calls(source) == calls


# how a module reads its process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Lines that read ``os.environ`` or call ``os.getenv`` (or their bytes
    forms), through ``os`` under any name or imported from it by name."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os" or (not alias.asname and alias.name.startswith("os.")):
                    modules.add(alias.asname or "os")
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "os"
        and any(alias.name in ENVIRONMENT for alias in node.names)
        or isinstance(node, ast.Attribute)
        and node.attr in ENVIRONMENT
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    return [f"line {n}" for n in sorted(lines)]


def test_the_package_reads_no_environment():
    # settings such as the bulk search's batch sizes are constants or
    # options, never environment knobs
    reads = {p.name: environment_reads(p.read_text(encoding="utf-8")) for p in PACKAGE}
    assert {name: lines for name, lines in reads.items() if lines} == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("import os\nos.environ['X']\n", ["line 2"]),
        ("import os\nos.getenv('X', '1')\n", ["line 2"]),
        ("import os as o\nx = 1\no.environ.get('X')\n", ["line 3"]),
        ("import os.path\nos.environb\n", ["line 2"]),
        ("from os import getenv\ngetenv('X')\n", ["line 1"]),
        ("from os import path, environ as e\n", ["line 1"]),
        ("import os\nos.path.join('a')\nenviron = {}\nx.getenv('X')\n", []),
        ("import os.path as p\np.environ\n", []),
    ],
)
def test_the_environment_check_itself(source, lines):
    assert environment_reads(source) == lines


# what a backend offers the algorithms: the ``CiBackend`` protocol, which is
# all a proxy that forwards only ``test`` has
PROTOCOL = {"test", "variables", "ledger", "n_datasets"}
ALGORITHMS = [ROOT / "src" / "mimb" / name for name in ("discovery.py", "hiton.py")]


def off_protocol_backend_uses(source: str, helpers: set[str]) -> list[str]:
    """Reads of ``backend`` other than through a protocol attribute or as
    an argument of a call to one of ``helpers`` or to a function of the
    same source that itself takes a ``backend``."""
    tree = ast.parse(source)
    callees = helpers | {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and "backend" in [a.arg for a in node.args.args + node.args.kwonlyargs]
    }
    fine = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in PROTOCOL:
            fine.add(id(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in callees:
            fine.update(id(arg) for arg in node.args + [k.value for k in node.keywords])
    return [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "backend" and id(node) not in fine
    ]


@pytest.mark.parametrize("path", ALGORITHMS, ids=lambda p: p.name)
def test_algorithms_use_only_the_backend_protocol(path):
    source = path.read_text(encoding="utf-8")
    assert "backend." in source
    assert off_protocol_backend_uses(source, {"first_separation"}) == []


@pytest.mark.parametrize(
    "source, uses",
    [
        ("def f(backend):\n    backend.test(1)\n    backend.ledger.snapshot()\n", []),
        ("def f(backend):\n    return backend.n_datasets, backend.variables\n", []),
        ("def f(backend):\n    backend._memo.clear()\n", ["line 2"]),
        ("def f(backend):\n    backend.post_dags\n", ["line 2"]),
        ("def f(backend):\n    getattr(backend, 'first_separation')\n", ["line 2"]),
        ("def f(backend):\n    return backend\n", ["line 2"]),
        ("def f(backend):\n    g(backend)\n", ["line 2"]),
        ("def f(backend):\n    h(backend, 1)\n    h(x, backend=backend)\n", []),
        ("def f(backend):\n    f(backend)\ndef g(b):\n    g(backend)\n", ["line 4"]),
    ],
)
def test_the_protocol_check_itself(source, uses):
    assert off_protocol_backend_uses(source, {"h"}) == uses


# Run in a fresh interpreter; prints the steps after which a scipy module
# was loaded, one per line, each with whether scipy.special was among them.
SCIPY_FREE_SCRIPT = """
import contextlib, io, sys
from importlib.resources import files

def loaded(step):
    mods = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
    if mods:
        print(step, "scipy.special" in sys.modules)

out = sys.argv[1]
import mimb
from mimb import cli
loaded("import mimb")
dag, family = mimb.trace_example()
mimb.mimb(mimb.OracleBackend(dag, family), "T")
loaded("oracle mimb")
mimb.fuzz_theorems(1, seed=0)
loaded("fuzz_theorems")
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
    loaded("--help")
    assert cli.main(["verify-theorems", "--trials", "1"]) == 0
    loaded("verify-theorems")
    net = str(files("mimb") / "data" / "alarm.net")
    assert cli.main(["generate", "--network", net, "--target", "VTUB",
                     "--n-datasets", "2", "--samples", "200", "--out", out]) == 0
    loaded("generate")
    assert cli.main(["discover", "--manifest", out + "/manifest.json",
                     "--target", "VTUB", "--backend", "oracle"]) == 0
    loaded("discover --backend oracle")
for dof in (1, 7):
    assert mimb.chi_square_upper_tail(0.0, dof) == 1.0
try:
    mimb.chi_square_upper_tail(1.0, 0)
    raise AssertionError("dof 0 was accepted")
except ValueError:
    pass
loaded("chi_square_upper_tail without a tail")
from mimb.tabular import load_bundle
bundle = load_bundle(out + "/manifest.json")
mimb.g2_test(bundle[0], "VTUB", "VLNG", ["INT"])
loaded("g2_test")
"""


def test_scipy_loads_only_for_a_g2_p_value(tmp_path):
    # only the G-squared p-value needs scipy, so the oracle, the fuzzer and
    # the CLI commands that compute none never pay for importing it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path / "bundle")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["g2_test True"]
