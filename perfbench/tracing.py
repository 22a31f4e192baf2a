"""Spans recorded from outside the package, and the per-layer metrics made
from them.

Instrumentation rebinds public module attributes (and two ``Dag`` methods)
to timing wrappers for the length of a ``with instrument(...)`` block and
restores them afterwards. Backends the benchmark builds are wrapped in a
proxy that also counts conditioning-set sizes, reliability and distinct
queries. Spans live in flat arrays until the run ends: name id, start, end,
parent span and job (task) index.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

import mimb.citest
import mimb.cli
import mimb.discovery
import mimb.graph
import mimb.hiton
import mimb.simulate
import mimb.tabular
import mimb.theorems

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack: list[int] = []
        self.current_job = -1
        self.counts: dict[str, int] = {}
        # distinct-query sets live for one task (one backend's lifetime)
        self.queries: set = set()
        self.yz_queries: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def task(self, index: int):
        self.current_job = index
        idx = self.open(self.name_id("task"))
        try:
            yield
        finally:
            self.close(idx)
            self.count("citest.distinct", len(self.queries))
            self.count("citest.yz_distinct", len(self.yz_queries))
            self.queries.clear()
            self.yz_queries.clear()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    # -- reading the spans ----------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class TracedBackend:
    """Proxy around a CI backend's ``test`` that records one span per test.

    The query bookkeeping runs inside the span, so that tracing cost lands
    in ``citest`` time rather than in the self time of the caller.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._nid = tracer.name_id("citest.test")
        self.variables = inner.variables
        self.ledger = inner.ledger

    @property
    def n_datasets(self) -> int:
        return self._inner.n_datasets

    def test(self, x, y, z, dataset_index):
        t = self._tracer
        idx = t.open(self._nid)
        try:
            zs = tuple(sorted(z))
            t.count("citest.tests")
            t.count(f"citest.tests_z{min(len(zs), 3)}")  # z3: three or more
            t.queries.add((min(x, y), max(x, y), zs, dataset_index))
            t.yz_queries.add((y, zs, dataset_index))
            res = self._inner.test(x, y, z, dataset_index)
            if not res.reliable:
                t.count("citest.unreliable")
            return res
        finally:
            t.close(idx)


def _count_rows(tracer: Tracer, fn):
    def counted(bn, n_rows, seed):
        tracer.count("bayesnet.rows_sampled", n_rows)
        return fn(bn, n_rows, seed)

    return counted


def _count_csv_bytes(tracer: Tracer, fn):
    def counted(bundle, out_dir, **kwargs):
        manifest = fn(bundle, out_dir, **kwargs)
        tracer.count("tabular.bytes", sum(f.stat().st_size for f in Path(out_dir).glob("*.csv")))
        return manifest

    return counted


COUNTERS = {"bayesnet.forward_sample": _count_rows, "tabular.write": _count_csv_bytes}

# (module, attribute, span name): every public name the traced run rebinds
PATCHES = (
    (mimb.citest, "contingency_counts", "citest.contingency"),
    (mimb.citest, "g2_statistic", "citest.g2_stat"),
    (mimb.citest, "chi_square_upper_tail", "citest.pvalue"),
    (mimb.graph.Dag, "d_separated", "graph.dsep"),
    (mimb.graph.Dag, "apply_intervention", "graph.apply_intervention"),
    (mimb.discovery, "mimb", "discovery.mimb"),
    (mimb.cli, "mimb", "discovery.mimb"),
    (mimb.discovery, "mipc", "discovery.mipc"),
    (mimb.hiton, "baseline", "hiton.baseline"),
    (mimb.hiton, "hiton_pc", "hiton.pc"),
    (mimb.cli, "main", "cli.discover"),
    (mimb.cli, "load_bundle", "tabular.load"),
    (mimb.tabular, "write_bundle", "tabular.write"),
    (mimb.simulate, "generate_intervention_family", "simulate.family"),
    (mimb.theorems, "generate_intervention_family", "simulate.family"),
    (mimb.theorems, "random_dag", "simulate.random_dag"),
    (mimb.simulate, "generate_bundle", "simulate.bundle"),
    (mimb.simulate, "forward_sample", "bayesnet.forward_sample"),
    (mimb.theorems, "verify", "theorems.verify"),
    (mimb.theorems, "classify_regime", "theorems.classify"),
)


@contextlib.contextmanager
def instrument(tracer: Tracer, workload):
    """Rebind the public names in PATCHES, and the workload's backend
    factory, to traced versions; restore everything on exit."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for owner, attr, span in PATCHES:
            fn = getattr(owner, attr)
            if span in COUNTERS:
                fn = COUNTERS[span](tracer, fn)
            patch(owner, attr, tracer.wrap(span, fn))
        inner_data = mimb.cli.DataBackend
        patch(mimb.cli, "DataBackend", lambda *a, **k: TracedBackend(inner_data(*a, **k), tracer))
        if hasattr(workload, "make_backend"):
            inner = workload.make_backend
            patch(workload, "make_backend", lambda *a, **k: TracedBackend(inner(*a, **k), tracer))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- per-layer metrics ---------------------------------------------------------


def _self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics over one traced round, by the names in
    BENCHMARK.json; layers the workload never enters read 0."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    selft = _self_times(a)

    def mask(name):
        return a["name"] == tracer._ids.get(name, -1)

    def total(name):
        return float(dur[mask(name)].sum())

    def self_total(*names):
        return float(sum(selft[mask(n)].sum() for n in names))

    def calls(name):
        return int(mask(name).sum())

    def pct_us(name, q):
        d = dur[mask(name)]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0

    c = tracer.counts
    tests = c.get("citest.tests", 0)

    def frac(key):
        return c.get(key, 0) / tests if tests else 0.0

    return {
        "citest.busy_s": total("citest.test"),
        "citest.test_us_p50": pct_us("citest.test", 50),
        "citest.test_us_p99": pct_us("citest.test", 99),
        "citest.contingency_s": total("citest.contingency"),
        "citest.g2_stat_s": total("citest.g2_stat"),
        "citest.pvalue_s": total("citest.pvalue"),
        "citest.tests": tests,
        "citest.tests_z0": c.get("citest.tests_z0", 0),
        "citest.tests_z1": c.get("citest.tests_z1", 0),
        "citest.tests_z2": c.get("citest.tests_z2", 0),
        "citest.tests_z3": c.get("citest.tests_z3", 0),
        "citest.unreliable_frac": frac("citest.unreliable"),
        "citest.distinct_frac": frac("citest.distinct"),
        "citest.yz_distinct_frac": frac("citest.yz_distinct"),
        "graph.dsep_queries": calls("graph.dsep"),
        "graph.dsep_busy_s": total("graph.dsep"),
        "graph.dsep_us_p50": pct_us("graph.dsep", 50),
        "graph.dsep_us_p99": pct_us("graph.dsep", 99),
        "graph.apply_intervention_s": total("graph.apply_intervention"),
        "simulate.family_calls": calls("simulate.family"),
        "simulate.family_s": total("simulate.family"),
        "simulate.random_dag_s": total("simulate.random_dag"),
        "simulate.bundle_s": total("simulate.bundle"),
        "bayesnet.forward_sample_s": total("bayesnet.forward_sample"),
        "bayesnet.rows_sampled": c.get("bayesnet.rows_sampled", 0),
        "tabular.write_s": total("tabular.write"),
        "tabular.load_s": total("tabular.load"),
        "tabular.bytes": c.get("tabular.bytes", 0),
        "cli.discover_s": total("cli.discover"),
        "cli.self_s": self_total("cli.discover"),
        "discovery.mipc_calls": calls("discovery.mipc"),
        "discovery.self_s": self_total("discovery.mimb", "discovery.mipc"),
        "hiton.pc_calls": calls("hiton.pc"),
        "hiton.self_s": self_total("hiton.baseline", "hiton.pc"),
        "theorems.verify_calls": calls("theorems.verify"),
        "theorems.verify_s": total("theorems.verify"),
        "theorems.classify_s": total("theorems.classify"),
    }
