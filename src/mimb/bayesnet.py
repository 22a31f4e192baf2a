"""Discrete Bayesian networks: CPTs, a line-oriented network file format,
ancestral sampling, and Dirichlet randomisation of manipulated variables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import Dag


@dataclass(frozen=True)
class Schema:
    """Ordered variable names with their state labels."""

    names: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.names) != len(self.states):
            raise ValueError("names and states are misaligned")
        object.__setattr__(self, "_positions", {n: i for i, n in enumerate(self.names)})
        if len(self._positions) != len(self.names):
            raise ValueError("duplicate variable names")
        for name, labels in zip(self.names, self.states):
            if len(labels) < 2:
                raise ValueError(f"variable {name!r} needs at least two states")
            if len(set(labels)) != len(labels):
                raise ValueError(f"variable {name!r} has duplicate state labels")

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def states_of(self, name: str) -> tuple[str, ...]:
        return self.states[self.index(name)]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.states)


@dataclass(frozen=True)
class Dataset:
    """Complete discrete records; cells are state indices into the schema.

    ``rows`` is an int64 (n_rows, n_variables) array in column-major
    (Fortran) order, so each variable's column is one contiguous array; any
    other integer input is copied once on construction.

    ``intervention`` optionally tags which variables were manipulated when
    the dataset was generated (provenance only, never consulted by the
    discovery algorithms).
    """

    schema: Schema
    rows: np.ndarray
    intervention: frozenset[str] | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.schema.names):
            raise ValueError("rows must be a (n_rows, n_variables) array")
        if rows.dtype.kind not in "iu":
            raise ValueError("rows must hold integer state indices")
        rows = np.asfortranarray(rows, dtype=np.int64)
        if rows.size:
            cards = np.asarray(self.schema.cardinalities)
            if rows.min() < 0 or (rows >= cards[None, :]).any():
                raise ValueError("state index out of range for its variable")
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.schema.index(name)]


class DatasetBundle:
    """Several datasets over one schema, one per intervention experiment."""

    __slots__ = ("datasets",)

    def __init__(self, datasets: Iterable[Dataset]):
        self.datasets: tuple[Dataset, ...] = tuple(datasets)
        if not self.datasets:
            raise ValueError("a bundle needs at least one dataset")
        first = self.datasets[0].schema
        for i, d in enumerate(self.datasets[1:], start=1):
            if d.schema != first:
                raise ValueError(f"dataset {i} does not share the bundle schema")

    @property
    def schema(self) -> Schema:
        return self.datasets[0].schema

    def __len__(self) -> int:
        return len(self.datasets)

    def __iter__(self):
        return iter(self.datasets)

    def __getitem__(self, i: int) -> Dataset:
        return self.datasets[i]

    def interventions(self) -> list[frozenset[str] | None]:
        return [d.intervention for d in self.datasets]


class BayesianNetwork:
    """A Dag plus one conditional probability table per variable.

    Each CPT is a (n_parent_configurations, cardinality) array. Rows follow
    the declared parent order with the LAST parent varying fastest; within a
    row, columns follow the variable's state order. Row sums must be 1
    within 1e-9.
    """

    __slots__ = ("dag", "schema", "cpts", "parent_orders")

    def __init__(
        self,
        dag: Dag,
        states: Mapping[str, Sequence[str]],
        cpts: Mapping[str, np.ndarray],
        parent_orders: Mapping[str, Sequence[str]] | None = None,
    ):
        self.dag = dag
        missing = [v for v in dag.variables if v not in states]
        if missing:
            raise ValueError(f"no states declared for {missing}")
        self.schema = Schema(
            names=dag.variables,
            states=tuple(tuple(states[v]) for v in dag.variables),
        )
        orders: dict[str, tuple[str, ...]] = {}
        tables: dict[str, np.ndarray] = {}
        for v in dag.variables:
            parents = dag.parents(v)
            if parent_orders is not None and v in parent_orders:
                order = tuple(parent_orders[v])
                if set(order) != parents or len(order) != len(parents):
                    raise ValueError(f"parent order for {v!r} does not match the graph")
            else:
                order = tuple(u for u in dag.variables if u in parents)
            orders[v] = order
            if v not in cpts:
                raise ValueError(f"no CPT for {v!r}")
            table = np.asarray(cpts[v], dtype=np.float64)
            card = len(self.schema.states_of(v))
            n_rows = 1
            for p in order:
                n_rows *= len(self.schema.states_of(p))
            if table.shape != (n_rows, card):
                raise ValueError(
                    f"CPT for {v!r} has shape {table.shape}, expected {(n_rows, card)}"
                )
            if not np.isfinite(table).all():
                raise ValueError(f"CPT for {v!r} contains non-finite entries")
            if (table < 0).any():
                raise ValueError(f"CPT for {v!r} contains negative probabilities")
            sums = table.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
            if bad.size:
                raise ValueError(
                    f"CPT row {int(bad[0])} for {v!r} sums to {sums[bad[0]]:.9g}, not 1"
                )
            tables[v] = table
        self.parent_orders = orders
        self.cpts = tables

    @property
    def variables(self) -> tuple[str, ...]:
        return self.dag.variables

    def cardinality(self, v: str) -> int:
        return len(self.schema.states_of(v))

    def row_index(self, v: str, parent_states: Mapping[str, int]) -> int:
        """CPT row for a full parent configuration (last parent fastest)."""
        idx = 0
        for p in self.parent_orders[v]:
            idx = idx * self.cardinality(p) + parent_states[p]
        return idx

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BayesianNetwork):
            return NotImplemented
        return (
            self.dag == other.dag
            and self.schema == other.schema
            and self.parent_orders == other.parent_orders
            and all(np.array_equal(self.cpts[v], other.cpts[v]) for v in self.variables)
        )


# -- network file format -----------------------------------------------------


class ParseError(ValueError):
    """A network file violated the format; carries the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_network(text: str) -> BayesianNetwork:
    """Parse the line-oriented network format.

    Grammar (``#`` starts a comment, names are case sensitive)::

        VAR <name> <state1> <state2> [...]
        PARENTS <name> [<p1> <p2> ...]
        CPT <name>
        <one probability row per parent configuration>

    Parent configurations enumerate with the last listed parent varying
    fastest. Probability rows must sum to 1 within 1e-6; accepted rows are
    renormalised exactly so the resulting network satisfies the stricter
    construction tolerance.
    """
    states: dict[str, tuple[str, ...]] = {}
    order: list[str] = []
    parents: dict[str, tuple[str, ...]] = {}
    raw_cpts: dict[str, list[list[float]]] = {}
    pending: tuple[str, int] | None = None  # (variable, rows still expected)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if pending is not None:
            name, remaining = pending
            try:
                row = [float(tok) for tok in tokens]
            except ValueError:
                raise ParseError(f"expected a probability row for {name!r}", lineno)
            if len(row) != len(states[name]):
                raise ParseError(
                    f"row has {len(row)} entries, {name!r} has {len(states[name])} states",
                    lineno,
                )
            if not all(math.isfinite(p) for p in row):
                raise ParseError(f"non-finite probability in CPT of {name!r}", lineno)
            if any(p < 0 for p in row):
                raise ParseError(f"negative probability in CPT of {name!r}", lineno)
            total = math.fsum(row)
            if abs(total - 1.0) > 1e-6:
                raise ParseError(f"row sum {total:.6g} != 1", lineno)
            raw_cpts[name].append([p / total for p in row])
            pending = (name, remaining - 1) if remaining > 1 else None
            continue

        keyword = tokens[0]
        if keyword == "VAR":
            if len(tokens) < 4:
                raise ParseError("VAR needs a name and at least two states", lineno)
            name = tokens[1]
            if name in states:
                raise ParseError(f"duplicate VAR declaration for {name!r}", lineno)
            labels = tuple(tokens[2:])
            if len(set(labels)) != len(labels):
                raise ParseError(f"duplicate state labels for {name!r}", lineno)
            states[name] = labels
            order.append(name)
        elif keyword == "PARENTS":
            if len(tokens) < 2:
                raise ParseError("PARENTS needs a variable name", lineno)
            name = tokens[1]
            if name not in states:
                raise ParseError(f"PARENTS for undeclared variable {name!r}", lineno)
            if name in parents:
                raise ParseError(f"duplicate PARENTS declaration for {name!r}", lineno)
            if name in raw_cpts:
                raise ParseError(f"PARENTS for {name!r} after its CPT", lineno)
            listed = tuple(tokens[2:])
            for p in listed:
                if p not in states:
                    raise ParseError(f"unknown parent name {p!r}", lineno)
            if name in listed:
                raise ParseError(f"{name!r} is listed as its own parent", lineno)
            if len(set(listed)) != len(listed):
                raise ParseError(f"a parent of {name!r} is listed twice", lineno)
            parents[name] = listed
        elif keyword == "CPT":
            if len(tokens) != 2:
                raise ParseError("CPT takes exactly one variable name", lineno)
            name = tokens[1]
            if name not in states:
                raise ParseError(f"CPT for undeclared variable {name!r}", lineno)
            if name in raw_cpts:
                raise ParseError(f"duplicate CPT declaration for {name!r}", lineno)
            n_rows = 1
            for p in parents.get(name, ()):
                n_rows *= len(states[p])
            raw_cpts[name] = []
            pending = (name, n_rows)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if pending is not None:
        raise ParseError(
            f"CPT for {pending[0]!r} is missing {pending[1]} rows", lineno
        )
    for name in order:
        if name not in raw_cpts:
            raise ParseError(f"no CPT for {name!r}", lineno)

    edges = [(p, v) for v in order for p in parents.get(v, ())]
    dag = Dag(order, edges)
    return BayesianNetwork(
        dag,
        states,
        {v: np.asarray(rows) for v, rows in raw_cpts.items()},
        parent_orders=parents,
    )


def format_network(bn: BayesianNetwork) -> str:
    """Serialise a network for :func:`parse_network`, probabilities to 12 significant digits."""
    lines: list[str] = []
    for v in bn.variables:
        lines.append("VAR " + v + " " + " ".join(bn.schema.states_of(v)))
    for v in bn.variables:
        if bn.parent_orders[v]:
            lines.append("PARENTS " + v + " " + " ".join(bn.parent_orders[v]))
    for v in bn.variables:
        lines.append("CPT " + v)
        for row in bn.cpts[v]:
            lines.append(" ".join(format(p, ".12g") for p in row))
    return "\n".join(lines) + "\n"


# -- sampling ----------------------------------------------------------------


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def forward_sample(bn: BayesianNetwork, n_rows: int, seed) -> Dataset:
    """Ancestral sampling in topological order; deterministic given seed."""
    if n_rows < 1:
        raise ValueError("n_rows must be at least 1")
    rng = _as_generator(seed)
    n_vars = len(bn.variables)
    rows = np.zeros((n_rows, n_vars), dtype=np.int64, order="F")
    col_of = {v: i for i, v in enumerate(bn.variables)}
    for v in bn.dag.topological_order():
        table = bn.cpts[v]
        config = np.zeros(n_rows, dtype=np.int64)
        for p in bn.parent_orders[v]:
            config = config * bn.cardinality(p) + rows[:, col_of[p]]
        cum = np.cumsum(table, axis=1)[config]
        draws = rng.random(n_rows)
        state = (draws[:, None] > cum).sum(axis=1)
        rows[:, col_of[v]] = np.minimum(state, bn.cardinality(v) - 1)
    return Dataset(schema=bn.schema, rows=rows)


def randomize_manipulated_cpts(
    bn: BayesianNetwork,
    targets: Iterable[str],
    dirichlet_alpha: float = 1.0,
    seed=0,
) -> BayesianNetwork:
    """Model of an intervention experiment with unknown forced distributions.

    Each target becomes a root whose single CPT row is drawn from a
    symmetric Dirichlet (alpha 1 is the uninformative choice); every other
    variable keeps its parents and its CPT unchanged.
    """
    if not 0 < dirichlet_alpha < math.inf:
        raise ValueError("dirichlet_alpha must be finite and positive")
    tset = set(targets)
    for t in tset:
        bn.dag.index(t)
    rng = _as_generator(seed)
    new_dag = bn.dag.apply_intervention(tset)
    cpts: dict[str, np.ndarray] = {}
    orders: dict[str, tuple[str, ...]] = {}
    for v in bn.variables:  # declaration order keeps the draws deterministic
        if v in tset:
            card = bn.cardinality(v)
            cpts[v] = rng.dirichlet(np.full(card, dirichlet_alpha))[None, :]
            orders[v] = ()
        else:
            cpts[v] = bn.cpts[v]
            orders[v] = bn.parent_orders[v]
    return BayesianNetwork(
        new_dag,
        {v: bn.schema.states_of(v) for v in bn.variables},
        cpts,
        parent_orders=orders,
    )
