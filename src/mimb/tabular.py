"""Dataset and manifest I/O, plus splitting and discretisation of raw CSV
tables for the observational-to-interventional workflow."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .bayesnet import Dataset, DatasetBundle, Schema
from .graph import InterventionFamily

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class Table:
    """A raw CSV table held column-wise; every cell is a string until
    discretised.

    ``cells[j]`` is the tuple of labels of column ``columns[j]``, top to
    bottom, so a column is one tuple and replacing it swaps one tuple.
    """

    columns: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = tuple(tuple(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        if len(cells) != len(self.columns):
            raise ValueError(
                f"{len(cells)} columns of cells for {len(self.columns)} column names"
            )
        for name, col in zip(self.columns, cells):
            if len(col) != len(cells[0]):
                raise ValueError(
                    f"column {name!r} has {len(col)} cells, expected {len(cells[0])}"
                )
        positions: dict[str, int] = {}
        for i, name in enumerate(self.columns):
            positions.setdefault(name, i)  # a repeated name means its first column
        object.__setattr__(self, "_positions", positions)

    @property
    def n_rows(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def _index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ValueError(f"unknown column {name!r}") from None

    def column(self, name: str) -> tuple[str, ...]:
        return self.cells[self._index(name)]

    def replace_column(self, name: str, cells: Iterable[str]) -> "Table":
        idx = self._index(name)
        cells = tuple(cells)
        if len(cells) != self.n_rows:
            raise ValueError("replacement column has the wrong length")
        return Table(self.columns, self.cells[:idx] + (cells,) + self.cells[idx + 1 :])


def _stripped(col: tuple[str, ...]) -> tuple[str, ...]:
    """The column with surrounding whitespace removed from every cell.

    Each distinct label is stripped once and every cell then refers to
    that one string, so the per-cell strings the parser made can be freed.
    """
    strip = {label: label.strip() for label in set(col)}
    return tuple(map(strip.__getitem__, col))


def read_table(path: str | Path) -> Table:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(filter(None, reader))  # blank lines parse as []
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    width = len(header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ValueError(f"row {i} has {len(rows[i])} cells, expected {width}")
    cells = tuple(map(_stripped, zip(*rows))) if rows else ((),) * width
    return Table(tuple(map(str.strip, header)), cells)


def write_table(table: Table, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        writer.writerows(zip(*table.cells))


def _numeric(table: Table, name: str) -> np.ndarray:
    """A column parsed with ``float``, as a float64 array."""
    cells = table.column(name)
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        raise ValueError(f"column {name!r} is not numeric") from None


def discretize(table: Table, variable: str, bins: int) -> Table:
    """Equal-frequency binning of a numeric column into labelled states.

    Cut points sit at the empirical quantiles; a value equal to a cut point
    goes to the lower bin. The output labels are ``b0``..``b{bins-1}`` in
    ascending value order; a constant column realises a single state.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    values = _numeric(table, variable)
    if not values.size:
        raise ValueError(f"column {variable!r} has no values to bin")
    ordered = np.sort(values)
    n = len(ordered)
    cuts = ordered[[int(np.ceil(n * i / bins)) - 1 for i in range(1, bins)]]
    # the number of cuts strictly below each value; NaN is above none
    codes = np.searchsorted(cuts, values, side="left")
    codes[np.isnan(values)] = 0
    labels = np.asarray([f"b{k}" for k in range(bins)], dtype=object)
    return table.replace_column(variable, labels[codes].tolist())


def split_mask(
    table: Table,
    by: str,
    *,
    threshold: float | None = None,
    label: str | None = None,
) -> np.ndarray:
    """Row membership of the first partition of a split, as a bool array.

    With ``threshold``, rows whose (numeric) value is strictly below it;
    with ``label``, rows equal to the label.
    """
    if (threshold is None) == (label is None):
        raise ValueError("give exactly one of threshold or label")
    if threshold is not None:
        return _numeric(table, by) < threshold
    return np.fromiter(map(label.__eq__, table.column(by)), dtype=bool, count=table.n_rows)


def apply_mask(table: Table, mask: np.ndarray, by: str) -> tuple[Table, Table]:
    keep = np.asarray(mask, dtype=bool)
    if keep.all() or not keep.any():
        raise ValueError(f"split on {by!r} leaves an empty partition")
    first, second = keep.tolist(), (~keep).tolist()
    return (
        Table(table.columns, tuple(tuple(compress(c, first)) for c in table.cells)),
        Table(table.columns, tuple(tuple(compress(c, second)) for c in table.cells)),
    )


def split_rows(
    table: Table,
    by: str,
    *,
    threshold: float | None = None,
    label: str | None = None,
) -> tuple[Table, Table]:
    """Partition rows on one variable; the variable is kept in both halves.

    With ``threshold``, the first half takes rows whose (numeric) value is
    strictly below it. With ``label``, the first half takes rows equal to
    the label. Either half being empty is an error.
    """
    mask = split_mask(table, by, threshold=threshold, label=label)
    return apply_mask(table, mask, by)


# -- discrete dataset CSV ------------------------------------------------------


def dataset_to_table(dataset: Dataset) -> Table:
    """Each column's labels picked by one fancy index into its states."""
    cells = tuple(
        tuple(np.asarray(labels, dtype=object)[dataset.rows[:, j]].tolist())
        for j, labels in enumerate(dataset.schema.states)
    )
    return Table(dataset.schema.names, cells)


def _encode(name: str, col: tuple[str, ...], labels: tuple[str, ...]) -> np.ndarray:
    """State indices of a column's cells; the first label outside
    ``labels`` is an error naming its row."""
    lookup = {label: i for i, label in enumerate(labels)}
    unknown = set(col) - lookup.keys()
    if unknown:
        i = next(i for i, cell in enumerate(col) if cell in unknown)
        raise ValueError(f"row {i}: label {col[i]!r} not among the states of {name!r}")
    return np.fromiter(map(lookup.__getitem__, col), dtype=np.int64, count=len(col))


def table_to_dataset(
    table: Table,
    states: Mapping[str, Iterable[str]] | None = None,
    intervention: frozenset[str] | None = None,
) -> Dataset:
    """Interpret a fully discrete table as a Dataset.

    Without an explicit state declaration the labels of each column are
    collected and ordered lexicographically, which keeps conversion
    deterministic across runs. With one, every column needs declared states.
    """
    if states is None:
        labels = tuple(tuple(sorted(set(col))) for col in table.cells)
    else:
        missing = [c for c in table.columns if c not in states]
        if missing:
            raise ValueError(f"column {missing[0]!r} has no declared states")
        labels = tuple(tuple(states[c]) for c in table.columns)
    schema = Schema(table.columns, labels)
    rows = np.empty((table.n_rows, len(table.columns)), dtype=np.int64, order="F")
    for j, (name, col) in enumerate(zip(table.columns, table.cells)):
        rows[:, j] = _encode(name, col, labels[j])
    return Dataset(schema, rows, intervention=intervention)


# -- bundle manifests ----------------------------------------------------------


def write_bundle(
    bundle: DatasetBundle,
    out_dir: str | Path,
    *,
    network: str | None = None,
    target: str | None = None,
    seed: int | None = None,
) -> Path:
    """Write one CSV per dataset plus a JSON manifest; returns its path.

    The manifest records the dataset files in experiment order and, when
    known, the manipulated variables of each experiment, the generating
    network file and the target, which is enough ground truth to rescore a
    discovery later.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, dataset in enumerate(bundle):
        name = f"dataset_{i:02d}.csv"
        write_table(dataset_to_table(dataset), out / name)
        names.append(name)
    interventions = bundle.interventions()
    manifest = {
        "datasets": names,
        "interventions": (
            None
            if any(s is None for s in interventions)
            else [sorted(s) for s in interventions]
        ),
        "network": network,
        "target": target,
        "seed": seed,
    }
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def read_manifest(path: str | Path) -> dict:
    """Parse a bundle manifest and check the shape of what it records.

    ``datasets`` must be a list of file names; ``interventions``, when
    present, a list of lists of variable names, one per dataset whenever
    datasets are listed; ``network``, when present, a file name.
    """
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("datasets"), list):
        raise ValueError(f"{path}: manifest lacks a 'datasets' list")
    datasets = manifest["datasets"]
    for i, name in enumerate(datasets):
        if not isinstance(name, str):
            raise ValueError(f"{path}: datasets[{i}] is not a file name: {name!r}")
    interventions = manifest.get("interventions")
    if interventions is not None:
        if not isinstance(interventions, list) or not all(
            isinstance(s, list) and all(isinstance(v, str) for v in s)
            for s in interventions
        ):
            raise ValueError(
                f"{path}: 'interventions' must be a list of lists of variable names"
            )
        if datasets and len(interventions) != len(datasets):
            raise ValueError(
                f"{path}: {len(interventions)} interventions for {len(datasets)} datasets"
            )
    network = manifest.get("network")
    if network is not None and not isinstance(network, str):
        raise ValueError(f"{path}: 'network' is not a file name: {network!r}")
    return manifest


def load_bundle(
    manifest_path: str | Path,
    states: Mapping[str, Iterable[str]] | None = None,
) -> DatasetBundle:
    """Load the datasets of a manifest into one schema-consistent bundle.

    With no state declaration, states are the sorted union of the labels
    observed across all datasets, so every dataset agrees on the encoding.
    """
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    tables = [read_table(base / name) for name in manifest["datasets"]]
    if not tables:
        raise ValueError(f"{manifest_path}: no datasets listed")
    columns = tables[0].columns
    for i, t in enumerate(tables[1:], start=1):
        if t.columns != columns:
            raise ValueError(f"dataset {i} columns differ from dataset 0")
    if states is None:
        states = {
            c: tuple(sorted(set().union(*(t.column(c) for t in tables))))
            for c in columns
        }
    interventions = manifest.get("interventions")
    tags = (
        [None] * len(tables)
        if interventions is None
        else [frozenset(s) for s in interventions]
    )
    return DatasetBundle(
        table_to_dataset(t, states, intervention=tag) for t, tag in zip(tables, tags)
    )


def family_from_manifest(manifest: Mapping) -> InterventionFamily:
    interventions = manifest.get("interventions")
    if interventions is None:
        raise ValueError("manifest records no interventions")
    return InterventionFamily([frozenset(s) for s in interventions])
