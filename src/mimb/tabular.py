"""Dataset and manifest I/O, plus splitting and discretisation of raw CSV
tables for the observational-to-interventional workflow."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .bayesnet import Dataset, DatasetBundle, Schema
from .graph import InterventionFamily

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class Table:
    """A raw CSV table; every cell is a string until discretised."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> tuple[str, ...]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ValueError(f"unknown column {name!r}") from None
        return tuple(row[idx] for row in self.rows)

    def replace_column(self, name: str, cells: Iterable[str]) -> "Table":
        idx = self.columns.index(name)
        cells = tuple(cells)
        if len(cells) != self.n_rows:
            raise ValueError("replacement column has the wrong length")
        rows = tuple(
            row[:idx] + (cells[i],) + row[idx + 1 :] for i, row in enumerate(self.rows)
        )
        return Table(self.columns, rows)


def read_table(path: str | Path) -> Table:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = [tuple(cell.strip() for cell in row) for row in reader if row]
    return Table(tuple(h.strip() for h in header), tuple(rows))


def write_table(table: Table, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        writer.writerows(table.rows)


def discretize(table: Table, variable: str, bins: int) -> Table:
    """Equal-frequency binning of a numeric column into labelled states.

    Cut points sit at the empirical quantiles; a value equal to a cut point
    goes to the lower bin. The output labels are ``b0``..``b{bins-1}`` in
    ascending value order; a constant column realises a single state.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    cells = table.column(variable)
    try:
        values = np.asarray([float(c) for c in cells])
    except ValueError:
        raise ValueError(f"column {variable!r} is not numeric") from None
    ordered = np.sort(values)
    n = len(ordered)
    cuts = [ordered[int(np.ceil(n * i / bins)) - 1] for i in range(1, bins)]
    labels = [f"b{int(np.sum(v > np.asarray(cuts)))}" for v in values]
    return table.replace_column(variable, labels)


def split_mask(
    table: Table,
    by: str,
    *,
    threshold: float | None = None,
    label: str | None = None,
) -> tuple[bool, ...]:
    """Row membership of the first partition of a split.

    With ``threshold``, rows whose (numeric) value is strictly below it;
    with ``label``, rows equal to the label.
    """
    if (threshold is None) == (label is None):
        raise ValueError("give exactly one of threshold or label")
    cells = table.column(by)
    if threshold is not None:
        try:
            return tuple(float(c) < threshold for c in cells)
        except ValueError:
            raise ValueError(f"column {by!r} is not numeric") from None
    return tuple(c == label for c in cells)


def apply_mask(table: Table, mask: tuple[bool, ...], by: str) -> tuple[Table, Table]:
    first = tuple(row for row, m in zip(table.rows, mask) if m)
    second = tuple(row for row, m in zip(table.rows, mask) if not m)
    if not first or not second:
        raise ValueError(f"split on {by!r} leaves an empty partition")
    return Table(table.columns, first), Table(table.columns, second)


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
    schema = dataset.schema
    rows = tuple(
        tuple(schema.states[j][dataset.rows[i, j]] for j in range(len(schema.names)))
        for i in range(dataset.n_rows)
    )
    return Table(schema.names, rows)


def table_to_dataset(
    table: Table,
    states: Mapping[str, Iterable[str]] | None = None,
    intervention: frozenset[str] | None = None,
) -> Dataset:
    """Interpret a fully discrete table as a Dataset.

    Without an explicit state declaration the labels of each column are
    collected and ordered lexicographically, which keeps conversion
    deterministic across runs.
    """
    if states is None:
        state_map = {c: tuple(sorted(set(table.column(c)))) for c in table.columns}
    else:
        state_map = {c: tuple(states[c]) for c in table.columns}
    schema = Schema(table.columns, tuple(state_map[c] for c in table.columns))
    index = {
        c: {label: i for i, label in enumerate(state_map[c])} for c in table.columns
    }
    rows = np.zeros((table.n_rows, len(table.columns)), dtype=np.int64, order="F")
    for j, c in enumerate(table.columns):
        lookup = index[c]
        for i, cell in enumerate(table.column(c)):
            try:
                rows[i, j] = lookup[cell]
            except KeyError:
                raise ValueError(
                    f"row {i}: label {cell!r} not among the states of {c!r}"
                ) from None
    return Dataset(schema, rows, intervention=intervention)


# -- bundle manifests ----------------------------------------------------------


def write_bundle(
    bundle: DatasetBundle,
    out_dir: str | Path,
    *,
    network: str | None = None,
    target: str | None = None,
    seed: int | None = None,
    extra: Mapping | None = None,
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
    if extra:
        manifest.update(dict(extra))
    path = out / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def read_manifest(path: str | Path) -> dict:
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    if "datasets" not in manifest or not isinstance(manifest["datasets"], list):
        raise ValueError(f"{path}: manifest lacks a 'datasets' list")
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
            c: tuple(sorted(set().union(*(set(t.column(c)) for t in tables))))
            for c in columns
        }
    interventions = manifest.get("interventions")
    datasets = []
    for i, t in enumerate(tables):
        tag = (
            frozenset(interventions[i])
            if interventions is not None
            else None
        )
        datasets.append(table_to_dataset(t, states, intervention=tag))
    return DatasetBundle(datasets)


def family_from_manifest(manifest: Mapping) -> InterventionFamily:
    interventions = manifest.get("interventions")
    if interventions is None:
        raise ValueError("manifest records no interventions")
    return InterventionFamily([frozenset(s) for s in interventions])
