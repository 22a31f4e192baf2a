"""Dataset and manifest I/O, plus splitting and discretisation of raw CSV
tables for the observational-to-interventional workflow."""

from __future__ import annotations

import csv
import io
import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bayesnet import Dataset, DatasetBundle, Schema
from .graph import InterventionFamily

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True, eq=False)
class Table:
    """A raw CSV table, dictionary-encoded; every cell is a string label
    until discretised.

    ``labels`` holds the distinct labels, shared by all columns, and
    ``codes[r, j]`` is the index into ``labels`` of the cell in row ``r``
    of column ``columns[j]``. So string work happens once per label, and
    rows move as integer arrays. Equality compares the column names and
    the decoded cells, so label numbering does not matter.
    """

    columns: tuple[str, ...]
    labels: tuple[str, ...]
    codes: np.ndarray
    _positions: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        columns, labels = tuple(self.columns), tuple(self.labels)
        codes = np.asarray(self.codes, dtype=np.intp)
        if codes.ndim != 2 or codes.shape[1] != len(columns):
            raise ValueError(
                f"codes of shape {codes.shape} for {len(columns)} column names"
            )
        if codes.size and not (0 <= codes.min() and codes.max() < len(labels)):
            raise ValueError(f"a code does not index one of the {len(labels)} labels")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "codes", codes)
        positions: dict[str, int] = {}
        for i, name in enumerate(columns):
            positions.setdefault(name, i)  # a repeated name means its first column
        object.__setattr__(self, "_positions", positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.columns == other.columns and np.array_equal(
            self._decoded(), other._decoded()
        )

    def _decoded(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=object)[self.codes]

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    def _index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ValueError(f"unknown column {name!r}") from None

    def column(self, name: str) -> tuple[str, ...]:
        col = self.codes[:, self._index(name)]
        return tuple(map(self.labels.__getitem__, col.tolist()))


def _ids_in(col: np.ndarray, n_labels: int) -> np.ndarray:
    """The ascending label ids that occur in one column of codes."""
    return np.flatnonzero(np.bincount(col, minlength=n_labels))


def read_table(path: str | Path) -> Table:
    """A CSV file as a Table of its stripped header and stripped cells.

    The cells are numbered as ``csv.reader`` yields each row, distinct raw
    cells in first-seen order, so no more than the codes and the distinct
    labels are held at once; each label is stripped once. Each row's width
    is checked as it comes. A UTF-8 byte-order mark before the header is
    dropped, and blank lines are skipped.
    """
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # an unseen cell gets the next id
    n_rows = 0

    def checked(rows: Iterable[list[str]]) -> Iterable[list[str]]:
        nonlocal n_rows
        for row in rows:
            if len(row) != width:
                raise ValueError(f"{path}: row {n_rows} has {len(row)} cells, expected {width}")
            n_rows += 1
            yield row

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            width = len(header)
            rows = checked(filter(None, reader))  # blank lines parse as []
            codes = np.fromiter(map(ids.__getitem__, chain.from_iterable(rows)), dtype=np.intp)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return Table(
        tuple(map(str.strip, header)),
        [cell.strip() for cell in ids],
        codes.reshape(n_rows, width),
    )


# what makes csv.writer quote a field in a row of several fields
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_fields(labels: Iterable[str]) -> list[str]:
    """Each label as ``csv.writer`` writes it in a row of several fields:
    a label without a comma, a quote or a line break is its own field, and
    ``csv.writer`` writes each of the others."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for label in labels:
        if not _NEEDS_QUOTES(label):
            fields.append(label)
            continue
        buf.seek(0)
        buf.truncate()
        writer.writerow((label, ""))
        fields.append(buf.getvalue()[: -len(",\r\n")])
    return fields


def write_table(table: Table, path: str | Path) -> None:
    """Write the CSV that ``csv.writer`` writes row by row: each label in
    use is quoted once, and each cell is its label's field followed by a
    comma or, in the last column, the line end."""
    codes = table.codes
    used = _ids_in(codes.ravel(), len(table.labels))
    fields = _csv_fields(table.labels[k] for k in used)
    if len(table.columns) == 1:
        # csv.writer writes a row of one empty field as "", not as a blank line
        fields = [f or '""' for f in fields]
    sep = np.empty(len(table.labels), dtype=object)
    end = np.empty(len(table.labels), dtype=object)
    sep[used] = [f + "," for f in fields]
    end[used] = [f + "\r\n" for f in fields]
    cells = np.empty(codes.shape, dtype=object)
    cells[:, :-1] = sep[codes[:, :-1]]
    cells[:, -1:] = end[codes[:, -1:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(table.columns)
        fh.write("".join(cells.ravel().tolist()))


def _numeric(table: Table, name: str) -> np.ndarray:
    """A column parsed with ``float``, as a float64 array; each distinct
    label of the column is parsed once."""
    col = table.codes[:, table._index(name)]
    present = _ids_in(col, len(table.labels))
    lookup = np.zeros(len(table.labels))
    try:
        lookup[present] = [float(table.labels[k]) for k in present]
    except ValueError:
        raise ValueError(f"column {name!r} is not numeric") from None
    return lookup[col]


def discretize(table: Table, variable: str, bins: int) -> Table:
    """Equal-frequency binning of a numeric column into labelled states.

    Cut points sit at the empirical quantiles; a value equal to a cut point
    goes to the lower bin. The output labels are ``b0``..``b{bins-1}`` in
    ascending value order, appended to the table's labels; a constant
    column realises a single state.
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
    binned = np.searchsorted(cuts, values, side="left")
    binned[np.isnan(values)] = 0
    codes = table.codes.copy()
    codes[:, table._index(variable)] = len(table.labels) + binned
    return Table(table.columns, table.labels + tuple(f"b{k}" for k in range(bins)), codes)


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
    hits = np.asarray([found == label for found in table.labels], dtype=bool)
    return hits[table.codes[:, table._index(by)]]


def apply_mask(table: Table, mask: np.ndarray, by: str) -> tuple[Table, Table]:
    keep = np.asarray(mask, dtype=bool)
    if keep.all() or not keep.any():
        raise ValueError(f"split on {by!r} leaves an empty partition")
    return (
        Table(table.columns, table.labels, table.codes[keep]),
        Table(table.columns, table.labels, table.codes[~keep]),
    )


# -- discrete dataset CSV ------------------------------------------------------


def dataset_to_table(dataset: Dataset) -> Table:
    """The dataset's state indices, offset per column into the
    concatenation of every column's states."""
    states = dataset.schema.states
    offsets = np.cumsum([0, *map(len, states)])[:-1]
    labels = [label for column in states for label in column]
    return Table(dataset.schema.names, labels, dataset.rows + offsets)


def _column_states(
    tables: Sequence[Table], states: Mapping[str, Iterable[str]] | None
) -> tuple[tuple[str, ...], ...]:
    """Per column of tables that share their columns, its declared states
    or, without a declaration, the sorted union of its labels."""
    columns = tables[0].columns
    if states is not None:
        missing = [c for c in columns if c not in states]
        if missing:
            raise ValueError(f"column {missing[0]!r} has no declared states")
        return tuple(tuple(states[c]) for c in columns)
    seen: list[set[str]] = [set() for _ in columns]
    for table in tables:
        labels = table.labels
        for found, col in zip(seen, table.codes.T):
            found.update(labels[k] for k in _ids_in(col, len(labels)))
    return tuple(tuple(sorted(found)) for found in seen)


def table_to_dataset(
    table: Table,
    states: Mapping[str, Iterable[str]] | None = None,
    intervention: frozenset[str] | None = None,
) -> Dataset:
    """Interpret a fully discrete table as a Dataset.

    Without an explicit state declaration the labels of each column are
    collected and ordered lexicographically, which keeps conversion
    deterministic across runs. With one, every column needs declared states.
    Each column looks its label ids up in one small array of state indices
    (-1 for an undeclared label); the first undeclared label is an error
    naming its row.
    """
    columns, labels, codes = table.columns, table.labels, table.codes
    declared = _column_states([table], states)
    schema = Schema(columns, declared)
    rows = np.empty(codes.shape, dtype=np.int64, order="F")
    for j, (col, column_states) in enumerate(zip(codes.T, declared)):
        index = {label: i for i, label in enumerate(column_states)}
        present = _ids_in(col, len(labels))
        lookup = np.full(len(labels), -1, dtype=np.int64)
        mapped = [index.get(labels[k], -1) for k in present]
        lookup[present] = mapped
        rows[:, j] = lookup[col]
        if -1 in mapped:
            i = int(np.argmax(rows[:, j] < 0))
            raise ValueError(
                f"row {i}: label {labels[col[i]]!r} not among the states of {columns[j]!r}"
            )
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
    paths = [base / name for name in manifest["datasets"]]
    if not paths:
        raise ValueError(f"{manifest_path}: no datasets listed")
    tables = [read_table(path) for path in paths]
    columns = tables[0].columns
    for path, table in zip(paths[1:], tables[1:]):
        if table.columns != columns:
            raise ValueError(f"{path}: columns differ from those of {paths[0]}")
    try:
        declared = dict(zip(columns, _column_states(tables, states)))
    except ValueError as exc:
        raise ValueError(f"{paths[0]}: {exc}") from None
    interventions = manifest.get("interventions")
    tags = (
        [None] * len(tables)
        if interventions is None
        else [frozenset(s) for s in interventions]
    )
    datasets = []
    for path, table, tag in zip(paths, tables, tags):
        try:
            datasets.append(table_to_dataset(table, declared, tag))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return DatasetBundle(datasets)


def family_from_manifest(manifest: Mapping) -> InterventionFamily:
    interventions = manifest.get("interventions")
    if interventions is None:
        raise ValueError("manifest records no interventions")
    return InterventionFamily([frozenset(s) for s in interventions])
