"""Dataset and manifest I/O, plus splitting and discretisation of raw CSV
tables for the observational-to-interventional workflow."""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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


def _dictionary_encode(
    lines: Sequence[Sequence[str]], length: int
) -> tuple[list[str], np.ndarray]:
    """The distinct cells of ``lines`` (each ``length`` long) in first-seen
    order, and each cell's index into them as a (len(lines), length) array."""
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # an unseen cell gets the next id
    codes = np.fromiter(
        map(ids.__getitem__, chain.from_iterable(lines)),
        dtype=np.intp,
        count=len(lines) * length,
    )
    return list(ids), codes.reshape(len(lines), length)


def _read_coded(path: str | Path) -> tuple[tuple[str, ...], list[str], np.ndarray]:
    """A CSV file as ``(columns, labels, codes)``: the stripped header, the
    stripped label of each distinct raw cell, and the (n_rows, width) array
    of each cell's index into ``labels``.

    A UTF-8 byte-order mark before the header is dropped, and blank lines
    are skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    raw, codes = _dictionary_encode(rows, width)
    return tuple(map(str.strip, header)), [cell.strip() for cell in raw], codes


def _csv_fields(labels: Iterable[str]) -> list[str]:
    """Each label as ``csv.writer`` writes it in a row of several fields."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for label in labels:
        buf.seek(0)
        buf.truncate()
        writer.writerow((label, ""))
        fields.append(buf.getvalue()[: -len(",\r\n")])
    return fields


def _write_coded(
    path: str | Path, columns: Sequence[str], labels: Sequence[str], codes: np.ndarray
) -> None:
    """Write ``(columns, labels, codes)`` as the CSV that ``csv.writer``
    writes row by row: each distinct label is quoted once, and each cell is
    its label's field followed by a comma or, in the last column, the line
    end."""
    fields = _csv_fields(labels)
    if codes.shape[1] == 1:
        # csv.writer writes a row of one empty field as "", not as a blank line
        fields = [f or '""' for f in fields]
    sep = np.asarray([f + "," for f in fields], dtype=object)
    end = np.asarray([f + "\r\n" for f in fields], dtype=object)
    cells = np.empty(codes.shape, dtype=object)
    cells[:, :-1] = sep[codes[:, :-1]]
    cells[:, -1:] = end[codes[:, -1:]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(columns)
        fh.write("".join(cells.ravel().tolist()))


def read_table(path: str | Path) -> Table:
    columns, labels, codes = _read_coded(path)
    pick = np.asarray(labels, dtype=object)
    return Table(columns, tuple(map(tuple, pick[codes.T].tolist())))


def write_table(table: Table, path: str | Path) -> None:
    labels, codes = _dictionary_encode(table.cells, table.n_rows)
    _write_coded(path, table.columns, labels, codes.T)


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


def _ids_in(col: np.ndarray, n_labels: int) -> np.ndarray:
    """The ascending label ids that occur in one column of codes."""
    return np.flatnonzero(np.bincount(col, minlength=n_labels))


def _observed_states(
    coded: Sequence[tuple[tuple[str, ...], Sequence[str], np.ndarray]],
) -> tuple[tuple[str, ...], ...]:
    """Per column, the sorted union of its labels across coded tables
    ``(columns, labels, codes)`` that share their columns."""
    seen: list[set[str]] = [set() for _ in coded[0][0]]
    for _, labels, codes in coded:
        for found, col in zip(seen, codes.T):
            found.update(labels[k] for k in _ids_in(col, len(labels)))
    return tuple(tuple(sorted(found)) for found in seen)


def _decode(
    columns: tuple[str, ...],
    states: tuple[tuple[str, ...], ...],
    labels: Sequence[str],
    codes: np.ndarray,
    intervention: frozenset[str] | None,
) -> Dataset:
    """The Dataset of coded cells under each column's states.

    Each column looks its label ids up in one small array of state indices
    (-1 for an undeclared label); the first undeclared label is an error
    naming its row.
    """
    schema = Schema(columns, states)
    rows = np.empty(codes.shape, dtype=np.int64, order="F")
    for j, (col, declared) in enumerate(zip(codes.T, states)):
        index = {label: i for i, label in enumerate(declared)}
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


def _declared_states(
    columns: tuple[str, ...], states: Mapping[str, Iterable[str]]
) -> tuple[tuple[str, ...], ...]:
    missing = [c for c in columns if c not in states]
    if missing:
        raise ValueError(f"column {missing[0]!r} has no declared states")
    return tuple(tuple(states[c]) for c in columns)


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
    labels, codes = _dictionary_encode(table.cells, table.n_rows)
    codes = codes.T
    if states is None:
        declared = _observed_states([(table.columns, labels, codes)])
    else:
        declared = _declared_states(table.columns, states)
    return _decode(table.columns, declared, labels, codes, intervention)


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
        states = dataset.schema.states
        offsets = np.cumsum([0, *map(len, states)])[:-1]
        labels = [label for column in states for label in column]
        _write_coded(out / name, dataset.schema.names, labels, dataset.rows + offsets)
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
    coded = [_read_coded(base / name) for name in manifest["datasets"]]
    if not coded:
        raise ValueError(f"{manifest_path}: no datasets listed")
    columns = coded[0][0]
    for i, (other, _, _) in enumerate(coded[1:], start=1):
        if other != columns:
            raise ValueError(f"dataset {i} columns differ from dataset 0")
    if states is None:
        declared = _observed_states(coded)
    else:
        declared = _declared_states(columns, states)
    interventions = manifest.get("interventions")
    tags = (
        [None] * len(coded)
        if interventions is None
        else [frozenset(s) for s in interventions]
    )
    return DatasetBundle(
        _decode(columns, declared, labels, codes, tag)
        for (_, labels, codes), tag in zip(coded, tags)
    )


def family_from_manifest(manifest: Mapping) -> InterventionFamily:
    interventions = manifest.get("interventions")
    if interventions is None:
        raise ValueError("manifest records no interventions")
    return InterventionFamily([frozenset(s) for s in interventions])
