import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mimb import InterventionFamily, generate_bundle, parse_network
from mimb.bayesnet import Dataset, DatasetBundle, Schema
from mimb.tabular import (
    MANIFEST_NAME,
    Table,
    _csv_fields,
    apply_mask,
    dataset_to_table,
    discretize,
    family_from_manifest,
    load_bundle,
    read_manifest,
    read_table,
    split_mask,
    table_to_dataset,
    write_bundle,
    write_table,
)

# -- the row-wise CSV path, kept as the reference for the column-wise one ----


def _reference_dataset_to_table(dataset):
    schema = dataset.schema
    rows = tuple(
        tuple(schema.states[j][dataset.rows[i, j]] for j in range(len(schema.names)))
        for i in range(dataset.n_rows)
    )
    return schema.names, rows


def _reference_write_table(columns, rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _reference_read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [tuple(cell.strip() for cell in row) for row in reader if row]
    return tuple(h.strip() for h in header), tuple(rows)


def _reference_table_to_dataset(columns, rows, states=None, intervention=None):
    def column(c):
        idx = columns.index(c)
        return tuple(row[idx] for row in rows)

    if states is None:
        state_map = {c: tuple(sorted(set(column(c)))) for c in columns}
    else:
        state_map = {c: tuple(states[c]) for c in columns}
    schema = Schema(columns, tuple(state_map[c] for c in columns))
    index = {c: {label: i for i, label in enumerate(state_map[c])} for c in columns}
    out = np.zeros((len(rows), len(columns)), dtype=np.int64, order="F")
    for j, c in enumerate(columns):
        lookup = index[c]
        for i, cell in enumerate(column(c)):
            try:
                out[i, j] = lookup[cell]
            except KeyError:
                raise ValueError(
                    f"row {i}: label {cell!r} not among the states of {c!r}"
                ) from None
    return Dataset(schema, out, intervention=intervention)


def _reference_load_bundle(manifest_path, states=None):
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    base = Path(manifest_path).parent
    paths = [base / name for name in manifest["datasets"]]
    tables = [_reference_read_table(path) for path in paths]
    columns = tables[0][0]
    union = {
        c: tuple(sorted({row[j] for _, rows in tables for row in rows}))
        for j, c in enumerate(columns)
    }
    interventions = manifest.get("interventions")
    tags = (
        [None] * len(tables)
        if interventions is None
        else [frozenset(s) for s in interventions]
    )
    datasets = []
    for path, t, tag in zip(paths, tables, tags):
        try:
            datasets.append(_reference_table_to_dataset(*t, states or union, intervention=tag))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return DatasetBundle(datasets)


def _reference_bins(values, bins):
    """Equal-frequency bin labels: the number of cut points below each value."""
    ordered = np.sort(np.asarray(values))
    n = len(ordered)
    cuts = np.asarray([ordered[int(np.ceil(n * i / bins)) - 1] for i in range(1, bins)])
    return tuple(f"b{int(np.sum(v > cuts))}" for v in values)


def _outcome(fn, *args):
    """The value of a call, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _same_dataset(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.schema == b.schema and a.intervention == b.intervention
    assert a.rows.dtype == np.int64 and a.rows.flags.f_contiguous
    assert np.array_equal(a.rows, b.rows)


def _same_bundle(a, b):
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert a.interventions() == b.interventions()
    assert len(a) == len(b)
    for x, y in zip(a, b):
        _same_dataset(x, y)


# labels that need CSV quoting: commas, double quotes, inner spaces
_LABEL = st.text(alphabet='ab,"; ', min_size=1, max_size=5).filter(
    lambda s: s.strip() == s
)


@st.composite
def small_datasets(draw, n_datasets=1):
    names = draw(st.lists(_LABEL, min_size=1, max_size=3, unique=True))
    states = tuple(
        tuple(draw(st.lists(_LABEL, min_size=2, max_size=4, unique=True)))
        for _ in names
    )
    schema = Schema(tuple(names), states)
    out = []
    for _ in range(n_datasets):
        n_rows = draw(st.integers(1, 12))
        rows = np.array(
            [[draw(st.integers(0, len(s) - 1)) for s in states] for _ in range(n_rows)],
            dtype=np.int64,
        ).reshape(n_rows, len(names))
        out.append(Dataset(schema, rows))
    return out


TINY_NET = """\
VAR A a b
VAR B a b
PARENTS B A
CPT A
0.4 0.6
CPT B
0.9 0.1
0.2 0.8
"""


def table_of(columns, rows):
    """A Table of string rows, its labels numbered in first-seen order."""
    labels = list(dict.fromkeys(cell for row in rows for cell in row))
    ids = {label: i for i, label in enumerate(labels)}
    codes = np.array([[ids[cell] for cell in row] for row in rows], dtype=np.intp)
    return Table(columns, labels, codes.reshape(len(rows), len(columns)))


def numeric_table(values, name="v"):
    return table_of((name,), [(str(x),) for x in values])


class TestTable:
    def test_rejects_codes_of_the_wrong_width(self):
        with pytest.raises(ValueError, match=r"codes of shape \(1, 1\) for 2 column names"):
            Table(("a", "b"), ("1",), [[0]])
        with pytest.raises(ValueError, match=r"codes of shape \(2,\) for 2 column names"):
            Table(("a", "b"), ("1",), [0, 0])

    @pytest.mark.parametrize("code", [2, -1])
    def test_rejects_a_code_outside_the_labels(self, code):
        with pytest.raises(ValueError, match="a code does not index one of the 2 labels"):
            Table(("a", "b"), ("p", "q"), [[0, 1], [code, 0]])

    def test_equality_ignores_label_numbering(self):
        t = Table(("x", "y"), ("a", "b"), [[0, 1], [1, 1]])
        renumbered = Table(("x", "y"), ("b", "unused", "a", "b"), [[2, 0], [3, 0]])
        assert t == renumbered and t == table_of(("x", "y"), [("a", "b"), ("b", "b")])
        assert t != Table(("x", "y"), ("a", "b"), [[0, 1], [1, 0]])
        assert t != Table(("x", "z"), ("a", "b"), [[0, 1], [1, 1]])
        assert t != Table(("x", "y"), ("a", "b"), [[0, 1]])

    def test_ragged_csv_row_names_its_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n\n3\n")
        with pytest.raises(ValueError, match="row 1 has 1 cells, expected 2"):
            read_table(path)

    def test_reading_holds_little_more_than_the_codes(self, tmp_path):
        # 5000 rows of 37 cells: the codes take 1.5 MB, and the rows held
        # as lists of strings before encoding used to peak near 13 MB
        rng = np.random.default_rng(5)
        cells = np.array(["LOW", "NORMAL", "HIGH", "ZERO"])[rng.integers(0, 4, (5000, 37))]
        path = tmp_path / "t.csv"
        header = ",".join(f"V{j}" for j in range(37))
        path.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
        tracemalloc.start()
        try:
            table = read_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.codes.shape == (5000, 37) and sorted(table.labels) == sorted(set(cells.flat))
        assert peak < 4 * 2**20

    def test_undecodable_csv_names_its_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"A,T\na,caf\xe9\n")
        with pytest.raises(ValueError) as info:
            read_table(path)
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xe9 in position 9: invalid continuation byte"
        )

    def test_unknown_column(self):
        t = table_of(("a",), [("1",)])
        with pytest.raises(ValueError, match="unknown column"):
            t.column("z")

    def test_columns(self):
        t = table_of(("x", "y", "x"), [("1", "a", "p"), ("2", "b", "q")])
        assert t.n_rows == 2 and t.column("y") == ("a", "b")
        assert t.column("x") == ("1", "2")  # a repeated name means its first column

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "score,group\n1,a\n2,b\n"
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_table(tmp_path / "bom.csv") == read_table(tmp_path / "plain.csv")
        assert read_table(tmp_path / "bom.csv").column("score") == ("1", "2")
        bundles = []
        for name in ("plain", "bom"):
            manifest = tmp_path / f"{name}.json"
            manifest.write_text(json.dumps({"datasets": [f"{name}.csv"]}))
            bundles.append(load_bundle(manifest))
        _same_bundle(*bundles)
        assert bundles[1].schema.names == ("score", "group")

    def test_csv_round_trip(self, tmp_path):
        t = table_of(("x", "y"), [("1", "a"), ("2", "b")])
        path = tmp_path / "t.csv"
        write_table(t, path)
        assert path.read_bytes() == b"x,y\r\n1,a\r\n2,b\r\n"
        assert read_table(path) == t
        # labels no cell uses are not written
        write_table(Table(t.columns, ("a", '"', "2", "b", "1"), [[4, 0], [2, 3]]), path)
        assert path.read_bytes() == b"x,y\r\n1,a\r\n2,b\r\n"


class TestDiscretize:
    def test_quartiles_of_a_range(self):
        t = discretize(numeric_table(range(1, 101)), "v", 4)
        labels = t.column("v")
        counts = {lab: labels.count(lab) for lab in set(labels)}
        assert counts == {"b0": 25, "b1": 25, "b2": 25, "b3": 25}

    def test_boundary_ties_go_low(self):
        t = discretize(numeric_table([1, 2, 2, 4]), "v", 2)
        assert t.column("v") == ("b0", "b0", "b0", "b1")

    def test_constant_column_single_state(self):
        t = discretize(numeric_table([7] * 10), "v", 3)
        assert set(t.column("v")) == {"b0"}

    def test_distinct_values_within_one_of_even(self):
        rng = np.random.default_rng(3)
        values = rng.permutation(1000) / 7.0
        t = discretize(numeric_table(values), "v", 3)
        labels = t.column("v")
        for lab in ("b0", "b1", "b2"):
            assert abs(labels.count(lab) - 1000 / 3) <= 1

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="numeric"):
            discretize(table_of(("v",), [("x",)]), "v", 2)

    def test_rejects_empty_column(self):
        with pytest.raises(ValueError, match="no values"):
            discretize(table_of(("v",), []), "v", 2)

    def test_rejects_single_bin(self):
        with pytest.raises(ValueError):
            discretize(numeric_table([1, 2]), "v", 1)


class TestSplit:
    def test_threshold_split_keeps_the_variable(self):
        t = table_of(("d", "o"), [(str(i), "x") for i in range(10)])
        low, high = apply_mask(t, split_mask(t, "d", threshold=4), "d")
        assert low.n_rows == 4 and high.n_rows == 6
        assert "d" in low.columns and "d" in high.columns

    def test_label_split(self):
        t = table_of(("g",), [("m",), ("f",), ("m",)])
        first, second = apply_mask(t, split_mask(t, "g", label="m"), "g")
        assert first.n_rows == 2 and second.n_rows == 1

    def test_empty_partition_is_an_error(self):
        t = numeric_table([1, 2, 3])
        with pytest.raises(ValueError, match="empty partition"):
            apply_mask(t, split_mask(t, "v", threshold=0), "v")

    def test_exactly_one_rule(self):
        t = numeric_table([1, 2])
        with pytest.raises(ValueError):
            split_mask(t, "v")
        with pytest.raises(ValueError):
            split_mask(t, "v", threshold=1, label="1")


class TestDatasetConversion:
    def test_round_trip_with_declared_states(self):
        bn = parse_network(TINY_NET)
        bundle = generate_bundle(bn, InterventionFamily([set()]), 50, seed=2)
        table = dataset_to_table(bundle[0])
        back = table_to_dataset(
            table, {v: bn.schema.states_of(v) for v in bn.variables}
        )
        assert (back.rows == bundle[0].rows).all()

    def test_discovered_states_are_sorted(self):
        t = table_of(("x",), [("z",), ("a",), ("z",)])
        ds = table_to_dataset(t)
        assert ds.schema.states_of("x") == ("a", "z")

    def test_unknown_label_is_an_error(self):
        t = table_of(("x",), [("weird",)])
        with pytest.raises(ValueError, match="not among the states"):
            table_to_dataset(t, {"x": ("a", "b")})


class TestManifests:
    def test_bundle_round_trip(self, tmp_path):
        bn = parse_network(TINY_NET)
        fam = InterventionFamily([{"A"}, set()])
        bundle = generate_bundle(bn, fam, 40, seed=4)
        manifest_path = write_bundle(
            bundle, tmp_path, network="net.txt", target="B", seed=4
        )
        manifest = read_manifest(manifest_path)
        assert manifest["datasets"] == ["dataset_00.csv", "dataset_01.csv"]
        assert manifest["interventions"] == [["A"], []]
        assert family_from_manifest(manifest) == fam

        loaded = load_bundle(
            manifest_path, {v: bn.schema.states_of(v) for v in bn.variables}
        )
        for a, b in zip(loaded, bundle):
            assert (a.rows == b.rows).all()
        assert loaded.interventions() == [frozenset({"A"}), frozenset()]

    @pytest.mark.parametrize(
        "first, second, states, message",
        [
            ("A,T\na,a\n", "A,T\nb,a2\n", {"A": "ab", "T": "ab"},
             "{d1}: row 0: label 'a2' not among the states of 'T'"),
            ("A,A\na,a\n", "A,A\nb,b\n", None, "{d0}: duplicate variable names"),
            ("A,T\na,a\n", "A,T\nb,b\n", {"A": "ab"}, "{d0}: column 'T' has no declared states"),
        ],
    )
    def test_a_content_error_names_its_csv(self, first, second, states, message, tmp_path):
        (tmp_path / "d0.csv").write_text(first)
        (tmp_path / "d1.csv").write_text(second)
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps({"datasets": ["d0.csv", "d1.csv"]}))
        with pytest.raises(ValueError) as info:
            load_bundle(path, states)
        assert str(info.value) == message.format(d0=tmp_path / "d0.csv", d1=tmp_path / "d1.csv")

    def test_manifest_without_datasets_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError, match="datasets"):
            read_manifest(path)

    def test_family_requires_recorded_interventions(self):
        with pytest.raises(ValueError, match="interventions"):
            family_from_manifest({"datasets": []})


class TestAgainstRowWiseReference:
    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_csv_bytes_and_decoding_match(self, datasets):
        (dataset,) = datasets
        schema = dataset.schema
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp) / "new.csv", Path(tmp) / "ref.csv"
            write_table(dataset_to_table(dataset), new)
            _reference_write_table(*_reference_dataset_to_table(dataset), ref)
            assert new.read_bytes() == ref.read_bytes()

            table = read_table(new)
            columns, rows = _reference_read_table(new)
        assert table == table_of(columns, rows)

        declared = dict(zip(schema.names, schema.states))
        # a declaration that lacks one realised label of the first column
        first = schema.names[0]
        dropped = dict(declared)
        dropped[first] = ("fresh",) + schema.states[0][1:]
        for states in (None, declared, dropped):
            _same_dataset(
                _outcome(table_to_dataset, table, states),
                _outcome(_reference_table_to_dataset, columns, rows, states),
            )

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_read_strips_padded_cells_like_the_reference(self, data):
        width = data.draw(st.integers(1, 3))
        pad = st.text(alphabet=" \t", max_size=2)
        cell = st.tuples(pad, _LABEL, pad).map("".join)
        header = data.draw(st.lists(cell, min_size=width, max_size=width))
        body = data.draw(
            st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "padded.csv"
            _reference_write_table(header, body, path)
            table = read_table(path)
            columns, rows = _reference_read_table(path)
        assert table == table_of(columns, rows)

    @settings(max_examples=30, deadline=None)
    @given(small_datasets(n_datasets=2), st.lists(_LABEL, max_size=2))
    def test_load_bundle_matches(self, datasets, manipulated):
        tags = [frozenset(manipulated), frozenset()]
        bundle = DatasetBundle(
            Dataset(d.schema, d.rows, intervention=tag) for d, tag in zip(datasets, tags)
        )
        declared = dict(zip(bundle.schema.names, bundle.schema.states))
        with tempfile.TemporaryDirectory() as tmp:
            manifest = write_bundle(bundle, tmp)
            for states in (None, declared):
                loaded = _outcome(load_bundle, manifest, states)
                _same_bundle(loaded, _outcome(_reference_load_bundle, manifest, states))
                assert isinstance(loaded, str) or loaded.interventions() == tags

    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("x",), [("a",), ("",), ("b",), ("",)]),
            (("x",), [("",), ("",)]),
            (("x",), [("a,b",), ('say "hi"',), ("x\ny",), ("",)]),
            (("x", "y"), [("a,b", ""), ('"', "x\ry"), ("", "")]),
            (("x", "y", "z"), [("", "", ""), ("a", "", "b,c")]),
        ],
        ids=["one-column", "one-column-empty", "one-column-quoted", "two-quoted", "three-empty"],
    )
    def test_special_labels_match(self, columns, rows, tmp_path):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        table = table_of(columns, rows)
        write_table(table, new)
        _reference_write_table(columns, rows, ref)
        assert new.read_bytes() == ref.read_bytes()
        assert read_table(new) == table
        assert _reference_read_table(new) == (columns, tuple(rows))

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n1,2\r\n\r\n3,4\r5,6\n\n7,8",
            "a,b\r\r\n1,2\n\r3,4\r\n",
            "a\r\n\n\r1\r2\n\n",
            'a,b\r\n"x\r\ny",2\n\n"p\nq",\r',
        ],
        ids=["lf-crlf-cr", "blank-first", "one-column", "quoted-line-ends"],
    )
    def test_mixed_line_ends_match(self, text, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(text.encode())
        columns, rows = _reference_read_table(path)
        assert read_table(path) == table_of(columns, rows)

    def test_header_only_file_matches(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_bytes(b"a, b\r\n")
        table = read_table(path)
        assert table == table_of(("a", "b"), [])
        assert _reference_read_table(path) == (table.columns, ())
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"datasets": ["header.csv"]}))
        for states in (None, {"a": ("p", "q"), "b": ("p", "q")}):
            _same_bundle(
                _outcome(load_bundle, tmp_path / MANIFEST_NAME, states),
                _outcome(_reference_load_bundle, tmp_path / MANIFEST_NAME, states),
            )

    @pytest.mark.parametrize(
        "states",
        [None, {"x": ("a", "b"), "y": ("p", "q")}, {"x": ("a", "c"), "y": ("p", "q")}],
        ids=["undeclared", "declared", "undeclared-label"],
    )
    def test_padded_duplicates_are_one_label(self, states, tmp_path):
        (tmp_path / "d0.csv").write_text("x,y\n a,p\na,q\n b ,p\n")
        (tmp_path / "d1.csv").write_text("x,y\nb,q \n  a,p\nb, p\n")
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text(json.dumps({"datasets": ["d0.csv", "d1.csv"]}))
        loaded = _outcome(load_bundle, manifest, states)
        _same_bundle(loaded, _outcome(_reference_load_bundle, manifest, states))
        if states is None:
            assert loaded.schema.states == (("a", "b"), ("p", "q"))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.characters() | st.sampled_from(',"\r\n ')), min_size=1, max_size=6))
    def test_fields_are_those_of_csv_writer(self, labels):
        buf = io.StringIO()
        csv.writer(buf).writerow([*labels, ""])  # every label in a row of several fields
        assert ",".join(_csv_fields(labels)) + ",\r\n" == buf.getvalue()

    def test_alarm_bundle_matches(self, alarm, tmp_path):
        family = InterventionFamily([set(), {"HR"}, {"VTUB", "CO"}])
        bundle = generate_bundle(alarm, family, 2000, seed=11)
        manifest = write_bundle(bundle, tmp_path)
        for i, dataset in enumerate(bundle):
            ref = tmp_path / f"ref_{i}.csv"
            _reference_write_table(*_reference_dataset_to_table(dataset), ref)
            assert (tmp_path / f"dataset_{i:02d}.csv").read_bytes() == ref.read_bytes()
        declared = {v: alarm.schema.states_of(v) for v in alarm.variables}
        for states in (None, declared):
            loaded = load_bundle(manifest, states)
            _same_bundle(loaded, _reference_load_bundle(manifest, states))
        for a, b in zip(loaded, bundle):
            assert np.array_equal(a.rows, b.rows)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-5, 5).map(float),
                st.floats(allow_nan=True, allow_infinity=True, width=32),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(2, 6),
    )
    @example([float("nan"), 1.0, 2.0, 3.0, float("-inf")], 2)
    @example([0.5, float("nan"), float("inf"), float("nan")], 3)
    def test_discretize_matches_the_comparison_loop(self, values, bins):
        table = table_of(("v",), [(repr(v),) for v in values])
        assert discretize(table, "v", bins).column("v") == _reference_bins(values, bins)


_PAD = st.text(alphabet=" \t", max_size=2)
_NUMBER = st.one_of(st.integers(-5, 5).map(float), st.floats(width=32)).map(repr)


def _padded(label):
    return st.tuples(_PAD, label, _PAD).map("".join)


@st.composite
def _split_inputs(draw):
    """Raw rows of a numeric column v and a text column t, and a split
    rule: a threshold on v, or a label of either column to pick in t."""
    rows = draw(
        st.lists(st.tuples(_padded(_NUMBER), _padded(_LABEL | _NUMBER)), min_size=1, max_size=12)
    )
    labels = [cell.strip() for row in rows for cell in row]
    rule = draw(
        st.tuples(st.just("v"), st.floats(-6, 6)) | st.tuples(st.just("t"), st.sampled_from(labels))
    )
    return rows, rule


class TestSplitAgainstRowWiseReference:
    """The path of ``mimb split --discretize v:BINS``: the mask comes from
    the raw column, then the whole table is binned and both halves are
    written. Its reference reads, bins, filters and writes row by row."""

    @staticmethod
    def _split(raw, rule, bins):
        by, value = rule
        table = read_table(raw)
        mask = split_mask(table, by, **{"threshold" if by == "v" else "label": value})
        halves = apply_mask(discretize(table, "v", bins), mask, by)
        for i, half in enumerate(halves):
            write_table(half, raw.with_name(f"new_{i}.csv"))
        return [raw.with_name(f"new_{i}.csv").read_bytes() for i in range(2)]

    @staticmethod
    def _reference_split(raw, rule, bins):
        by, value = rule
        columns, rows = _reference_read_table(raw)
        j = columns.index(by)
        first = [float(row[j]) < value if by == "v" else row[j] == value for row in rows]
        if all(first) or not any(first):
            raise ValueError(f"split on {by!r} leaves an empty partition")
        binned = _reference_bins([float(row[0]) for row in rows], bins)
        rows = [(b,) + row[1:] for b, row in zip(binned, rows)]
        out = []
        for i, keep in enumerate((True, False)):
            path = raw.with_name(f"ref_{i}.csv")
            _reference_write_table(columns, [r for r, f in zip(rows, first) if f == keep], path)
            out.append(path.read_bytes())
        return out

    @settings(max_examples=80, deadline=None)
    @given(_split_inputs(), st.integers(2, 4))
    @example(([("1.0", " a,b"), (" 2.0", 'say "hi" '), ("3.0\t", "a,b")], ("t", "a,b")), 2)
    @example(([("1.0", "x"), ("2.0", "3.0"), ("3.0", "x")], ("v", 2.5)), 3)
    @example(([("1.0", "x"), ("2.0", "y")], ("t", "1.0")), 2)
    def test_split_halves_match(self, inputs, bins):
        rows, rule = inputs
        # the two columns share the file's labels, so a label may be a
        # number in one column and text in the other
        with tempfile.TemporaryDirectory() as tmp:
            raw = Path(tmp) / "raw.csv"
            _reference_write_table(("v", "t"), rows, raw)
            assert _outcome(self._split, raw, rule, bins) == _outcome(
                self._reference_split, raw, rule, bins
            )

    def test_a_label_only_in_another_column_splits_nothing(self, tmp_path):
        raw = tmp_path / "raw.csv"
        _reference_write_table(("v", "t"), [("1.0", "x"), ("2.0", "y")], raw)
        with pytest.raises(ValueError, match="split on 't' leaves an empty partition"):
            self._split(raw, ("t", "1.0"), 2)
