"""Conditional-independence testing on discrete data.

The G-squared test is the workhorse; a d-separation oracle backend with the
same call shape stands in for it when ideal tests are wanted. Each backend
counts every test it answers in its ledger, because the number of tests is
itself a reported metric; a direct ``g2_test`` call is not counted.

``g2_test`` and ``DataBackend.test`` share one private kernel; the public
``contingency_counts`` and ``g2_statistic`` compute the same statistic the
plain way and serve as its reference. ``DataBackend``'s separator searches
count several tests at once in a batched kernel whose answers are those of
the single-test one, bit for bit. ``OracleBackend`` answers the queries of
a :class:`SeparatorSearch` in batches of lanes, one Bayes-ball sweep per
batch.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .bayesnet import Dataset, DatasetBundle
from .graph import Dag, InterventionFamily
from .util import iter_bits, iter_subsets

# A G-squared test is reliable only with at least this many rows per cell of
# its full contingency table (and a positive dof).
MIN_ROWS_PER_CELL = 5

# DataBackend's bulk search computes the first misses of a separator search
# in a batch of this many, and each later batch of the search holds twice
# as many as the one before, up to _MAX_BATCH (see _read_ahead).
_FIRST_BATCH = 8
_MAX_BATCH = 64

# OracleBackend sweeps the misses of a separator search in batches of up to
# this many lanes, read ahead from up to this many subsets (see
# OracleBackend._sweep_ahead); a lane table holds one int of this many bits
# per node until _lane_masks turns it into one node mask per lane.
_LANES = 256


@dataclass(frozen=True)
class CiResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool
    reliable: bool


class TestLedger:
    """Counts independence tests per dataset; totals are the nTest metric.

    Every query counts, whether it was computed or answered from a
    backend's memo; ``hits`` counts the latter per dataset.
    """

    __slots__ = ("counts", "hits")

    def __init__(self, n_datasets: int):
        self.counts = [0] * n_datasets
        self.hits = [0] * n_datasets

    @property
    def total(self) -> int:
        return sum(self.counts)

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.counts)

    def since(self, snapshot: tuple[int, ...]) -> tuple[int, ...]:
        """Tests per dataset recorded after ``snapshot`` was taken."""
        return tuple(a - b for a, b in zip(self.counts, snapshot))


# scipy.special.gammaincc, bound on the first tail that needs it. Importing
# scipy.special takes about 0.35 s and 26 MB of RSS (2-CPU Xeon, scipy
# 1.17), and the oracle backend, the theorem fuzzer and most CLI commands
# never compute a p-value.
_gammaincc = None


def chi_square_upper_tail(statistic: float, dof: int) -> float:
    """P[chi2(dof) >= statistic] via the regularised incomplete gamma."""
    global _gammaincc
    if dof < 1:
        raise ValueError("dof must be at least 1")
    if statistic <= 0:
        return 1.0
    if _gammaincc is None:
        from scipy.special import gammaincc as _gammaincc
    return float(_gammaincc(dof / 2.0, statistic / 2.0))


def g2_statistic(counts: np.ndarray) -> tuple[float, int]:
    """Log likelihood ratio statistic and degrees of freedom.

    ``counts`` is (rx, ry) or (rx, ry, n_configs), the trailing axis indexing
    configurations of the conditioning set. Expectations are formed from the
    margins of each configuration stratum; zero observed cells contribute
    nothing. Per-stratum dof is (rx'-1)(ry'-1) counting only states with a
    nonzero marginal in that stratum, so empty strata and degenerate margins
    contribute zero.
    """
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("counts must be 2- or 3-dimensional")
    if (arr < 0).any():
        raise ValueError("counts must be nonnegative")

    totals = arr.sum(axis=(0, 1))  # (nz,)
    rows = arr.sum(axis=1)  # (rx, nz)
    cols = arr.sum(axis=0)  # (ry, nz)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows[:, None, :] * cols[None, :, :] / totals[None, None, :]
    mask = arr > 0
    stat = 0.0
    if mask.any():
        stat = 2.0 * float((arr[mask] * np.log(arr[mask] / expected[mask])).sum())
    rx_eff = (rows > 0).sum(axis=0)
    ry_eff = (cols > 0).sum(axis=0)
    dof = int((np.maximum(rx_eff - 1, 0) * np.maximum(ry_eff - 1, 0)).sum())
    return max(stat, 0.0), dof


def contingency_counts(
    data: Dataset, x: str, y: str, z: Iterable[str] = ()
) -> np.ndarray:
    """(rx, ry, n_z_configs) observed counts, one bincount pass.

    The dense table over every z-configuration, in the caller's order; the
    reference for the kernel behind :func:`g2_test`, not used by it.
    """
    schema = data.schema
    zs = tuple(z)
    rx = len(schema.states_of(x))
    ry = len(schema.states_of(y))
    xcol = data.column(x)
    ycol = data.column(y)
    zkey = np.zeros(data.n_rows, dtype=np.int64)
    nz = 1
    for v in zs:
        card = len(schema.states_of(v))
        zkey = zkey * card + data.column(v)
        nz *= card
    key = (xcol * ry + ycol) * nz + zkey
    flat = np.bincount(key, minlength=rx * ry * nz)
    return flat.reshape(rx, ry, nz)


def _canonical(x: str, y: str, z: Iterable[str]) -> tuple[str, str, tuple[str, ...]]:
    """The orientation every G-squared test is computed in: x < y, z sorted."""
    zs = tuple(sorted(z))
    if x == y or x in zs or y in zs or len(set(zs)) != len(zs):
        raise ValueError("x, y and z must be disjoint")
    return (x, y, zs) if x < y else (y, x, zs)


def _relabel(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Observed configurations numbered 0..k-1 in ascending key order."""
    observed, labels = np.unique(key, return_inverse=True)
    return labels, int(observed.size)


def _g2(
    data: Dataset,
    x: str,
    y: str,
    zs: tuple[str, ...],
    alpha: float,
) -> CiResult:
    """The G-squared test on canonical arguments (see :func:`_canonical`).

    Counts one bincount over contiguous columns and reduces the statistic
    in one masked pass; :func:`contingency_counts` and :func:`g2_statistic`
    are the reference it agrees with. Once the z-configurations outnumber
    the rows, only the observed ones are kept, numbered in key order, so no
    table exceeds ``rx * ry * n_rows`` cells and no key overflows. Empty
    strata add nothing to the statistic or the dof, so both are unchanged;
    the size part of ``reliable`` comes from the cardinalities alone.
    """
    schema, rows, n = data.schema, data.rows, data.n_rows
    states = schema.states
    i, j = schema.index(x), schema.index(y)
    rx, ry = len(states[i]), len(states[j])
    n_cells = rx * ry  # of the full table, an exact Python int
    zkey = None
    nz = 1
    for v in zs:
        k = schema.index(v)
        card = len(states[k])
        n_cells *= card
        if zkey is None:
            zkey = rows[:, k].copy()
        else:
            if nz * card > n:
                zkey, nz = _relabel(zkey)
            zkey *= card
            zkey += rows[:, k]
        nz *= card
    if nz > n:
        zkey, nz = _relabel(zkey)

    key = rows[:, i] * ry
    key += rows[:, j]
    if zkey is not None:
        key *= nz
        key += zkey
    counts = np.bincount(key, minlength=rx * ry * nz).reshape(rx, ry, nz)

    n_x = counts.sum(axis=1)  # (rx, nz)
    n_y = counts.sum(axis=0)  # (ry, nz)
    n_z = n_x.sum(axis=0)  # (nz,)
    margins = n_x[:, None, :] * n_y[None, :, :]
    # observed/expected = n * n_z / (n_x * n_y) where n > 0, else 1, whose
    # log adds nothing; exact integers until the one division
    ratio = np.divide(counts * n_z, margins, out=np.ones(counts.shape), where=counts > 0)
    stat = max(2.0 * float(np.vdot(counts, np.log(ratio))), 0.0)
    # per-stratum (rx' - 1)(ry' - 1) over the states seen in the stratum;
    # an empty stratum has rx' = ry' = 0 and would add 1, so drop those
    dof = int(np.dot((n_x > 0).sum(axis=0) - 1, (n_y > 0).sum(axis=0) - 1))
    dof -= nz - int(np.count_nonzero(n_z))

    reliable = n >= MIN_ROWS_PER_CELL * n_cells and dof > 0
    p_value = chi_square_upper_tail(stat, dof) if dof > 0 else 1.0
    return CiResult(stat, dof, p_value, bool(reliable and p_value > alpha), reliable)


def _g2_batch(
    bundle: DatasetBundle,
    tests: Sequence[tuple[str, str, tuple[str, ...], int]],
    alpha: float,
) -> list[CiResult]:
    """:func:`_g2` of each ``(x, y, zs, dataset_index)`` of ``tests``, in
    one count and one reduction.

    The tests share x and y, their arguments are canonical, and each z has
    no more configurations than its dataset has rows, so :func:`_g2` would
    keep every table dense. The strata of all the tests lie side by side:
    test t takes the configurations ``offset_t .. offset_t + nz_t - 1`` of
    one table of ``rx * ry * sum(nz)`` cells, counted by one bincount over
    all the tests' rows. Margins, ratios and logs are taken over every
    stratum at once, each dof is summed over its own strata, and each
    statistic is one ``np.vdot`` over its own ``(rx, ry, nz_t)`` slice, so
    every value and every sum is the one :func:`_g2` computes, bit for bit.
    """
    schema = bundle.schema
    states = schema.states
    i, j = schema.index(tests[0][0]), schema.index(tests[0][1])
    rx, ry = len(states[i]), len(states[j])
    plans = []
    offsets = []
    n_configs = 0
    n_keys = 0
    for _, _, zs, k in tests:
        columns = [schema.index(v) for v in zs]
        cards = [len(states[c]) for c in columns]
        offsets.append(n_configs)
        n_configs += math.prod(cards)
        n_keys += bundle[k].n_rows
        plans.append((columns, cards, k))

    # key = (x * ry + y) * n_configs + offset + zkey, one slice per test,
    # zkey composed as _g2 composes it
    keys = np.empty(n_keys, dtype=np.int64)
    pairs: dict[int, np.ndarray] = {}
    start = 0
    for (columns, cards, k), offset in zip(plans, offsets):
        rows = bundle[k].rows
        pair = pairs.get(k)
        if pair is None:
            pair = pairs[k] = rows[:, i] * ry
            pair += rows[:, j]
            pair *= n_configs
        out = keys[start : start + len(rows)]
        start += len(rows)
        if not columns:
            np.add(pair, offset, out=out)
            continue
        zkey = rows[:, columns[0]]
        for c, card in zip(columns[1:], cards[1:]):
            np.multiply(zkey, card, out=out)
            out += rows[:, c]
            zkey = out
        np.add(zkey, pair, out=out)
        if offset:
            out += offset
    counts = np.bincount(keys, minlength=rx * ry * n_configs).reshape(rx, ry, n_configs)

    # the reduction of _g2, over every stratum of every test
    n_x = counts.sum(axis=1)
    n_y = counts.sum(axis=0)
    n_z = n_x.sum(axis=0)
    margins = n_x[:, None, :] * n_y[None, :, :]
    ratio = np.divide(counts * n_z, margins, out=np.ones(counts.shape), where=counts > 0)
    logs = np.log(ratio)
    strata = ((n_x > 0).sum(axis=0) - 1) * ((n_y > 0).sum(axis=0) - 1) - (n_z == 0)
    dofs = np.add.reduceat(strata, offsets).tolist()

    results = []
    bounds = offsets + [n_configs]
    for (_, _, k), lo, hi, dof in zip(plans, bounds, bounds[1:], dofs):
        # vdot casts the counts to a contiguous copy; the logs of one
        # stratum would go to BLAS as a strided view, summed in another
        # order than _g2's contiguous one, which can change the last bit
        dot = np.vdot(counts[:, :, lo:hi], np.ascontiguousarray(logs[:, :, lo:hi]))
        stat = max(2.0 * float(dot), 0.0)
        n_cells = rx * ry * (hi - lo)
        reliable = bundle[k].n_rows >= MIN_ROWS_PER_CELL * n_cells and dof > 0
        p_value = chi_square_upper_tail(stat, dof) if dof > 0 else 1.0
        results.append(CiResult(stat, dof, p_value, bool(reliable and p_value > alpha), reliable))
    return results


def g2_test(
    data: Dataset,
    x: str,
    y: str,
    z: Iterable[str] = (),
    alpha: float = 0.01,
) -> CiResult:
    """G-squared conditional independence test of x and y given z.

    The test is flagged unreliable when the dataset is too small for the
    full contingency table (fewer than :data:`MIN_ROWS_PER_CELL` rows per cell)
    or when the degrees of freedom degenerate to zero. Unreliable tests
    report dependence, which keeps doubtful variables in candidate sets.

    The test is always computed in one canonical order (the smaller of x
    and y first, z sorted), so the caller's order of x and y, and of z,
    does not change the result in any bit. The reliability rule is decided
    from the cardinalities before counting, and counting never allocates
    more than ``rx * ry * n_rows`` cells, however large z is. No ledger
    counts the call; :class:`DataBackend` answers the same and counts it.
    """
    x, y, zs = _canonical(x, y, z)
    return _g2(data, x, y, zs, alpha)


class CiBackend(Protocol):
    """What the discovery algorithms need from a test provider. A backend
    may add a bulk separator search; see :func:`first_separation`."""

    variables: tuple[str, ...]
    ledger: TestLedger

    @property
    def n_datasets(self) -> int: ...

    def test(self, x: str, y: str, z: Iterable[str], dataset_index: int) -> CiResult: ...


class SeparatorSearch:
    """A separator search of MIPC or HITON as a value.

    The search asks about every subset of ``pool`` (distinct names) with 1
    to ``max_size`` members, smallest first, positions lexicographic (the
    order of :func:`~mimb.util.iter_subsets`); with ``containing`` set,
    only the subsets that hold it, which must be the pool's last member.
    Each subset is asked in the datasets of ``x_mask`` ANDed with the masks
    of its members, ``masks`` holding one per pool member (bit k is dataset
    k): those whose candidate blanket holds x and every member.

    Iterated, the search yields ``(names, datasets)`` pairs in that order,
    ``datasets`` ascending, as :func:`first_separation` reads any
    candidates. :meth:`levels` gives the same subsets in index space, one
    flat list per size, for a backend that need not look up names per
    subset; :meth:`names_of` recovers a subset's names.
    """

    __slots__ = ("pool", "max_size", "containing", "x_mask", "masks")

    def __init__(
        self,
        pool: Sequence[str],
        max_size: int,
        x_mask: int,
        masks: Iterable[int],
        containing: str | None = None,
    ):
        self.pool = tuple(pool)
        self.max_size = max_size
        self.containing = containing
        self.x_mask = x_mask
        self.masks = tuple(masks)
        if len(self.masks) != len(self.pool):
            raise ValueError("a search needs one holding mask per pool member")
        if len(set(self.pool)) != len(self.pool):
            raise ValueError("the members of a pool must be distinct")
        if min(self.masks, default=x_mask) < 0 or x_mask < 0:
            raise ValueError("holding masks must be nonnegative")
        if containing is not None:
            # iter_subsets checks where the member stands before it yields
            next(iter_subsets(self.pool, 0, containing), None)

    def levels(self, bits: Sequence[int]) -> Iterator[list[tuple[int, int, int]]]:
        """The subsets in search order, one list per size, smallest first.

        A subset is ``(zmask, dataset mask, last)``: the OR of ``bits``
        (one distinct bit per pool member) over its members, the dataset
        mask as the class describes it, and the pool position of its last
        member that is not ``containing``, -1 if none. Each size is built
        from the one before by extending every subset with each position
        after its ``last``, which keeps the order of
        :func:`~mimb.util.iter_subsets`; ``containing`` is in every subset
        from the start. A size is built only when the one before has been
        read."""
        cols = list(zip(range(len(bits)), bits, self.masks))
        if self.containing is None:
            level, sizes = [(0, self.x_mask, -1)], self.max_size
        else:
            _, bit, mask = cols.pop()
            level, sizes = [(bit, self.x_mask & mask, -1)], self.max_size - 1
            if sizes < 0:
                return
            yield level
        after = [cols[i:] for i in range(len(cols) + 1)]  # after[j]: positions j, j + 1, ...
        for _ in range(sizes):
            level = [(z | b, d & mask, j) for z, d, last in level for j, b, mask in after[last + 1]]
            if not level:
                return
            yield level

    def names_of(self, zmask: int, bits: Sequence[int]) -> tuple[str, ...]:
        """The member names, in pool order, of the subset whose zmask is
        ``zmask`` under the member bits ``bits``."""
        return tuple(v for v, b in zip(self.pool, bits) if zmask & b)

    def __iter__(self) -> Iterator[tuple[tuple[str, ...], tuple[int, ...]]]:
        mask_of = dict(zip(self.pool, self.masks))
        x_mask = self.x_mask
        indices: dict[int, tuple[int, ...]] = {}
        for subset in iter_subsets(self.pool, self.max_size, self.containing):
            d = x_mask
            for u in subset:
                d &= mask_of[u]
            datasets = indices.get(d)
            if datasets is None:
                datasets = indices[d] = tuple(iter_bits(d))
            yield subset, datasets


def first_separation(
    backend: CiBackend,
    x: str,
    y: str,
    candidates: Iterable[tuple[tuple[str, ...], Iterable[int]]],
) -> tuple[tuple[str, ...], int] | None:
    """The first ``(z, dataset_index)`` of a search at which x and y test
    independent given z, or None when no test does.

    ``candidates`` yields ``(z, datasets)`` in search order, lazily if the
    caller likes; the discovery algorithms pass a :class:`SeparatorSearch`,
    which a bulk method may also read in index space. The test of x and y
    given z is asked in each of the datasets in turn. A backend whose class
    has a ``first_separation(x, y, candidates)`` method answers the whole
    search in one call; it must ask exactly the queries of the loop below,
    in the same order, with the same ledger counts, memo and errors. It may
    read candidates past the separation to compute them ahead, as
    :class:`DataBackend` and :class:`OracleBackend` do, but never to count,
    memoise or raise. Any
    other backend is asked query by query through ``test``, and that loop,
    which reads no candidate past the separation, is the definition the
    bulk methods are checked against. So is a backend whose class overrides
    ``test`` below the class that supplies the bulk method: the inherited
    method would bypass its ``test``.
    """
    for cls in type(backend).__mro__:
        if "first_separation" in vars(cls):
            return backend.first_separation(x, y, candidates)
        if "test" in vars(cls):
            break
    for z, datasets in candidates:
        for k in datasets:
            if backend.test(x, y, z, k).independent:
                return z, k
    return None


class DataBackend:
    """G-squared tests over the datasets of a bundle.

    Answers are memoised per backend under the canonical key (x < y, z
    sorted, dataset), so a repeated query in either orientation is answered
    from the memo with the result :func:`g2_test` would give. Every query
    that is answered is recorded in the ledger, so nTest counts repeats
    too; ``ledger.hits`` says how many were answered from the memo. A query
    that raises (an unknown name, say) is not counted.
    """

    def __init__(self, bundle: DatasetBundle, alpha: float = 0.01):
        self.bundle = bundle
        self.alpha = alpha
        self.variables = bundle.schema.names
        self.ledger = TestLedger(len(bundle))
        self._memo: dict[tuple[str, str, tuple[str, ...], int], CiResult] = {}
        self._cards = dict(zip(bundle.schema.names, bundle.schema.cardinalities))
        self._sizes = [data.n_rows for data in bundle]

    @property
    def n_datasets(self) -> int:
        return len(self.bundle)

    def test(self, x: str, y: str, z: Iterable[str], dataset_index: int) -> CiResult:
        x, y, zs = _canonical(x, y, z)
        data = _dataset(self.bundle, dataset_index)
        key = (x, y, zs, dataset_index)
        res = self._memo.get(key)
        if res is None:
            res = self._memo[key] = _g2(data, x, y, zs, self.alpha)
        else:
            self.ledger.hits[dataset_index] += 1
        self.ledger.counts[dataset_index] += 1
        return res

    def first_separation(
        self,
        x: str,
        y: str,
        candidates: Iterable[tuple[tuple[str, ...], Iterable[int]]],
    ) -> tuple[tuple[str, ...], int] | None:
        """:func:`first_separation` in one call; :meth:`test` is the
        single-query path.

        The queries are walked in search order and a memo hit is answered
        from the memo. A miss is computed together with the next misses of
        the search, read ahead, in one :func:`_g2_batch` (see
        :meth:`_read_ahead`); a miss whose z has more configurations than
        its dataset has rows is left to :func:`_g2`. Only walked queries
        are counted and memoised, and results read past the separation are
        dropped, so the answer, the ledger, the memo and every error are
        those of the query-by-query loop.
        """
        memo, counts, hits = self._memo, self.ledger.counts, self.ledger.hits
        queries = self._queries(x, y, candidates)
        ahead: deque = deque()  # queries read ahead, and what stopped them
        computed: dict = {}  # results of read-ahead misses not walked yet
        size = _FIRST_BATCH
        while True:
            if ahead:
                query = ahead.popleft()
                if isinstance(query, Exception):
                    raise query
            else:
                query = next(queries, None)
                if query is None:
                    return None
            z, key = query
            k = key[3]
            res = memo.get(key)
            if res is not None:
                hits[k] += 1
            else:
                res = computed.pop(key, None)
                if res is None:
                    batch = self._read_ahead(key, queries, ahead, computed, size)
                    if len(batch) > 1:
                        computed.update(zip(batch, _g2_batch(self.bundle, batch, self.alpha)))
                        res = computed.pop(key)
                        size = min(2 * size, _MAX_BATCH)
                    else:
                        res = _g2(self.bundle[k], *key[:3], self.alpha)
                memo[key] = res
            counts[k] += 1
            if res.independent:
                return z, k

    def _queries(self, x: str, y: str, candidates):
        """Each query of a search as ``(z, key)``, ``key`` being its memo
        key, checked as :meth:`test` checks it: the canonical form first,
        then the dataset index, then the names. So the generator raises at
        the query that :meth:`test` would raise at."""
        bundle, cards = self.bundle, self._cards
        n = len(bundle)
        for z, datasets in candidates:
            names = None
            for k in datasets:
                if names is None:
                    names = _canonical(x, y, z)
                    unchecked = True
                if not 0 <= k < n:
                    _dataset(bundle, k)  # raises
                if unchecked:
                    for v in (names[0], names[1], *names[2]):
                        if v not in cards:
                            bundle.schema.index(v)  # raises
                    unchecked = False
                yield z, (*names, k)

    def _read_ahead(self, key, queries, ahead, computed, size) -> list:
        """The batch of a miss: ``key`` and the next misses of the search,
        up to ``size`` keys in all; ``key`` alone when its z has more
        configurations than its dataset has rows.

        Queries read from ``queries`` are appended to ``ahead``, and a
        query that raises stops the reading and is kept there as its
        error, to be raised when the walk gets to it. A repeat is left out,
        and so is a miss whose z has more configurations than its dataset
        has rows. The batch ends before a test that would give the table
        more cells than the batch has rows, so the table is never larger
        than the keys.
        """
        memo, cards, sizes = self._memo, self._cards, self._sizes
        x, y, zs, k = key
        pair = cards[x] * cards[y]
        n_cells, n_rows = pair, sizes[k]
        for v in zs:
            n_cells *= cards[v]
        batch = {key: None}
        if n_cells > pair * n_rows:
            return list(batch)
        while len(batch) < size:
            try:
                query = next(queries)
            except StopIteration:
                break
            except Exception as exc:
                ahead.append(exc)
                break
            ahead.append(query)
            key = query[1]
            if key in memo or key in computed or key in batch:
                continue
            cells, rows = pair, sizes[key[3]]
            for v in key[2]:
                cells *= cards[v]
            if cells > pair * rows:
                continue
            n_cells += cells
            n_rows += rows
            if n_cells > n_rows:
                break
            batch[key] = None
        return list(batch)


def _dataset(items: Sequence, dataset_index: int):
    """``items[dataset_index]`` for an index in 0..n-1; any other index,
    negative ones included, raises ``ValueError``."""
    if not 0 <= dataset_index < len(items):
        raise ValueError(f"dataset index {dataset_index} is outside 0..{len(items) - 1}")
    return items[dataset_index]


# The two answers of the oracle: p-values are 1 or 0 by convention.
_SEPARATED = CiResult(statistic=0.0, dof=0, p_value=1.0, independent=True, reliable=True)
_CONNECTED = CiResult(statistic=math.inf, dof=0, p_value=0.0, independent=False, reliable=True)


def _lane_masks(table: list[int], n_lanes: int) -> list[int]:
    """A lane table turned around: per lane j, the mask of the nodes v
    whose ``table[v]`` has bit j set (``table`` holds one lane mask per
    node, each below ``1 << n_lanes``).

    The table is unpacked into one bit matrix, turned, padded to whole
    64-node words and packed again; a lane's mask is its words joined, so
    any node count works."""
    n = len(table)
    width = (n_lanes + 7) // 8
    raw = np.frombuffer(b"".join(t.to_bytes(width, "little") for t in table), np.uint8)
    bits = np.unpackbits(raw.reshape(n, width), axis=1, count=n_lanes, bitorder="little")
    n_words = -(-n // 64)
    turned = np.zeros((n_lanes, 64 * n_words), np.uint8)
    turned[:, :n] = bits.T
    words = np.packbits(turned, axis=1, bitorder="little").view("<u8")
    masks = words[:, 0].tolist()
    for w in range(1, n_words):
        masks = [m | high << 64 * w for m, high in zip(masks, words[:, w].tolist())]
    return masks


class _Bits(dict):
    """The set bits of each int key, ascending, computed on first use."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bits = self[mask] = tuple(iter_bits(mask))
        return bits


class OracleBackend:
    """Ideal tests answered by d-separation on post-intervention graphs.

    Dataset i is represented by the graph after the i-th experiment's
    manipulations. Results are always reliable; p-values are 1 or 0 by
    convention.

    One Bayes-ball sweep from y answers every x for the same (y, z,
    dataset), and the discovery algorithms ask about one target y at a
    time while x varies. So the sweeps for the current y are memoised and
    the memo is dropped when a query names another y. The memo keeps one
    row per z, two ints ``[swept, reach]``: bit k of ``swept`` is set once
    dataset k's sweep has been walked, and ``reach`` holds that sweep's
    node mask (:meth:`Dag._connected_mask`) at bits ``k * N`` to
    ``k * N + N - 1``, N being the node count. Every query is validated
    first and counted like :class:`DataBackend`'s: ``ledger.hits`` counts
    those answered from the memo, and a query that raises is not counted.
    """

    def __init__(self, dag: Dag, family: InterventionFamily):
        family.validate_names(dag.variables)
        self.dag = dag
        self.family = family
        self.post_dags = tuple(dag.apply_intervention(s) for s in family.sets)
        self.variables = dag.variables
        self.ledger = TestLedger(len(self.post_dags))
        self._memo_y = -1
        self._memo: dict[int, list[int]] = {}
        self._datasets = _Bits()  # dataset mask -> its datasets, ascending
        # each manipulated node with the experiments that manipulate it
        manipulated: dict[int, list[int]] = {}
        for k, targets in enumerate(family.sets):
            for t in targets:
                manipulated.setdefault(dag.index(t), []).append(k)
        self._cuts = tuple(manipulated.items())

    @property
    def n_datasets(self) -> int:
        return len(self.post_dags)

    def test(self, x: str, y: str, z: Iterable[str], dataset_index: int) -> CiResult:
        found = self.first_separation(x, y, ((z, (dataset_index,)),))
        return _CONNECTED if found is None else _SEPARATED

    def first_separation(
        self,
        x: str,
        y: str,
        candidates: Iterable[tuple[tuple[str, ...], Iterable[int]]],
    ) -> tuple[tuple[str, ...], int] | None:
        """:func:`first_separation` in one call; :meth:`test` is a search
        of one query.

        A :class:`SeparatorSearch` whose names and holding masks are all
        valid is walked in index space and its misses are swept in batches
        of lanes (see :meth:`_walk`). Any other search, or one that would
        raise at some query, is walked query by query: each z is validated
        and its memo row looked up once, before its first dataset is asked,
        and each dataset index is checked in turn, so an error comes at the
        query the query-by-query loop would raise it at, and a query that
        raises leaves the memo and the ledger as they were.
        """
        if isinstance(candidates, SeparatorSearch):
            resolved = self._resolve(x, y, candidates)
            if resolved is not None:
                return self._walk(*resolved, candidates)
        post_dags = self.post_dags
        counts, hits = self.ledger.counts, self.ledger.hits
        n, n_nodes = len(post_dags), len(self.variables)
        for z, datasets in candidates:
            row = None
            for k in datasets:
                if not 0 <= k < n:
                    _dataset(post_dags, k)  # raises
                if row is None:
                    xi, yi, zmask = self.dag._query(x, y, z)
                    memo = self._memo_of(yi)
                    row = memo.get(zmask)
                    if row is None:
                        row = memo[zmask] = [0, 0]
                if row[0] >> k & 1:
                    hits[k] += 1
                else:
                    row[1] |= post_dags[k]._connected_mask(yi, zmask) << k * n_nodes
                    row[0] |= 1 << k
                counts[k] += 1
                if not row[1] >> k * n_nodes + xi & 1:
                    return z, k
        return None

    def _memo_of(self, yi: int) -> dict[int, list[int]]:
        """The memo, emptied first if it holds the sweeps of another y."""
        if yi != self._memo_y:
            self._memo.clear()
            self._memo_y = yi
        return self._memo

    def _resolve(self, x: str, y: str, search: SeparatorSearch):
        """x's and y's indices and each pool member's node bit, or None
        when some query of the search would raise: an unknown name, x equal
        to y, x or y in the pool, or a dataset index outside the family."""
        index = self.dag._index
        xi, yi = index.get(x), index.get(y)
        bits = [1 << i if (i := index.get(v)) is not None else 0 for v in search.pool]
        if xi is None or yi is None or xi == yi or not all(bits):
            return None
        if search.x_mask >> len(self.post_dags) or any(b >> xi & 1 or b >> yi & 1 for b in bits):
            return None
        return xi, yi, bits

    def _walk(self, xi: int, yi: int, bits: list[int], search: SeparatorSearch):
        """The query loop of :meth:`first_separation` over a valid search,
        in index space: each subset comes as its zmask and dataset mask
        from :meth:`SeparatorSearch.levels`, and the names are recovered
        only for the subset that separates.

        A subset whose datasets are all swept in its memo row is decided
        at once: ``sel`` holds bit ``k * N + xi`` of each of its datasets
        k, and the lowest bit of ``sel & ~reach`` is the first dataset
        that separates, if any. Its queries are tallied per dataset mask,
        up to that dataset, and the tally goes into the ledger when the
        search ends. Any other subset is walked dataset by dataset; a memo
        miss is swept together with the next misses of the search, read
        ahead, as the lanes of one :meth:`Dag._lane_sweep` (see
        :meth:`_sweep_ahead`). Only walked queries are counted and
        memoised, and lanes read past the separation are dropped, so the
        answer, the ledger and the memo are those of the query loop.
        """
        n, n_nodes = len(self.post_dags), len(self.variables)
        counts, hits = self.ledger.counts, self.ledger.hits
        datasets_of = self._datasets
        subsets = chain.from_iterable(search.levels(bits))
        for item in subsets:
            if item[1]:
                break
        else:
            return None  # no query, so the memo is kept even for another y
        memo = self._memo_of(yi)
        computed: dict = {}  # zmask * n + k -> the node mask swept ahead
        # dataset mask -> [bit k * N + xi per dataset k, subsets decided at once]
        tally: dict[int, list[int]] = {}
        walk = iter([item])  # the subsets to walk next, read-ahead ones first
        try:
            while True:
                ahead = None  # once a sweep reads ahead: what to walk after this subset
                for zmask, dmask, _ in walk:
                    row = memo.get(zmask)
                    if row is not None and row[0] & dmask == dmask:
                        entry = tally.get(dmask)
                        if entry is None:
                            sel = sum(1 << k * n_nodes + xi for k in datasets_of[dmask])
                            entry = tally[dmask] = [sel, 0]
                        sel = entry[0]
                        if row[1] & sel == sel:
                            entry[1] += 1
                            continue
                        cut = sel & ~row[1]
                        k = ((cut & -cut).bit_length() - 1) // n_nodes
                        tally.setdefault(dmask & (2 << k) - 1, [0, 0])[1] += 1
                        return search.names_of(zmask, bits), k
                    if not dmask:
                        continue
                    if row is None:
                        row = memo[zmask] = [0, 0]
                    for k in datasets_of[dmask]:
                        if row[0] >> k & 1:
                            hits[k] += 1
                        else:
                            reached = computed.pop(zmask * n + k, None)
                            if reached is None:
                                if ahead is None:
                                    ahead = [] if walk is subsets else list(walk)
                                first = (zmask, dmask >> k << k, row)
                                reached = self._sweep_ahead(yi, first, subsets, ahead, computed)
                            row[1] |= reached << k * n_nodes
                            row[0] |= 1 << k
                        counts[k] += 1
                        if not row[1] >> k * n_nodes + xi & 1:
                            return search.names_of(zmask, bits), k
                    if ahead is not None:
                        walk = iter(ahead)
                        break
                else:
                    if walk is subsets:
                        return None
                    walk = subsets
        finally:
            for dmask, (_, times) in tally.items():
                for k in datasets_of[dmask]:
                    counts[k] += times
                    hits[k] += times

    def _sweep_ahead(self, yi, first, subsets, ahead, computed):
        """The node mask of a miss, swept as lane 0 of one lane sweep with
        the next misses of the search: up to :data:`_LANES` lanes, from up
        to :data:`_LANES` subsets read ahead, so neither the batch nor what
        is read ahead grows with the search. A batch of one is one
        :meth:`Dag._connected_mask` sweep.

        ``first`` is ``(zmask, dataset mask, memo row)`` of the miss's
        subset, its mask holding the miss's dataset and those after it.
        Subsets read from ``subsets`` are appended to ``ahead``. A miss is
        a query whose dataset is neither swept in its memo row nor in
        ``computed``; a repeat is left out. The node masks of the other
        lanes go into ``computed``.
        """
        memo, n, datasets_of = self._memo, len(self.post_dags), self._datasets
        in_dataset = [0] * n  # per dataset, its lanes
        with_z = []  # (zmask, its lanes)
        keys = []  # per lane, its key in computed
        zmask, dmask, row = first
        while True:
            swept = 0 if row is None else row[0]
            if swept & dmask != dmask:
                group = 0
                for k in datasets_of[dmask]:
                    key = zmask * n + k
                    if not swept >> k & 1 and key not in computed:
                        bit = 1 << len(keys)
                        computed[key] = None  # a lane, until swept
                        keys.append(key)
                        in_dataset[k] |= bit
                        group |= bit
                        if len(keys) == _LANES:
                            break
                if group:
                    with_z.append((zmask, group))
                if len(keys) == _LANES:
                    break
            if len(ahead) == _LANES:
                break
            item = next(subsets, None)
            if item is None:
                break
            ahead.append(item)
            zmask, dmask, _ = item
            row = memo.get(zmask)

        if len(keys) == 1:
            del computed[keys[0]]
            zmask, dmask, _ = first
            k = (dmask & -dmask).bit_length() - 1
            return self.post_dags[k]._connected_mask(yi, zmask)
        every = (1 << len(keys)) - 1
        n_nodes = len(self.variables)
        z_lanes = [0] * n_nodes
        for zmask, group in with_z:
            for v in iter_bits(zmask):
                z_lanes[v] |= group
        gates = [every] * n_nodes
        for v, datasets in self._cuts:
            for k in datasets:
                gates[v] &= ~in_dataset[k]
        table = self.dag._lane_sweep(yi, z_lanes, gates, every)
        computed.update(zip(keys, _lane_masks(table, len(keys))))
        return computed.pop(keys[0])
