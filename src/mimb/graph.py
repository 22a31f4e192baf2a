"""DAGs over named variables: d-separation, Markov blankets, interventions.

Graphs are immutable value objects. The public API speaks variable names;
internally each variable gets a dense integer index in declaration order so
the traversal loops stay cheap. All queries are read-only and intervention
surgery returns a new graph, so instances can be shared freely across
threads.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .util import iter_bits


class Dag:
    """Immutable directed acyclic graph over named variables.

    Construction validates that every edge endpoint is a declared variable,
    that there are no self-loops or duplicate edges, and that a topological
    order exists. The builders whose output is a DAG by construction
    (``random_dag``, :meth:`apply_intervention`) go through
    :meth:`_from_masks` and skip those checks.
    """

    __slots__ = (
        "variables", "edges", "_index", "_pa", "_ch", "_topo", "_hash", "_tables", "_lists",
    )

    def __init__(self, variables: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        self.variables: tuple[str, ...] = tuple(variables)
        self._index = {v: i for i, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise ValueError("duplicate variable names")
        # parents and children of each variable as bitmasks (bit i is
        # variable i)
        pa = [0] * len(self.variables)
        ch = [0] * len(self.variables)
        pairs = []
        for a, b in edges:
            ia, ib = self._resolve(a), self._resolve(b)
            if ia == ib:
                raise ValueError(f"self edge on {a!r}")
            if pa[ib] >> ia & 1:
                raise ValueError(f"duplicate edge {a!r} -> {b!r}")
            pa[ib] |= 1 << ia
            ch[ia] |= 1 << ib
            pairs.append((self.variables[ia], self.variables[ib]))
        self._pa = tuple(pa)
        self._ch = tuple(ch)
        self.edges: frozenset[tuple[str, str]] = frozenset(pairs)
        self._topo: tuple[int, ...] | None = self._toposort()  # raises on a cycle
        self._hash: int | None = None
        self._tables: tuple[tuple[list[int], list[int]], ...] | None = None
        self._lists: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None = None

    @classmethod
    def _from_masks(
        cls,
        variables: tuple[str, ...],
        index: dict[str, int],
        pa: tuple[int, ...],
        ch: tuple[int, ...],
        edges: frozenset[tuple[str, str]],
    ) -> "Dag":
        """A graph from parent and child masks that are acyclic and agree
        with each other and with ``edges`` by construction; nothing is
        checked. ``index`` is shared, never copied. The topological order
        is computed on the first :meth:`topological_order` call.
        """
        dag = object.__new__(cls)
        dag.variables, dag._index, dag._pa, dag._ch, dag.edges = variables, index, pa, ch, edges
        dag._topo = dag._hash = dag._tables = dag._lists = None
        return dag

    def _resolve(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def _toposort(self) -> tuple[int, ...]:
        # children are visited in index order, so the order is a pure
        # function of the graph; forward_sample draws in this order
        indeg = [p.bit_count() for p in self._pa]
        queue = deque(i for i, d in enumerate(indeg) if d == 0)
        order: list[int] = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for c in iter_bits(self._ch[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self.variables):
            raise ValueError("edge relation contains a cycle")
        return tuple(order)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dag):
            return NotImplemented
        return self.variables == other.variables and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Dag({len(self.variables)} variables, {len(self.edges)} edges)"

    def __contains__(self, name: str) -> bool:
        return name in self._index

    # -- accessors ---------------------------------------------------------

    def index(self, name: str) -> int:
        """Dense index of a variable in declaration order."""
        return self._resolve(name)

    def _names(self, mask: int) -> frozenset[str]:
        # iter_bits inlined: the fuzzer names about a dozen masks per instance
        variables, names = self.variables, []
        while mask:
            low = mask & -mask
            names.append(variables[low.bit_length() - 1])
            mask ^= low
        return frozenset(names)

    def parents(self, v: str) -> frozenset[str]:
        return self._names(self._pa[self._resolve(v)])

    def children(self, v: str) -> frozenset[str]:
        return self._names(self._ch[self._resolve(v)])

    def spouses(self, v: str) -> frozenset[str]:
        """Parents of v's children that are neither v nor adjacent to v."""
        vi = self._resolve(v)
        out = 0
        for c in iter_bits(self._ch[vi]):
            out |= self._pa[c]
        return self._names(out & ~(1 << vi | self._pa[vi] | self._ch[vi]))

    def markov_blanket(self, v: str) -> frozenset[str]:
        """Parents, children and spouses of v."""
        return self.parents(v) | self.children(v) | self.spouses(v)

    def topological_order(self) -> tuple[str, ...]:
        if self._topo is None:
            self._topo = self._toposort()
        return tuple(self.variables[i] for i in self._topo)

    # -- surgery -----------------------------------------------------------

    def apply_intervention(self, targets: Iterable[str]) -> "Dag":
        """Post-intervention graph: every edge into a target is removed.

        Variables and all other edges are unchanged; self is not modified.
        """
        cut = 0
        for t in targets:
            cut |= 1 << self._resolve(t)
        index = self._index
        return Dag._from_masks(
            self.variables,
            index,
            tuple(0 if cut >> i & 1 else p for i, p in enumerate(self._pa)),
            tuple(c & ~cut for c in self._ch),
            frozenset(e for e in self.edges if not cut >> index[e[1]] & 1),
        )

    # -- d-separation ------------------------------------------------------

    def d_separated(self, x: str, y: str, z: Iterable[str] = ()) -> bool:
        """True iff every path between x and y is blocked given z.

        A path is blocked when some non-collider on it is conditioned on, or
        some collider on it has neither itself nor any descendant conditioned
        on. Decided with a linear-time reachability sweep over (node,
        direction) states rather than path enumeration.
        """
        xi, yi, zmask = self._query(x, y, z)
        return not self._connected_mask(yi, zmask) >> xi & 1

    def _query(self, x: str, y: str, z: Iterable[str]) -> tuple[int, int, int]:
        """The indices of x and y and the bitmask of z, checked as
        :meth:`d_separated` requires: known names, x != y, neither of them
        in z. A name may repeat in z."""
        index = self._index
        try:
            xi, yi = index[x], index[y]
            zmask = 0
            for v in z:
                zmask |= 1 << index[v]
        except KeyError as exc:
            raise ValueError(f"unknown variable {exc.args[0]!r}") from None
        if xi == yi:
            raise ValueError(f"x and y must differ, both are {x!r}")
        if zmask >> xi & 1 or zmask >> yi & 1:
            raise ValueError("x and y must not be in the conditioning set")
        return xi, yi, zmask

    def _sweep_tables(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Per 8-node chunk, the OR of the parent masks and the OR of the
        child masks of the chunk's nodes in each subset, indexed by the
        chunk's byte of a node mask.

        Built on a graph's first sweep and kept, not in ``__init__``: most
        graphs are never swept, and the tables take 2 x 256 entries per
        chunk. ``==`` and ``hash`` ignore them.
        """
        pa, ch = self._pa, self._ch
        tables = []
        for base in range(0, len(pa), 8):
            pa_or, ch_or = [0], [0]
            # each node doubles the table: the subsets that hold it are
            # those that do not, each ORed with the node's masks
            for p, c in zip(pa[base : base + 8], ch[base : base + 8]):
                pa_or += [m | p for m in pa_or]
                ch_or += [m | c for m in ch_or]
            tables.append((pa_or, ch_or))
        self._tables = tuple(tables)
        return self._tables

    def _connected_mask(self, yi: int, zmask: int) -> int:
        """Bitmask of every node the ball sent from yi reaches given the
        nodes in zmask (Shachter's Bayes-ball).

        A node that is neither yi nor in zmask is in the mask iff it is
        d-connected to yi given z, so one sweep answers every x. States are
        (node, came_from_child), the source entered as if from below; the
        sweep advances whole layers of states as bitmasks, one table lookup
        per 8-node chunk of a layer, and never stops early.
        """
        tables = self._tables or self._sweep_tables()
        open_ = ~zmask
        up_seen = down_seen = 0
        up, down = 1 << yi, 0  # states entered from a child / from a parent
        while up or down:
            up_seen |= up
            down_seen |= down
            # entered from a child and not conditioned on: the ball goes on
            # to the parents and the children; entered from a parent: on to
            # the children unless conditioned on, back to the parents if
            # conditioned on. A collider with a conditioned descendant needs
            # no rule of its own: the ball passes down to that descendant,
            # bounces, and climbs back up through the collider.
            to_parents = (up & open_) | (down & zmask)
            to_children = (up | down) & open_
            up = down = 0
            for pa_or, ch_or in tables:
                if not (to_parents or to_children):
                    break
                up |= pa_or[to_parents & 255]
                down |= ch_or[to_children & 255]
                to_parents >>= 8
                to_children >>= 8
            up &= ~up_seen
            down &= ~down_seen
        return up_seen | down_seen

    def _adjacency_lists(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """The parents and the children of each node as index tuples.

        Built on a graph's first lane sweep and kept, like the sweep
        tables; ``==`` and ``hash`` ignore them.
        """
        self._lists = (
            tuple(tuple(iter_bits(m)) for m in self._pa),
            tuple(tuple(iter_bits(m)) for m in self._ch),
        )
        return self._lists

    def _lane_sweep(self, yi: int, z_lanes: list[int], gates: list[int], lanes: int) -> list[int]:
        """Bayes-ball from yi in many lanes at once, each lane its own
        conditioning set and its own experiment; per node, the lanes whose
        ball reaches it.

        Lane j of ``z_lanes[v]`` is set iff lane j conditions on node v;
        lane j of ``gates[v]`` is set iff the edges into v are kept in lane
        j's experiment, so a lane sweeps the graph after its experiment's
        surgery. ``lanes`` has every lane's bit. Per lane, the node mask of
        the result is :meth:`_connected_mask` of that lane's
        post-intervention graph, yi and conditioning set: the same moves as
        there, with each node's two states (entered from a child, from a
        parent) held as lane masks and advanced along the adjacency lists
        from a worklist of nodes with new balls.
        """
        parents, children = self._lists or self._adjacency_lists()
        n = len(parents)
        up = [0] * n  # lanes whose ball entered the node from a child
        down = [0] * n  # ... from a parent
        new_up = [0] * n  # of those, the ones not moved on yet
        new_down = [0] * n
        up[yi] = new_up[yi] = lanes
        work = deque([yi])
        while work:
            v = work.popleft()
            u, d, z = new_up[v], new_down[v], z_lanes[v]
            new_up[v] = new_down[v] = 0
            # the moves of _connected_mask; a cut node has no parents
            to_parents = (u & ~z | d & z) & gates[v]
            to_children = (u | d) & ~z
            if to_parents:
                for p in parents[v]:
                    fresh = to_parents & ~up[p]
                    if fresh:
                        up[p] |= fresh
                        if not (new_up[p] or new_down[p]):
                            work.append(p)
                        new_up[p] |= fresh
            if to_children:
                for c in children[v]:
                    fresh = to_children & gates[c] & ~down[c]
                    if fresh:
                        down[c] |= fresh
                        if not (new_up[c] or new_down[c]):
                            work.append(c)
                        new_down[c] |= fresh
        return [a | b for a, b in zip(up, down)]


class InterventionFamily:
    """The per-experiment sets of manipulated variables."""

    __slots__ = ("sets",)

    def __init__(self, sets: Iterable[Iterable[str]]):
        self.sets: tuple[frozenset[str], ...] = tuple(frozenset(s) for s in sets)
        if not self.sets:
            raise ValueError("an intervention family needs at least one experiment")

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.sets)

    def __getitem__(self, i: int) -> frozenset[str]:
        return self.sets[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterventionFamily):
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self) -> int:
        return hash(self.sets)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(sorted(s)) + "}" for s in self.sets)
        return f"InterventionFamily([{inner}])"

    def union_of_targets(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.sets:
            out |= s
        return frozenset(out)

    def zeta(self, t: str) -> int:
        """Number of experiments in which t was manipulated."""
        return sum(1 for s in self.sets if t in s)

    def without(self, t: str) -> "InterventionFamily":
        """The family with t removed from every experiment."""
        return InterventionFamily(s - {t} for s in self.sets)

    def validate_names(self, valid: Iterable[str]) -> None:
        known = set(valid)
        for i, s in enumerate(self.sets):
            unknown = s - known
            if unknown:
                raise ValueError(
                    f"experiment {i} manipulates unknown variables {sorted(unknown)}"
                )


def is_conservative(family: InterventionFamily) -> bool:
    """Every manipulated variable must be left alone in some experiment."""
    for v in family.union_of_targets():
        if all(v in s for s in family.sets):
            return False
    return True
