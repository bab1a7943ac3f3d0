"""Combinatorial dynamics: finite single-map systems and directed graphs.

A map T on a finite set is a functional graph, so its periodic loci
(literal fixed-point sets of iterates; every subset of a finite discrete
space is open) are read off its cycles: T^p fixes x exactly when x lies
on a cycle whose length divides p.  The non-effective locus of the
associated semidirect-product dynamics is computed twice, from two
independent characterizations: forward orbits meeting the periodic
locus, and eventual periodicity.  On a finite space both sides are
everything whenever the space is nonempty; the content of the
computation is the agreement of the two sides, and reports say so.

For directed graphs (row-finite, no sinks in v1) the lattice of
saturated hereditary vertex sets plays the role of the invariant-set
lattice, and the obstruction vertex set is the least saturated
hereditary set swallowing every cycle without an exit; it vanishes
exactly when every cycle has an exit.  The cycles of a map and the
exit-less cycles of a graph are found by one shared walk (``_cycles``).

Inside ``DirectedGraph`` a vertex set is an ``int`` bitmask (bit i is
``vertices[i]``); the public methods take and return frozensets.  The
hereditary closure of a set is the union of its vertices' forward-reach
masks, and saturating a hereditary mask (adding every vertex whose
out-neighbours all lie in it) keeps it hereditary, so each saturated
hereditary closure is one table lookup per member and one saturation
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError

LATTICE_CAP = 1 << 20
CYCLE_CAP = 100_000


class DynamicsError(ValueError):
    pass


class UnsupportedGraphError(DynamicsError):
    """Graph shape outside the supported fragment (e.g. a sink)."""


def _cycles(successor: dict) -> list:
    """The cycles of a partial map, each once, as a tuple of its points in
    the order the map visits them.

    Each unvisited point is followed until the walk leaves the map's
    domain or meets a visited point; when that point is on the current
    walk, the walk has closed a cycle.
    """
    visited = set()
    out = []
    for start in successor:
        walk = {}                         # point -> position on this walk
        x = start
        while x in successor and x not in visited:
            visited.add(x)
            walk[x] = len(walk)
            x = successor[x]
        if x in walk:
            out.append(tuple(walk)[walk[x]:])
    return out


# -- finite dynamical systems ---------------------------------------------------


class FiniteDynSystem:
    """A total map T on a finite set."""

    def __init__(self, space, mapping):
        self.space = tuple(space)
        self._space_set = frozenset(self.space)
        if len(self._space_set) != len(self.space):
            raise DynamicsError("duplicate points in space")
        self.mapping = dict(mapping)
        for x in self.space:
            if x not in self.mapping:
                raise DynamicsError(f"map undefined at {x!r}")
            if self.mapping[x] not in self._space_set:
                raise DynamicsError(f"map leaves the space at {x!r}")
        extra = set(self.mapping) - self._space_set
        if extra:
            raise DynamicsError(f"map defined off the space: {sorted(map(repr, extra))}")
        self._cycles = tuple(_cycles(self.mapping))

    def __len__(self):
        return len(self.space)

    def periodic_locus(self, p: int) -> frozenset:
        """Points fixed by the p-th iterate (p >= 1): the points of the
        cycles whose length divides p."""
        if p < 1:
            raise DynamicsError("period must be at least 1")
        return frozenset(x for c in self._cycles if p % len(c) == 0 for x in c)

    def periodic_points(self) -> frozenset:
        """Union of all periodic loci: the points of all the cycles."""
        return frozenset(x for c in self._cycles for x in c)

    def forward_orbit(self, x) -> frozenset:
        seen = []
        seen_set = set()
        while x not in seen_set:
            seen.append(x)
            seen_set.add(x)
            x = self.mapping[x]
        return frozenset(seen)

    def noneffective_locus(self) -> frozenset:
        """Points whose forward orbit meets the periodic locus.

        On a finite space every forward orbit falls into a cycle, so
        this is all of X whenever X is nonempty; the degenerate answer
        is intentional and reports flag it.  Agreement with the
        independently computed eventually-periodic locus is asserted.
        """
        periodic = self.periodic_points()
        orbit_side = frozenset(
            x for x in self.space if self.forward_orbit(x) & periodic
        )
        isotropy_side = self.eventually_periodic_locus()
        if orbit_side != isotropy_side:
            raise DynamicsError(
                "the two characterizations of the non-effective locus disagree"
            )
        return orbit_side

    def eventually_periodic_locus(self) -> frozenset:
        """Points x with T^m x = T^n x for some m > n (nontrivial isotropy
        in the semidirect-product dynamics); computed by iterate collision."""
        out = []
        for x in self.space:
            slow = fast = x
            while True:
                slow = self.mapping[slow]
                fast = self.mapping[self.mapping[fast]]
                if slow == fast:
                    out.append(x)
                    break
        return frozenset(out)

    def orbit_equivalence_classes(self) -> tuple:
        """Classes of the smallest equivalence relation with x ~ T(x)."""
        parent = {x: x for x in self.space}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x in self.space:
            a, b = find(x), find(self.mapping[x])
            if a != b:
                parent[a] = b
        classes: dict = {}
        for x in self.space:
            classes.setdefault(find(x), []).append(x)
        order = {x: i for i, x in enumerate(self.space)}
        return tuple(
            frozenset(v)
            for v in sorted(classes.values(), key=lambda vs: min(order[v] for v in vs))
        )

    def invariant_sets(self, cap: int = LATTICE_CAP) -> list:
        """All subsets closed under the map forwards and backwards
        (unions of orbit-equivalence classes), as a lattice."""
        classes = self.orbit_equivalence_classes()
        if 2 ** len(classes) > cap:
            raise CapExceededError(
                f"{2 ** len(classes)} invariant sets exceed the cap {cap}"
            )
        order = {x: i for i, x in enumerate(self.space)}
        out = []
        for mask in range(1 << len(classes)):
            members = frozenset().union(
                *(classes[i] for i in range(len(classes)) if mask >> i & 1)
            ) if mask else frozenset()
            out.append(members)
        out.sort(key=lambda s: (len(s), sorted(order[x] for x in s)))
        return out

    def is_invariant(self, members) -> bool:
        members = frozenset(members)
        forward = all(self.mapping[x] in members for x in members)
        backward = all(
            x in members for x in self.space if self.mapping[x] in members
        )
        return forward and backward

    def __repr__(self):
        return f"FiniteDynSystem({len(self.space)} points)"


# -- directed graphs --------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    ident: object
    src: object
    dst: object


class DirectedGraph:
    """A finite directed graph with parallel edges and loops allowed."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        vertex_set = frozenset(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise DynamicsError("duplicate vertices")
        out: list = []
        idents = set()
        for e in edges:
            if isinstance(e, Edge):
                edge = e
            elif isinstance(e, dict):
                edge = Edge(e.get("id", len(out)), e["src"], e["dst"])
            else:
                ident, src, dst = (len(out), *e) if len(e) == 2 else e
                edge = Edge(ident, src, dst)
            if edge.src not in vertex_set or edge.dst not in vertex_set:
                raise DynamicsError(f"edge {edge.ident!r} has a missing endpoint")
            if edge.ident in idents:
                raise DynamicsError(f"duplicate edge id {edge.ident!r}")
            idents.add(edge.ident)
            out.append(edge)
        self.edges = tuple(out)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adjacency = {v: [] for v in self.vertices}
        self._succ = [0] * len(self.vertices)     # out-neighbour mask per vertex
        for e in self.edges:
            adjacency[e.src].append(e)
            self._succ[self._index[e.src]] |= 1 << self._index[e.dst]
        self._out = {v: tuple(es) for v, es in adjacency.items()}
        self._sinks = tuple(v for v in self.vertices if not self._out[v])

    def out_edges(self, v) -> tuple:
        return self._out[v]

    def sinks(self) -> tuple:
        return self._sinks

    def _reject_sinks(self, operation: str):
        if self._sinks:
            raise UnsupportedGraphError(
                f"{operation} requires a sink-free graph; vertex {self._sinks[0]!r} has "
                f"no outgoing edge"
            )

    def _members(self, mask: int) -> frozenset:
        return frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    # -- cycles ------------------------------------------------------------

    def simple_cycles(self, cap: int = CYCLE_CAP) -> list:
        """All cycles through pairwise-distinct vertices, as edge tuples.

        Each cycle is found once, by the search from its first vertex in
        vertex order, which only steps to later vertices.  The search
        keeps an explicit stack of out-edge iterators, so cycle length is
        not bounded by the recursion limit.  Each cycle is rooted at its
        smallest edge (edge order as given), and the list is sorted by
        edge order.
        """
        dst = [self._index[e.dst] for e in self.edges]
        out = [[] for _ in self.vertices]
        for k, e in enumerate(self.edges):
            out[self._index[e.src]].append(k)
        cycles = []
        for start in range(len(out)):
            path = []                         # edge indices from start
            on_path = 1 << start
            stack = [iter(out[start])]        # one iterator per path vertex
            while stack:
                k = next(stack[-1], None)
                if k is None:
                    stack.pop()
                    if path:
                        on_path ^= 1 << dst[path.pop()]
                elif dst[k] == start:
                    if len(cycles) >= cap:
                        raise CapExceededError(f"more than {cap} simple cycles")
                    cycle = path + [k]
                    first = cycle.index(min(cycle))
                    cycles.append(tuple(cycle[first:] + cycle[:first]))
                elif dst[k] > start and not on_path >> dst[k] & 1:
                    path.append(k)
                    on_path |= 1 << dst[k]
                    stack.append(iter(out[dst[k]]))
        return [tuple(self.edges[k] for k in c) for c in sorted(cycles)]

    def cycle_has_exit(self, cycle) -> bool:
        """Some vertex on the cycle has an outgoing edge other than the
        cycle's own next edge at that vertex.  A simple cycle leaves each
        of its vertices by exactly one edge, so this is an out-degree test."""
        return any(len(self._out[e.src]) > 1 for e in cycle)

    def condition_L(self) -> bool:
        """Every cycle has an exit."""
        return not self.exitless_cycle_vertices()

    def exitless_cycle_vertices(self) -> frozenset:
        """Vertices on cycles without exits.

        A cycle has no exit iff each of its vertices has out-degree 1,
        so these are the cycles of the unique-out-edge map on the
        out-degree-one vertices (no cycle enumeration required).
        """
        unique = {v: es[0].dst for v, es in self._out.items() if len(es) == 1}
        return frozenset(v for cycle in _cycles(unique) for v in cycle)

    # -- hereditary and saturated vertex sets -----------------------------------

    def is_hereditary(self, members) -> bool:
        members = frozenset(members)
        return all(e.dst in members for v in members for e in self._out[v])

    def is_saturated(self, members) -> bool:
        members = frozenset(members)
        for v in self.vertices:
            if v in members or not self._out[v]:
                continue
            if all(e.dst in members for e in self._out[v]):
                return False
        return True

    @cached_property
    def _reach(self) -> list:
        """The forward-reach mask of each vertex, itself included, by a mask
        BFS per vertex in reverse vertex order; a BFS that meets a vertex
        whose mask is already built takes that mask instead of expanding it."""
        reach = [0] * len(self.vertices)
        for i in reversed(range(len(reach))):
            seen = frontier = 1 << i
            while frontier:
                step = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    j = low.bit_length() - 1
                    if reach[j]:
                        seen |= reach[j]
                    else:
                        step |= self._succ[j]
                frontier = step & ~seen
                seen |= frontier
            reach[i] = seen
        return reach

    def _saturate(self, mask: int) -> int:
        """Least saturated superset of a hereditary mask: add each outside
        vertex whose out-neighbours all lie inside, until a pass adds none.
        An added vertex has no out-neighbour outside, so the result is
        hereditary too."""
        outside = [i for i in range(len(self.vertices)) if not mask >> i & 1]
        while True:
            stay = []
            for i in outside:
                if self._succ[i] & ~mask:
                    stay.append(i)
                else:
                    mask |= 1 << i
            if len(stay) == len(outside):
                return mask
            outside = stay

    def saturated_hereditary_closure(self, members) -> frozenset:
        """Least saturated hereditary superset: the saturation of the union
        of the members' forward-reach masks."""
        self._reject_sinks("saturated hereditary closure")
        mask = 0
        for v in members:
            mask |= self._reach[self._index[v]]
        return self._members(self._saturate(mask))

    def hereditary_saturated_sets(self, cap: int = LATTICE_CAP) -> list:
        """The full lattice of saturated hereditary vertex sets.

        Generated output-sensitively: from the empty set, join each found
        set with the closure of each single vertex outside it (the
        saturation of the set's mask or'd with the vertex's reach mask),
        until no new sets appear.  Meet is intersection; join is the
        closure of the union.  Sorted by size, then by vertex positions.
        """
        self._reject_sinks("the gauge-invariant ideal lattice")
        found = {0}
        frontier = [0]
        while frontier:
            base = frontier.pop()
            for i, reach in enumerate(self._reach):
                if base >> i & 1:
                    continue
                new = self._saturate(base | reach)
                if new not in found:
                    if len(found) >= cap:
                        raise CapExceededError(
                            f"saturated hereditary lattice exceeds the cap {cap}"
                        )
                    found.add(new)
                    frontier.append(new)
        n = len(self.vertices)
        ordered = sorted(found, key=lambda m: (m.bit_count(),
                                               [i for i in range(n) if m >> i & 1]))
        return [self._members(m) for m in ordered]

    def obstruction_vertex_set(self) -> frozenset:
        """Least saturated hereditary set containing all exit-less-cycle
        vertices; empty exactly when every cycle has an exit."""
        self._reject_sinks("the obstruction vertex set")
        core = self.exitless_cycle_vertices()
        if not core:
            return frozenset()
        return self.saturated_hereditary_closure(core)

    def __repr__(self):
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"
