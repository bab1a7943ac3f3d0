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
exit-less cycles of a graph are found by one shared walk (``_cycles``);
the graph's exit-less cycles also give the ``glab graph`` report's count
of cycles with an exit (``with_exit``): all simple cycles minus them.

Inside ``DirectedGraph`` a vertex set is an ``int`` bitmask (bit i is
``vertices[i]``); the public methods take and return frozensets.  The
saturated hereditary sets are read off the cyclic strongly connected
components (those holding a cycle), found by one pass of Tarjan's
algorithm (SIAM J. Comput. 1, 1972).  Let ``creach[v]`` be the set of
cyclic components that v reaches.  In a sink-free graph, a hereditary
saturated H contains v exactly when it contains every cyclic component
that v reaches.  Heredity gives one direction; for the other, if v is
outside H, saturation gives v an out-neighbour outside H, and repeating
gives an infinite path outside H, which ends in a cyclic component
outside H that v reaches.  So the sets are the H_S = {v : creach[v] is
inside S} for the reach-closed families S of cyclic components, which
are the unions of ``creach`` values, and the closure of a set X is H_S
for S the union of ``creach`` over X.  (Bates, Hong, Raeburn and
Szymanski, Illinois J. Math. 46, 2002, identify these sets with the
gauge-invariant ideals of the graph algebra.)
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

    def invariant_sets(self, cap: int = LATTICE_CAP) -> list:
        """All subsets closed under the map forwards and backwards
        (unions of orbit-equivalence classes), as a lattice.  The classes
        are those of the smallest equivalence relation with x ~ T(x)."""
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
        by_root: dict = {}
        for x in self.space:
            by_root.setdefault(find(x), []).append(x)
        classes = [frozenset(v) for v in by_root.values()]
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
        self._src = []                                    # tail of each edge
        self._dst = []                                    # head of each edge
        self._leaving = [[] for _ in self.vertices]       # out-edge indices per vertex
        self._succ = [0] * len(self.vertices)             # out-neighbour mask per vertex
        for k, e in enumerate(self.edges):
            i, j = self._index[e.src], self._index[e.dst]
            self._src.append(i)
            self._dst.append(j)
            self._leaving[i].append(k)
            self._succ[i] |= 1 << j
        self._out = {v: tuple(self.edges[k] for k in ks)
                     for v, ks in zip(self.vertices, self._leaving)}
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

    def _cycle_indices(self, cap: int = CYCLE_CAP) -> list:
        """All cycles through pairwise-distinct vertices, as tuples of edge
        indices, each rooted at its smallest edge index, sorted.

        Each cycle is found once, from its smallest edge e0 = (s, t), by a
        walk from t back to s over the edges after e0 (D. B. Johnson's
        rooting, SIAM J. Comput. 4, 1975, at the least edge instead of the
        least vertex).  The roots run from the last edge down, so the edges
        after the root are out-edge lists and in-neighbour masks that grow
        by one edge per root.  The walk takes out-edges in index order and
        steps only to the vertices that reach s over those edges, found by
        a backward mask search, so each root's cycles come out in sorted
        order, and the roots' blocks from the first edge up are the sorted
        list.  An edge between two strongly connected components
        (``_components``) is on no cycle and is left out.  The walk keeps
        an explicit stack of out-edge iterators, so cycle length is not
        bounded by the recursion limit, and checks the cap at each cycle.
        """
        src, dst, comp = self._src, self._dst, self._components
        leaving = [[] for _ in self.vertices]   # out-edges after the root, last first
        pred = [0] * len(self.vertices)         # in-neighbour mask over the same edges
        blocks = []                             # each root's cycles, last root first
        found = 0
        for root in range(len(dst) - 1, -1, -1):
            s, t = src[root], dst[root]
            if comp[s] != comp[t]:
                continue
            free = 0                            # vertices that reach s, off the path
            frontier = pred[s] if s != t else 0
            while frontier:
                free |= frontier
                step = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    step |= pred[low.bit_length() - 1]
                frontier = step & ~free
            free &= ~(1 << s)
            block = []
            path = []                           # edge indices from s
            stack = [iter((root,))]             # one iterator per path vertex
            while stack:
                k = next(stack[-1], None)
                if k is None:
                    stack.pop()
                    if path:
                        free |= 1 << dst[path.pop()]
                elif dst[k] == s:
                    if found >= cap:
                        raise CapExceededError(f"more than {cap} simple cycles")
                    found += 1
                    block.append((*path, k))
                elif free >> dst[k] & 1:
                    path.append(k)
                    free ^= 1 << dst[k]
                    stack.append(reversed(leaving[dst[k]]))
            blocks.append(block)
            leaving[s].append(root)
            pred[t] |= 1 << s
        return [cycle for block in reversed(blocks) for cycle in block]

    def simple_cycles(self, cap: int = CYCLE_CAP) -> list:
        """All cycles through pairwise-distinct vertices, as edge tuples,
        each rooted at its smallest edge (edge order as given) and sorted
        by edge order."""
        return [tuple(self.edges[k] for k in c) for c in self._cycle_indices(cap)]

    def cycle_has_exit(self, cycle) -> bool:
        """Some vertex on the cycle has an outgoing edge other than the
        cycle's own next edge at that vertex.  A simple cycle leaves each
        of its vertices by exactly one edge, so this is an out-degree test."""
        return any(len(self._out[e.src]) > 1 for e in cycle)

    def condition_L(self) -> bool:
        """Every cycle has an exit."""
        return not self._exitless_cycles

    @cached_property
    def _exitless_cycles(self) -> list:
        """The cycles without exits, as tuples of vertex indices.

        A cycle has no exit iff each of its vertices has out-degree 1,
        so these are the cycles of the unique-out-edge map on the
        out-degree-one vertices (no cycle enumeration required).
        """
        return _cycles({i: self._dst[ks[0]]
                        for i, ks in enumerate(self._leaving) if len(ks) == 1})

    def exitless_cycle_vertices(self) -> frozenset:
        """Vertices on cycles without exits."""
        return frozenset(self.vertices[i] for cycle in self._exitless_cycles for i in cycle)

    # -- hereditary and saturated vertex sets -----------------------------------

    def _mask(self, members) -> int:
        mask = 0
        for v in members:
            if v not in self._index:
                raise DynamicsError(f"{v!r} is not a vertex")
            mask |= 1 << self._index[v]
        return mask

    def _is_hereditary(self, mask: int) -> bool:
        """No vertex inside has an out-neighbour outside."""
        return all(not succ & ~mask
                   for i, succ in enumerate(self._succ) if mask >> i & 1)

    def _is_saturated(self, mask: int) -> bool:
        """No vertex outside with out-edges has all its out-neighbours inside."""
        return all(mask >> i & 1 or not succ or succ & ~mask
                   for i, succ in enumerate(self._succ))

    def is_hereditary(self, members) -> bool:
        return self._is_hereditary(self._mask(members))

    def is_saturated(self, members) -> bool:
        return self._is_saturated(self._mask(members))

    @cached_property
    def _components(self) -> list:
        """The strongly connected component of each vertex, numbered in
        the order Tarjan's algorithm (SIAM J. Comput. 1, 1972) completes
        them, so every edge runs to a component with the same or a lower
        number.  The search keeps an explicit stack of out-edge iterators."""
        dst, leaving = self._dst, self._leaving
        comp = [-1] * len(leaving)
        number = [-1] * len(leaving)      # discovery order
        low = [0] * len(leaving)
        waiting = []                      # visited vertices not yet in a component
        found = done = 0
        for root in range(len(leaving)):
            if number[root] >= 0:
                continue
            number[root] = low[root] = found
            found += 1
            waiting.append(root)
            work = [(root, iter(leaving[root]))]
            while work:
                v, edges = work[-1]
                for k in edges:
                    w = dst[k]
                    if number[w] < 0:
                        number[w] = low[w] = found
                        found += 1
                        waiting.append(w)
                        work.append((w, iter(leaving[w])))
                        break
                    if comp[w] < 0 and number[w] < low[v]:
                        low[v] = number[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == number[v]:
                        w = None
                        while w != v:
                            w = waiting.pop()
                            comp[w] = done
                        done += 1
        return comp

    @cached_property
    def _component_reach(self) -> list:
        """The mask of the cyclic components each strongly connected
        component reaches (bit c is the c-th cyclic component in
        ``_components`` order).  A component is cyclic when an edge stays
        inside it.  Successor components come first, so one sweep in
        component order fills every mask."""
        comp = self._components
        members = [[] for _ in range(max(comp, default=-1) + 1)]
        for i, c in enumerate(comp):
            members[c].append(i)
        reach = [0] * len(members)
        cyclic = 0
        for c, vs in enumerate(members):
            inner = False
            for i in vs:
                for k in self._leaving[i]:
                    d = comp[self._dst[k]]
                    if d == c:
                        inner = True
                    else:
                        reach[c] |= reach[d]
            if inner:
                reach[c] |= 1 << cyclic
                cyclic += 1
        return reach

    @cached_property
    def _creach(self) -> list:
        """The mask of the cyclic components each vertex reaches."""
        reach = self._component_reach
        return [reach[c] for c in self._components]

    @cached_property
    def _reached_by(self) -> list:
        """The mask of the vertices that reach each cyclic component."""
        out = [0] * max(self._creach, default=0).bit_length()
        for i, cyclic in enumerate(self._creach):
            while cyclic:
                low = cyclic & -cyclic
                cyclic ^= low
                out[low.bit_length() - 1] |= 1 << i
        return out

    def _creach_of(self, mask: int) -> int:
        """The cyclic components reached from a vertex mask."""
        cyclic = 0
        for i, reach in enumerate(self._creach):
            if mask >> i & 1:
                cyclic |= reach
        return cyclic

    def _hereditary_saturated(self, cyclic: int) -> int:
        """H_S for a mask S of cyclic components: the vertices that reach
        no cyclic component outside S."""
        out = 0
        for c, reached in enumerate(self._reached_by):
            if not cyclic >> c & 1:
                out |= reached
        return ~out & ((1 << len(self.vertices)) - 1)

    def saturated_hereditary_closure(self, members) -> frozenset:
        """Least saturated hereditary superset: H_S, where S is the union
        of the members' ``_creach`` masks.  A union of reach-closed
        families is reach-closed, so S is the least family whose H_S holds
        every member."""
        self._reject_sinks("saturated hereditary closure")
        return self._members(self._hereditary_saturated(self._creach_of(self._mask(members))))

    def _lattice_masks(self, cap: int = LATTICE_CAP) -> list:
        """The lattice as vertex masks, sorted by size, then by vertex
        positions; see ``hereditary_saturated_sets``."""
        self._reject_sinks("the gauge-invariant ideal lattice")
        families = [0]
        cyclic = 0                        # the cyclic components taken so far
        for reach in self._component_reach:
            bit = 1 << cyclic
            if not reach & bit:
                continue                  # acyclic: it reaches only earlier components
            need = reach ^ bit
            grown = [family | bit for family in families if family & need == need]
            if len(families) + len(grown) > cap:
                raise CapExceededError(f"saturated hereditary lattice exceeds the cap {cap}")
            families += grown
            cyclic += 1
        # two sets of one size compare by their lowest differing vertex,
        # which is the highest differing bit of the bit-reversed masks
        width = f"0{len(self.vertices)}b"
        masks = [self._hereditary_saturated(family) for family in families]
        return sorted(masks, key=lambda m: (m.bit_count(), -int(format(m, width)[::-1], 2)))

    def hereditary_saturated_sets(self, cap: int = LATTICE_CAP) -> list:
        """The full lattice of saturated hereditary vertex sets.

        The sets are the H_S for the reach-closed families S of cyclic
        components (see the module docstring).  The families are built one
        cyclic component c at a time, in ``_components`` order, so every
        component that c reaches comes before c: each family F so far is
        kept, and F with c is added when F holds the components that c
        reaches.  Each family appears once, and the cap is checked before
        each step's additions.  Meet is intersection; join is the closure
        of the union.  Sorted by size, then by vertex positions.
        """
        return [self._members(m) for m in self._lattice_masks(cap)]

    def obstruction_vertex_set(self) -> frozenset:
        """Least saturated hereditary set containing all exit-less-cycle
        vertices; empty exactly when every cycle has an exit."""
        self._reject_sinks("the obstruction vertex set")
        return self.saturated_hereditary_closure(self.exitless_cycle_vertices())

    def __repr__(self):
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"
