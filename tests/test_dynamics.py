import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glab.dynamics import (
    LATTICE_CAP,
    DirectedGraph,
    DynamicsError,
    FiniteDynSystem,
    UnsupportedGraphError,
)
from glab.errors import CapExceededError
from glab.generators import random_dynsys, random_graph
from glab.formats import Instance, instance_from_dict
from glab.reports import _GRAPH_LISTING_CAP, fmt_element, graph_report

from _oracles import (
    all_starts_simple_cycles,
    iterated_periodic_locus,
    next_edge_cycle_has_exit,
    set_hereditary_saturated_sets,
    set_saturated_hereditary_closure,
)


def three_cycle():
    return FiniteDynSystem((1, 2, 3), {1: 2, 2: 3, 3: 1})


class TestPeriodicLoci:
    def test_three_cycle(self):
        s = three_cycle()
        assert s.periodic_locus(1) == frozenset()
        assert s.periodic_locus(3) == frozenset({1, 2, 3})
        assert s.periodic_points() == frozenset({1, 2, 3})

    def test_identity_map(self):
        s = FiniteDynSystem("ab", {"a": "a", "b": "b"})
        assert s.periodic_locus(1) == frozenset("ab")

    def test_transient(self):
        s = FiniteDynSystem((0, 1), {0: 1, 1: 1})
        assert s.periodic_points() == frozenset({1})

    def test_period_must_be_positive(self):
        with pytest.raises(DynamicsError):
            three_cycle().periodic_locus(0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3))
    def test_nested_under_multiples(self, seed, p, k):
        rng = random.Random(seed)
        payload = random_dynsys(rng, rng.randint(1, 20))
        s = instance_from_dict(payload).obj
        assert s.periodic_locus(p) <= s.periodic_locus(p * k)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_stabilizes_by_size(self, seed):
        rng = random.Random(seed)
        s = instance_from_dict(random_dynsys(rng, rng.randint(1, 15))).obj
        p_all = s.periodic_points()
        more = frozenset()
        for p in range(1, 2 * len(s.space) + 1):
            more |= s.periodic_locus(p)
        assert more == p_all


class TestNoneffectiveLocus:
    def test_three_cycle(self):
        s = three_cycle()
        assert s.noneffective_locus() == frozenset({1, 2, 3})

    def test_collapse_map(self):
        s = FiniteDynSystem((0, 1), {0: 1, 1: 1})
        assert s.noneffective_locus() == frozenset({0, 1})

    def test_empty(self):
        s = FiniteDynSystem((), {})
        assert s.noneffective_locus() == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_both_sides_agree(self, seed):
        rng = random.Random(seed)
        s = instance_from_dict(random_dynsys(rng, rng.randint(0, 30))).obj
        assert s.noneffective_locus() == s.eventually_periodic_locus()


class TestInvariantSets:
    def test_three_cycle(self):
        assert three_cycle().invariant_sets() == [frozenset(), frozenset({1, 2, 3})]

    def test_two_fixed_points(self):
        s = FiniteDynSystem((0, 1), {0: 0, 1: 1})
        assert len(s.invariant_sets()) == 4

    def test_transient_not_split(self):
        s = FiniteDynSystem((0, 1), {0: 1, 1: 1})
        assert s.invariant_sets() == [frozenset(), frozenset({0, 1})]
        assert not s.is_invariant({1})

    def test_lattice_closure(self):
        rng = random.Random(5)
        s = instance_from_dict(random_dynsys(rng, 12)).obj
        sets = s.invariant_sets()
        as_set = set(sets)
        for a in sets:
            assert s.is_invariant(a)
            for b in sets:
                assert a & b in as_set and a | b in as_set


def graph_of(payload):
    return instance_from_dict(payload).obj


class TestGraphs:
    def test_single_loop(self):
        g = DirectedGraph(("v",), [("loop", "v", "v")])
        cycles = g.simple_cycles()
        assert len(cycles) == 1
        assert not g.cycle_has_exit(cycles[0])
        assert not g.condition_L()
        assert g.obstruction_vertex_set() == frozenset({"v"})
        assert g.hereditary_saturated_sets() == [frozenset(), frozenset({"v"})]

    def test_two_loops(self):
        g = DirectedGraph(("v",), [("l1", "v", "v"), ("l2", "v", "v")])
        cycles = g.simple_cycles()
        assert len(cycles) == 2
        assert all(g.cycle_has_exit(c) for c in cycles)
        assert g.condition_L()
        assert g.obstruction_vertex_set() == frozenset()

    def test_two_cycle_with_loop(self):
        g = DirectedGraph(
            ("u", "v"),
            [("a", "u", "v"), ("b", "v", "u"), ("c", "v", "v")],
        )
        assert len(g.simple_cycles()) == 2
        assert g.condition_L()
        assert g.obstruction_vertex_set() == frozenset()
        assert g.hereditary_saturated_sets() == [frozenset(), frozenset({"u", "v"})]

    def test_acyclic_path_vacuous(self):
        g = DirectedGraph(("a", "b", "c"),
                          [("e1", "a", "b"), ("e2", "b", "c"), ("loopless", "c", "c")])
        # the tail loop keeps the graph sink-free; the a->b->c path has no cycle
        cycles = g.simple_cycles()
        assert len(cycles) == 1

    def test_sink_rejected_by_name(self):
        g = DirectedGraph(("a", "b"), [("e", "a", "b")])
        with pytest.raises(UnsupportedGraphError, match="'b'"):
            g.hereditary_saturated_sets()
        with pytest.raises(UnsupportedGraphError):
            g.obstruction_vertex_set()

    def test_hereditary_and_saturated_predicates(self):
        g = DirectedGraph(
            ("u", "v", "w"),
            [("a", "u", "v"), ("b", "v", "v"), ("c", "w", "v"), ("d", "w", "w")],
        )
        assert g.is_hereditary({"v"})
        assert not g.is_hereditary({"u"})
        # u's only out-neighbour lies in {v}, so {v} alone is not saturated
        assert not g.is_saturated({"v"})
        assert g.saturated_hereditary_closure({"v"}) == frozenset({"u", "v"})

    def test_predicates_reject_a_non_vertex_by_name(self):
        g = DirectedGraph(("v", "w"), [("a", "v", "w"), ("b", "w", "w")])
        for predicate in (g.is_hereditary, g.is_saturated, g.saturated_hereditary_closure):
            with pytest.raises(DynamicsError, match="'zzz' is not a vertex"):
                predicate({"v", "zzz"})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_obstruction_iff_exitless(self, seed):
        rng = random.Random(seed)
        g = graph_of(random_graph(rng, rng.randint(1, 10)))
        obstruction = g.obstruction_vertex_set()
        assert (not obstruction) == g.condition_L()
        for cycle in g.simple_cycles():
            if not g.cycle_has_exit(cycle):
                assert {e.src for e in cycle} <= obstruction

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_lattice_laws(self, seed):
        rng = random.Random(seed)
        g = graph_of(random_graph(rng, rng.randint(1, 8)))
        sets = g.hereditary_saturated_sets()
        as_set = set(sets)
        for a in sets:
            assert g.is_hereditary(a) and g.is_saturated(a)
            for b in sets:
                assert a & b in as_set
                assert g.saturated_hereditary_closure(a | b) in as_set

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 100_000))
    def test_lattice_recomputed_after_edge_additions(self, seed):
        # adding edges changes the lattice in no monotone way, so it is
        # recomputed from scratch and only the lattice laws are asserted
        rng = random.Random(seed)
        g = graph_of(random_graph(rng, rng.randint(2, 8)))
        extra = [
            (f"x{i}", rng.choice(g.vertices), rng.choice(g.vertices))
            for i in range(rng.randint(1, 3))
        ]
        bigger = DirectedGraph(
            g.vertices,
            [(e.ident, e.src, e.dst) for e in g.edges] + extra,
        )
        sets = bigger.hereditary_saturated_sets()
        as_set = set(sets)
        for a in sets:
            assert bigger.is_hereditary(a) and bigger.is_saturated(a)
            for b in sets:
                assert a & b in as_set
                assert bigger.saturated_hereditary_closure(a | b) in as_set

    def test_cycle_cap(self):
        n = 9
        vertices = tuple(f"v{i}" for i in range(n))
        edges = [
            (f"e{i}-{j}", f"v{i}", f"v{j}") for i in range(n) for j in range(n)
        ]
        g = DirectedGraph(vertices, edges)
        with pytest.raises(CapExceededError):
            g.simple_cycles(cap=1000)
        # each loop counts against the cap as it is found
        two_loops = DirectedGraph(("v",), [("l1", "v", "v"), ("l2", "v", "v")])
        with pytest.raises(CapExceededError, match="more than 1 simple cycles"):
            two_loops.simple_cycles(cap=1)
        # a graph with exactly cap cycles lists all of them
        k5 = DirectedGraph(vertices[:5], [
            (f"e{i}-{j}", f"v{i}", f"v{j}") for i in range(5) for j in range(5)
        ])
        count = len(k5.simple_cycles())
        assert count == 5 + 10 + 20 + 30 + 24     # loops, then C(5, k)·(k-1)! per k
        assert len(k5.simple_cycles(cap=count)) == count
        with pytest.raises(CapExceededError, match=f"more than {count - 1} simple"):
            k5.simple_cycles(cap=count - 1)
        # the cap holds inside one root's walk: 65 of the loopless K6's 409
        # cycles are rooted at its first edge, whose walk comes last
        k6 = DirectedGraph(vertices[:6], [
            (f"e{i}-{j}", f"v{i}", f"v{j}") for i in range(6) for j in range(6) if i != j
        ])
        cycles = k6.simple_cycles()
        assert len(cycles) == 409
        assert sum(1 for c in cycles if c[0] == k6.edges[0]) == 65
        for cap in (64, 400):
            with pytest.raises(CapExceededError, match=f"^more than {cap} simple cycles$"):
                k6.simple_cycles(cap=cap)

    def test_long_ring_one_cycle(self):
        # the walk keeps an explicit stack, so a ring longer than the
        # recursion limit lists its one cycle, rooted at its smallest edge,
        # whether its edges are numbered along its direction or against it
        n = 1200
        names = [f"v{i}" for i in range(n)]
        ring = DirectedGraph(names, [(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
        backward = DirectedGraph(names, [(f"e{i}", f"v{(i + 1) % n}", f"v{i}")
                                         for i in range(n)])
        for g, order in ((ring, range(n)), (backward, [0, *range(n - 1, 0, -1)])):
            cycles = g.simple_cycles()
            assert len(cycles) == 1
            assert [e.ident for e in cycles[0]] == [f"e{i}" for i in order]
            assert g.hereditary_saturated_sets() == [frozenset(), frozenset(g.vertices)]

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(DynamicsError):
            DirectedGraph(("v",), [("e", "v", "v"), ("e", "v", "v")])


def shuffled_multigraph(rng, n):
    """A random graph with extra loops and parallel edges, its vertex and
    edge orders shuffled (the cycle search depends on vertex order)."""
    payload = random_graph(rng, n, loops=rng.randint(0, 3),
                           edge_probability=rng.choice([None, 0.3]))
    edges = [(e["id"], e["src"], e["dst"]) for e in payload["edges"]]
    edges += [(f"p{i}", src, dst)
              for i, (_, src, dst) in enumerate(rng.sample(edges, min(3, len(edges))))]
    vertices = list(payload["vertices"])
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return DirectedGraph(vertices, edges)


def assert_report_cycles(g, cycles):
    """The ``glab graph`` report's cycle count, listing and number of
    cycles with an exit against the all-starts cycles and the next-edge
    exit test."""
    report = graph_report(Instance("graph", {}, g), "oracle")["cycles"]
    assert report["count"] == len(cycles)
    assert report["listed"] == [[fmt_element(e.ident) for e in c]
                                for c in cycles[:len(report["listed"])]]
    assert len(report["listed"]) == min(len(cycles), _GRAPH_LISTING_CAP)
    assert report["with_exit"] == sum(1 for c in cycles if next_edge_cycle_has_exit(g, c))


class TestAgainstOracles:
    """The cycle-based answers match the iterate-the-map and all-starts
    references in ``_oracles``."""

    def test_periodic_loci(self):
        rng = random.Random(41)
        for _ in range(200):
            s = instance_from_dict(random_dynsys(rng, rng.randint(0, 60))).obj
            n = len(s.space)
            loci = [iterated_periodic_locus(s, p) for p in range(1, 2 * n + 2)]
            assert [s.periodic_locus(p) for p in range(1, 2 * n + 2)] == loci
            assert s.periodic_points() == frozenset().union(*loci[:n])

    def graphs(self):
        rng = random.Random(43)
        yield from (graph_of(random_graph(rng, rng.randint(1, 9))) for _ in range(60))
        yield from (shuffled_multigraph(rng, rng.randint(1, 8)) for _ in range(60))
        yield DirectedGraph(("w", "u", "v"), [
            ("b", "v", "u"), ("l1", "u", "u"), ("a", "u", "v"), ("a2", "u", "v"),
            ("c", "w", "u"), ("l2", "v", "v"), ("d", "v", "w"), ("l3", "u", "u"),
        ])
        yield DirectedGraph(("c", "b", "a"), [
            ("z", "a", "b"), ("y", "b", "c"), ("x", "c", "a"), ("w", "b", "a"),
        ])

    def test_simple_cycles(self):
        for g in self.graphs():
            cycles = all_starts_simple_cycles(g)
            assert g.simple_cycles() == cycles
            assert_report_cycles(g, cycles)

    def test_exitless_cycle_vertices(self):
        for g in self.graphs():
            exitless = {e.src for c in all_starts_simple_cycles(g)
                        if all(len([f for f in g.edges if f.src == e.src]) == 1 for e in c)
                        for e in c}
            assert g.exitless_cycle_vertices() == exitless
            assert g.condition_L() == (not exitless)

    def test_out_edges_keep_input_order(self):
        for g in self.graphs():
            for v in g.vertices:
                assert g.out_edges(v) == tuple(e for e in g.edges if e.src == v)

    def test_cycle_has_exit(self):
        for g in self.graphs():
            for cycle in all_starts_simple_cycles(g):
                assert g.cycle_has_exit(cycle) == next_edge_cycle_has_exit(g, cycle)

    def closure_graphs(self):
        rng = random.Random(47)
        yield from (graph_of(random_graph(rng, rng.randint(1, 14))) for _ in range(200))
        yield from (shuffled_multigraph(rng, rng.randint(1, 12)) for _ in range(60))

    def test_closures_and_lattice(self):
        """The bitmask closures, lattice and obstruction set match the
        frozenset rescans; random subsets need not be hereditary."""
        rng = random.Random(53)
        for g in self.closure_graphs():
            lattice = set_hereditary_saturated_sets(g)
            assert g.hereditary_saturated_sets() == lattice
            for _ in range(6):
                members = rng.sample(g.vertices, rng.randint(0, len(g.vertices)))
                assert (g.saturated_hereditary_closure(members)
                        == set_saturated_hereditary_closure(g, members))
            exitless = {e.src for c in all_starts_simple_cycles(g)
                        if not next_edge_cycle_has_exit(g, c) for e in c}
            expected = (set_saturated_hereditary_closure(g, exitless) if exitless
                        else frozenset())
            assert g.obstruction_vertex_set() == expected

    def test_lattice_cap(self):
        for g in itertools.islice(self.closure_graphs(), 40):
            size = len(g.hereditary_saturated_sets())
            assert len(g.hereditary_saturated_sets(cap=size)) == size
            with pytest.raises(CapExceededError, match=f"exceeds the cap {size - 1}"):
                g.hereditary_saturated_sets(cap=size - 1)
        # 21 loops and 43 tails into them: 2^21 sets, refused while building
        names = [f"v{i}" for i in range(64)]
        rng = random.Random(61)
        g = DirectedGraph(names, [(v, v) for v in names[:21]]
                          + [(v, rng.choice(names[:21])) for v in names[21:]])
        with pytest.raises(CapExceededError, match=f"exceeds the cap {LATTICE_CAP}$"):
            g.hereditary_saturated_sets()


def bench_shaped_graph(rng, complete, rings, tails):
    """Disjoint complete digraphs and rings, each ring left exit-less or
    given one chord, and tail vertices with one edge into a random piece;
    vertex and edge orders shuffled.  Returns the graph and the vertices of
    the exit-less rings."""
    n = sum(complete) + sum(rings) + tails
    names = [f"v{i}" for i in rng.sample(range(10 * n), n)]
    edges, start, exitless = [], 0, set()
    for k in complete:
        members = names[start:start + k]
        edges += [(a, b) for a in members for b in members if a != b]
        start += k
    for k in rings:
        members = names[start:start + k]
        edges += [(members[i], members[(i + 1) % k]) for i in range(k)]
        if rng.random() < 0.5:
            edges.append((members[0], members[2]))
        else:
            exitless.update(members)
        start += k
    for tail in names[start:]:
        edges.append((tail, rng.choice(names[:start])))
    rng.shuffle(edges)
    rng.shuffle(names)
    graph = DirectedGraph(names, [(f"e{i}", a, b) for i, (a, b) in enumerate(edges)])
    return graph, frozenset(exitless)


class TestBenchScale:
    """The cyclic-component lattice, closures and obstruction set against
    the frozenset rescans of ``_oracles`` on graphs of the benchmark's
    ``combinatorial`` shapes: 2^7 and 2^8 lattice sets on 46-47 vertices."""

    @pytest.mark.parametrize("shape", [
        ((8,), (7, 6, 6, 5, 5, 5), 4),
        ((7, 5, 4), (6, 6, 5, 5, 5), 4),
    ])
    def test_against_set_oracles(self, shape):
        rng = random.Random(59)
        g, exitless = bench_shaped_graph(rng, *shape)
        lattice = g.hereditary_saturated_sets()
        assert len(lattice) == 2 ** (len(shape[0]) + len(shape[1]))
        assert lattice == set_hereditary_saturated_sets(g)
        for _ in range(40):
            members = rng.sample(g.vertices, rng.randint(0, 6))
            assert (g.saturated_hereditary_closure(members)
                    == set_saturated_hereditary_closure(g, members))
        assert g.exitless_cycle_vertices() == exitless
        expected = set_saturated_hereditary_closure(g, exitless) if exitless else frozenset()
        assert g.obstruction_vertex_set() == expected
        assert_report_cycles(g, all_starts_simple_cycles(g))


class TestCorruptedReach:
    """The report's closure-law check tests each listed set against the
    definitions of hereditary and saturated, so it fails when the cyclic
    reach masks that the lattice and the joins are read from are wrong."""

    def instance(self):
        # two exit-less rings and a tail into each
        return instance_from_dict({"version": 1, "kind": "graph",
                                   "vertices": ["a", "b", "c", "d", "s", "t"],
                                   "edges": [
            {"id": "e0", "src": "a", "dst": "b"}, {"id": "e1", "src": "b", "dst": "a"},
            {"id": "e2", "src": "c", "dst": "d"}, {"id": "e3", "src": "d", "dst": "c"},
            {"id": "e4", "src": "s", "dst": "a"}, {"id": "e5", "src": "t", "dst": "c"},
        ]})

    def test_valid(self):
        report = graph_report(self.instance(), "two-rings")
        assert report["lattice"]["closure_laws_ok"]
        assert report["lattice"]["sets"] == [[], ["a", "b", "s"], ["c", "d", "t"],
                                             ["a", "b", "c", "d", "s", "t"]]

    def test_cleared_bit(self):
        instance = self.instance()
        g = instance.obj
        g._creach[g.vertices.index("s")] = 0
        report = graph_report(instance, "two-rings")
        assert not report["lattice"]["closure_laws_ok"]
        assert "['s'] is not hereditary" in report["lattice"]["law_failures"]

    def test_swapped_masks(self):
        instance = self.instance()
        g = instance.obj
        creach = g._creach
        a, c = g.vertices.index("a"), g.vertices.index("c")
        creach[a], creach[c] = creach[c], creach[a]
        report = graph_report(instance, "two-rings")
        assert not report["lattice"]["closure_laws_ok"]
        assert "['b', 'c', 's'] is not hereditary" in report["lattice"]["law_failures"]
        assert "['b', 'c', 's'] is not saturated" in report["lattice"]["law_failures"]
