import os
import random
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest

from glab import algebra as al
from glab import groupoids as gp
from glab import ideals as il
from glab import cyclic_group, global_action
from glab.errors import CapExceededError
from glab.formats import load_instance
from glab.generators import random_groupoid
from glab.linalg import TolerancePolicy
from _oracles import (
    collapse_matrices,
    expected_block_dimensions,
    expected_counts,
    ideal_span,
    set_diagonal_units,
    set_dimension,
    set_enumerate_triples,
    set_is_dynamical,
    set_is_purely_nondynamical,
    set_sandwich,
    set_support,
    set_theta,
    set_theta_inverse,
)


def units_by_point(g, *points):
    return frozenset(u for u in g.unit_list if u[0] in points)


class TestSandwich:
    def test_single_character_block(self, z2_bundle):
        d = al.wedderburn(z2_bundle)
        lower, upper = il.sandwich(d.ideal([0]))
        assert lower == frozenset()
        assert upper == z2_bundle.units

    def test_dynamical_ideals_sit_on_their_set(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        for members in swap_and_fix.invariant_subsets():
            lower, upper = il.sandwich(d.dynamical_ideal_of(members))
            assert lower == members and upper == members

    def test_mixed_ideal(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        m2 = next(b.index for b in d.blocks if b.dimension == 2)
        char = next(b.index for b in d.blocks if b.dimension == 1)
        lower, upper = il.sandwich(d.ideal([m2, char]))
        assert lower == units_by_point(swap_and_fix, "a", "b")
        assert upper == swap_and_fix.units

    def test_bounds_hold_for_all_ideals(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        for ideal in d.all_ideals():
            lower, upper = il.sandwich(ideal)
            assert d.dynamical_ideal_of(lower) <= ideal
            assert ideal <= d.dynamical_ideal_of(upper)
            for members in swap_and_fix.invariant_subsets():
                dyn = d.dynamical_ideal_of(members)
                if dyn <= ideal:
                    assert members <= lower
                if ideal <= dyn:
                    assert upper <= members


class TestObstruction:
    def test_swap_and_fix(self, swap_and_fix):
        j = il.obstruction_ideal(swap_and_fix)
        assert sorted(
            al.wedderburn(swap_and_fix).blocks[i].dimension for i in j.blocks
        ) == [1, 1]
        assert j.diagonal_units() == units_by_point(swap_and_fix, "c")

    def test_pair_zero(self, pair3):
        assert il.obstruction_ideal(pair3).is_zero

    def test_bundle_full(self, z2_bundle):
        j = il.obstruction_ideal(z2_bundle)
        assert j == al.wedderburn(z2_bundle).full_ideal()

    def test_support_statement_failure(self):
        d = al.wedderburn(gp.group_bundle({"u": cyclic_group(2)}))
        # every block loses its support in the decomposition's incidence
        d._support[:] = False
        message = "obstruction ideal support differs from the non-effective reduction"
        for statement in (il.obstruction_ideal, il.collapse_kernel):
            with pytest.raises(al.DecompositionError, match=f"^{message}$"):
                statement(d)
        check = il.verify(d).check("obstruction")
        assert not check.passed and check.witnesses == [message]


class TestCollapseKernel:
    def test_z2_kernel_is_sign_block(self, z2_bundle):
        kernel = il.collapse_kernel(z2_bundle)
        assert len(kernel.blocks) == 1
        d = al.wedderburn(z2_bundle)
        block = d.blocks[next(iter(kernel.blocks))]
        # the surviving block is the trivial character, the killed one the sign
        assert np.allclose(np.abs(block.idempotent.coeffs), [0.5, 0.5])
        signs = block.idempotent.coeffs.real
        assert signs[0] * signs[1] < 0
        assert kernel.support() == il.obstruction_ideal(z2_bundle).support()

    def test_swap_and_fix(self, swap_and_fix):
        kernel = il.collapse_kernel(swap_and_fix)
        assert len(kernel.blocks) == 1
        assert kernel.is_purely_nondynamical()
        assert kernel.support() == frozenset(
            el for el in swap_and_fix.elements if el[0] == "c" or el[2] == "c"
        )

    def test_pair_faithful(self, pair3):
        assert il.collapse_kernel(pair3).is_zero

    def test_failed_statement_raises_its_message(self, swap_and_fix, monkeypatch):
        real = il._collapse_traces
        monkeypatch.setattr(il, "_collapse_traces", lambda d: 0 * real(d))
        with pytest.raises(al.DecompositionError,
                           match="^collapse kernel meets the diagonal$"):
            il.collapse_kernel(swap_and_fix)
        # the statement is about the kernel; J^ob itself stays available
        assert il.obstruction_ideal(swap_and_fix).diagonal_units() == units_by_point(
            swap_and_fix, "c")
        check = il.verify(swap_and_fix).check("obstruction")
        assert not check.passed
        assert check.witnesses == [
            "collapse kernel meets the diagonal",
            "collapse kernel support differs from the obstruction ideal support",
        ]

    def test_matrices_respect_convolution(self, swap_and_fix):
        rng = np.random.default_rng(21)
        f1 = al.random_element(swap_and_fix, rng)
        f2 = al.random_element(swap_and_fix, rng)
        lhs = collapse_matrices(swap_and_fix, f1 * f2)
        f1m = collapse_matrices(swap_and_fix, f1)
        f2m = collapse_matrices(swap_and_fix, f2)
        for got, a, b in zip(lhs, f1m, f2m):
            assert np.max(np.abs(got - a @ b)) <= 1e-9


class TestTriples:
    def test_z2_inventory(self, z2_bundle):
        triples = il.enumerate_triples(z2_bundle)
        assert len(triples) == 4
        degenerate = [t for t in triples if t.lower == t.upper]
        proper = [t for t in triples if t.lower != t.upper]
        assert len(degenerate) == 2 and len(proper) == 2
        for t in proper:
            assert t.lower == frozenset() and t.upper == z2_bundle.units
            assert len(t.quotient_ideal.blocks) == 1

    def test_swap_and_fix_inventory(self, swap_and_fix):
        triples = il.enumerate_triples(swap_and_fix)
        assert len(triples) == 8
        ab = units_by_point(swap_and_fix, "a", "b")
        c = units_by_point(swap_and_fix, "c")
        shapes = sorted(
            (sorted(p[0] for p in t.lower), sorted(p[0] for p in t.upper))
            for t in triples
        )
        assert shapes.count((["a", "b"], ["a", "b", "c"])) == 2
        assert shapes.count(([], ["c"])) == 2
        degenerate = [t for t in triples if t.lower == t.upper]
        assert {frozenset(t.lower) for t in degenerate} == {
            frozenset(), ab, c, swap_and_fix.units
        }

    def test_round_trips(self, swap_and_fix, z2_bundle, pair3):
        for g in (swap_and_fix, z2_bundle, pair3):
            d = al.wedderburn(g)
            triples = il.enumerate_triples(d)
            images = set()
            for t in triples:
                ideal = il.theta(d, t)
                images.add(ideal)
                assert il.theta_inverse(ideal) == t
            assert len(images) == len(d.all_ideals())
            for ideal in d.all_ideals():
                assert il.theta(d, il.theta_inverse(ideal)) == ideal

    def test_dynamical_edge_case(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        members = units_by_point(swap_and_fix, "a", "b")
        ideal = d.dynamical_ideal_of(members)
        triple = il.theta_inverse(ideal)
        assert triple.lower == triple.upper == members
        assert triple.quotient_ideal.is_zero
        assert il.theta(d, triple) == ideal

    def test_invalid_triple_with_diagonal(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        c = units_by_point(swap_and_fix, "c")
        sub, _ = d.restriction_decomposition(c)
        with pytest.raises(il.InvalidTripleError, match="diagonal"):
            il.theta(d, il.SandwichTriple(frozenset(), c, sub.full_ideal()))

    def test_invalid_triple_without_full_support(self, swap_and_fix, z2_bundle):
        union = gp.disjoint_union([z2_bundle, z2_bundle])
        d = al.wedderburn(union)
        sub, mapping = d.restriction_decomposition(union.units)
        one_orbit_block = next(iter(mapping))
        with pytest.raises(il.InvalidTripleError, match="full support"):
            il.theta(
                d, il.SandwichTriple(frozenset(), union.units, sub.ideal([one_orbit_block]))
            )

    def test_invalid_triple_zero_on_nonzero(self, z2_bundle):
        d = al.wedderburn(z2_bundle)
        sub, _ = d.restriction_decomposition(z2_bundle.units)
        with pytest.raises(il.InvalidTripleError, match="zero"):
            il.theta(d, il.SandwichTriple(frozenset(), z2_bundle.units, sub.zero_ideal()))

    def test_make_triple(self, z2_bundle):
        triple = il.make_triple(z2_bundle, frozenset(), z2_bundle.units, [0])
        assert il.theta(al.wedderburn(z2_bundle), triple).blocks == frozenset({0})

    def test_triple_outlives_its_parent_decomposition(self):
        """Only the groupoid and a triple over a proper subquotient are kept:
        the parent's decomposition is dropped and built again from the cache,
        and the triple's quotient ideal still lives over the canonical
        subquotient."""
        swap, fix = {"a": "b", "b": "a", "c": "c"}, {"a": "a", "b": "b", "c": "c"}
        g = gp.from_group_action(global_action(
            cyclic_group(2), ("a", "b", "c"), {"r0": fix, "r1": swap}))
        fixed = units_by_point(g, "c")
        assert fixed != g.units
        first = weakref.ref(al.wedderburn(g))
        triple = il.make_triple(g, frozenset(), fixed, [0])
        assert first() is None
        _, mapping = al.wedderburn(g).restriction_decomposition(fixed)
        assert il.theta(g, triple).blocks == frozenset({mapping[0]})
        assert il.theta(al.wedderburn(g), triple).blocks == frozenset({mapping[0]})
        assert al.wedderburn(g) is al.wedderburn(g)

    @pytest.mark.parametrize("quotient_blocks", [[0.0], [True]])
    def test_make_triple_rejects_non_integer_blocks(self, z2_bundle, quotient_blocks):
        with pytest.raises(al.AlgebraError, match="unknown block indices"):
            il.make_triple(z2_bundle, frozenset(), z2_bundle.units, quotient_blocks)


@pytest.fixture(scope="module")
def small_decompositions(z2_bundle, swap_and_fix, pair3):
    """The worked instances, a mixed union and 30 random draws with at
    most 8 blocks."""
    out = [al.wedderburn(g) for g in (z2_bundle, swap_and_fix, pair3)]
    # C4 swapping two points: one two-unit orbit with blocks M2 + M2
    swap, fix = {"x": "y", "y": "x"}, {"x": "x", "y": "y"}
    c4 = gp.from_group_action(global_action(
        cyclic_group(4), ("x", "y"), {"r0": fix, "r1": swap, "r2": fix, "r3": swap}
    ))
    # single-block orbits between split orbits of one and two units
    out.append(al.wedderburn(gp.disjoint_union([swap_and_fix, pair3, c4, z2_bundle])))
    rng = random.Random(2211)
    while len(out) < 34:
        d = al.wedderburn(random_groupoid(rng, 32))
        if d.block_count <= 8:
            out.append(d)
    return out


def as_sets(data, lower, upper, q):
    """A (U, V, q) mask row as (U, V, subquotient block indices)."""
    over = int(data.dynamical_of[upper & ~lower])
    d = data.decomp
    return d.orbit_set(lower), d.orbit_set(upper), frozenset(il._sub_indices(over, q))


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (1, 1), (7, 2), (500, 3), (200, 1)])
@pytest.mark.parametrize("high", [2, 9, 1 << 40])
def test_unique_rows_matches_numpy(shape, high):
    rows = np.random.default_rng(shape[0] * 7 + high % 97).integers(0, high, size=shape)
    got, want = il._unique_rows(rows), np.unique(rows, axis=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestMaskLayer:
    """The bitmask tables that verify and analyze read, and the public
    wrappers over them, against the set-based reference."""

    def test_theta_inverse_matches_set_reference(self, small_decompositions):
        for d in small_decompositions:
            data = il._LatticeData(d)
            rows = zip(*(a.tolist() for a in data.theta_inverse()))
            for ideal, row in zip(d.all_ideals(), rows):
                expected = set_theta_inverse(ideal)
                assert as_sets(data, *row) == expected
                triple = il.theta_inverse(ideal)
                assert (triple.lower, triple.upper,
                        triple.quotient_ideal.blocks) == expected
                assert il.sandwich(ideal) == set_sandwich(ideal)

    def test_ideals_match_set_reference(self, small_decompositions):
        """Each ideal's answers against the block-set reference; the binary
        operations on all pairs, or on 16 partners above 64 ideals."""
        rng = random.Random(9)
        for d in small_decompositions:
            ideals = d.all_ideals()
            sets = [frozenset(i for i in range(d.block_count) if k >> i & 1)
                    for k in range(len(ideals))]
            partners = (range(len(ideals)) if len(ideals) <= 64
                        else rng.sample(range(len(ideals)), 16))
            for ideal, blocks in zip(ideals, sets):
                assert ideal.blocks == blocks
                assert ideal.dimension == set_dimension(d, blocks)
                assert ideal.diagonal_units() == set_diagonal_units(d, blocks)
                assert ideal.is_dynamical() == set_is_dynamical(d, blocks)
                assert ideal.is_purely_nondynamical() == set_is_purely_nondynamical(d, blocks)
                assert ideal.support() == set_support(d, blocks)
                again = d.ideal(sorted(blocks))
                assert again == ideal and hash(again) == hash(ideal)
                for j in partners:
                    other, theirs = ideals[j], sets[j]
                    assert (ideal & other).blocks == blocks & theirs
                    assert (ideal | other).blocks == blocks | theirs
                    assert (ideal <= other) == (blocks <= theirs)
                    assert (ideal == other) == (blocks == theirs)
        first, second = small_decompositions[:2]
        assert first.zero_ideal() != second.zero_ideal()

    def test_triples_match_set_reference(self, small_decompositions):
        for d in small_decompositions:
            data = il._LatticeData(d)
            table = il._triple_table(d)
            expected = set_enumerate_triples(d)
            assert [as_sets(data, *row)
                    for row in zip(*(a.tolist() for a in table))] == expected
            public = il.enumerate_triples(d)
            assert [(t.lower, t.upper, t.quotient_ideal.blocks)
                    for t in public] == expected
            for t, reference in zip(public, expected):
                assert il.theta(d, t).blocks == set_theta(d, reference)

    @pytest.mark.parametrize("arrow, broken", [
        (("b", "r1", "a"), "inversion"),     # its inverse keeps the block
        (("a", "r0", "a"), "composition"),   # a unit: its own inverse
    ])
    def test_arrow_table_flip_fails_checks(self, swap_and_fix, arrow, broken):
        d = al.wedderburn(swap_and_fix)
        data = il._LatticeData(d)
        assert il._check_lattice_iso(data).passed
        assert il._check_support_invariance(data).passed
        (block,) = d.orbit_blocks()[frozenset(
            u for u in swap_and_fix.unit_list if u[0] in "ab")]
        data.arrows[swap_and_fix.index(arrow), 0] ^= 1 << block
        lattice = il._check_lattice_iso(data)
        assert not lattice.passed
        assert lattice.witnesses
        support = il._check_support_invariance(data)
        assert not support.passed
        assert support.witnesses
        assert all(w.endswith(f"not closed under {broken}") for w in support.witnesses)

    def test_inside_flip_fails_lattice_diagonal(self, swap_and_fix):
        data = il._LatticeData(al.wedderburn(swap_and_fix))
        data.inside[data.dynamical_of[1]] ^= 1
        result = il._check_lattice_iso(data)
        assert not result.passed
        assert result.witnesses == ["diagonal of I_U differs from C(U) at 0x1"]

    def test_range_orbit_flip_fails_lattice_support(self, swap_and_fix):
        data = il._LatticeData(al.wedderburn(swap_and_fix))
        data.arrows[0, 1] ^= 1      # arrow 0: orbit 0 <-> 1
        result = il._check_lattice_iso(data)
        assert not result.passed
        assert "support of I_U differs from the reduction at 0x1" in result.witnesses

    def test_invalid_rows(self, z2_bundle):
        d = al.wedderburn(gp.disjoint_union([z2_bundle, z2_bundle]))
        data = il._LatticeData(d)
        first, second = d.orbit_masks
        one, other = first & -first, second & -second
        rows = [  # (U, V, q) over orbits 0b01 and 0b10
            (0, 0b11, one | other, False),
            (0, 0b11, one, True),            # misses orbit 1: no full support
            (0, 0b01, first, True),          # fills orbit 0: diagonal
            (0, 0b01, 0, True),              # zero on a nonzero subquotient
            (0b01, 0b00, 0, True),           # U not inside V
            (0b01, 0b11, other, False),
            (0b01, 0b11, one | other, True),  # q outside V minus U
        ]
        lower, upper, q, expected = (np.array(col) for col in zip(*rows))
        assert data.invalid_triples(lower, upper, q).tolist() == expected.tolist()

    def test_bijection_check_can_fail(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        data = il._LatticeData(d)
        triples = il._triple_table(d)
        assert il._check_bijection(data, triples).passed
        data.touched[1] ^= 1
        result = il._check_bijection(data, triples)
        assert not result.passed
        assert result.witnesses


class TestExelWitness:
    def test_pair_arrow(self, pair2):
        f = al.delta(pair2, (2, 1))
        h = il.exel_witness(pair2, (1, 1), [(2, 1)], f)
        assert h.coefficient((1, 1)) == pytest.approx(1.0)
        assert (h * f * h).norm() <= 1e-9

    def test_point_outside_source(self, pair2):
        f = al.delta(pair2, (1, 2))
        h = il.exel_witness(pair2, (1, 1), [(1, 2)], f)
        assert (h * f * h).norm() <= 1e-9

    def test_swap_arrow(self, swap_and_fix):
        arrow = next(
            el for el in swap_and_fix.elements if el[0] == "b" and el[2] == "a"
        )
        x = next(u for u in swap_and_fix.unit_list if u[0] == "a")
        f = al.delta(swap_and_fix, arrow)
        h = il.exel_witness(swap_and_fix, x, [arrow], f)
        assert h.coefficient(x) == pytest.approx(1.0)
        assert (h * f * h).norm() <= 1e-9

    def test_witness_is_positive_contraction(self, swap_and_fix):
        arrow = next(
            el for el in swap_and_fix.elements if el[0] == "b" and el[2] == "a"
        )
        x = next(u for u in swap_and_fix.unit_list if u[0] == "a")
        h = il.exel_witness(swap_and_fix, x, [arrow], al.delta(swap_and_fix, arrow))
        assert h.adjoint().allclose(h)
        m = al.full_representation(swap_and_fix).matrix(h)
        eigenvalues = np.linalg.eigvalsh(m)
        assert eigenvalues.min() >= -1e-12 and eigenvalues.max() <= 1 + 1e-12

    def test_rejects_isotropy_overlap(self, swap_and_fix):
        iso = next(
            el for el in swap_and_fix.elements
            if el[0] == el[2] == "c" and el[1] != "r0"
        )
        x = next(u for u in swap_and_fix.unit_list if u[0] == "c")
        with pytest.raises(gp.GroupoidError, match="isotropy"):
            il.exel_witness(swap_and_fix, x, [iso], al.delta(swap_and_fix, iso))

    def test_rejects_non_bisection(self, swap_and_fix):
        a_to_b = next(el for el in swap_and_fix.elements if el[0] == "b" and el[2] == "a")
        a_iso = next(el for el in swap_and_fix.elements if el[0] == "a" and el[2] == "a" and el[1] == "r0")
        with pytest.raises(gp.GroupoidError, match="bisection"):
            il.exel_witness(
                swap_and_fix,
                next(u for u in swap_and_fix.unit_list if u[0] == "a"),
                [a_to_b, a_iso],
                al.delta(swap_and_fix, a_to_b),
            )

    def test_rejects_function_off_bisection(self, pair2):
        f = al.delta(pair2, (1, 2)) + al.delta(pair2, (2, 1))
        with pytest.raises(gp.GroupoidError, match="vanish"):
            il.exel_witness(pair2, (1, 1), [(2, 1)], f)

    def test_names_the_first_arrow_off_the_bisection_under_any_hash_seed(self):
        """f = 1 on every arrow of swap-and-fix, against one arrow out of the
        first unit: the arrow named is the first off the bisection in
        element order, whatever the string hashes are."""
        script = textwrap.dedent("""
            import numpy as np
            from glab import algebra as al, groupoids as gp, ideals as il
            from glab.groups import cyclic_group, global_action
            action = global_action(cyclic_group(2), ("a", "b", "c"), {
                "r0": {"a": "a", "b": "b", "c": "c"}, "r1": {"a": "b", "b": "a", "c": "c"}})
            g = gp.from_group_action(action)
            x = g.unit_list[0]
            arrow = next(el for el in g.source_fiber(x) if el != x)
            try:
                il.exel_witness(g, x, [arrow], al.AlgebraElement(g, np.ones(len(g))))
            except gp.GroupoidError as exc:
                print(exc)
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        messages = {
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=60, check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2", "3")
        }
        assert messages == {"function does not vanish off the bisection: ('a', 'r0', 'a')\n"}


class TestVerify:
    @pytest.mark.parametrize("name", ["action8", "swap_and_fix", "z2_bundle"])
    def test_reads_only_the_orbit_table(self, name, monkeypatch):
        """``verify`` numbers the orbits and reads the isotropy off the orbit
        table alone: with ``orbits()`` and ``isotropy()`` refused, it gives
        the same report."""
        path = Path(__file__).parent / "data" / f"{name}.json"
        expected = il.verify(load_instance(path).groupoid()).to_dict()

        def refuse(self, *args):
            raise AssertionError("the orbit table was bypassed")

        monkeypatch.setattr(gp.FiniteGroupoid, "orbits", refuse)
        monkeypatch.setattr(gp.FiniteGroupoid, "isotropy", refuse)
        assert il.verify(load_instance(path).groupoid()).to_dict() == expected

    def test_worked_instances(self, z2_bundle, swap_and_fix, pair3):
        for g in (z2_bundle, swap_and_fix, pair3):
            report = il.verify(g)
            assert report.all_passed
            assert report.counts == expected_counts(g)
            assert {c.name for c in report.checks} == {
                "sandwich", "bijection", "obstruction", "lattice", "support",
                "effective",
            }

    def test_empty_groupoid(self):
        report = il.verify(gp.empty_groupoid())
        assert report.all_passed
        assert report.counts["ideals"] == 1

    def test_effective_uniqueness_on_pairs(self, pair3):
        report = il.verify(pair3)
        assert report.check("effective").details["effective"] is True

    def test_report_dict_roundtrips(self, swap_and_fix):
        report = il.verify(swap_and_fix)
        d = report.to_dict()
        assert d["all_passed"] is True
        assert d["counts"]["ideals"] == 8
        assert len(d["conventions"]) == 3
        assert d["parameters"]["seed"] == al.DEFAULT_SEED

    def test_sixteen_orbits(self):
        report = il.verify(gp.unit_space_groupoid(range(16)))
        assert report.all_passed
        assert report.check("lattice").details["invariant_sets"] == 1 << 16
        assert report.check("support").details["distinct_supports"] == 1 << 16

    def test_verdicts_stable_across_seeds_and_tolerances(self):
        # the range docs/file-formats.md documents: zero_eps from 1e-12 to 1e-4
        rng = random.Random(2)
        draws = []
        while len(draws) < 20:
            g = random_groupoid(rng, 32)
            if len(expected_block_dimensions(g)) <= 10:
                draws.append(g)
        for g in draws:
            outcomes = set()
            for zero_eps in (1e-12, 1e-9, 1e-6, 1e-4):
                for seed in (0, 1, 2):
                    report = il.verify(g, TolerancePolicy(zero_eps=zero_eps), seed)
                    assert report.all_passed, (g.name, zero_eps, seed)
                    outcomes.add((tuple(sorted(report.block_dimensions)),
                                  tuple(sorted(report.counts.items()))))
            assert outcomes == {(tuple(expected_block_dimensions(g)),
                                 tuple(sorted(expected_counts(g).items())))}, g.name

    def test_cap(self):
        g = gp.unit_space_groupoid(tuple(range(21)))
        with pytest.raises(CapExceededError):
            il.verify(g)

    def test_random_sample(self):
        rng = random.Random(7)
        done = 0
        while done < 8:
            g = random_groupoid(rng, 32)
            if al.wedderburn(g).block_count > 10:
                continue
            report = il.verify(g)
            assert report.all_passed, [
                (c.name, c.witnesses) for c in report.checks if not c.passed
            ]
            done += 1


class TestAgainstBruteForceSubspaces:
    """Cross-validate the block-subset ideal calculus against honest
    subspace computations on the worked instances."""

    def test_every_ideal_subspace_closed(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        rep = al.full_representation(swap_and_fix)
        rng = np.random.default_rng(23)
        for ideal in d.all_ideals():
            basis = list(ideal_span(ideal).T)
            assert len(basis) == ideal.dimension
            for _ in range(5):
                if not basis:
                    break
                coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
                member = al.AlgebraElement(
                    swap_and_fix, sum(c * b for c, b in zip(coeffs, basis))
                )
                a = al.random_element(swap_and_fix, rng)
                product = member * a
                generated = d.ideal_generated_by(product)
                assert generated.blocks <= ideal.blocks
