import gc
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glab import groupoids as gp
from glab.errors import CapExceededError
from glab.formats import instance_from_dict
from glab.generators import random_groupoid, random_instance, random_partial_action, random_group
from glab.groups import (PartialAction, cyclic_group, dihedral_group, global_action,
                         symmetric_group)

from _oracles import (bfs_orbits, composition_arrays, first_law_failure,
                      first_nonassociative, joint_effectiveness_search)


class TestValidation:
    def test_pair_groupoid_validates(self, pair2):
        assert pair2.validate().ok

    def test_broken_inverse_named(self):
        g = gp.FiniteGroupoid(
            ("u", "g"),
            ("u",),
            {"u": "u", "g": "u"},
            {"u": "u", "g": "u"},
            {"u": "u", "g": "u"},  # not involutive on g
            {("u", "u"): "u", ("u", "g"): "g", ("g", "u"): "g", ("g", "g"): "u"},
        )
        report = g.validate()
        assert not report.ok
        assert "inverse" in report.failure and "'g'" in report.failure

    def test_constructed_groupoid_validates(self, swap_and_fix):
        assert swap_and_fix.validate().ok

    def test_missing_composition_named(self):
        g = gp.FiniteGroupoid(
            ("u",), ("u",), {"u": "u"}, {"u": "u"}, {"u": "u"}, {},
        )
        report = g.validate()
        assert not report.ok
        assert "undefined on composable pair" in report.failure

    def test_nonassociative_table_rejected(self):
        els = ("u", "a", "b", "c")
        compose = {}
        for x in els:
            compose[("u", x)] = x
            compose[(x, "u")] = x
        # a*a = u keeps inverses consistent; the rest breaks associativity
        compose.update({
            ("a", "a"): "u", ("b", "b"): "u", ("c", "c"): "u",
            ("a", "b"): "c", ("b", "a"): "c", ("a", "c"): "b",
            ("c", "a"): "b", ("b", "c"): "c", ("c", "b"): "a",
        })
        g = gp.FiniteGroupoid(
            els, ("u",),
            {x: "u" for x in els}, {x: "u" for x in els},
            {"u": "u", "a": "a", "b": "b", "c": "c"},
            compose,
        )
        report = g.validate()
        assert not report.ok
        assert "associativity" in report.failure or "source" in report.failure


def with_table(g, table, name="table"):
    """A copy of ``g`` that multiplies by the dict ``table``."""
    return gp.FiniteGroupoid(
        g.elements, g.units,
        {el: g.source(el) for el in g.elements},
        {el: g.range(el) for el in g.elements},
        {el: g.inverse(el) for el in g.elements},
        table, name=name,
    )


def corrupted(g, rng, count):
    """``g`` with ``count`` products of non-unit, non-inverse pairs moved to
    another arrow with the same source and range, so that every check but
    associativity still holds; None when ``g`` has no such product."""
    table = {(a, b): g.compose(a, b) for a, b in g.composable_pairs()}
    candidates = []
    for (a, b), ab in table.items():
        if a in g.units or b in g.units or b == g.inverse(a):
            continue
        others = [el for el in g.elements if el != ab
                  and g.source(el) == g.source(ab) and g.range(el) == g.range(ab)]
        if others:
            candidates.append(((a, b), others))
    if not candidates:
        return None
    for key, others in rng.sample(candidates, min(count, len(candidates))):
        table[key] = rng.choice(others)
    return with_table(g, table, name="corrupted")


class TestVectorisedValidation:
    """``validate`` checks associativity over index arrays; the literal
    triple loop in ``_oracles.first_nonassociative`` is the reference."""

    def test_first_failure_matches_reference(self):
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            g = corrupted(random_groupoid(rng, 48), rng, rng.randint(1, 3))
            if g is None:
                continue
            expected = first_nonassociative(g)
            assert expected is not None
            report = g.validate()
            assert not report.ok and report.associativity == "full"
            assert report.failure == expected[1]
            checked += 1
        assert checked >= 20

    @staticmethod
    def late_failure():
        """pair(18), holding the first 104,976 triples, then a Z3 bundle
        with one broken product."""
        g = gp.disjoint_union([gp.pair_groupoid(range(18)),
                               gp.group_bundle({"u": cyclic_group(3)})])
        table = {(a, b): g.compose(a, b) for a, b in g.composable_pairs()}
        r1 = (1, ("u", "r1"))
        table[(r1, r1)] = r1
        return with_table(g, table)

    def test_failure_past_the_first_chunk(self):
        g = self.late_failure()
        position, message = first_nonassociative(g)
        assert position >= 18 ** 4 > 1 << 14
        assert g.validate().failure == message

    def test_sampled_mode_draws_from_every_triple(self):
        # the first 50,000 triples all associate; the seeded draw still
        # lands on a failing triple of the bundle
        report = self.late_failure().validate(assoc_budget=50_000)
        assert not report.ok and report.associativity == "sampled(50000)"
        assert report.failure.startswith("associativity fails at ((1, ('u'")

    @pytest.mark.parametrize("product, message", [
        ("bogus", "(1, 2)*(2, 1) = 'bogus' is not an element"),
        ((1, 2), "source((1, 2)*(2, 1)) != source((2, 1))"),
        ((2, 1), "range((1, 2)*(2, 1)) != range((1, 2))"),
        (None, "composition undefined on composable pair ((1, 2), (2, 1))"),
    ])
    def test_pass_messages(self, pair2, product, message):
        table = {(a, b): pair2.compose(a, b) for a, b in pair2.composable_pairs()}
        table[((1, 2), (2, 1))] = product
        if product is None:
            del table[((1, 2), (2, 1))]
        g = with_table(pair2, table)
        assert g.validate().failure == message
        with pytest.raises(gp.GroupoidError, match=re.escape(message)):
            g.composition_table()

    def test_pass_names_an_extra_table_key(self, pair2):
        table = {(a, b): pair2.compose(a, b) for a, b in pair2.composable_pairs()}
        table[((1, 1), (2, 2))] = (1, 2)
        assert with_table(pair2, table).validate().failure == (
            "composition defined on non-composable pair ((1, 1), (2, 2))")

    def test_pass_names_pairs_independently_of_hash_seed(self):
        # string elements hash differently per PYTHONHASHSEED; the pass
        # names the first missing pair in composable_pairs order and the
        # first extra key in table order
        script = textwrap.dedent("""
            from glab import groupoids as gp
            g = gp.pair_groupoid("abc")
            pairs = list(g.composable_pairs())
            for table in (
                {p: g.compose(*p) for p in pairs if p not in pairs[5::4]},
                {**{p: g.compose(*p) for p in pairs},
                 **{(("a", "a"), y): y for y in g.elements if y[0] != "a"}},
            ):
                h = gp.FiniteGroupoid(g.elements, g.units, g._source, g._range,
                                      g._inverse, table)
                print(h.validate().failure)
        """)
        src = str(Path(gp.__file__).parents[1])
        outputs = {
            subprocess.run([sys.executable, "-c", script], check=True, text=True,
                           capture_output=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                           ).stdout
            for seed in ("1", "2")
        }
        assert outputs == {
            "composition undefined on composable pair (('c', 'a'), ('a', 'b'))\n"
            "composition defined on non-composable pair (('a', 'a'), ('b', 'a'))\n"
        }

    def test_pass_reports_what_compose_raises(self, pair2):
        def compose(a, b):
            if (a, b) == ((1, 2), (2, 1)):
                raise gp.GroupoidError("no product here")
            return pair2.compose(a, b)

        assert with_table(pair2, compose).validate().failure == "no product here"

    def test_sampled_mode_catches_pervasive_failure(self):
        # Z7 with a*b shifted by one off the identity and inverse pairs:
        # the axioms other than associativity hold, most triples fail
        els = tuple(range(7))

        def mul(a, b):
            return (a + b + (a and b and (a + b) % 7 and 1)) % 7

        g = gp.FiniteGroupoid(els, (0,), dict.fromkeys(els, 0), dict.fromkeys(els, 0),
                              {a: -a % 7 for a in els}, mul)
        report = g.validate(assoc_budget=100)
        assert not report.ok and report.associativity == "sampled(100)"
        a, b, c = (int(x) for x in report.failure.split("(")[1].rstrip(")").split(","))
        assert mul(mul(a, b), c) != mul(a, mul(b, c))
        assert g.validate().failure == first_nonassociative(g)[1]

    def test_sampled_mode_on_a_valid_groupoid(self):
        g = gp.pair_groupoid(range(6))
        assert repr(g.validate(assoc_budget=50)) == (
            "ValidationReport(ok, associativity=sampled(50))")
        assert g.validate(assoc_budget=6 ** 4).associativity == "full"

    def test_composition_table_from_the_pass(self, swap_and_fix):
        for g in (swap_and_fix, gp.pair_groupoid(range(4)),
                  gp.unit_space_groupoid(range(3)), gp.empty_groupoid()):
            expected = composition_arrays(g)
            for got, want in zip(g.composition_table(), expected):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_validate_caches_the_table(self):
        g = gp.pair_groupoid(range(3))
        g._caches.clear()
        assert g.validate().ok
        assert g.composition_table() is g._caches["composition"]

    def test_pass_allocates_no_lasting_tracked_objects(self):
        # per-pair tuples kept through the pass would set off collections
        # that move the groupoid into the oldest generation, where dead
        # groupoids pile up until a full collection
        g = gp.pair_groupoid(range(18))
        starts = []

        def count(phase, info):
            starts.append(phase)

        threshold = gc.get_threshold()
        gc.collect()
        gc.set_threshold(700, 10, 10)
        gc.callbacks.append(count)
        try:
            assert g.validate().ok
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
        assert starts.count("start") <= 1

    def test_unvalidated_table_raises_on_a_bad_product(self):
        g = gp.FiniteGroupoid(("u",), ("u",), {"u": "u"}, {"u": "u"}, {"u": "u"},
                              lambda a, b: "nowhere")
        with pytest.raises(gp.GroupoidError, match="is not an element"):
            g.composition_table()


def s4_coset_action():
    """S4 acting on its 12 left cosets of an order-2 subgroup."""
    s4 = symmetric_group(4)
    subgroup = (s4.identity, "p1023")
    cosets = []
    for a in s4.elements:
        coset = frozenset(s4.mul(a, h) for h in subgroup)
        if coset not in cosets:
            cosets.append(coset)
    coset_of = {a: i for i, c in enumerate(cosets) for a in c}
    maps = {g: {i: coset_of[s4.mul(g, next(iter(c)))] for i, c in enumerate(cosets)}
            for g in s4.elements}
    return PartialAction(s4, range(len(cosets)), maps)


class TestIndexCore:
    """Constructors hand ``validate`` their product as index arithmetic;
    the tables must equal ``_oracles.composition_arrays`` and the verdicts
    the literal reference loops."""

    @staticmethod
    def check(g):
        for got, want in zip(g.composition_table(), composition_arrays(g)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert g.validate().ok
        assert first_law_failure(g) is None

    def test_every_constructor(self, pair2, z2_bundle, swap_and_fix):
        s4 = symmetric_group(4)
        partial = random_partial_action(random.Random(3), dihedral_group(3), 5)
        for g in (gp.pair_groupoid(range(5)), gp.pair_groupoid(()),
                  gp.group_bundle({"a": s4, "b": cyclic_group(3), "c": s4}),
                  gp.group_bundle({}), gp.from_partial_action(partial),
                  gp.from_partial_action(s4_coset_action()), swap_and_fix,
                  gp.disjoint_union([pair2, z2_bundle, swap_and_fix]),
                  gp.disjoint_union([]), gp.unit_space_groupoid("xyz"),
                  gp.empty_groupoid()):
            self.check(g)
            if len(g) <= 60:
                assert first_nonassociative(g) is None

    def test_random_groupoids(self):
        for seed in range(400):
            self.check(random_groupoid(random.Random(seed), 48))

    def test_constructors_validate_without_compose(self, monkeypatch):
        calls = []
        compose = gp.FiniteGroupoid.compose

        def counted(self, a, b):
            calls.append((a, b))
            return compose(self, a, b)

        monkeypatch.setattr(gp.FiniteGroupoid, "compose", counted)
        for g in (gp.pair_groupoid(range(18)), gp.from_partial_action(s4_coset_action())):
            assert g.validate().ok
        assert calls == []

    def test_unit_and_inverse_laws_match_reference(self):
        # move one product of each law to another arrow with the same
        # source and range, so that only the law itself breaks
        named = set()
        for seed in range(40):
            rng = random.Random(seed)
            g = random_groupoid(rng, 24)
            table = {(a, b): g.compose(a, b) for a, b in g.composable_pairs()}
            el = rng.choice(g.elements)
            key = rng.choice([(el, g.source(el)), (g.range(el), el),
                              (el, g.inverse(el)), (g.inverse(el), el)])
            others = [x for x in g.elements if x != table[key]
                      and g.source(x) == g.source(table[key])
                      and g.range(x) == g.range(table[key])]
            if not others:
                continue
            table[key] = rng.choice(others)
            h = with_table(g, table)
            expected = first_law_failure(h)
            assert h.validate().failure == expected
            named.add(4 if expected.startswith("inverse(") else
                      2 if expected.startswith("range(") else
                      3 if "*inverse(" in expected else 1)
        assert named == {1, 2, 3, 4}

    def test_index_product_failure_is_named(self, pair2):
        # a wrong index product is caught by the array comparisons and
        # named through compose, as the per-pair pass names it
        g = with_table(pair2, {(a, b): pair2.compose(a, b)
                               for a, b in pair2.composable_pairs()})
        g._mul_table[((1, 2), (2, 1))] = (1, 2)
        g._compose_indices = lambda ia, ib: np.array(
            [g.index(g.compose(g.elements[a], g.elements[b]))
             for a, b in zip(ia, ib)], dtype=np.intp)
        assert g.validate().failure == "source((1, 2)*(2, 1)) != source((2, 1))"

    def test_union_of_an_unchecked_part_uses_the_pass(self, pair2):
        table = {(a, b): pair2.compose(a, b) for a, b in pair2.composable_pairs()}
        table[((1, 2), (2, 1))] = (1, 2)
        with pytest.raises(gp.ConstructionError, match=re.escape(
                "source((0, (1, 2))*(0, (2, 1))) != source((0, (2, 1)))")):
            gp.disjoint_union([with_table(pair2, table)])


class TestConstructors:
    def test_swap_and_fix_shape(self, swap_and_fix):
        assert len(swap_and_fix) == 6
        assert len(swap_and_fix.units) == 3
        nonunits = [el for el in swap_and_fix.elements
                    if el not in swap_and_fix.units]
        arrows = [el for el in nonunits
                  if swap_and_fix.source(el) != swap_and_fix.range(el)]
        isotropy = [el for el in nonunits
                    if swap_and_fix.source(el) == swap_and_fix.range(el)]
        assert len(arrows) == 2 and len(isotropy) == 1

    def test_pair_groupoid_shape(self, pair2):
        assert len(pair2) == 4
        assert len(pair2.units) == 2

    def test_bundle_shape(self, z2_bundle):
        assert len(z2_bundle) == 2
        assert len(z2_bundle.units) == 1

    def test_partial_action_error_names_pair(self):
        z4 = cyclic_group(4)
        from glab.groups import PartialAction, PartialActionError

        maps = {
            "r0": {x: x for x in "abcd"},
            "r1": {"a": "b", "b": "c", "c": "d", "d": "a"},
            "r2": {"a": "c", "c": "a"},
            "r3": {"b": "a", "c": "b", "d": "c", "a": "d"},
        }
        # construction validates, so from_partial_action never sees it
        with pytest.raises(PartialActionError, match=r"\(g="):
            PartialAction(z4, "abcd", maps)

    def test_disjoint_union(self, pair2, z2_bundle):
        u = gp.disjoint_union([pair2, z2_bundle])
        assert len(u) == 6
        assert len(u.orbits()) == 2

    def test_empty_groupoid_is_valid(self):
        g = gp.empty_groupoid()
        assert g.validate().ok
        assert g.orbits() == ()

    def test_restrict_to_empty(self, swap_and_fix):
        sub = swap_and_fix.restrict(frozenset())
        assert len(sub) == 0
        assert sub.validate().ok

    def test_tables_round_trip(self, pair2):
        compose = {
            (a, b): pair2.compose(a, b) for a, b in pair2.composable_pairs()
        }
        rebuilt = gp.from_tables(
            pair2.elements,
            pair2.unit_list,
            {el: pair2.source(el) for el in pair2.elements},
            {el: pair2.range(el) for el in pair2.elements},
            {el: pair2.inverse(el) for el in pair2.elements},
            compose,
        )
        assert rebuilt.validate().ok
        assert rebuilt.elements == pair2.elements


class TestOrbitsAndInvariance:
    def test_pair_single_orbit(self, pair3):
        assert len(pair3.orbits()) == 1

    def test_swap_and_fix_orbits(self, swap_and_fix):
        orbits = swap_and_fix.orbits()
        sizes = sorted(len(o) for o in orbits)
        assert sizes == [1, 2]
        assert bfs_orbits(swap_and_fix) == list(orbits)

    def test_invariant_subsets_count(self, swap_and_fix):
        subsets = swap_and_fix.invariant_subsets()
        assert len(subsets) == 4
        as_set = set(subsets)
        for a in subsets:
            for b in subsets:
                assert a | b in as_set and a & b in as_set

    def test_invariant_subsets_cap(self):
        g = gp.unit_space_groupoid(tuple(range(25)))
        with pytest.raises(CapExceededError):
            g.invariant_subsets(cap=1 << 10)

    def test_restrict_to_invariant_set(self, swap_and_fix):
        orbit = next(o for o in swap_and_fix.orbits() if len(o) == 1)
        sub = swap_and_fix.restrict(orbit)
        assert len(sub) == 2
        assert len(sub.units) == 1
        assert sub.validate().ok

    def test_restrict_pair_to_subset(self, pair3):
        units = [u for u in pair3.unit_list][:2]
        sub = pair3.restrict(units)
        assert len(sub) == 4
        assert sub.validate().ok

    def test_restrict_every_invariant_set(self, swap_and_fix, z2_bundle):
        for g in (swap_and_fix, z2_bundle):
            for members in g.invariant_subsets():
                sub = g.restrict(members)
                assert sub.validate().ok
                assert sub.units == members


class TestEffectiveness:
    def test_swap_and_fix(self, swap_and_fix):
        effective = swap_and_fix.effective_units()
        assert {u[0] for u in effective} == {"a", "b"}
        noneffective = swap_and_fix.units - effective
        assert swap_and_fix.is_invariant_unit_set(noneffective)

    def test_pair_all_effective(self, pair3):
        assert pair3.is_effective()

    def test_bundle_nowhere_effective(self, z2_bundle):
        assert z2_bundle.effective_units() == frozenset()

    def test_noneffective_equals_isotropy_sources(self, swap_and_fix, z2_bundle, pair3):
        for g in (swap_and_fix, z2_bundle, pair3):
            noneffective = g.units - g.effective_units()
            isotropy_sources = frozenset(
                g.source(el) for el in g.isotropy_elements() if el not in g.units
            )
            assert noneffective == isotropy_sources

    def test_jointly_effective_matches_effective(self, swap_and_fix, pair2):
        for g in (swap_and_fix, pair2):
            for x in g.unit_list:
                assert g.is_jointly_effective_at(x) == g.is_effective_at(x)

    def test_jointly_effective_matches_bisection_search(self):
        """``is_jointly_effective_at`` against the literal definition, a
        search over bisection families: at every unit of 30 non-effective
        draws with at most 12 non-units, and of a 24-arrow action with
        8 orbits (the smallest ``lattice`` benchmark shape)."""
        rng = random.Random(419)
        searched = 0
        while searched < 30:
            g = random_groupoid(rng, 20)
            if len(g.elements) - len(g.units) > 12 or g.is_effective():
                continue
            searched += 1
            for x in g.unit_list:
                assert joint_effectiveness_search(g, x) == g.is_jointly_effective_at(x)
        rng = random.Random(12)
        while True:
            g = instance_from_dict(random_instance(rng, "action", 12, group_order=6)).groupoid()
            if len(g.elements) == 24 and len(g.orbits()) == 8:
                break
        assert not g.is_effective()
        for x in g.unit_list:
            assert joint_effectiveness_search(g, x) == g.is_jointly_effective_at(x)
        # the search gives up when out of budget
        x = next(x for x in g.unit_list if not g.is_effective_at(x))
        assert joint_effectiveness_search(g, x, budget=0) is None

    def test_isotropy_group(self, swap_and_fix):
        fixed = next(u for u in swap_and_fix.unit_list if u[0] == "c")
        iso = swap_and_fix.isotropy(fixed)
        assert len(iso.elements) == 2
        assert iso.as_cayley().order == 2


class TestFreenessLemma:
    """Freeness of a partial action at a point against effectiveness of
    its transformation groupoid, both directions, both strengths."""

    def check(self, action):
        g = gp.from_partial_action(action)
        e = action.group.identity
        for x in action.space:
            unit = (x, e, x)
            assert action.is_topologically_free_at(x) == g.is_effective_at(unit)
            assert (
                action.is_strongly_topologically_free_at(x)
                == g.is_jointly_effective_at(unit)
            )

    def test_swap_and_fix_action(self):
        z2 = cyclic_group(2)
        self.check(global_action(
            z2,
            ("a", "b", "c"),
            {"r0": {x: x for x in "abc"}, "r1": {"a": "b", "b": "a", "c": "c"}},
        ))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_partial_actions(self, seed):
        rng = random.Random(seed)
        group = random_group(rng, 6)
        action = random_partial_action(rng, group, rng.randint(1, 6))
        self.check(action)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_groupoids_validate(seed):
    rng = random.Random(seed)
    g = random_groupoid(rng, 32)
    assert g.validate().ok
    orbits = g.orbits()
    assert frozenset().union(*orbits) == g.units if orbits else not g.units
    assert bfs_orbits(g) == list(orbits)
