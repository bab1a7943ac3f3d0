import random

import pytest

from glab.groups import (
    CayleyGroup,
    GroupError,
    PartialAction,
    PartialActionError,
    cyclic_group,
    dihedral_group,
    global_action,
    symmetric_group,
    trivial_group,
)

from _oracles import first_group_failure


class TestCayleyGroup:
    def test_cyclic_orders(self):
        for n in (1, 2, 5, 8):
            g = cyclic_group(n)
            assert g.order == n
            assert g.mul("r1", f"r{n - 1}") == "r0" if n > 1 else True

    def test_dihedral(self):
        d3 = dihedral_group(3)
        assert d3.order == 6
        assert d3.mul("s0", "s0") == "r0"
        # reflections conjugate rotations to their inverses
        assert d3.mul("s0", d3.mul("r1", "s0")) == "r2"

    def test_symmetric(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        assert sorted(s3.elements)[0] == "p012"
        assert s3.identity == "p012"

    def test_trivial(self):
        assert trivial_group().order == 1

    def test_missing_identity_rejected(self):
        with pytest.raises(GroupError):
            CayleyGroup.from_rows(["a", "b"], [["a", "a"], ["a", "a"]])

    def test_associativity_enforced(self):
        rows = [["a", "b"], ["b", "b"]]
        with pytest.raises(GroupError):
            CayleyGroup.from_rows(["a", "b"], rows)


class TestIndexTableCheck:
    """``CayleyGroup`` checks its axioms on a k x k index table; the
    literal loops of ``_oracles.first_group_failure`` are the reference."""

    @staticmethod
    def rows_of(group):
        return [[group.mul(a, b) for b in group.elements] for a in group.elements]

    def test_first_failure_matches_reference(self):
        groups = (cyclic_group(5), dihedral_group(3), symmetric_group(3),
                  dihedral_group(4), trivial_group())
        failures = set()
        for seed in range(300):
            rng = random.Random(seed)
            group = rng.choice(groups)
            els = list(group.elements)
            rows = self.rows_of(group)
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(len(els)), rng.randrange(len(els))
                rows[i][j] = rng.choice(els + ["zz"] if rng.random() < 0.1 else els)
            expected = first_group_failure(els, rows)
            if expected is None:
                built = CayleyGroup.from_rows(els, rows)
                assert all(built.mul(built.inverse(g), g) == built.identity for g in els)
                continue
            with pytest.raises(GroupError) as err:
                CayleyGroup.from_rows(els, rows)
            assert str(err.value) == expected
            failures.add(expected.split(" ")[0])
        assert failures == {"associativity", "table", "element", "product"}

    def test_index_table(self):
        d4 = dihedral_group(4)
        for i, a in enumerate(d4.elements):
            for j, b in enumerate(d4.elements):
                assert d4.elements[d4._mul_index[i, j]] == d4.mul(a, b)


def swap_fix_action():
    z2 = cyclic_group(2)
    return global_action(
        z2,
        ("a", "b", "c"),
        {"r0": {"a": "a", "b": "b", "c": "c"}, "r1": {"a": "b", "b": "a", "c": "c"}},
    )


class TestPartialAction:
    def test_global_action_is_global(self):
        assert swap_fix_action().is_global

    def test_identity_must_act_trivially(self):
        z2 = cyclic_group(2)
        with pytest.raises(PartialActionError):
            PartialAction(z2, ("a", "b"), {"r0": {"a": "b", "b": "a"}, "r1": {}})

    def test_inverse_axiom(self):
        z2 = cyclic_group(2)
        with pytest.raises(PartialActionError, match="inverse"):
            PartialAction(
                z2,
                ("a", "b"),
                {"r0": {"a": "a", "b": "b"}, "r1": {"a": "b"}},
            )

    def test_map_for_non_element_rejected(self):
        maps = {"r0": {"x": "x", "y": "y"}, "r1": {"x": "y", "y": "x"}, "zzz": {"x": "y"}}
        with pytest.raises(PartialActionError, match="^map given for non-element 'zzz'$"):
            PartialAction(cyclic_group(2), ["x", "y"], maps)

    def test_composition_axiom_names_pair(self):
        z4 = cyclic_group(4)
        maps = {
            "r0": {"a": "a", "b": "b", "c": "c", "d": "d"},
            "r1": {"a": "b", "b": "c", "c": "d", "d": "a"},
            "r2": {"a": "c", "c": "a"},
            "r3": {"b": "a", "c": "b", "d": "c", "a": "d"},
        }
        with pytest.raises(PartialActionError, match=r"\(g="):
            PartialAction(z4, ("a", "b", "c", "d"), maps)

    def test_restriction_is_partial_action(self):
        restricted = swap_fix_action().restricted_to({"a", "c"})
        restricted.validate()
        assert restricted.domain("r1") == frozenset({"c"})

    def test_freeness_at_points(self):
        action = swap_fix_action()
        assert action.is_topologically_free_at("a")
        assert action.is_strongly_topologically_free_at("a")
        assert not action.is_topologically_free_at("c")
        assert not action.is_strongly_topologically_free_at("c")

    def test_free_swap(self):
        z2 = cyclic_group(2)
        action = global_action(
            z2, ("a", "b"), {"r0": {"a": "a", "b": "b"}, "r1": {"a": "b", "b": "a"}}
        )
        assert all(action.is_topologically_free_at(x) for x in "ab")
        assert action.is_relatively_strongly_free()

    def test_trivial_group_vacuous(self):
        action = global_action(trivial_group(), ("x",), {"e": {"x": "x"}})
        assert action.is_strongly_topologically_free_at("x")

    def test_unknown_point_rejected(self):
        with pytest.raises(PartialActionError):
            swap_fix_action().is_topologically_free_at("z")
        with pytest.raises(PartialActionError):
            swap_fix_action().is_strongly_topologically_free_at("z")
