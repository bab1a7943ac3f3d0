"""Faults in the data each verifier check reads, and the witness it reports.

Each case corrupts one decomposition's record (a block's orbit, entries of
``_support``, an idempotent coefficient, which moves one collapse trace, or
a block dimension) through the ``corrupt`` fixture and reads the report of
``verify``: the checks named fail, each with the documented witness.
"""

import pytest

from glab import algebra as al
from glab import groupoids as gp
from glab import ideals as il
from glab.groups import cyclic_group, global_action


def swap():
    """C2 swapping a and b and fixing c: block 0 (M2) over orbit 0 = {a, b},
    blocks 1 (trivial) and 2 (sign) over orbit 1 = {c}.  Arrows 0-2 are the
    units over a, b, c, arrow 3 is ('b', 'r1', 'a')."""
    maps = {"r0": {"a": "a", "b": "b", "c": "c"}, "r1": {"a": "b", "b": "a", "c": "c"}}
    return gp.from_group_action(global_action(cyclic_group(2), ("a", "b", "c"), maps))


def z2():
    """C2 over one unit: block 0 (trivial, trace 1) and block 1 (sign, trace
    0); arrow 0 is the unit."""
    return gp.group_bundle({"u": cyclic_group(2)})


def c2_and_point():
    """Blocks 0 and 1 over orbit 0 (isotropy C2), block 2 over orbit 1
    (trivial isotropy)."""
    return gp.group_bundle({"u": cyclic_group(2), "v": cyclic_group(1)})


def c9_on_three_points():
    """C9 rotating three points: one orbit of 3 units with isotropy C3,
    three blocks of dimension 3."""
    maps = {f"r{k}": {x: (x + k) % 3 for x in range(3)} for k in range(9)}
    return gp.from_group_action(global_action(cyclic_group(9), (0, 1, 2), maps))


def two_points():
    return gp.unit_space_groupoid(range(2))


def one_point():
    return gp.unit_space_groupoid(range(1))


BLOCK_FACT = ("sandwich", "bijection", "lattice")
ARROW_FACT = ("lattice", "support")

FAULTS = {
    "block-over-no-orbit": (swap, {"orbit_index": {0: 2}}, BLOCK_FACT,
                            "block 0 lies over no orbit"),
    "orbit-without-block": (swap, {"orbit_index": {0: 1}}, BLOCK_FACT,
                            "orbit 0 has no block"),
    "arrow-in-no-support": (swap, {"support": {(3, 0): False}}, ARROW_FACT,
                            "arrow ('b', 'r1', 'a') lies in no block's support"),
    "arrow-in-stray-support": (
        swap, {"support": {(2, 0): True}}, ARROW_FACT,
        "arrow ('c', 'r0', 'c') of orbit 1 lies in the support of block 0 over orbit 0"),
    "pnd-ideal-escapes": (two_points, {"orbit_index": {1: 0}}, ("obstruction",),
                          "purely non-dynamical ideal 0x1 escapes the obstruction ideal"),
    "obstruction-not-minimal": (
        c2_and_point, {"orbit_index": {1: 1}}, ("obstruction",),
        "dynamical ideal 0x2 contains all pnd ideals but not J^ob"),
    "kernel-meets-diagonal": (z2, {"idempotents": {(0, 0): -0.5}}, ("obstruction",),
                              "collapse kernel meets the diagonal"),
    "obstruction-support": (
        z2, {"support": {(0, 0): False, (0, 1): False}}, ("obstruction",),
        "obstruction ideal support differs from the non-effective reduction"),
    "kernel-on-effective": (one_point, {"idempotents": {(0, 0): 0.0}}, ("obstruction",),
                            "collapse kernel is nonzero on an effective groupoid"),
    "kernel-support": (
        swap, {"idempotents": {(2, 2): 1.5}}, ("obstruction",),
        "collapse kernel support differs from the obstruction ideal support"),
    "effective": (two_points, {"orbit_index": {1: 0}}, ("effective",),
                  "nonzero ideal 0x1 misses the diagonal on an effective groupoid"),
}


def failing(d) -> dict:
    return {c.name: c.witnesses for c in il.verify(d).checks if not c.passed}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_its_checks(corrupt, fault):
    build, entries, checks, witness = FAULTS[fault]
    d = al.wedderburn(build())
    assert il.verify(d).all_passed
    found = failing(corrupt(d, **entries))
    for name in checks:
        assert witness in found.get(name, []), (name, found)


# Each exact isotropy invariant has a fault that it alone catches: the report
# fails on ``obstruction`` only, with that invariant's witnesses only.
INVARIANT_FAULTS = {
    # dimensions (5, 1, 1) still square-sum to 27 = 3^2 * 3
    "dimension-divides": (c9_on_three_points, {"dims": {0: 5, 1: 1, 2: 1}}, [
        "block 0: dimension 5 is not |O| = 3 times a divisor of |H| = 3",
        "block 1: dimension 1 is not |O| = 3 times a divisor of |H| = 3",
        "block 2: dimension 1 is not |O| = 3 times a divisor of |H| = 3",
    ]),
    # 2 divides |H| = 2, but 2^2 + 1^2 = 5
    "square-sum": (z2, {"dims": {0: 2}}, [
        "orbit 0: block dimensions square-sum to 5, not |O|^2 |H| = 2",
    ]),
    # the trivial block's trace 0.5 + 0.5 becomes 0.75 + 0.5: still above the
    # cut, so the collapse kernel is unchanged
    "trace-is-orbit-size": (z2, {"idempotents": {(0, 0): 0.75}}, [
        "orbit 0: block 0 has collapse trace 1.25, not |O| = 1",
    ]),
}


@pytest.mark.parametrize("fault", INVARIANT_FAULTS)
def test_exact_invariant_fault_fails_only_its_invariant(corrupt, fault):
    build, entries, witnesses = INVARIANT_FAULTS[fault]
    d = al.wedderburn(build())
    assert il.verify(d).all_passed
    assert failing(corrupt(d, **entries)) == {"obstruction": witnesses}


def test_second_block_above_the_cut(corrupt):
    """The trace statement counts the blocks above the cut: a sign block
    raised above it is a second one."""
    d = corrupt(al.wedderburn(z2()), idempotents={(0, 1): 1.5})
    witnesses = failing(d)["obstruction"]
    assert "orbit 0: 2 blocks have a collapse trace above 0.5, not one" in witnesses
