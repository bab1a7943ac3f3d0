import pytest

from glab import algebra
from glab import (
    cyclic_group,
    from_group_action,
    global_action,
    group_bundle,
    pair_groupoid,
)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z2_bundle(z2):
    """The two-element group as a bundle over one unit: C ⊕ C."""
    return group_bundle({"u": z2})


@pytest.fixture(scope="session")
def swap_and_fix(z2):
    """Z/2Z acting on {a, b, c} by swapping a and b: M_2 ⊕ C ⊕ C."""
    action = global_action(
        z2,
        ("a", "b", "c"),
        {"r0": {"a": "a", "b": "b", "c": "c"}, "r1": {"a": "b", "b": "a", "c": "c"}},
    )
    return from_group_action(action, name="swap-and-fix")


@pytest.fixture(scope="session")
def pair2():
    return pair_groupoid((1, 2))


@pytest.fixture(scope="session")
def pair3():
    return pair_groupoid((1, 2, 3))


@pytest.fixture(scope="session")
def corrupt():
    """``corrupt(d, **entries)``: a new view of decomposition ``d`` over
    copies of its record's arrays, with each ``entries[name]`` (index ->
    value) written into the array ``name``: ``dims``, ``idempotents``,
    ``orbit_index`` or ``support``.  The groupoid's cached decomposition
    is left as it was."""
    names = ("dims", "idempotents", "orbit_index", "support")

    def build(d, **entries):
        record = d._record
        arrays = {name: getattr(record, name).copy() for name in names}
        for name, changes in entries.items():
            for index, value in changes.items():
                arrays[name][index] = value
        return algebra.BlockDecomposition(d.groupoid, algebra._Record(
            record.tol, record.seed, arrays["dims"], arrays["idempotents"],
            dict(record.numerics), arrays["orbit_index"], arrays["support"]))

    return build
