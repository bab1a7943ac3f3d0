"""Finite groups given by multiplication tables, and partial actions.

Groups are the raw material for action groupoids and group bundles;
partial actions carry their own validation (identity acts as the
identity, inverses invert, and composing two partial maps never
escapes the product's partial map).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


_TRIPLE_BLOCK = 1 << 16     # triples (a, b, c) compared per block of rows


class GroupError(ValueError):
    """Raised for malformed group tables."""


class PartialActionError(ValueError):
    """Raised for data violating the partial-action axioms."""


class CayleyGroup:
    """A finite group presented by its multiplication table."""

    def __init__(self, elements, table, name: str = "group"):
        self.elements = tuple(elements)
        self.name = name
        index = {g: i for i, g in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise GroupError("duplicate group elements")
        self._index = index
        self._table = {}
        for g, row in table.items():
            for h, gh in row.items():
                self._table[(g, h)] = gh
        self._check()

    @classmethod
    def from_rows(cls, elements, rows, name: str = "group"):
        """Build from a list-of-lists table: rows[i][j] = elements[i] * elements[j]."""
        elements = tuple(elements)
        table = {
            g: {h: rows[i][j] for j, h in enumerate(elements)}
            for i, g in enumerate(elements)
        }
        return cls(elements, table, name=name)

    def _check(self):
        els, index = self.elements, self._index
        rows = []
        for g in els:
            for h in els:
                if (g, h) not in self._table:
                    raise GroupError(f"table is missing product {g!r}*{h!r}")
                if self._table[(g, h)] not in index:
                    raise GroupError(f"product {g!r}*{h!r} is not a group element")
                rows.append(index[self._table[(g, h)]])
        identity = None
        for e in els:
            if all(self._table[(e, g)] == g and self._table[(g, e)] == g for g in els):
                identity = e
                break
        if identity is None:
            raise GroupError("table has no identity element")
        self.identity = identity
        inverse = {}
        for g in els:
            for h in els:
                if self._table[(g, h)] == identity and self._table[(h, g)] == identity:
                    inverse[g] = h
                    break
            else:
                raise GroupError(f"element {g!r} has no inverse")
        self._inverse = inverse
        # t[i, j] is the index of els[i] * els[j]; the constructors reuse it.
        # (ab)c against a(bc) for a block of rows a at a time, as [a, b, c]
        k = len(els)
        t = np.array(rows, dtype=np.intp).reshape(k, k)
        rows_per_block = max(1, _TRIPLE_BLOCK // (k * k))
        for lo in range(0, k, rows_per_block):
            ab = t[lo:lo + rows_per_block]
            bad = np.flatnonzero(t[ab] != ab[:, t])
            if len(bad):
                a, b, c = np.unravel_index(bad[0], ab.shape + (k,))
                raise GroupError(
                    f"associativity fails at ({els[lo + a]!r}, {els[b]!r}, {els[c]!r})"
                )
        self._mul_index = t

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, g, h):
        return self._table[(g, h)]

    def inverse(self, g):
        return self._inverse[g]

    def __contains__(self, g):
        return g in self._index

    def __repr__(self):
        return f"CayleyGroup({self.name}, order={self.order})"


def trivial_group() -> CayleyGroup:
    return CayleyGroup(("e",), {"e": {"e": "e"}}, name="1")


def cyclic_group(n: int) -> CayleyGroup:
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    els = [f"r{k}" for k in range(n)]
    table = {els[i]: {els[j]: els[(i + j) % n] for j in range(n)} for i in range(n)}
    g = CayleyGroup(els, table, name=f"C{n}")
    return g


def dihedral_group(n: int) -> CayleyGroup:
    """Symmetries of the regular n-gon, order 2n (n >= 1)."""
    if n < 1:
        raise GroupError("dihedral group needs n >= 1")
    els = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]

    def mul(a, b):
        fa, ka = a[0], int(a[1:])
        fb, kb = b[0], int(b[1:])
        if fa == "r" and fb == "r":
            return f"r{(ka + kb) % n}"
        if fa == "r" and fb == "s":
            return f"s{(ka + kb) % n}"
        if fa == "s" and fb == "r":
            return f"s{(ka - kb) % n}"
        return f"r{(ka - kb) % n}"

    table = {a: {b: mul(a, b) for b in els} for a in els}
    return CayleyGroup(els, table, name=f"D{n}")


def symmetric_group(n: int) -> CayleyGroup:
    """The full permutation group of {0, .., n-1} (n <= 5 stays desk-sized)."""
    if n < 1:
        raise GroupError("symmetric group needs n >= 1")
    perms = sorted(permutations(range(n)))

    def label(p):
        return "p" + "".join(str(i) for i in p)

    els = [label(p) for p in perms]
    by_label = dict(zip(els, perms))

    def mul(a, b):
        pa, pb = by_label[a], by_label[b]
        return label(tuple(pa[pb[i]] for i in range(n)))

    table = {a: {b: mul(a, b) for b in els} for a in els}
    return CayleyGroup(els, table, name=f"S{n}")


class PartialAction:
    """A partial action of a finite group on a finite set.

    ``maps[g]`` is a dict sending each point of dom(g) to its image.
    A globally defined action is the special case where every domain is
    the whole space.  Construction validates the axioms: the identity acts
    as the identity everywhere, each map is injective with
    ``maps[g^-1]`` as its inverse, and composing ``maps[g]`` after
    ``maps[h]`` always agrees with (and stays inside) ``maps[g*h]``.
    """

    def __init__(self, group: CayleyGroup, space, maps):
        self.group = group
        self.space = tuple(space)
        self._space_set = frozenset(self.space)
        if len(self._space_set) != len(self.space):
            raise PartialActionError("duplicate points in space")
        self.maps = {g: dict(maps.get(g, {})) for g in group.elements}
        self.validate()

    def validate(self):
        group, space = self.group, self._space_set
        for g, m in self.maps.items():
            if g not in group:
                raise PartialActionError(f"map given for non-element {g!r}")
            for x, y in m.items():
                if x not in space or y not in space:
                    raise PartialActionError(
                        f"map for {g!r} uses points outside the space: {x!r} -> {y!r}"
                    )
            if len(set(m.values())) != len(m):
                raise PartialActionError(f"map for {g!r} is not injective")
        e = group.identity
        if self.maps[e] != {x: x for x in self.space}:
            raise PartialActionError("identity element does not act as the identity")
        for g in group.elements:
            ginv = group.inverse(g)
            forward = self.maps[g]
            backward = self.maps[ginv]
            if {y: x for x, y in forward.items()} != backward:
                raise PartialActionError(
                    f"map for {ginv!r} is not the inverse of the map for {g!r}"
                )
        for g in group.elements:
            for h in group.elements:
                gh = group.mul(g, h)
                mg, mh, mgh = self.maps[g], self.maps[h], self.maps[gh]
                for x, hx in mh.items():
                    if hx in mg:
                        if x not in mgh or mgh[x] != mg[hx]:
                            raise PartialActionError(
                                f"composition escapes the product map at pair "
                                f"(g={g!r}, h={h!r}) on point {x!r}"
                            )

    @property
    def is_global(self) -> bool:
        return all(len(self.maps[g]) == len(self.space) for g in self.group.elements)

    def domain(self, g):
        return frozenset(self.maps[g])

    def apply(self, g, x):
        return self.maps[g][x]

    def fixes(self, g, x) -> bool:
        return self.maps[g].get(x, None) == x

    def restricted_to(self, subset) -> "PartialAction":
        """The restriction partial action on a subset of the space."""
        sub = frozenset(subset)
        if not sub <= self._space_set:
            raise PartialActionError("restriction set is not contained in the space")
        order = [x for x in self.space if x in sub]
        maps = {
            g: {x: y for x, y in m.items() if x in sub and y in sub}
            for g, m in self.maps.items()
        }
        return PartialAction(self.group, order, maps)

    def stabilizer_elements(self, x):
        """Nontrivial group elements whose partial map fixes x."""
        e = self.group.identity
        return [g for g in self.group.elements if g != e and self.fixes(g, x)]

    def is_topologically_free_at(self, x) -> bool:
        """No single nontrivial group element fixes x.

        On a finite (hence discrete) space the minimal neighbourhood of
        x is {x} itself, so an element fixing x can never be perturbed
        away; freeness reduces to the stabilizer being trivial.
        """
        if x not in self._space_set:
            raise PartialActionError(f"point {x!r} is not in the space")
        for g in self.stabilizer_elements(x):
            neighbourhood = (x,)
            if not any(self.maps[g].get(y, None) != y for y in neighbourhood):
                return False
        return True

    def is_strongly_topologically_free_at(self, x) -> bool:
        """Every finite family of stabilizing elements can be jointly perturbed.

        Checked literally against the minimal neighbourhood {x}: a
        nonempty stabilizer family can never be perturbed there, and an
        empty family holds vacuously.
        """
        if x not in self._space_set:
            raise PartialActionError(f"point {x!r} is not in the space")
        fixing = self.stabilizer_elements(x)
        if not fixing:
            return True
        neighbourhood = (x,)
        return any(
            all(self.maps[g].get(y, None) != y for g in fixing) for y in neighbourhood
        )

    def is_relatively_strongly_free(self) -> bool:
        return all(
            self.is_strongly_topologically_free_at(x)
            for x in self.space
            if self.is_topologically_free_at(x)
        )

    def __repr__(self):
        return (
            f"PartialAction({self.group.name} on {len(self.space)} points, "
            f"{'global' if self.is_global else 'partial'})"
        )


def global_action(group: CayleyGroup, space, maps) -> PartialAction:
    """A totally defined action; raises if any domain is not the whole space."""
    action = PartialAction(group, space, maps)
    if not action.is_global:
        missing = [
            g for g in group.elements if len(action.maps[g]) != len(action.space)
        ]
        raise PartialActionError(f"action is not globally defined for {missing!r}")
    return action
