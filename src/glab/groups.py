"""Finite groups given by multiplication tables, and partial actions.

Groups are the raw material for action groupoids and group bundles;
partial actions carry their own validation (identity acts as the
identity, inverses invert, and composing two partial maps never
escapes the product's partial map).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


_TRIPLE_CHUNK = 1 << 14     # triples (a, b, c) compared per chunk


def _first_nonassociative(src, rng, unit, ia, ib, iab, start, pos):
    """The first triple (a, b, c) of element indices with (ab)c != a(bc), or
    None, by Light's test on ``_generators`` (see ``glab.groupoids``).
    ``src``, ``rng`` and ``unit`` give sources and ranges and mark the units;
    the composable pair (a, b) and its product sit at ``start[b] + pos[a]``
    of ``ia``, ``ib`` and ``iab``.  The unit laws and the source and range of
    each product must already hold.  Only a failing table is walked over
    every triple: pair by pair, c over the range fiber of s(b) in order.
    """
    table = (src, rng, ia, ib, iab, start, pos)
    gens = _generators(src, rng, unit, iab, start, pos)
    if not len(gens) or _first_failure(gens, *table) is None:
        return None
    return _first_failure(np.argsort(rng, kind="stable"), *table)


def _generators(src, rng, unit, iab, start, pos):
    """A set S, in range order, that reaches every element from the units
    by right multiplication, found greedily on the table's own products:
    the first element not yet reached joins S."""
    prod, first, at = iab.tolist(), start.tolist(), pos.tolist()
    sources, ranges, reached = src.tolist(), rng.tolist(), unit.tolist()
    fiber = {u: [u] for u in range(len(reached)) if reached[u]}   # reached, by source
    gens, gens_at = [], {}                                          # S, by range
    for s in range(len(reached)):
        if reached[s]:
            continue
        gens.append(s)
        gens_at.setdefault(ranges[s], []).append(s)
        todo = [(x, s) for x in fiber.get(ranges[s], ())]
        while todo:
            x, g = todo.pop()
            xg = prod[first[g] + at[x]]
            if not reached[xg]:
                reached[xg] = True
                fiber.setdefault(sources[xg], []).append(xg)
                todo.extend((xg, h) for h in gens_at.get(sources[xg], ()))
    return np.array(sorted(gens, key=ranges.__getitem__), dtype=np.intp)


def _first_failure(cs, src, rng, ia, ib, iab, start, pos):
    """The first failing triple, in ``_first_nonassociative``'s order, whose
    c lies in ``cs`` (listed in range order), or None; in chunks."""
    src_b = src[ib]
    count = np.bincount(rng[cs], minlength=len(src))[src_b]
    ends = count.cumsum()
    base = rng[cs].searchsorted(src_b) - (ends - count)
    for lo in range(0, int(ends[-1]), _TRIPLE_CHUNK):
        t = np.arange(lo, min(lo + _TRIPLE_CHUNK, int(ends[-1])))
        p = ends.searchsorted(t, "right")
        a, b, c = ia[p], ib[p], cs[base[p] + t]
        bad = (iab[start[c] + pos[iab[p]]]
               != iab[start[iab[start[c] + pos[b]]] + pos[a]]).nonzero()[0]
        if len(bad):
            return tuple(int(x[bad[0]]) for x in (a, b, c))
    return None


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
        self._check(table)

    @classmethod
    def from_rows(cls, elements, rows, name: str = "group"):
        """Build from a list-of-lists table: rows[i][j] = elements[i] * elements[j]."""
        elements = tuple(elements)
        table = {
            g: {h: rows[i][j] for j, h in enumerate(elements)}
            for i, g in enumerate(elements)
        }
        return cls(elements, table, name=name)

    def _check(self, table):
        """Read ``table`` once into the k x k ``_mul_index`` and check it in
        row order: every product, then an identity (a row and column that are
        the identity permutation), inverses (gh = hg = e), associativity."""
        els, index = self.elements, self._index
        rows = []
        for g in els:
            row = table.get(g, {})
            try:
                rows.append([index[row[h]] for h in els])
            except KeyError:
                for h in els:
                    if h not in row:
                        raise GroupError(f"table is missing product {g!r}*{h!r}") from None
                    if row[h] not in index:
                        raise GroupError(f"product {g!r}*{h!r} is not a group element") from None
        k = len(els)
        t, every = np.array(rows, dtype=np.intp).reshape(k, k), np.arange(k)
        identity = np.flatnonzero((t == every).all(axis=1) & (t.T == every).all(axis=1))
        if not len(identity):
            raise GroupError("table has no identity element")
        e = int(identity[0])
        self.identity = els[e]
        inverse = (t == e) & (t.T == e)
        orphans = np.flatnonzero(~inverse.any(axis=1))
        if len(orphans):
            raise GroupError(f"element {els[orphans[0]]!r} has no inverse")
        # the pairs go a-major in t.ravel(), so triples go in (a, b, c) order
        one = np.full(k, e)
        bad = _first_nonassociative(one, one, every == e, *np.divmod(np.arange(k * k), k),
                                    t.ravel(), every, every * k)
        if bad is not None:
            a, b, c = (els[x] for x in bad)
            raise GroupError(f"associativity fails at ({a!r}, {b!r}, {c!r})")
        self._mul_index, self._inverse_index = t, inverse.argmax(axis=1)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, g, h):
        return self.elements[self._mul_index[self._index[g], self._index[h]]]

    def inverse(self, g):
        return self.elements[self._inverse_index[self._index[g]]]

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
        self.maps = {g: {} for g in group.elements} | {g: dict(m) for g, m in maps.items()}
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
        """No nontrivial group element fixes x.

        Freeness asks that each stabilizing element move some point of
        every neighbourhood of x.  On a finite (hence discrete) space the
        minimal neighbourhood of x is {x}, which every stabilizing element
        fixes, so freeness at x is a trivial stabilizer.
        """
        if x not in self._space_set:
            raise PartialActionError(f"point {x!r} is not in the space")
        return not self.stabilizer_elements(x)

    def is_strongly_topologically_free_at(self, x) -> bool:
        """Every finite family of stabilizing elements can be jointly perturbed.

        A family must move one point of every neighbourhood of x all at
        once.  The minimal neighbourhood {x} is fixed by every stabilizing
        element, so a nonempty family never can, and the empty family
        holds vacuously: strong freeness at x is a trivial stabilizer too.
        """
        return self.is_topologically_free_at(x)

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
