"""Finite groupoids: tables, constructors, validation, and set-level dynamics.

A finite Hausdorff groupoid is discrete, so every subset is open, every
bisection-based notion specializes to plain set combinatorics, and the
interior of the isotropy is the isotropy itself.  All operations below
are stated in that discrete specialization.

Element identifiers are opaque hashable objects; constructors fix
canonical naming (triples ``(x, g, y)`` for action groupoids, pairs for
pair groupoids, ``(x, g)`` for bundles, ``(part, element)`` for
disjoint unions) so that reports are reproducible.

``validate`` checks associativity exactly, at every size, by Light's test
(Clifford-Preston, *The Algebraic Theory of Semigroups* I, AMS 1961,
section 1.2), after the unit laws and the source and range of each product.
The arrows c with (xy)c = x(yc) for all composable x and y hold the units
and are closed under the table's own product: (xy)(cd) = ((xy)c)d =
(x(yc))d = x((yc)d) = x(y(cd)).  So if they hold a set S that reaches every
arrow from the units by right multiplication, they are the whole groupoid.

Orbits are numbered once, in the pair slots (``_PairSlots.orbit``).  The
orbit of a unit x is r(G_x) (Renault, LNM 793, 1980), so the least range
index over the source fiber of x names it, and the orbits are numbered by
their first unit in element order, the order of ``orbits()``.  Bit o of an
orbit mask is orbit o wherever one is used.  The fact needs the groupoid
axioms: the orbit arrays are read only on a valid groupoid (one that
``validate`` passed, a ``unit_space_groupoid`` or ``empty_groupoid``, or a
reduction of a valid one).  Invariant unit sets are listed in the order
``dynamics._canonical_order`` defines, the orbits weighing their units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import LATTICE_CAP, _canonical_order
from .errors import check_cap
from .groups import PartialAction, _first_nonassociative


class GroupoidError(ValueError):
    pass


class ConstructionError(GroupoidError):
    """A constructor was fed an inconsistent specification."""


@dataclass
class ValidationReport:
    ok: bool
    failure: str | None = None

    def __repr__(self):
        return f"ValidationReport({'ok' if self.ok else f'violation: {self.failure}'})"


@dataclass
class IsotropyGroup:
    """The group of arrows from a unit to itself."""

    base: object
    elements: tuple
    groupoid: "FiniteGroupoid"


@dataclass(frozen=True)
class _PairSlots:
    """The one index table of a groupoid: element-index arrays of it and of
    its composable pairs.

    ``src``, ``rng`` and ``inv`` give each element's source, range and
    inverse, and ``unit`` marks the units; ``ia`` and
    ``ib`` list the pairs in ``composable_pairs`` order.  That order groups
    the pairs by b, and within b takes a in ``source_fiber`` order, so the
    pair (a, b) sits at ``start[b] + pos[a]``: ``start`` is the running sum
    of the run lengths |G_{r(b)}| and ``pos[a]`` is a's place in its source
    fiber.  The orbit table (see the module docstring) is ``orbit``, the
    orbit of each element's source, ``first_unit``, each orbit's first
    unit, and ``isotropy``, the isotropy order at each unit (0 off the units).
    """

    src: np.ndarray
    rng: np.ndarray
    inv: np.ndarray
    unit: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    start: np.ndarray
    pos: np.ndarray
    orbit: np.ndarray
    first_unit: np.ndarray
    isotropy: np.ndarray


class FiniteGroupoid:
    """A finite groupoid with explicit source/range/inverse and a
    composition strategy (a table for raw input, a formula for
    constructor-built instances)."""

    def __init__(self, elements, units, source, range_, inverse, compose,
                 name: str = "groupoid"):
        self.elements = tuple(elements)
        self.units = frozenset(units)
        self.name = name
        self._source = dict(source)
        self._range = dict(range_)
        self._inverse = dict(inverse)
        if callable(compose):
            self._mul_fn = compose
            self._mul_table = None
        else:
            self._mul_table = dict(compose)
            self._mul_fn = None
        self._index = {el: i for i, el in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise GroupoidError("duplicate elements")
        self._caches: dict = {}
        # a constructor's product on index arrays (ia, ib) -> iab, in place
        # of one ``compose`` call per pair
        self._compose_indices = None

    # -- basic structure ------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __contains__(self, el):
        return el in self._index

    def index(self, el) -> int:
        return self._index[el]

    def source(self, el):
        return self._source[el]

    def range(self, el):
        return self._range[el]

    def inverse(self, el):
        return self._inverse[el]

    def is_composable(self, a, b) -> bool:
        return self._source[a] == self._range[b]

    def compose(self, a, b):
        if not self.is_composable(a, b):
            raise GroupoidError(f"{a!r} and {b!r} are not composable")
        if self._mul_fn is not None:
            c = self._mul_fn(a, b)
        else:
            c = self._mul_table.get((a, b))
        if c is None:
            raise GroupoidError(f"composition table is missing {a!r}*{b!r}")
        return c

    @property
    def unit_list(self) -> tuple:
        """Units in element order (canonical everywhere)."""
        out = self._caches.get("unit_list")
        if out is None:
            out = tuple(el for el in self.elements if el in self.units)
            self._caches["unit_list"] = out
        return out

    def _fibers(self, key: str, end: dict) -> dict:
        """The arrows over each unit through ``end`` (source or range)."""
        if key not in self._caches:
            fibers = {u: [] for u in self.units}
            for el in self.elements:
                fibers[end[el]].append(el)
            self._caches[key] = {u: tuple(v) for u, v in fibers.items()}
        return self._caches[key]

    def source_fiber(self, x) -> tuple:
        """All arrows with source x."""
        return self._fibers("source_fibers", self._source)[x]

    def range_fiber(self, x) -> tuple:
        return self._fibers("range_fibers", self._range)[x]

    def composable_pairs(self):
        """Yield all composable pairs (a, b)."""
        for b in self.elements:
            for a in self.source_fiber(self._range[b]):
                yield a, b

    def composition_table(self) -> tuple:
        """``(ia, ib, iab)``: element indices of each composable pair, in
        ``composable_pairs`` order, and of its product (cached by ``validate``)."""
        return self._caches.get("composition") or self._composition()

    def _pair_slots(self) -> _PairSlots:
        slots = self._caches.get("pair_slots")
        if slots is None:
            n, index = len(self.elements), self._index
            src = np.fromiter((index[self._source[el]] for el in self.elements), np.intp, n)
            rng = np.fromiter((index[self._range[el]] for el in self.elements), np.intp, n)
            inv = np.fromiter((index[self._inverse[el]] for el in self.elements), np.intp, n)
            by_source = np.argsort(src, kind="stable")
            size = np.bincount(src, minlength=n)
            first = np.cumsum(size) - size
            pos = np.empty(n, dtype=np.intp)
            pos[by_source] = np.arange(n) - first[src[by_source]]
            run = size[rng]
            start = np.cumsum(run) - run
            ib = np.repeat(np.arange(n), run)
            ia = by_source[first[rng[ib]] + np.arange(len(ib)) - start[ib]]
            # the orbit of x is r(G_x), named by its least index
            name = np.full(n, n)
            np.minimum.at(name, src, rng)
            first_unit = np.flatnonzero(name == np.arange(n))
            slots = self._caches["pair_slots"] = _PairSlots(
                src, rng, inv, src == np.arange(n), ia, ib, start, pos,
                np.searchsorted(first_unit, name[src]), first_unit,
                np.bincount(src[src == rng], minlength=n))
        return slots

    def _products(self, a, b):
        """The indices of a[k]*b[k] for index arrays of composable pairs:
        one lookup at their pair slots."""
        slots = self._pair_slots()
        return self.composition_table()[2][slots.start[b] + slots.pos[a]]

    # -- validation ------------------------------------------------------

    def _checked_product(self, a, b) -> int:
        """The index of a*b, or raise naming the check it fails."""
        ab = self.compose(a, b)
        if ab not in self._index:
            raise GroupoidError(f"{a!r}*{b!r} = {ab!r} is not an element")
        if self._source[ab] != self._source[b]:
            raise GroupoidError(f"source({a!r}*{b!r}) != source({b!r})")
        if self._range[ab] != self._range[a]:
            raise GroupoidError(f"range({a!r}*{b!r}) != range({a!r})")
        return self._index[ab]

    def _composition(self) -> tuple:
        """Multiply every composable pair once and cache the index arrays,
        or raise at the first failed check.  A constructor's index product
        is checked with array comparisons; otherwise one ``compose`` call
        per pair, keeping ints only: lasting per-pair tuples would trigger
        GC passes that age ``self``."""
        slots = self._pair_slots()
        ia, ib, els = slots.ia, slots.ib, self.elements
        if self._compose_indices is not None:
            iab = np.asarray(self._compose_indices(ia, ib), dtype=np.intp)
            bad = np.flatnonzero((slots.src[iab] != slots.src[ib])
                                 | (slots.rng[iab] != slots.rng[ia]))
            if len(bad):
                self._checked_product(els[ia[bad[0]]], els[ib[bad[0]]])
                raise GroupoidError("internal error: index product disagrees with compose")
        else:
            if self._mul_table is not None:
                pairs = [(els[a], els[b]) for a, b in zip(ia.tolist(), ib.tolist())]
                # the first missing pair in pair order, the first extra in table order
                for a, b in pairs:
                    if (a, b) not in self._mul_table:
                        raise GroupoidError(
                            f"composition undefined on composable pair ({a!r}, {b!r})")
                expected = set(pairs)
                for a, b in self._mul_table:
                    if (a, b) not in expected:
                        raise GroupoidError(
                            f"composition defined on non-composable pair ({a!r}, {b!r})")
            iab = np.fromiter((self._checked_product(els[a], els[b])
                               for a, b in zip(ia.tolist(), ib.tolist())), np.intp, len(ia))
        table = (ia, ib, iab)
        self._caches["composition"] = table
        return table

    def validate(self) -> ValidationReport:
        """Check every groupoid axiom; report the first violation.

        Associativity is checked exactly, at every size, by Light's test
        over the pair slots (see the module docstring).
        """

        def fail(msg):
            return ValidationReport(False, msg)

        els = set(self.elements)
        if not self.units <= els:
            return fail(f"units are not elements: {sorted(map(repr, self.units - els))}")
        for m, label in ((self._source, "source"), (self._range, "range"),
                         (self._inverse, "inverse")):
            for el in self.elements:
                if el not in m:
                    return fail(f"{label} undefined on {el!r}")
                if m[el] not in els:
                    return fail(f"{label}({el!r}) = {m[el]!r} is not an element")
        for el in self.elements:
            if self._source[el] not in self.units:
                return fail(f"source({el!r}) is not a unit")
            if self._range[el] not in self.units:
                return fail(f"range({el!r}) is not a unit")
        for u in self.unit_list:
            if self._source[u] != u or self._range[u] != u:
                return fail(f"unit {u!r} is not fixed by source/range")
            if self._inverse[u] != u:
                return fail(f"unit {u!r} is not fixed by inverse")
        for el in self.elements:
            if self._inverse[self._inverse[el]] != el:
                return fail(f"inverse is not involutive at {el!r}")
            if self._source[self._inverse[el]] != self._range[el]:
                return fail(f"source(inverse({el!r})) != range({el!r})")
        try:
            self._composition()
        except GroupoidError as exc:
            return fail(str(exc))
        slots = self._pair_slots()
        src, rng, inv, every = slots.src, slots.rng, slots.inv, np.arange(len(self.elements))
        laws = (
            (self._products(every, src) != every, "{0!r}*source({0!r}) != {0!r}"),
            (self._products(rng, every) != every, "range({0!r})*{0!r} != {0!r}"),
            (self._products(every, inv) != rng, "{0!r}*inverse({0!r}) != range({0!r})"),
            (self._products(inv, every) != src, "inverse({0!r})*{0!r} != source({0!r})"),
        )
        broken = np.stack([bad for bad, _ in laws])
        failing = np.flatnonzero(broken.any(axis=0))
        if len(failing):
            el = failing[0]
            return fail(laws[int(broken[:, el].argmax())][1].format(self.elements[el]))

        bad = _first_nonassociative(src, rng, slots.unit, slots.ia, slots.ib,
                                    self.composition_table()[2], slots.start, slots.pos)
        if bad is not None:
            a, b, c = (self.elements[x] for x in bad)
            return fail(f"associativity fails at ({a!r}, {b!r}, {c!r})")
        return ValidationReport(True)

    # -- orbits and invariant sets ----------------------------------------

    def _unit_orbits(self) -> list:
        """The orbit number of each unit, in ``unit_list`` order."""
        slots = self._pair_slots()
        return slots.orbit[slots.unit].tolist()

    def _orbit_mask(self, members) -> int:
        """The mask of the orbits that lie inside a unit set."""
        missed = {o for u, o in zip(self.unit_list, self._unit_orbits()) if u not in members}
        return sum(1 << o for o in range(len(self._pair_slots().first_unit)) if o not in missed)

    def _orbit_union(self, w: int) -> frozenset:
        """The units of the orbits in mask ``w``."""
        return frozenset(u for u, o in zip(self.unit_list, self._unit_orbits()) if w >> o & 1)

    def _sorted_unit_sets(self, masks) -> list:
        """Distinct orbit masks in the canonical order of invariant unit sets
        (``dynamics._canonical_order``); each orbit has units, and weighs them."""
        weights = np.bincount(self._pair_slots().orbit[self._pair_slots().unit]).tolist()
        return _canonical_order(masks, len(weights), weights)

    def orbits(self) -> tuple:
        """Partition of the unit space: x ~ y iff an arrow joins them, in
        the orbit table's order."""
        if "orbits" not in self._caches:
            classes = [[] for _ in self._pair_slots().first_unit]
            for u, o in zip(self.unit_list, self._unit_orbits()):
                classes[o].append(u)
            self._caches["orbits"] = tuple(map(frozenset, classes))
        return self._caches["orbits"]

    def is_invariant_unit_set(self, members) -> bool:
        members = frozenset(members)
        if not members <= self.units:
            raise GroupoidError("not a subset of the unit space")
        # all or none of each orbit: the orbits inside cover every member
        return self._orbit_union(self._orbit_mask(members)) == members

    def invariant_subsets(self, cap: int = LATTICE_CAP) -> list:
        """All invariant unit sets (= unions of orbits), as a lattice.

        Canonically ordered by (size, unit order); closed under union
        and intersection by construction.
        """
        count = len(self._pair_slots().first_unit)
        check_cap(2 ** count, cap, "invariant subsets")
        return [self._orbit_union(w) for w in self._sorted_unit_sets(range(1 << count))]

    # -- reduction ---------------------------------------------------------

    def restrict(self, members, validate: bool = True) -> "FiniteGroupoid":
        """The reduction to a unit set: arrows with source and range inside.

        Defined for any unit set, invariant or not.  The reduction of a
        valid groupoid is closed under all operations, so internal
        callers skip re-validation.
        """
        members = frozenset(members)
        if not members <= self.units:
            raise GroupoidError("restriction set must consist of units")
        keep = [
            el for el in self.elements
            if self._source[el] in members and self._range[el] in members
        ]
        keep_set = set(keep)
        if self._mul_table is not None:
            compose = {
                (a, b): c for (a, b), c in self._mul_table.items() if a in keep_set
                and b in keep_set
            }
        else:
            compose = self._mul_fn
        sub = FiniteGroupoid(
            keep,
            members & self.units,
            {el: self._source[el] for el in keep},
            {el: self._range[el] for el in keep},
            {el: self._inverse[el] for el in keep},
            compose,
            name=f"{self.name}|{{{len(members)} units}}",
        )
        if validate:
            report = sub.validate()
            if not report.ok:
                raise GroupoidError(f"restriction is not a groupoid: {report.failure}")
        return sub

    # -- isotropy and effectiveness -----------------------------------------

    def isotropy(self, x) -> IsotropyGroup:
        if x not in self.units:
            raise GroupoidError(f"{x!r} is not a unit")
        members = tuple(
            el for el in self.source_fiber(x) if self._range[el] == x
        )
        return IsotropyGroup(x, members, self)

    def isotropy_elements(self) -> tuple:
        """All arrows with equal source and range (the isotropy bundle)."""
        return tuple(el for el in self.elements if self._source[el] == self._range[el])

    def is_effective_at(self, x) -> bool:
        """Trivial isotropy at x (discrete case: interior = isotropy)."""
        if x not in self.units:
            raise GroupoidError(f"{x!r} is not a unit")
        return bool(self._pair_slots().isotropy[self._index[x]] == 1)

    def effective_units(self) -> frozenset:
        """Units with trivial isotropy; the complement is invariant."""
        eff = frozenset(itertools.compress(self.elements, self._pair_slots().isotropy == 1))
        if not self.is_invariant_unit_set(self.units - eff):
            raise GroupoidError("internal error: non-effective set is not invariant")
        return eff

    def is_effective(self) -> bool:
        return self.effective_units() == self.units

    def is_jointly_effective_at(self, x) -> bool:
        """Joint effectiveness at x.

        It asks that every family of bisections, each through a nontrivial
        isotropy arrow at x, move some unit of their common source set.
        With trivial isotropy there is no such arrow, and the condition
        holds.  Otherwise a nontrivial isotropy arrow gamma gives the
        singleton bisection {gamma}, whose source set is {x} and which
        fixes x, so the condition fails.  Joint effectiveness at x is
        therefore trivial isotropy.
        """
        return self.is_effective_at(x)

    def __repr__(self):
        return f"FiniteGroupoid({self.name}: {len(self.elements)} elements, {len(self.units)} units)"


# -- constructors ------------------------------------------------------------


def _validated(g: FiniteGroupoid) -> FiniteGroupoid:
    report = g.validate()
    if not report.ok:
        raise ConstructionError(report.failure)
    return g


def from_tables(elements, units, source, range_, inverse, compose,
                name: str = "tables") -> FiniteGroupoid:
    """Build from raw tables; ``compose`` maps composable pairs to products."""
    if not isinstance(compose, dict):
        compose = {(a, b): c for a, b, c in compose}
    g = FiniteGroupoid(elements, units, source, range_, inverse, compose, name=name)
    return _validated(g)


def pair_groupoid(points, name: str | None = None) -> FiniteGroupoid:
    """The principal groupoid with one arrow (x, y) from y to x."""
    points = tuple(points)
    elements = [(x, y) for x in points for y in points]
    g = FiniteGroupoid(
        elements,
        [(x, x) for x in points],
        {(x, y): (y, y) for x, y in elements},
        {(x, y): (x, x) for x, y in elements},
        {(x, y): (y, x) for x, y in elements},
        lambda a, b: (a[0], b[1]),
        name=name or f"pair({len(points)})",
    )
    n = len(points)
    g._compose_indices = lambda ia, ib: ia // n * n + ib % n
    return _validated(g)


def group_bundle(fibers, name: str | None = None) -> FiniteGroupoid:
    """A bundle of groups: ``fibers`` maps each unit label to a CayleyGroup."""
    fibers = dict(fibers)
    elements = [(x, g) for x, grp in fibers.items() for g in grp.elements]
    units = [(x, grp.identity) for x, grp in fibers.items()]

    def compose(a, b):
        x = a[0]
        return (x, fibers[x].mul(a[1], b[1]))

    g = FiniteGroupoid(
        elements,
        units,
        {(x, h): (x, fibers[x].identity) for x, h in elements},
        {(x, h): (x, fibers[x].identity) for x, h in elements},
        {(x, h): (x, fibers[x].inverse(h)) for x, h in elements},
        compose,
        name=name or f"bundle({len(fibers)} units)",
    )
    # one flat table of every fiber's products, as element indices
    groups = list(fibers.values())
    order = np.array([grp.order for grp in groups], dtype=np.intp)
    offset = np.cumsum(order) - order
    table_start = np.cumsum(order * order) - order * order
    flat = np.concatenate([np.zeros(0, np.intp)] + [
        grp._mul_index.ravel() + off for grp, off in zip(groups, offset.tolist())])
    fiber = np.repeat(np.arange(len(groups)), order)
    local = np.arange(len(elements)) - offset[fiber]
    g._compose_indices = lambda ia, ib: flat[
        table_start[fiber[ia]] + local[ia] * order[fiber[ia]] + local[ib]]
    return _validated(g)


def from_partial_action(action: PartialAction, name: str | None = None) -> FiniteGroupoid:
    """The transformation groupoid of a partial action.

    Elements are triples (x, g, y) with the map for g sending y to x;
    (x, g, y)(y, h, z) = (x, g*h, z) and (x, g, y)^-1 = (y, g^-1, x).
    The action validated itself when it was built.
    """
    group = action.group
    e = group.identity
    point = {y: i for i, y in enumerate(action.space)}
    elements, g_of, y_of = [], [], []
    # elem_of[g, y]: the element (g.y, g, y), where y lies in dom(g)
    elem_of = np.full((group.order, len(point)), -1, dtype=np.intp)
    for i, g in enumerate(group.elements):
        m = action.maps[g]
        for y in action.space:
            if y in m:
                elem_of[i, point[y]] = len(elements)
                elements.append((m[y], g, y))
                g_of.append(i)
                y_of.append(point[y])
    g_of, y_of = np.array(g_of, dtype=np.intp), np.array(y_of, dtype=np.intp)

    def compose(a, b):
        return (a[0], group.mul(a[1], b[1]), b[2])

    g = FiniteGroupoid(
        elements,
        [(x, e, x) for x in action.space],
        {el: (el[2], e, el[2]) for el in elements},
        {el: (el[0], e, el[0]) for el in elements},
        {el: (el[2], group.inverse(el[1]), el[0]) for el in elements},
        compose,
        name=name or f"{group.name} partial action on {len(action.space)} points",
    )
    mul = group._mul_index
    g._compose_indices = lambda ia, ib: elem_of[mul[g_of[ia], g_of[ib]], y_of[ib]]
    return _validated(g)


def from_group_action(action: PartialAction, name: str | None = None) -> FiniteGroupoid:
    """The transformation groupoid of a globally defined action."""
    if not action.is_global:
        raise ConstructionError("action is not globally defined; use from_partial_action")
    return from_partial_action(
        action,
        name=name or f"{action.group.name} action on {len(action.space)} points",
    )


def disjoint_union(parts, name: str | None = None) -> FiniteGroupoid:
    """Disjoint union; elements are tagged (part_index, element)."""
    parts = list(parts)
    elements = [(k, el) for k, part in enumerate(parts) for el in part.elements]
    units = [(k, u) for k, part in enumerate(parts) for u in part.unit_list]

    def compose(a, b):
        k = a[0]
        return (k, parts[k].compose(a[1], b[1]))

    g = FiniteGroupoid(
        elements,
        units,
        {(k, el): (k, parts[k].source(el)) for k, el in elements},
        {(k, el): (k, parts[k].range(el)) for k, el in elements},
        {(k, el): (k, parts[k].inverse(el)) for k, el in elements},
        compose,
        name=name or f"union({', '.join(p.name for p in parts)})",
    )
    # the union's pairs are its parts' pairs, part by part; a part whose
    # products were never checked goes through the per-pair pass instead
    tables = [part._caches.get("composition") for part in parts]
    if all(table is not None for table in tables):
        offsets = np.cumsum([0] + [len(part) for part in parts]).tolist()
        products = np.concatenate([np.zeros(0, np.intp)] + [
            table[2] + off for table, off in zip(tables, offsets)])
        g._compose_indices = lambda ia, ib: products
    return _validated(g)


def empty_groupoid() -> FiniteGroupoid:
    """The empty groupoid (its algebra is the zero algebra)."""
    return FiniteGroupoid((), (), {}, {}, {}, {}, name="empty")


def unit_space_groupoid(points) -> FiniteGroupoid:
    """A space of units with no other arrows (all-trivial bundle)."""
    points = tuple(points)
    g = FiniteGroupoid(
        points,
        points,
        {x: x for x in points},
        {x: x for x in points},
        {x: x for x in points},
        lambda a, b: a,
        name=f"units({len(points)})",
    )
    g._compose_indices = lambda ia, ib: ia
    return g
