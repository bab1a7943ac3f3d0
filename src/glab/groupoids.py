"""Finite groupoids: tables, constructors, validation, and set-level dynamics.

A finite Hausdorff groupoid is discrete, so every subset is open, every
bisection-based notion specializes to plain set combinatorics, and the
interior of the isotropy is the isotropy itself.  All operations below
are stated in that discrete specialization.

Element identifiers are opaque hashable objects; constructors fix
canonical naming (triples ``(x, g, y)`` for action groupoids, pairs for
pair groupoids, ``(x, g)`` for bundles, ``(part, element)`` for
disjoint unions) so that reports are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .groups import CayleyGroup, PartialAction

ASSOCIATIVITY_BUDGET = 2_000_000
_TRIPLE_CHUNK = 1 << 14
INVARIANT_SET_CAP = 1 << 20


class GroupoidError(ValueError):
    pass


class ConstructionError(GroupoidError):
    """A constructor was fed an inconsistent specification."""


@dataclass
class ValidationReport:
    ok: bool
    failure: str | None = None
    associativity: str = "full"

    def __repr__(self):
        status = "ok" if self.ok else f"violation: {self.failure}"
        return f"ValidationReport({status}, associativity={self.associativity})"


@dataclass
class IsotropyGroup:
    """The group of arrows from a unit to itself."""

    base: object
    elements: tuple
    groupoid: "FiniteGroupoid"

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def as_cayley(self) -> CayleyGroup:
        g = self.groupoid
        table = {
            a: {b: g.compose(a, b) for b in self.elements} for a in self.elements
        }
        return CayleyGroup(self.elements, table, name=f"isotropy@{self.base!r}")


@dataclass(frozen=True)
class _PairSlots:
    """Element-index arrays of a groupoid and of its composable pairs.

    ``src`` and ``rng`` give each element's source and range; ``ia`` and
    ``ib`` list the pairs in ``composable_pairs`` order.  That order groups
    the pairs by b, and within b takes a in ``source_fiber`` order, so the
    pair (a, b) sits at ``start[b] + pos[a]``: ``start`` is the running sum
    of the run lengths |G_{r(b)}| and ``pos[a]`` is a's place in its source
    fiber.
    """

    src: np.ndarray
    rng: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    start: np.ndarray
    pos: np.ndarray


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
            by_source = np.argsort(src, kind="stable")
            size = np.bincount(src, minlength=n)
            first = np.cumsum(size) - size
            pos = np.empty(n, dtype=np.intp)
            pos[by_source] = np.arange(n) - first[src[by_source]]
            run = size[rng]
            start = np.cumsum(run) - run
            ib = np.repeat(np.arange(n), run)
            ia = by_source[first[rng[ib]] + np.arange(len(ib)) - start[ib]]
            slots = self._caches["pair_slots"] = _PairSlots(src, rng, ia, ib, start, pos)
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

    def _associativity(self, assoc_budget: int):
        """``(mode, first failure or None)`` for (ab)c = a(bc).  Triple t
        pairs the (a, b) whose run holds t with the (t - start)-th arrow c
        of ``range_fiber(source(b))``; products are pair-slot lookups."""
        slots = self._pair_slots()
        src, rng, ia, ib = slots.src, slots.rng, slots.ia, slots.ib
        iab, n = self.composition_table()[2], len(self.elements)
        by_range = np.argsort(rng, kind="stable")
        count = np.bincount(rng, minlength=n)[src[ib]]
        ends = np.cumsum(count)
        base = np.searchsorted(rng[by_range], src[ib]) - (ends - count)
        n_triples, product = int(ends[-1]) if len(ends) else 0, self._products

        mode = "full" if n_triples <= assoc_budget else f"sampled({assoc_budget})"
        # numpy.random is imported on first use, at about 6 MiB of RSS
        draw = None if mode == "full" else np.random.default_rng(0xC0FFEE)
        for lo in range(0, min(n_triples, assoc_budget), _TRIPLE_CHUNK):
            hi = min(lo + _TRIPLE_CHUNK, n_triples, assoc_budget)
            t = np.arange(lo, hi) if mode == "full" else draw.integers(n_triples, size=hi - lo)
            p = np.searchsorted(ends, t, side="right")
            a, b, c = ia[p], ib[p], by_range[base[p] + t]
            bad = np.flatnonzero(product(iab[p], c) != product(a, product(b, c)))
            if len(bad):
                a, b, c = (self.elements[x[bad[0]]] for x in (a, b, c))
                return mode, f"associativity fails at ({a!r}, {b!r}, {c!r})"
        return mode, None

    def validate(self, assoc_budget: int = ASSOCIATIVITY_BUDGET) -> ValidationReport:
        """Check every groupoid axiom; report the first violation.

        Associativity is checked with numpy over ``composition_table``, in
        chunks: on every triple within ``assoc_budget``, else on that many
        seeded triples (the report says which).
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
        for u in self.units:
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
        slots, index = self._pair_slots(), self._index
        src, rng, every = slots.src, slots.rng, np.arange(len(self.elements))
        inv = np.fromiter((index[self._inverse[el]] for el in self.elements), np.intp,
                          len(self.elements))
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

        mode, failure = self._associativity(assoc_budget)
        return ValidationReport(failure is None, failure, associativity=mode)

    # -- orbits and invariant sets ----------------------------------------

    def orbits(self) -> tuple:
        """Partition of the unit space: x ~ y iff an arrow joins them."""
        out = self._caches.get("orbits")
        if out is not None:
            return out
        parent = {u: u for u in self.units}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for el in self.elements:
            a, b = find(self._source[el]), find(self._range[el])
            if a != b:
                parent[a] = b
        classes: dict = {}
        for u in self.unit_list:
            classes.setdefault(find(u), []).append(u)
        order = {u: i for i, u in enumerate(self.unit_list)}
        out = tuple(
            frozenset(members)
            for members in sorted(classes.values(), key=lambda ms: min(order[m] for m in ms))
        )
        self._caches["orbits"] = out
        return out

    def is_invariant_unit_set(self, members) -> bool:
        members = frozenset(members)
        if not members <= self.units:
            raise GroupoidError("not a subset of the unit space")
        return all(orb <= members or not (orb & members) for orb in self.orbits())

    def invariant_subsets(self, cap: int = INVARIANT_SET_CAP) -> list:
        """All invariant unit sets (= unions of orbits), as a lattice.

        Canonically ordered by (size, unit order); closed under union
        and intersection by construction.
        """
        orbits = self.orbits()
        if 2 ** len(orbits) > cap:
            raise CapExceededError(
                f"{2 ** len(orbits)} invariant subsets exceed the cap {cap}"
            )
        order = {u: i for i, u in enumerate(self.unit_list)}
        subsets = []
        for k in range(len(orbits) + 1):
            for combo in itertools.combinations(range(len(orbits)), k):
                members = frozenset().union(*(orbits[i] for i in combo)) if combo else frozenset()
                subsets.append(members)
        subsets.sort(key=lambda s: (len(s), sorted(order[u] for u in s)))
        return subsets

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
        return self.isotropy(x).is_trivial

    def effective_units(self) -> frozenset:
        """Units with trivial isotropy; the complement is invariant."""
        eff = frozenset(x for x in self.units if self.is_effective_at(x))
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
