"""Independent brute-force oracles.

Everything here recomputes expected values from first principles with
deliberately different code paths than the library: orbits by breadth
first search, invariant unit sets as unions of those orbits, invariance by
a scan of the arrows, convolution by the literal double sum, block dimensions
by counting conjugacy classes of the isotropy group and solving the
sum-of-squares constraint, ideal/triple counts by per-orbit
combinatorics, the minimal central idempotents by splitting a dense
regular representation, the reduced norm, the fibers lambda_x and the
collapse kernel (over every orbit) from that dense representation and
literal orbit-space matrices, periodic loci by iterating the map p times,
a map's invariant sets as unions of classes found by breadth-first search,
simple cycles by a search from every vertex that identifies rotations
in a set, and exits by comparing each cycle vertex's out-edges with the
cycle's next edge.  The sandwich sets, the triple bijection and the
saturated hereditary closures and lattice of a graph are kept in the
frozenset formulation (unit sets, block sets whose diagonals and
supports are read off each block's orbit and support, subquotient
decompositions, vertex sets rescanned until nothing changes) that the
library's bitmask layers replaced.
"""

from __future__ import annotations

import functools
import itertools
from math import prod

import numpy as np

from glab.linalg import LinalgInputError


def bfs_orbits(g):
    """Orbit partition of the unit space by arrow reachability."""
    units = list(g.unit_list)
    neighbours = {u: set() for u in units}
    for el in g.elements:
        neighbours[g.source(el)].add(g.range(el))
        neighbours[g.range(el)].add(g.source(el))
    seen = set()
    orbits = []
    for u in units:
        if u in seen:
            continue
        frontier = [u]
        orbit = set()
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            frontier.extend(neighbours[x] - orbit)
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def is_invariant(g, members):
    """No arrow joins a unit inside ``members`` to one outside."""
    return all((g.source(el) in members) == (g.range(el) in members) for el in g.elements)


def invariant_unit_sets(g):
    """Every union of ``bfs_orbits``, by size and then unit positions."""
    order = {u: i for i, u in enumerate(g.unit_list)}
    orbits = bfs_orbits(g)
    sets = [frozenset().union(*combo) for k in range(len(orbits) + 1)
            for combo in itertools.combinations(orbits, k)]
    return sorted(sets, key=lambda s: (len(s), sorted(order[u] for u in s)))


def isotropy_table(g, x):
    """Multiplication table of the isotropy group at x, as index lists."""
    members = [el for el in g.elements if g.source(el) == x and g.range(el) == x]
    index = {el: i for i, el in enumerate(members)}
    return [[index[g.compose(a, b)] for b in members] for a in members]


def conjugacy_class_count(table) -> int:
    n = len(table)
    e = next(i for i in range(n) if all(table[i][j] == j for j in range(n)))
    inverse = [next(j for j in range(n) if table[i][j] == e) for i in range(n)]
    classes = set()
    for i in range(n):
        cls = frozenset(table[table[j][i]][inverse[j]] for j in range(n))
        classes.add(cls)
    return len(classes)


def irreducible_degrees(order: int, n_classes: int):
    """The multiset of irreducible degrees: the unique multiset of
    n_classes positive divisors of the order whose squares sum to it.

    Raises if the instance admits more than one solution (outside the
    desk-scale group families this oracle covers).
    """
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    solutions = set()

    def search(remaining, count, smallest, chosen):
        if count == 0:
            if remaining == 0:
                solutions.add(tuple(chosen))
            return
        for d in divisors:
            if d < smallest or d * d > remaining:
                continue
            search(remaining - d * d, count - 1, d, chosen + [d])

    search(order, n_classes, 1, [])
    if len(solutions) != 1:
        raise ValueError(
            f"degree multiset not unique for order {order}, {n_classes} classes"
        )
    return list(solutions.pop())


def expected_block_dimensions(g):
    """Block dimensions of the groupoid algebra, from orbit sizes and
    isotropy character counts only."""
    dims = []
    for orbit in bfs_orbits(g):
        x = sorted(orbit, key=repr)[0]
        table = isotropy_table(g, x)
        degrees = irreducible_degrees(len(table), conjugacy_class_count(table))
        dims.extend(len(orbit) * d for d in degrees)
    return sorted(dims)


def expected_counts(g):
    """(ideals, dynamical, purely_non_dynamical, triples) by per-orbit
    block counting."""
    per_orbit = []
    for orbit in bfs_orbits(g):
        x = sorted(orbit, key=repr)[0]
        table = isotropy_table(g, x)
        per_orbit.append(len(irreducible_degrees(len(table),
                                                 conjugacy_class_count(table))))
    ideals = prod(2 ** k for k in per_orbit)
    dynamical = 2 ** len(per_orbit)
    pnd = prod(2 ** k - 1 for k in per_orbit) - 1 if per_orbit else 0
    triples = prod(2 + (2 ** k - 2) for k in per_orbit)
    return {
        "ideals": ideals,
        "dynamical": dynamical,
        "purely_non_dynamical": max(pnd, 0),
        "triples": triples,
    }


def convolve_literal(g, f1, f2):
    """The convolution formula as a literal double loop over range fibers."""
    out = {}
    for gamma in g.elements:
        acc = 0j
        for alpha in g.elements:
            if g.range(alpha) != g.range(gamma):
                continue
            rest = g.compose(g.inverse(alpha), gamma)
            acc += f1.coefficient(alpha) * f2.coefficient(rest)
        out[gamma] = acc
    return out


def ideal_span(ideal, eps=1e-8):
    """Orthonormal basis (columns) of an ideal as a space of functions on
    the groupoid: the span of e * delta_gamma over the central idempotents
    e of its blocks and all arrows gamma, where (f * delta_gamma)(x) is
    f(x gamma^-1) when x and gamma share their source and 0 otherwise."""
    decomp = ideal.decomposition
    g = decomp.groupoid
    vectors = []
    for i in sorted(block_set(ideal)):
        e = decomp.blocks[i].idempotent
        for gamma in g.elements:
            back = g.inverse(gamma)
            vectors.append([
                e.coefficient(g.compose(x, back)) if g.source(x) == g.source(gamma) else 0
                for x in g.elements
            ])
    if not vectors:
        return np.zeros((len(g), 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(np.array(vectors, dtype=np.complex128).T, full_matrices=False)
    return u[:, :int(np.sum(s > eps))]


def numeric_diagonal_units(ideal, eps=1e-8):
    """Units x whose indicator delta_x lies in the ideal's span."""
    g = ideal.decomposition.groupoid
    basis = ideal_span(ideal, eps)
    out = []
    for x in g.unit_list:
        v = np.zeros(len(g), dtype=np.complex128)
        v[g.elements.index(x)] = 1.0
        if np.linalg.norm(v - basis @ (basis.conj().T @ v)) <= eps:
            out.append(x)
    return out


def all_subsets(items):
    items = list(items)
    for k in range(len(items) + 1):
        yield from map(frozenset, itertools.combinations(items, k))


# -- the set-based ideal layer ------------------------------------------------------
#
# An ideal is a frozenset of block indices and a triple is (U, V, frozenset
# of subquotient block indices).  Nothing here calls the library's
# block/orbit incidence (``Ideal`` methods, ``orbit_masks``, ``filled``,
# ``touched``, ``over``, ``orbit_blocks``, ``dynamical_ideal_of``): it is
# rebuilt from each block's ``orbit`` and ``support``.


def block_set(ideal):
    """The block indices of an ideal, decoded from its mask."""
    return frozenset(i for i in range(len(ideal.decomposition.blocks)) if ideal.mask >> i & 1)


def set_dimension(decomp, blocks):
    return sum(decomp.blocks[i].dimension ** 2 for i in blocks)


def set_support(decomp, blocks):
    return frozenset().union(*(decomp.blocks[i].support for i in blocks))


def set_diagonal_units(decomp, blocks):
    """The units minus the orbits of the blocks the ideal misses."""
    outside = frozenset()
    for blk in decomp.blocks:
        if blk.index not in blocks:
            outside |= blk.orbit
    return decomp.groupoid.units - outside


def set_dynamical_blocks(decomp, members):
    """The blocks of the dynamical ideal over an invariant unit set."""
    return frozenset(blk.index for blk in decomp.blocks if blk.orbit <= members)


def set_orbit_blocks(decomp):
    """Each orbit with the sorted indices of the blocks over it."""
    out = {}
    for blk in decomp.blocks:
        out.setdefault(blk.orbit, []).append(blk.index)
    return {orbit: tuple(sorted(ids)) for orbit, ids in out.items()}


def set_is_dynamical(decomp, blocks):
    return blocks == set_dynamical_blocks(decomp, set_diagonal_units(decomp, blocks))


def set_is_purely_nondynamical(decomp, blocks):
    return bool(blocks) and not set_diagonal_units(decomp, blocks)


def set_sandwich(ideal):
    """(U, V): the units of the diagonal intersection and the source image
    of the support, checked to be invariant, to bound the ideal, and to
    be extremal against every orbit's blocks."""
    decomp = ideal.decomposition
    g = decomp.groupoid
    blocks = block_set(ideal)
    lower = set_diagonal_units(decomp, blocks)
    upper = frozenset(g.source(el) for el in set_support(decomp, blocks))
    assert is_invariant(g, lower) and is_invariant(g, upper)
    assert set_dynamical_blocks(decomp, lower) <= blocks <= set_dynamical_blocks(decomp, upper)
    for orbit, over in set_orbit_blocks(decomp).items():
        if frozenset(over) <= blocks:
            assert orbit <= lower, "diagonal support is not maximal"
        if frozenset(over) & blocks:
            assert orbit <= upper, "support image is not minimal"
    return lower, upper


def set_check_triple(decomp, lower, upper, quotient):
    """The triple conditions; returns the subquotient block correspondence
    (sub-block index -> parent block index)."""
    g = decomp.groupoid
    assert lower <= upper
    assert is_invariant(g, lower) and is_invariant(g, upper)
    sub, mapping = decomp.restriction_decomposition(upper - lower)
    assert quotient <= frozenset(range(len(sub.blocks)))
    if upper == lower:
        assert not quotient
    else:
        assert quotient
        assert not set_diagonal_units(sub, quotient)
        assert set_support(sub, quotient) == frozenset(sub.groupoid.elements)
    return mapping


def set_theta(decomp, triple):
    """The block set of the ideal of a triple."""
    lower, _, quotient = triple
    mapping = set_check_triple(decomp, *triple)
    return set_dynamical_blocks(decomp, lower) | frozenset(mapping[j] for j in quotient)


def set_theta_inverse(ideal):
    decomp = ideal.decomposition
    lower, upper = set_sandwich(ideal)
    _, mapping = decomp.restriction_decomposition(upper - lower)
    inverse = {parent: child for child, parent in mapping.items()}
    lower_blocks = set_dynamical_blocks(decomp, lower)
    triple = (lower, upper,
              frozenset(inverse[i] for i in block_set(ideal) if i not in lower_blocks))
    set_check_triple(decomp, *triple)
    return triple


def set_enumerate_triples(decomp):
    """Every triple: for each invariant V minus U, every U over the orbits
    outside it, and every product of proper nonempty per-orbit block
    subsets of the subquotient."""
    g = decomp.groupoid
    orbits = bfs_orbits(g)
    orbit_blocks = set_orbit_blocks(decomp)
    triples = []
    for between in invariant_unit_sets(g):
        per_orbit = [
            [combo
             for size in range(1, len(orbit_blocks[orb]))
             for combo in itertools.combinations(orbit_blocks[orb], size)]
            for orb in orbits
            if orb <= between
        ]
        if any(not choices for choices in per_orbit):
            continue
        _, mapping = decomp.restriction_decomposition(between)
        to_sub = {parent: child for child, parent in mapping.items()}
        quotients = [frozenset(to_sub[i] for combo in picks for i in combo)
                     for picks in itertools.product(*per_orbit)]
        outside = [orb for orb in orbits if not orb & between]
        for mask in range(1 << len(outside)):
            lower = frozenset().union(
                *(outside[i] for i in range(len(outside)) if mask >> i & 1))
            triples.extend((lower, lower | between, j) for j in quotients)
    return triples


def first_nonassociative(g):
    """The first composable triple, in ``validate``'s order, where
    (ab)c != a(bc), as ``(position, message)``; None when there is none.
    The literal Python triple loop with four ``compose`` calls each."""
    position = 0
    for b in g.elements:
        for a in g.source_fiber(g.range(b)):
            for c in g.range_fiber(g.source(b)):
                if g.compose(g.compose(a, b), c) != g.compose(a, g.compose(b, c)):
                    return position, f"associativity fails at ({a!r}, {b!r}, {c!r})"
                position += 1
    return None


def first_law_failure(g):
    """The first element, in element order, that breaks a unit or inverse
    law, with the first law it breaks, as ``validate`` words it; None when
    there is none.  Four ``compose`` calls per element."""
    for el in g.elements:
        if g.compose(el, g.source(el)) != el:
            return f"{el!r}*source({el!r}) != {el!r}"
        if g.compose(g.range(el), el) != el:
            return f"range({el!r})*{el!r} != {el!r}"
        if g.compose(el, g.inverse(el)) != g.range(el):
            return f"{el!r}*inverse({el!r}) != range({el!r})"
        if g.compose(g.inverse(el), el) != g.source(el):
            return f"inverse({el!r})*{el!r} != source({el!r})"
    return None


def first_group_failure(elements, rows):
    """The first failed group axiom of the table ``rows[i][j] = elements[i] *
    elements[j]``, as ``CayleyGroup`` words it, or None: the literal loops,
    with the O(k^3) triple loop for associativity."""
    table = {(g, h): rows[i][j] for i, g in enumerate(elements)
             for j, h in enumerate(elements)}
    for g in elements:
        for h in elements:
            if table[(g, h)] not in elements:
                return f"product {g!r}*{h!r} is not a group element"
    identity = next((e for e in elements
                     if all(table[(e, g)] == g and table[(g, e)] == g for g in elements)),
                    None)
    if identity is None:
        return "table has no identity element"
    for g in elements:
        if not any(table[(g, h)] == identity and table[(h, g)] == identity
                   for h in elements):
            return f"element {g!r} has no inverse"
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    return f"associativity fails at ({a!r}, {b!r}, {c!r})"
    return None


def joint_effectiveness_search(g, x, max_nonunits=12, budget=200_000):
    """Joint effectiveness at ``x`` by the literal definition: every
    family of one or two bisections, through distinct nontrivial isotropy
    arrows at ``x``, moves some unit of their common source set.  None
    when out of budget or past ``max_nonunits`` non-unit arrows."""
    nonunits = [el for el in g.elements if el not in g.units]
    if len(nonunits) > max_nonunits:
        return None
    isotropy = [el for el in nonunits if g.source(el) == x and g.range(el) == x]
    if not isotropy:
        return True

    def is_bisection(subset):
        return (len({g.source(el) for el in subset}) == len(subset)
                and len({g.range(el) for el in subset}) == len(subset))

    bisections = [
        frozenset(candidate)
        for k in range(1, len(nonunits) + 1)
        for candidate in itertools.combinations(nonunits, k)
        if is_bisection(candidate)
    ]
    containing = {gamma: [b for b in bisections if gamma in b] for gamma in isotropy}

    def family_has_witness(family):
        common = frozenset.intersection(
            *[frozenset(g.source(el) for el in b) for b in family])
        for y in common:
            moved = True
            for b in family:
                arrow = next(el for el in b if g.source(el) == y)
                if g.range(arrow) == y:
                    moved = False
                    break
            if moved:
                return True
        return False

    spent = 0
    for size in (1, 2):
        for gammas in itertools.combinations(isotropy, min(size, len(isotropy))):
            for family in itertools.product(*(containing[gm] for gm in gammas)):
                spent += 1
                if spent > budget:
                    return None
                if not family_has_witness(family):
                    return False
        if len(isotropy) < 2:
            break
    return True


def composition_arrays(g):
    """(ia, ib, iab) element indices of every composable pair and its
    product, from ``composable_pairs`` and ``compose``."""
    rows = [(g.index(a), g.index(b), g.index(g.compose(a, b)))
            for a, b in g.composable_pairs()]
    return tuple(np.array([r[k] for r in rows], dtype=np.intp) for k in range(3))


def class_sum_basis(g):
    """The normalised indicators of the isotropy conjugacy classes
    {h gamma h^-1}, one column per class in the element order of its first
    arrow, with two ``compose`` calls per conjugation."""
    classes, seen = [], set()
    for gamma in g.elements:
        if g.source(gamma) != g.range(gamma) or gamma in seen:
            continue
        cls = {g.compose(g.compose(h, gamma), g.inverse(h))
               for h in g.elements if g.source(h) == g.source(gamma)}
        seen |= cls
        classes.append([g.index(el) for el in cls])
    basis = np.zeros((len(g), len(classes)), dtype=np.complex128)
    for j, rows in enumerate(classes):
        basis[rows, j] = 1.0 / np.sqrt(len(rows))
    return basis


def commutator_center(g, eps=1e-9):
    """Orthonormal basis (columns) of the center of the convolution algebra:
    the common kernel of f -> delta_h * f - f * delta_h over all arrows h,
    stacked into one matrix from ``composable_pairs`` and ``compose`` and
    solved by one SVD."""
    n = len(g)
    index = {el: i for i, el in enumerate(g.elements)}
    commutators = np.zeros((n * n, n), dtype=np.complex128)
    for a, b in g.composable_pairs():
        ab = index[g.compose(a, b)]
        # delta_a * f takes f(b) to ab; f * delta_b takes f(a) to ab
        commutators[index[a] * n + ab, index[b]] += 1.0
        commutators[index[b] * n + ab, index[a]] -= 1.0
    _, s, vh = np.linalg.svd(commutators, full_matrices=False)
    rank = int(np.sum(s > eps * max(1.0, float(s[0]) if s.size else 0.0)))
    return vh[rank:].conj().T


def dense_central_idempotents(g, seed=0, gap=1e-6):
    """Coefficient vectors of the minimal central idempotents: the spectral
    projections of a random self-adjoint element of ``commutator_center``
    in the dense regular representation, which is built from
    ``composable_pairs`` and ``compose`` (delta_a sends delta_b to
    delta_ab), with f read back from a matrix P as f(gamma) =
    P[gamma, source(gamma)].  Draws whose eigenvalues give fewer clusters
    than the center has dimensions are redrawn."""
    n = len(g)
    index = {el: i for i, el in enumerate(g.elements)}
    inverse = [index[g.inverse(el)] for el in g.elements]
    source = [index[g.source(el)] for el in g.elements]
    center = commutator_center(g)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        w = center @ (rng.standard_normal(center.shape[1])
                      + 1j * rng.standard_normal(center.shape[1]))
        w = (w + np.conj(w[inverse])) / 2
        left = np.zeros((n, n), dtype=np.complex128)
        for a, b in g.composable_pairs():
            left[index[g.compose(a, b)], index[b]] += w[index[a]]
        values, vectors = np.linalg.eigh(left)
        cuts = [0] + [i for i in range(1, n)
                      if values[i] - values[i - 1] > gap * max(1.0, abs(values).max())] + [n]
        if len(cuts) - 1 == center.shape[1]:
            return [(vectors[:, lo:hi] @ vectors[:, lo:hi].conj().T)[range(n), source]
                    for lo, hi in zip(cuts, cuts[1:])]
    raise ValueError("central element eigenvalues kept colliding")


def dense_regular_representation(g, coeffs):
    """The |G| x |G| direct sum over the units x of the regular
    representations on l2(G_x), from ``composable_pairs`` and ``compose``:
    delta_a sends delta_b to delta_ab."""
    index = {el: i for i, el in enumerate(g.elements)}
    m = np.zeros((len(g), len(g)), dtype=np.complex128)
    for a, b in g.composable_pairs():
        m[index[g.compose(a, b)], index[b]] += coeffs[index[a]]
    return m


def dense_norm(g, coeffs) -> float:
    """The reduced norm: the largest singular value of the dense regular
    representation over all units at once."""
    m = dense_regular_representation(g, coeffs)
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def dense_fibers(g, coeffs) -> dict:
    """lambda_x(f) at every unit x: the dense representation sliced to the
    arrows with source x, in element order."""
    m = dense_regular_representation(g, coeffs)
    out = {}
    for x in g.unit_list:
        idx = [i for i, el in enumerate(g.elements) if g.source(el) == x]
        out[x] = m[np.ix_(idx, idx)]
    return out


def collapse_matrices(g, a) -> list:
    """The action of the element ``a`` on the orbit spaces, one matrix per
    ``bfs_orbits`` orbit, over its units in element order: the basis vector
    at source(gamma) goes to the one at range(gamma) with weight a(gamma),
    for every arrow gamma with source in the orbit."""
    index = {el: i for i, el in enumerate(g.elements)}
    out = []
    for orbit in bfs_orbits(g):
        members = [u for u in g.unit_list if u in orbit]
        m = np.zeros((len(members), len(members)), dtype=np.complex128)
        for el in g.elements:
            if g.source(el) in orbit:
                m[members.index(g.range(el)), members.index(g.source(el))] += a.coeffs[index[el]]
        out.append(m)
    return out


def dense_collapse_kernel(decomp, cut=0.5) -> list:
    """The blocks that the orbit-space representation kills: those whose
    idempotent has operator norm below ``cut`` on every orbit's
    ``collapse_matrices``."""
    return [blk.index for blk in decomp.blocks
            if max(float(np.linalg.svd(m, compute_uv=False)[0])
                   for m in collapse_matrices(decomp.groupoid, blk.idempotent)) < cut]


# -- the block table ------------------------------------------------------------------
#
# The blocks' orbits, supports and numbering as the per-block frozenset code
# derived them: from each idempotent's coefficient magnitudes, and in the
# order of a pairwise comparator.


def idempotent_orbits_and_supports(decomp):
    """Per block, (orbit, support) from its idempotent e: the orbit is the
    units where |e| / ||e|| exceeds ``zero_eps`` and the support every arrow
    whose range fiber has such a coefficient."""
    g = decomp.groupoid
    out = []
    for blk in decomp.blocks:
        magnitude = np.abs(blk.idempotent.coeffs)
        scale = max(float(np.sqrt(np.sum(magnitude ** 2))), 1e-300)
        heavy = {g.elements[i] for i in np.flatnonzero(magnitude / scale > decomp.tol.zero_eps)}
        met = {g.range(el) for el in heavy}
        out.append((frozenset(u for u in g.units if u in heavy),
                    frozenset(el for el in g.elements if g.range(el) in met)))
    return out


def _reference_compare(a, b) -> int:
    """Blocks by (first unit of the orbit, dimension); a tie goes to the
    idempotent with the larger real part at the first arrow, in element
    order, where the real parts differ by more than 1e-6, and then to the
    imaginary parts alike."""
    if a[:2] != b[:2]:
        return -1 if a[:2] < b[:2] else 1
    diff = b[2] - a[2]
    diff = np.concatenate([diff.real, diff.imag])
    decisive = np.flatnonzero(np.abs(diff) > 1e-6)
    return int(np.sign(diff[decisive[0]])) if decisive.size else 0


def reference_block_order(decomp, derived) -> list:
    """The block indices in the order of the pairwise comparator, sorted
    from the reversed numbering, with each block's orbit taken from
    ``derived``, the output of ``idempotent_orbits_and_supports``."""
    g = decomp.groupoid
    position = {el: i for i, el in enumerate(g.elements)}
    rows = [(min(position[u] for u in orbit), blk.dimension, blk.idempotent.coeffs, blk.index)
            for blk, (orbit, _) in zip(decomp.blocks, derived)]
    return [row[3] for row in sorted(reversed(rows), key=functools.cmp_to_key(_reference_compare))]


def reference_arrow_rows(decomp, derived) -> list:
    """Per arrow, in element order, (the mask of the blocks whose support
    holds it, the index of its orbit), with supports from ``derived`` (as
    in ``reference_block_order``) and orbits numbered as ``bfs_orbits``
    finds them; the orbit of the arrow's source is asserted to be that of
    its range."""
    g = decomp.groupoid
    orbit_of = {u: o for o, orbit in enumerate(bfs_orbits(g)) for u in orbit}
    supports = [support for _, support in derived]
    assert all(orbit_of[g.source(el)] == orbit_of[g.range(el)] for el in g.elements)
    return [[sum(1 << i for i, support in enumerate(supports) if el in support),
             orbit_of[g.source(el)]] for el in g.elements]


def orthonormal_basis(vectors, eps=1e-9):
    """Orthonormal basis (columns) for the span of the given row vectors;
    singular values at or below ``eps`` are discarded."""
    b = np.asarray(vectors, dtype=np.complex128)
    if b.size == 0:
        return np.zeros((b.shape[1] if b.ndim == 2 else 0, 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(b.T, full_matrices=False)
    return u[:, :int(np.sum(s > eps))]


def subspace_membership(basis, v, eps=1e-9) -> bool:
    """Whether ``v`` lies in the span of the basis vectors: its distance
    from the span is at most ``eps * max(1, ||v||)``."""
    w = np.asarray(v, dtype=np.complex128).ravel()
    rows = [np.asarray(b, dtype=np.complex128).ravel() for b in basis]
    for row in rows:
        if row.shape != w.shape:
            raise LinalgInputError(
                f"basis vector of length {row.size} vs vector of length {w.size}"
            )
    norm_v = float(np.linalg.norm(w))
    if not rows:
        return norm_v <= eps
    q = orthonormal_basis(np.array(rows), eps)
    return float(np.linalg.norm(w - q @ (q.conj().T @ w))) <= eps * max(1.0, norm_v)


def iterated_periodic_locus(system, p):
    """Points fixed by the p-th iterate, by applying the map p times."""
    def apply(x):
        for _ in range(p):
            x = system.mapping[x]
        return x

    return frozenset(x for x in system.space if apply(x) == x)


def all_starts_simple_cycles(graph):
    """Simple cycles of a graph, by a search from every vertex through any
    unvisited vertex; each cycle is found once per vertex on it, and the
    rotations are identified in a set by rooting each at its smallest edge."""
    edge_order = {e.ident: i for i, e in enumerate(graph.edges)}
    out = {v: [e for e in graph.edges if e.src == v] for v in graph.vertices}
    cycles = set()

    def extend(path, visited, start):
        for e in out[path[-1].dst]:
            if e.dst == start:
                cycle = tuple(path) + (e,)
                k = min(range(len(cycle)), key=lambda i: edge_order[cycle[i].ident])
                cycles.add(cycle[k:] + cycle[:k])
            elif e.dst not in visited:
                extend(path + [e], visited | {e.dst}, start)

    for v in graph.vertices:
        for e in out[v]:
            if e.dst == v:
                cycles.add((e,))
            else:
                extend([e], {v, e.dst}, v)
    return sorted(cycles, key=lambda c: [edge_order[e.ident] for e in c])


def next_edge_cycle_has_exit(graph, cycle):
    """Some vertex on the cycle has an out-edge other than the cycle's own
    next edge at that vertex."""
    next_edge = {e.src: e.ident for e in cycle}
    return any(f.ident != next_edge[e.src]
               for e in cycle for f in graph.edges if f.src == e.src)


def _out_edge_lists(graph):
    return {v: [e for e in graph.edges if e.src == v] for v in graph.vertices}


def set_saturated_hereditary_closure(graph, members, out=None):
    """Least saturated hereditary superset of a vertex set: add every edge's
    target from inside, then every vertex whose edges all land inside, and
    rescan until nothing changes."""
    out = out or _out_edge_lists(graph)
    current = set(members)
    changed = True
    while changed:
        changed = False
        for v in list(current):
            for e in out[v]:
                if e.dst not in current:
                    current.add(e.dst)
                    changed = True
        for v in graph.vertices:
            if v not in current and all(e.dst in current for e in out[v]):
                current.add(v)
                changed = True
    return frozenset(current)


def set_hereditary_saturated_sets(graph):
    """Every saturated hereditary vertex set, closing upward from the empty
    set by adding one vertex at a time; sorted by size, then by the sorted
    vertex positions."""
    out = _out_edge_lists(graph)
    order = {v: i for i, v in enumerate(graph.vertices)}
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        for v in graph.vertices:
            if v not in base:
                new = set_saturated_hereditary_closure(graph, base | {v}, out)
                if new not in found:
                    found.add(new)
                    frontier.append(new)
    return sorted(found, key=lambda s: (len(s), sorted(order[v] for v in s)))


def map_invariant_sets(system):
    """Every union of the classes of x ~ T(x), each class found by a
    breadth-first search on the undirected functional graph; sorted by
    size, then by the sorted positions of the points in ``space``."""
    neighbours = {x: set() for x in system.space}
    for x in system.space:
        neighbours[x].add(system.mapping[x])
        neighbours[system.mapping[x]].add(x)
    classes, seen = [], set()
    for x in system.space:
        if x in seen:
            continue
        seen.add(x)
        queue, members = [x], []
        while queue:
            y = queue.pop(0)
            members.append(y)
            for z in neighbours[y] - seen:
                seen.add(z)
                queue.append(z)
        classes.append(frozenset(members))
    order = {x: i for i, x in enumerate(system.space)}
    sets = [frozenset().union(*combo) for k in range(len(classes) + 1)
            for combo in itertools.combinations(classes, k)]
    return sorted(sets, key=lambda s: (len(s), sorted(order[x] for x in s)))
