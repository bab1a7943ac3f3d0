"""The ideal-structure theorems as executable operations and verifiers.

Every ideal of the block algebra is sandwiched between two dynamical
ideals read off its diagonal intersection and its support; ideals are
in bijection with triples (U, V, J) where U <= V are invariant unit
sets and J is a nonzero ideal of the reduction to V minus U that has
trivial diagonal intersection and full support; and all ideals with
trivial diagonal intersection live inside the obstruction ideal over
the non-effective units, with the orbit-space (collapse)
representation kernel witnessing minimality.

Verifiers are exhaustive, not sampled: the statements are universally
quantified and finite instances admit complete checks within the
block-count cap.

An ideal is the int bitmask of its Wedderburn blocks (``Ideal.mask``,
bit i is block i) and an invariant unit set is a bitmask over the
orbits (bit o is ``orbits()[o]``).  Which blocks sit over which orbit
is decided in one place, ``BlockDecomposition``: ``filled(m)`` (the
orbits ideal m fills), ``touched(m)`` (the orbits it has a block over)
and ``over(w)`` (the dynamical ideal over orbit set w), each on one mask
or on a numpy array of masks.  The triple bijection is then bit
arithmetic: theta^-1 of m is (filled(m), touched(m), m minus
over(filled(m))), and theta(U, V, q) is over(U) together with q.  The
public functions (``sandwich``, ``theta``, ``theta_inverse``,
``enumerate_triples``, ``make_triple``) apply these to one mask;
``verify`` and the analyze report apply them to all 2^b ideals and all
2^orbits unit sets at once (``_LatticeData``), and add per arrow the
blocks whose support holds it.  Unit sets become frozensets only at the
public functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (
    _PROJECTION_CUT,
    MAX_BLOCKS,
    AlgebraElement,
    BlockDecomposition,
    DecompositionError,
    Ideal,
    _bits,
    _block_mask,
    _orbit_fibers,
    _plan,
    _scatter,
    delta,
    wedderburn,
)
from .errors import CapExceededError
from .groupoids import FiniteGroupoid, GroupoidError
from .linalg import TolerancePolicy

CONVENTIONS = (
    "finite Hausdorff spaces are discrete: interiors, bisections and "
    "neighbourhoods are taken in the discrete topology",
    "triples with V = U carry the zero ideal of the zero algebra; the "
    "nonzero-and-full-support requirements are read as vacuous over the "
    "empty reduction",
    "graph paths compose left-to-right (dst(e_i) = src(e_(i+1))), the "
    "shift deletes the first edge, and the cycle condition is stated "
    "via exits under this convention",
)


class InvalidTripleError(ValueError):
    """A candidate (U, V, J) violates the triple conditions."""


def _decomposition_of(obj, tol=None, seed=None) -> BlockDecomposition:
    if isinstance(obj, BlockDecomposition):
        return obj
    if isinstance(obj, FiniteGroupoid):
        return wedderburn(obj, tol, seed)
    raise TypeError(f"expected a groupoid or decomposition, got {type(obj).__name__}")


# -- subquotient block indices ---------------------------------------------------


def _sub_indices(over: int, q: int) -> list:
    """The blocks of ``q`` as indices into the subquotient whose blocks are
    ``over``: a parent block's index there is its rank within ``over``."""
    return [(over & ((1 << i) - 1)).bit_count() for i in _bits(q)]


# -- sandwich sets -------------------------------------------------------------


def sandwich(ideal: Ideal):
    """The invariant unit sets (U, V) with I_U <= I <= I_V extremal.

    U is the open support of the diagonal intersection: the orbits all
    of whose blocks the ideal contains.  V is the source image of the
    support: the orbits the ideal has a block over.  The verifier scans
    the whole dynamical lattice for extremality.
    """
    decomp, m = ideal.decomposition, ideal.mask
    return decomp.orbit_set(decomp.filled(m)), decomp.orbit_set(decomp.touched(m))


# -- triples -------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichTriple:
    """(U, V, J): nested invariant unit sets and an ideal of the
    subquotient algebra over V minus U (trivial diagonal intersection,
    full support; the zero ideal of the zero algebra when V = U)."""

    lower: frozenset
    upper: frozenset
    quotient_ideal: Ideal

    @property
    def between(self) -> frozenset:
        return self.upper - self.lower

    def __repr__(self):
        return (
            f"SandwichTriple(U={sorted(map(repr, self.lower))}, "
            f"V={sorted(map(repr, self.upper))}, J={self.quotient_ideal!r})"
        )


def _triple_masks(decomp: BlockDecomposition, triple: SandwichTriple) -> tuple:
    """(U, q) of a triple as masks, with q over the parent's blocks;
    raises InvalidTripleError if the triple conditions fail."""
    g = decomp.groupoid
    if not triple.lower <= triple.upper:
        raise InvalidTripleError("U is not contained in V")
    for members in (triple.lower, triple.upper):
        if not g.is_invariant_unit_set(members):
            raise InvalidTripleError("U and V must be invariant unit sets")
    sub, _ = decomp.restriction_decomposition(triple.between)
    if triple.quotient_ideal.decomposition is not sub:
        raise InvalidTripleError(
            "quotient ideal does not live over the canonical subquotient"
        )
    between = decomp.orbit_mask(triple.between)
    parents = _bits(decomp.over(between))
    q = _block_mask(parents[j] for j in _bits(triple.quotient_ideal.mask))
    if not between:
        if q:
            raise InvalidTripleError("V = U requires the zero ideal")
    elif not q:
        raise InvalidTripleError("quotient ideal is zero on a nonzero subquotient")
    elif decomp.filled(q):
        raise InvalidTripleError("quotient ideal has nontrivial diagonal intersection")
    elif decomp.touched(q) != between:
        raise InvalidTripleError("quotient ideal does not have full support")
    return decomp.orbit_mask(triple.lower), q


def make_triple(decomp_or_groupoid, lower, upper, quotient_blocks=(),
                tol=None, seed=None) -> SandwichTriple:
    """Assemble a triple from unit sets and subquotient block indices."""
    decomp = _decomposition_of(decomp_or_groupoid, tol, seed)
    lower, upper = frozenset(lower), frozenset(upper)
    sub, _ = decomp.restriction_decomposition(upper - lower)
    triple = SandwichTriple(lower, upper, sub.ideal(quotient_blocks))
    _triple_masks(decomp, triple)
    return triple


def theta(decomp_or_groupoid, triple: SandwichTriple, tol=None, seed=None) -> Ideal:
    """The ideal associated to a triple: everything over U together with
    the blocks matching J across the subquotient correspondence."""
    decomp = _decomposition_of(decomp_or_groupoid, tol, seed)
    lower, q = _triple_masks(decomp, triple)
    return Ideal(decomp, decomp.over(lower) | q)


def theta_inverse(ideal: Ideal) -> SandwichTriple:
    """The triple of an ideal: its sandwich sets and the induced
    subquotient ideal (the blocks outside I_U, which are purely
    non-dynamical with full support over V minus U)."""
    decomp, m = ideal.decomposition, ideal.mask
    lower, upper = decomp.filled(m), decomp.touched(m)
    between = upper & ~lower
    sub, _ = decomp.restriction_decomposition(decomp.orbit_set(between))
    quotient = sub.ideal(_sub_indices(decomp.over(between), m & ~decomp.over(lower)))
    return SandwichTriple(decomp.orbit_set(lower), decomp.orbit_set(upper), quotient)


def enumerate_triples(decomp_or_groupoid, tol=None, seed=None,
                      max_blocks: int = MAX_BLOCKS) -> list:
    """All valid triples over all invariant pairs U <= V, including the
    conventional (U, U, 0) triples."""
    decomp = _decomposition_of(decomp_or_groupoid, tol, seed)
    if decomp.block_count > max_blocks:
        raise CapExceededError(
            f"{decomp.block_count} blocks exceed the triple-enumeration cap {max_blocks}"
        )
    subs = {}
    triples = []
    for lower, upper, q in zip(*(a.tolist() for a in _triple_table(decomp))):
        between = upper & ~lower
        if between not in subs:
            subs[between] = decomp.restriction_decomposition(decomp.orbit_set(between))[0]
        quotient = subs[between].ideal(_sub_indices(decomp.over(between), q))
        triples.append(SandwichTriple(
            decomp.orbit_set(lower), decomp.orbit_set(upper), quotient
        ))
    return triples


def _triple_table(decomp: BlockDecomposition) -> tuple:
    """(U, V, q) mask arrays of every triple, q over the parent's blocks.

    Ordered by V minus U in ``invariant_subsets`` order, then by U as
    an ascending mask, then by q.
    A quotient ideal must take a proper nonempty block subset on every
    orbit of the reduction (full support, no diagonal), so the q are a
    product of per-orbit choices and V minus U is a union of orbits
    with at least two blocks.
    """
    g = decomp.groupoid
    position = {u: i for i, u in enumerate(g.unit_list)}
    units = [sorted(position[u] for u in orbit) for orbit in g.orbits()]
    obm = decomp.orbit_masks
    unit_masks = np.arange(1 << len(obm), dtype=np.int64)
    split = [o for o, bm in enumerate(obm) if bm.bit_count() > 1]
    choices = {
        o: np.array([_block_mask(combo)
                     for size in range(1, obm[o].bit_count())
                     for combo in itertools.combinations(_bits(obm[o]), size)],
                    dtype=np.int64)
        for o in split
    }

    def unit_order(between):
        members = sorted(u for o in _bits(between) for u in units[o])
        return len(members), members

    betweens = sorted((_block_mask(split[i] for i in _bits(s))
                       for s in range(1 << len(split))), key=unit_order)
    lowers, uppers, quotients = [], [], []
    for between in betweens:
        q = np.zeros(1, dtype=np.int64)
        for o in _bits(between):
            q = (q[:, None] | choices[o]).ravel()
        lower = np.repeat(unit_masks[(unit_masks & between) == 0], q.size)
        lowers.append(lower)
        uppers.append(lower | between)
        quotients.append(np.tile(q, len(lower) // q.size))
    return tuple(np.concatenate(parts) for parts in (lowers, uppers, quotients))


# -- obstruction ideal and the collapse representation --------------------------


_OBSTRUCTION_SUPPORT = "obstruction ideal support differs from the non-effective reduction"


def obstruction_ideal(decomp_or_groupoid, tol=None, seed=None) -> Ideal:
    """The dynamical ideal over the non-effective units."""
    j_ob, _, failures = _obstruction(_decomposition_of(decomp_or_groupoid, tol, seed))
    if _OBSTRUCTION_SUPPORT in failures:
        raise DecompositionError(_OBSTRUCTION_SUPPORT)
    return j_ob


def collapse_matrices(g: FiniteGroupoid, a: AlgebraElement) -> list:
    """The action of ``a`` on the orbit spaces, one matrix per orbit:
    a basis vector at a unit is sent through every arrow out of it."""
    return [_scatter(*fiber.collapse, a.coeffs) for fiber in _orbit_fibers(g)]


def collapse_kernel(decomp_or_groupoid, tol=None, seed=None) -> Ideal:
    """The kernel of the orbit-space representation, as a block subset.

    The kernel always misses the diagonal; when the obstruction ideal
    is nonzero the kernel is purely non-dynamical with exactly the same
    support (and it is zero exactly when the obstruction ideal is).
    """
    _, kernel, failures = _obstruction(_decomposition_of(decomp_or_groupoid, tol, seed))
    if failures:
        raise DecompositionError(failures[0])
    return kernel


def _obstruction(decomp: BlockDecomposition) -> tuple:
    """(J^ob, the collapse kernel, the message of each statement about them
    that fails): the kernel misses the diagonal, J^ob's support is the
    non-effective reduction, and the kernel is zero when J^ob is and has
    J^ob's support when it is not."""
    g = decomp.groupoid
    noneffective = g.units - g.effective_units()
    j_ob = decomp.dynamical_ideal_of(noneffective)
    # on its own orbit a block's idempotent maps to a projection: norm 0 or 1
    killed = 0
    for blk in decomp.blocks:
        on_orbit = collapse_matrices(g, blk.idempotent)[g.orbits().index(blk.orbit)]
        if linalg.operator_norm(on_orbit) < _PROJECTION_CUT:
            killed |= 1 << blk.index
    kernel = Ideal(decomp, killed)
    failures = []
    if kernel.diagonal_units():
        failures.append("collapse kernel meets the diagonal")
    expected = frozenset(
        el for el in g.elements
        if g.source(el) in noneffective and g.range(el) in noneffective
    )
    if j_ob.support() != expected:
        failures.append(_OBSTRUCTION_SUPPORT)
    if j_ob.is_zero:
        if not kernel.is_zero:
            failures.append("collapse kernel is nonzero on an effective groupoid")
    elif kernel.support() != j_ob.support():
        failures.append("collapse kernel support differs from the obstruction ideal support")
    return j_ob, kernel, failures


# -- the perturbation witness ----------------------------------------------------


def exel_witness(g: FiniteGroupoid, x, bisection, f: AlgebraElement,
                 tol: TolerancePolicy | None = None) -> AlgebraElement:
    """A diagonal h with 0 <= h <= 1, h(x) = 1 and h f h = 0, for f
    supported on a bisection avoiding the isotropy at x.

    In the discrete case the indicator of {x} always works: the unique
    arrow of the bisection out of x (if any) moves x.  ``tol.zero_eps``
    decides the support of f and whether h f h vanishes.
    """
    tol = tol or linalg.DEFAULT_TOLERANCE
    if x not in g.units:
        raise GroupoidError(f"{x!r} is not a unit")
    members = frozenset(bisection)
    ends = ({g.source(el) for el in members}, {g.range(el) for el in members})
    if any(len(e) != len(members) for e in ends):
        raise GroupoidError("the given set is not a bisection")
    for el in members:
        if g.source(el) == x and g.range(el) == x:
            raise GroupoidError(f"bisection meets the isotropy at {x!r} (arrow {el!r})")
    off = [el for el, c in zip(g.elements, f.coeffs) if abs(c) > tol.zero_eps and el not in members]
    if off:
        raise GroupoidError(f"function does not vanish off the bisection: {off[0]!r}")
    h = delta(g, x)
    squeezed = h * f * h
    if squeezed.norm() > tol.zero_eps:
        raise DecompositionError("perturbation witness failed to vanish")
    return h


# -- the verifier suite -----------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


@dataclass
class VerificationReport:
    groupoid_name: str
    element_count: int
    unit_count: int
    orbit_count: int
    block_dimensions: tuple
    seed: int
    zero_eps: float
    eig_residual: float
    counts: dict
    checks: list
    conventions: tuple = CONVENTIONS
    numerics: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "instance": {
                "name": self.groupoid_name,
                "elements": self.element_count,
                "units": self.unit_count,
                "orbits": self.orbit_count,
                "block_dimensions": list(self.block_dimensions),
            },
            "parameters": {
                "seed": self.seed,
                "zero_eps": self.zero_eps,
                "eig_residual": self.eig_residual,
            },
            "counts": dict(self.counts),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "details": c.details,
                    "witnesses": c.witnesses,
                }
                for c in self.checks
            ],
            "numerics": dict(self.numerics),
            "conventions": list(self.conventions),
            "all_passed": self.all_passed,
        }


class _LatticeData:
    """Vectorized bitmask tables for exhaustive ideal scans.

    Ideals are bitmasks over blocks, invariant unit sets are bitmasks
    over orbits; the tables give, for every ideal mask, the orbits it
    fills (the U side) and touches (the V side) and whether it is
    dynamical or purely non-dynamical, for every orbit mask the
    dynamical ideal over it (the decomposition's ``filled``, ``touched``
    and ``over`` on whole arrays of masks), and per arrow (``arrows``) the mask of the
    blocks whose support holds it and the orbits of its source and range.
    """

    def __init__(self, decomp: BlockDecomposition):
        self.decomp = decomp
        self.n_orbits = len(decomp.orbit_masks)
        self.b = decomp.block_count
        self.ideal_masks = np.arange(1 << self.b, dtype=np.int64)
        self.unit_masks = np.arange(1 << self.n_orbits, dtype=np.int64)
        self.inside = decomp.filled(self.ideal_masks)
        self.touched = decomp.touched(self.ideal_masks)
        self.dynamical_of = decomp.over(self.unit_masks)
        self.dynamical = self.dynamical_of[self.inside] == self.ideal_masks
        self.pnd = (self.ideal_masks != 0) & (self.inside == 0)
        g = decomp.groupoid
        orbit_of = {u: o for o, orbit in enumerate(g.orbits()) for u in orbit}
        self.arrows = np.array(
            [(_block_mask(blk.index for blk in decomp.blocks if el in blk.support),
              orbit_of[g.source(el)], orbit_of[g.range(el)]) for el in g.elements],
            dtype=np.int64,
        ).reshape(-1, 3)

    def theta_inverse(self) -> tuple:
        """theta^-1 of every ideal mask m, as (U, V, q) arrays indexed by m."""
        lower = self.inside
        return lower, self.touched, self.ideal_masks & ~self.dynamical_of[lower]

    def invalid_triples(self, lower, upper, q) -> np.ndarray:
        """Which (U, V, q) rows break the triple conditions: U <= V, and q
        lives over V minus U, fills none of its orbits (trivial diagonal
        intersection) and touches every one of them (full support)."""
        between = upper & ~lower
        return (((lower & ~upper) != 0)
                | ((q & ~self.dynamical_of[between]) != 0)
                | ((self.inside[q] & between) != 0)
                | (self.touched[q] != between))


_FULL_SCAN_BUDGET = 1 << 26


def _distinct(values, bits: int):
    """The sorted distinct values of an array of masks below ``1 << bits``."""
    seen = np.zeros(1 << bits, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def _check_sandwich(data: _LatticeData) -> CheckResult:
    b, n_orbits = data.b, data.n_orbits
    witnesses = []
    masks = data.ideal_masks
    i_lower = data.dynamical_of[data.inside]
    i_upper = data.dynamical_of[data.touched]
    bad = ((i_lower & masks) != i_lower) | ((masks & i_upper) != masks)
    for m in np.flatnonzero(bad)[:5]:
        witnesses.append(f"ideal {m:#x}: sandwich bounds fail")
    full_scan = (1 << b) * (1 << n_orbits) <= _FULL_SCAN_BUDGET
    if full_scan:
        for w in range(1 << n_orbits):
            iw = int(data.dynamical_of[w])
            larger = ((iw & masks) == iw) & ((w & data.inside) != w)
            smaller = ((masks & iw) == masks) & ((data.touched & w) != data.touched)
            for m in np.flatnonzero(larger)[:2]:
                witnesses.append(f"ideal {m:#x}: larger dynamical ideal {w:#x} inside")
            for m in np.flatnonzero(smaller)[:2]:
                witnesses.append(f"ideal {m:#x}: smaller dynamical ideal {w:#x} outside")
    else:
        for o in range(n_orbits):
            bm = data.decomp.orbit_masks[o]
            viol = (((masks & bm) == bm) & (data.inside >> o & 1 == 0)) | (
                ((masks & bm) != 0) & (data.touched >> o & 1 == 0)
            )
            for m in np.flatnonzero(viol)[:2]:
                witnesses.append(f"ideal {m:#x}: extremality fails at orbit {o}")
    return CheckResult(
        "sandwich",
        not witnesses,
        {"ideals": 1 << b, "scan": "full lattice" if full_scan else "orbitwise"},
        witnesses[:5],
    )


def _check_bijection(data: _LatticeData, triples) -> CheckResult:
    lower, upper, q = triples
    masks = data.ideal_masks
    inv_lower, inv_upper, inv_q = data.theta_inverse()
    witnesses = []
    for i in np.flatnonzero(data.invalid_triples(lower, upper, q))[:2]:
        witnesses.append(f"({lower[i]:#x}, {upper[i]:#x}, {q[i]:#x}) is not a triple")
    image = data.dynamical_of[lower] | q
    distinct = len(_distinct(image, data.b))
    if distinct != len(image):
        witnesses.append("theta is not injective")
    back = (inv_lower[image] != lower) | (inv_upper[image] != upper) | (inv_q[image] != q)
    for i in np.flatnonzero(back)[:2]:
        witnesses.append(
            f"round trip fails for triple ({lower[i]:#x}, {upper[i]:#x}, {q[i]:#x})"
        )
    for m in np.flatnonzero(data.invalid_triples(inv_lower, inv_upper, inv_q))[:2]:
        witnesses.append(f"theta inverse of ideal {m:#x} is not a triple")
    for m in np.flatnonzero((data.dynamical_of[inv_lower] | inv_q) != masks)[:2]:
        witnesses.append(f"round trip fails for ideal {m:#x}")
    if distinct != len(masks) or len(lower) != len(masks):
        witnesses.append(
            f"counts differ: {len(lower)} triples vs {len(masks)} ideals"
        )
    return CheckResult(
        "bijection",
        not witnesses,
        {"triples": len(lower), "ideals": len(masks)},
        witnesses[:5],
    )


def _check_obstruction(data: _LatticeData) -> CheckResult:
    j_ob, kernel, failures = _obstruction(data.decomp)
    witnesses = []
    j_mask = j_ob.mask
    masks = data.ideal_masks
    escapes = data.pnd & ((masks & j_mask) != masks)
    for m in np.flatnonzero(escapes)[:3]:
        witnesses.append(
            f"purely non-dynamical ideal {m:#x} escapes the obstruction ideal"
        )
    pnd_union = int(np.bitwise_or.reduce(masks[data.pnd])) if data.pnd.any() else 0
    witnesses.extend(failures)
    not_minimal = ((pnd_union & data.dynamical_of) == pnd_union) & (
        (j_mask & data.dynamical_of) != j_mask
    )
    for w in np.flatnonzero(not_minimal)[:3]:
        witnesses.append(f"dynamical ideal {w:#x} contains all pnd ideals but not J^ob")
    return CheckResult(
        "obstruction",
        not witnesses,
        {
            "obstruction_blocks": _bits(j_mask),
            "kernel_blocks": _bits(kernel.mask),
        },
        witnesses[:5],
    )


def _unique_rows(rows):
    """The distinct rows of a 2-D int array in lexicographic order, as
    ``np.unique(rows, axis=0)`` gives them: one sort and a neighbour compare."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[fresh]


def _check_lattice_iso(data: _LatticeData) -> CheckResult:
    witnesses = []
    n_orbits = data.n_orbits
    unit_masks = data.unit_masks
    ideal_of = data.dynamical_of
    if len(_distinct(ideal_of, data.b)) != len(unit_masks):
        witnesses.append("unit-set-to-ideal map is not injective")
    bad_diagonal = data.inside[ideal_of] != unit_masks
    # an arrow lies in the support of I_U when one of its blocks lies over
    # U, and in the reduction to U when its source and range orbits do
    bad_support = np.zeros(len(unit_masks), dtype=bool)
    for blocks, source, range_ in _unique_rows(data.arrows).tolist():
        in_reduction = (unit_masks >> source & unit_masks >> range_ & 1) == 1
        bad_support |= ((ideal_of & blocks) != 0) != in_reduction
    for w in np.flatnonzero(bad_diagonal | bad_support)[:5]:
        if bad_diagonal[w]:
            witnesses.append(f"diagonal of I_U differs from C(U) at {w:#x}")
        if bad_support[w]:
            witnesses.append(f"support of I_U differs from the reduction at {w:#x}")
    pair_budget = (1 << n_orbits) * (1 << n_orbits) <= _FULL_SCAN_BUDGET
    w1_range = range(1 << n_orbits) if pair_budget else [0, (1 << n_orbits) - 1]
    for w1 in w1_range:
        i1 = int(ideal_of[w1])
        if ((i1 & ideal_of) != ideal_of[w1 & unit_masks]).any():
            witnesses.append(f"intersection identity fails against {w1:#x}")
        if ((i1 | ideal_of) != ideal_of[w1 | unit_masks]).any():
            witnesses.append(f"sum identity fails against {w1:#x}")
        if (((w1 & unit_masks) == w1) != ((i1 & ideal_of) == i1)).any():
            witnesses.append(f"order preservation fails against {w1:#x}")
    return CheckResult(
        "lattice",
        not witnesses,
        {"invariant_sets": 1 << n_orbits,
         "pair_scan": "all pairs" if pair_budget else "extremal rows"},
        witnesses[:5],
    )


def _check_support_invariance(data: _LatticeData) -> CheckResult:
    plan = _plan(data.decomp.groupoid)
    blocks = data.arrows[:, 0]
    # ideals with the same touched-orbit set share their support, that of
    # the dynamical ideal over those orbits; an arrow is in a support when
    # one of its blocks is, so distinct block-mask rows cover every arrow
    touched = _distinct(data.touched, data.n_orbits)
    supports = data.dynamical_of[touched]
    not_inverse = np.zeros(len(touched), dtype=bool)
    for a, a_inv in _unique_rows(np.stack([blocks, blocks[plan.inv]], axis=1)).tolist():
        not_inverse |= ((supports & a) != 0) != ((supports & a_inv) != 0)
    not_composed = np.zeros(len(touched), dtype=bool)
    for a, b, ab in _unique_rows(
            np.stack([blocks[plan.ia], blocks[plan.ib], blocks[plan.iab]], axis=1)).tolist():
        not_composed |= ((supports & a) != 0) & ((supports & b) != 0) & ((supports & ab) == 0)
    witnesses = []
    for i in np.flatnonzero(not_inverse | not_composed)[:5]:
        if not_inverse[i]:
            witnesses.append(f"support over orbits {touched[i]:#x} not closed under inversion")
        if not_composed[i]:
            witnesses.append(f"support over orbits {touched[i]:#x} not closed under composition")
    return CheckResult(
        "support", not witnesses, {"distinct_supports": len(touched)}, witnesses[:5]
    )


def _check_effective_uniqueness(data: _LatticeData) -> CheckResult:
    g = data.decomp.groupoid
    effective = g.effective_units() == g.units
    witnesses = []
    if effective:
        for m in np.flatnonzero(data.pnd)[:3]:
            witnesses.append(
                f"nonzero ideal {m:#x} misses the diagonal on an effective groupoid"
            )
    return CheckResult(
        "effective", not witnesses, {"effective": effective}, witnesses[:5]
    )


def verify(g_or_decomp, tol: TolerancePolicy | None = None, seed: int | None = None,
           max_blocks: int = MAX_BLOCKS) -> VerificationReport:
    """Run the full theorem suite and report one verdict per theorem."""
    decomp = _decomposition_of(g_or_decomp, tol, seed)
    if decomp.block_count > max_blocks:
        raise CapExceededError(
            f"{decomp.block_count} blocks exceed the verification cap {max_blocks}"
        )
    g = decomp.groupoid
    data = _LatticeData(decomp)
    triples = _triple_table(decomp)
    checks = [
        _check_sandwich(data),
        _check_bijection(data, triples),
        _check_obstruction(data),
        _check_lattice_iso(data),
        _check_support_invariance(data),
        _check_effective_uniqueness(data),
    ]
    counts = {
        "ideals": 1 << data.b,
        "dynamical": int(np.sum(data.dynamical)),
        "purely_non_dynamical": int(np.sum(data.pnd)),
        "triples": len(triples[0]),
    }
    return VerificationReport(
        groupoid_name=g.name,
        element_count=len(g),
        unit_count=len(g.units),
        orbit_count=data.n_orbits,
        block_dimensions=decomp.dimensions,
        seed=decomp.seed,
        zero_eps=decomp.tol.zero_eps,
        eig_residual=decomp.tol.eig_residual,
        counts=counts,
        checks=checks,
        numerics=dict(decomp.numerics),
    )
