"""The ideal-structure theorems as executable operations and verifiers.

Every ideal of the block algebra is sandwiched between two dynamical
ideals read off its diagonal intersection and its support; ideals are
in bijection with triples (U, V, J) where U <= V are invariant unit
sets and J is a nonzero ideal of the reduction to V minus U that has
trivial diagonal intersection and full support; and all ideals with
trivial diagonal intersection live inside the obstruction ideal over
the non-effective units, with the kernel of the orbit-space (collapse)
*-representation witnessing minimality: it sends a block's central
projection to a projection, whose trace (``_collapse_traces``) is its rank.

Verifiers are exhaustive, not sampled: the statements are universally
quantified and finite instances admit complete checks within the
block-count cap.

An ideal is the int bitmask of its Wedderburn blocks (``Ideal.mask``,
bit i is block i) and an invariant unit set is a bitmask over the orbits
(bit o is orbit o, numbered as the ``glab.groupoids`` docstring says).
Which blocks sit over which orbit
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
    _center,
    delta,
    wedderburn,
)
from .errors import check_cap
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


def _decomposition_of(obj, tol=None, seed=None, max_blocks=None) -> BlockDecomposition:
    """The decomposition of a groupoid, or the decomposition given.  With
    ``max_blocks``, a groupoid's block count is checked before ``wedderburn``."""
    if isinstance(obj, FiniteGroupoid):
        if max_blocks is not None:
            check_cap(_center(obj).shape[1], max_blocks, "blocks")
        return wedderburn(obj, tol, seed)
    if not isinstance(obj, BlockDecomposition):
        raise TypeError(f"expected a groupoid or decomposition, got {type(obj).__name__}")
    if max_blocks is not None:
        check_cap(obj.block_count, max_blocks, "blocks")
    return obj


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
    support: the orbits the ideal has a block over.  ``verify`` checks
    that both are extremal in the dynamical lattice (``_orbit_ideals``).
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
    decomp = _decomposition_of(decomp_or_groupoid, tol, seed, max_blocks)
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

    Ordered by V minus U in ``invariant_subsets`` order, then by U as an
    ascending mask, then by q; each orbit's ``combinations`` by size are
    already the canonical order (``_canonical_order``) on its block bits.
    A quotient ideal must take a proper nonempty block subset on every
    orbit of the reduction (full support, no diagonal), so the q are a
    product of per-orbit choices and V minus U is a union of orbits
    with at least two blocks.
    """
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
    betweens = decomp.groupoid._sorted_unit_sets(
        _block_mask(split[i] for i in _bits(s)) for s in range(1 << len(split)))
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
    decomp = _decomposition_of(decomp_or_groupoid, tol, seed)
    j_ob, _, wrong_support = _obstruction_ideal(decomp)
    if wrong_support:
        raise DecompositionError(_OBSTRUCTION_SUPPORT)
    return Ideal(decomp, j_ob)


def collapse_kernel(decomp_or_groupoid, tol=None, seed=None) -> Ideal:
    """The kernel of the orbit-space representation, as a block subset.

    The kernel always misses the diagonal; when the obstruction ideal
    is nonzero the kernel is purely non-dynamical with exactly the same
    support (and it is zero exactly when the obstruction ideal is).  A
    failing statement is raised, the obstruction ideal's support first.
    """
    decomp = _decomposition_of(decomp_or_groupoid, tol, seed)
    _, kernel, failures = _obstruction(decomp)
    if failures:
        raise DecompositionError(
            _OBSTRUCTION_SUPPORT if _OBSTRUCTION_SUPPORT in failures else failures[0])
    return Ideal(decomp, kernel)


def _collapse_traces(decomp: BlockDecomposition) -> np.ndarray:
    """Per block, the trace of its idempotent on the orbit space l2(O) of
    its orbit O: the sum over the isotropy arrows of O, the diagonal of
    delta_s(arrow) -> delta_r(arrow)."""
    slots = decomp.groupoid._pair_slots()
    isotropy = np.flatnonzero(slots.src == slots.rng)
    own_orbit = slots.orbit[isotropy, None] == decomp._orbit_index
    return (decomp._record.idempotents[isotropy] * own_orbit).sum(axis=0).real


def _obstruction_ideal(decomp: BlockDecomposition) -> tuple:
    """(J^ob as a block mask, its support as ``_held`` reads it, whether that
    support differs from the non-effective reduction).  J^ob is over the
    orbits whose first unit has nontrivial isotropy (constant along an orbit
    of a valid groupoid; were it not, the support would differ)."""
    slots = decomp.groupoid._pair_slots()
    noneffective = slots.isotropy > 1
    j_ob = decomp.over(_block_mask(np.flatnonzero(noneffective[slots.first_unit]).tolist()))
    held = decomp._held(j_ob)
    return j_ob, held, bool((held != (noneffective[slots.src] & noneffective[slots.rng])).any())


def _obstruction(decomp: BlockDecomposition) -> tuple:
    """(J^ob, the collapse kernel, the message of each statement about them
    that fails), as block masks: the kernel misses the diagonal, J^ob's
    support is the non-effective reduction, and the kernel is zero when J^ob
    is and has J^ob's support when it is not."""
    j_ob, held, wrong_support = _obstruction_ideal(decomp)
    kernel = _block_mask(np.flatnonzero(_collapse_traces(decomp) < _PROJECTION_CUT).tolist())
    failures = []
    if decomp.filled(kernel):
        failures.append("collapse kernel meets the diagonal")
    if wrong_support:
        failures.append(_OBSTRUCTION_SUPPORT)
    if not j_ob:
        if kernel:
            failures.append("collapse kernel is nonzero on an effective groupoid")
    elif (decomp._held(kernel) != held).any():
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
    blocks whose support holds it and its orbit (its source's and range's).
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
        slots = decomp.groupoid._pair_slots()
        self.arrows = np.stack([decomp._support @ (1 << np.arange(self.b, dtype=np.int64)),
                                slots.orbit], axis=1)

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


def _distinct(values, bits: int):
    """The sorted distinct values of an array of masks below ``1 << bits``."""
    seen = np.zeros(1 << bits, dtype=bool)
    seen[values] = True
    return np.flatnonzero(seen)


def _orbit_ideals(data: _LatticeData) -> tuple:
    """(I_o = ``dynamical_of[1 << o]`` per orbit o, the witnesses of P and
    Sigma that fail): the one fact the sandwich and lattice checks read.

    P: the I_o are pairwise disjoint and cover the b blocks.  Sigma: each
    ``dynamical_of[w]`` is the union of the I_o over o in w (``union``,
    built by doubling).  Given both, for an ideal m:
    - I_w <= m iff I_o <= m for all o in w: the w with I_w <= m are the
      subsets of {o : I_o <= m}, and U(m) is the largest iff it holds them.
    - m <= I_w iff m misses I_o for all o not in w (P): the w with m <= I_w
      are the supersets of {o : m meets I_o}, and V(m) is the smallest iff
      m meets I_o for each o in V(m).
    - I_w1 | I_w2 = I_(w1 | w2) and, the I_o being disjoint, I_w1 & I_w2 =
      I_(w1 & w2).  So w1 <= w2 iff I_w1 <= I_w2 once every I_o is nonzero.
    """
    singles = data.dynamical_of[1 << np.arange(data.n_orbits, dtype=np.int64)]
    union = np.zeros(1 << data.n_orbits, dtype=np.int64)
    for o, io in enumerate(singles.tolist()):
        union[1 << o:2 << o] = union[:1 << o] | io
    failures = [f"dynamical ideal over {w:#x} is not the union of its orbit ideals"
                for w in np.flatnonzero(data.dynamical_of != union)[:2]]
    if sum(io.bit_count() for io in singles.tolist()) != data.b or union[-1] != (1 << data.b) - 1:
        failures.insert(0, "orbit ideals do not partition the blocks")
    return singles, failures


def _check_sandwich(data: _LatticeData) -> CheckResult:
    """Reads the lattice tables, that is the block orbits alone: every
    statement is an identity of the block<->orbit incidence, true for any
    map from blocks to orbits.  Extremality is read off ``_orbit_ideals``."""
    masks, everything = data.ideal_masks, (1 << data.n_orbits) - 1
    i_lower = data.dynamical_of[data.inside]
    i_upper = data.dynamical_of[data.touched]
    bad = ((i_lower & masks) != i_lower) | ((masks & i_upper) != masks)
    singles, failures = _orbit_ideals(data)
    witnesses = [f"ideal {m:#x}: sandwich bounds fail" for m in np.flatnonzero(bad)[:5]] + failures
    for o, io in enumerate(singles.tolist()):
        larger = ((masks & io) == io) & ((data.inside >> o & 1) == 0)
        smaller = ((masks & io) == 0) & ((data.touched >> o & 1) == 1)
        witnesses += [f"ideal {m:#x}: larger dynamical ideal {1 << o:#x} inside"
                      for m in np.flatnonzero(larger)[:2]]
        witnesses += [f"ideal {m:#x}: smaller dynamical ideal {everything ^ 1 << o:#x} outside"
                      for m in np.flatnonzero(smaller)[:2]]
    return CheckResult("sandwich", not witnesses,
                       {"ideals": 1 << data.b, "scan": "full lattice"}, witnesses[:5])


def _check_bijection(data: _LatticeData, triples) -> CheckResult:
    """Reads the triple and lattice tables (the block orbits alone): all
    identities of the incidence once every orbit has a block, which
    ``_decompose``'s unit-sum and footprint checks guarantee."""
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
    """Reads the collapse traces, the isotropy orders and ``_support``; the
    escape and minimality scans test each orbit's block count against its
    isotropy, so no statement is an identity of the incidence."""
    j_mask, kernel, failures = _obstruction(data.decomp)
    witnesses = []
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
            "kernel_blocks": _bits(kernel),
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
    """The reduction half reads ``_support`` against each arrow's orbit; the
    rest reads the lattice tables, identities of the incidence once every
    orbit has a block (see ``_check_bijection``)."""
    witnesses = []
    unit_masks = data.unit_masks
    ideal_of = data.dynamical_of
    if len(_distinct(ideal_of, data.b)) != len(unit_masks):
        witnesses.append("unit-set-to-ideal map is not injective")
    bad_diagonal = data.inside[ideal_of] != unit_masks
    # an arrow lies in the support of I_U when one of its blocks lies over
    # U, and in the reduction to U when its orbit (source and range) does
    bad_support = np.zeros(len(unit_masks), dtype=bool)
    for blocks, orbit in _unique_rows(data.arrows).tolist():
        in_reduction = (unit_masks >> orbit & 1) == 1
        bad_support |= ((ideal_of & blocks) != 0) != in_reduction
    for w in np.flatnonzero(bad_diagonal | bad_support)[:5]:
        if bad_diagonal[w]:
            witnesses.append(f"diagonal of I_U differs from C(U) at {w:#x}")
        if bad_support[w]:
            witnesses.append(f"support of I_U differs from the reduction at {w:#x}")
    # the pair identities (``_orbit_ideals``): each I_o != I_0 = 0, by injectivity and Sigma
    witnesses += _orbit_ideals(data)[1]
    return CheckResult("lattice", not witnesses, {"invariant_sets": 1 << data.n_orbits,
                                                  "pair_scan": "all pairs"}, witnesses[:5])


def _check_support_invariance(data: _LatticeData) -> CheckResult:
    """Reads ``_support`` over the inverse and the composition table; not an
    identity of the incidence."""
    g, blocks = data.decomp.groupoid, data.arrows[:, 0]
    (ia, ib, iab), inv = g.composition_table(), g._pair_slots().inv
    # ideals with the same touched-orbit set share their support, that of
    # the dynamical ideal over those orbits; an arrow is in a support when
    # one of its blocks is, so distinct block-mask rows cover every arrow
    touched = _distinct(data.touched, data.n_orbits)
    supports = data.dynamical_of[touched]
    not_inverse = np.zeros(len(touched), dtype=bool)
    for a, a_inv in _unique_rows(np.stack([blocks, blocks[inv]], axis=1)).tolist():
        not_inverse |= ((supports & a) != 0) != ((supports & a_inv) != 0)
    not_composed = np.zeros(len(touched), dtype=bool)
    for a, b, ab in _unique_rows(
            np.stack([blocks[ia], blocks[ib], blocks[iab]], axis=1)).tolist():
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
    """Reads the isotropy orders at the units and the ``pnd`` table, each
    orbit's block count against trivial isotropy: not an identity."""
    slots = data.decomp.groupoid._pair_slots()
    effective = bool((slots.isotropy[slots.unit] == 1).all())
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
    decomp = _decomposition_of(g_or_decomp, tol, seed, max_blocks)
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
