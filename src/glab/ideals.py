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

Nothing is sampled.  Each statement of a verifier is universally
quantified over the 2^b ideals or the 2^orbits invariant unit sets, and
is either checked item by item (per block, per arrow, per orbit) or
proved, in the check's docstring, from facts so checked.

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
``make_triple``) apply these to one mask, and ``enumerate_triples`` and
the analyze report list all 2^b triples or ideals.  ``verify`` builds no
such list.  Unit sets become frozensets only at the public functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .algebra import (
    _CHECK_EPS,
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
    support: the orbits the ideal has a block over.  ``_check_sandwich``
    proves both extremal in the dynamical lattice.
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


# The checks read four things: each block's orbit (``_orbit_index``, as
# ``orbit_masks``), each arrow's blocks (``_support``), the orbit table of
# ``_pair_slots()`` and the collapse traces.  Each states facts about single
# blocks, arrows or orbits, and its docstring proves from them the theorem
# over all 2^b ideals and 2^orbits invariant unit sets.


def _incidence_faults(decomp: BlockDecomposition) -> list:
    """The witnesses against the block fact: every block lies over an orbit
    (its ``_orbit_index`` numbers one) and every orbit has a block.  One
    pass over the blocks and the orbits.

    Given it, the orbit ideals I_o = ``orbit_masks[o]`` are nonzero and
    partition the blocks (P), and I_w = ``over(w)`` is the union of the I_o
    over o in w (Sigma), both by construction.  So an ideal m has U(m) =
    ``filled(m)`` = {o : I_o <= m} and V(m) = ``touched(m)`` = {o : m meets
    I_o}.
    """
    index, n = decomp._orbit_index, len(decomp.orbit_masks)
    stray = np.flatnonzero((index < 0) | (index >= n)).tolist()
    return ([f"block {i} lies over no orbit" for i in stray]
            + [f"orbit {o} has no block" for o, bm in enumerate(decomp.orbit_masks) if not bm])


def _arrow_faults(decomp: BlockDecomposition) -> list:
    """The witnesses against the arrow fact: every arrow lies in the support
    of some block, and every block whose support holds it lies over the
    arrow's orbit.  One pass over ``_support``, O(|G| b).

    Given it, the support of I_w (the arrows some block over w holds) is
    the reduction to w: an arrow of an orbit in w is held by a block, which
    lies over that orbit, and an arrow of any other orbit by none over w.
    """
    g, index = decomp.groupoid, decomp._orbit_index
    orbit = g._pair_slots().orbit
    bare = np.flatnonzero(~decomp._support.any(axis=1))[:5].tolist()
    stray = np.argwhere(decomp._support & (index != orbit[:, None]))[:5].tolist()
    return ([f"arrow {g.elements[a]!r} lies in no block's support" for a in bare]
            + [f"arrow {g.elements[a]!r} of orbit {orbit[a]} lies in the support of "
               f"block {i} over orbit {index[i]}" for a, i in stray])


def _isotropy_faults(decomp: BlockDecomposition) -> list:
    """The witnesses against the exact invariants of each orbit O with
    isotropy group H, |O| and |H| read off the orbit table.

    The reduction to O is M_|O|(C*(H)) (Muhly, Renault and Williams), with
    one block of dimension d = |O| chi(1) per irreducible character chi of
    H.  So each d/|O| is an integer dividing |H| (Serre, GTM 42, 6.5), the
    squares of the d/|O| sum to |H| (2.4), and the orbit space l2(O) carries
    the representation induced from the trivial character, the block of
    chi = 1: exactly one of O's blocks has a collapse trace above the cut,
    and that trace, the rank of its image, is |O|.
    """
    slots = decomp.groupoid._pair_slots()
    sizes = np.bincount(slots.orbit[slots.unit], minlength=len(slots.first_unit)).tolist()
    orders = slots.isotropy[slots.first_unit].tolist()
    dims, traces = decomp.dimensions, _collapse_traces(decomp).tolist()
    out = []
    for o, (bm, n, h) in enumerate(zip(decomp.orbit_masks, sizes, orders)):
        blocks = _bits(bm)
        for i in blocks:
            q, r = divmod(dims[i], n)
            if r or not q or h % q:
                out.append(f"block {i}: dimension {dims[i]} is not |O| = {n} "
                           f"times a divisor of |H| = {h}")
        square_sum = sum(dims[i] ** 2 for i in blocks)
        if square_sum != n * n * h:
            out.append(f"orbit {o}: block dimensions square-sum to {square_sum}, "
                       f"not |O|^2 |H| = {n * n * h}")
        lit = [i for i in blocks if traces[i] > _PROJECTION_CUT]
        if len(lit) != 1:
            out.append(f"orbit {o}: {len(lit)} blocks have a collapse trace above "
                       f"{_PROJECTION_CUT}, not one")
        elif abs(traces[lit[0]] - n) > _CHECK_EPS:
            out.append(f"orbit {o}: block {lit[0]} has collapse trace "
                       f"{traces[lit[0]]:.6g}, not |O| = {n}")
    return out


def _check_sandwich(decomp: BlockDecomposition) -> CheckResult:
    """Every ideal m has I_U <= m <= I_V for U = U(m) and V = V(m), with U
    the largest and V the smallest such invariant set.  It reads the block
    fact (``_incidence_faults``); given it, for every m:
    - I_U <= m, as each I_o with o in U is; m <= I_V, as each block of m
      lies in some I_o (P), which it meets.
    - I_w <= m iff I_o <= m for all o in w (Sigma): the w with I_w <= m are
      the subsets of U, so U is the largest.
    - m <= I_w iff m misses I_o for all o outside w (P): the w with
      m <= I_w are the supersets of V, so V is the smallest.
    """
    witnesses = _incidence_faults(decomp)
    return CheckResult("sandwich", not witnesses,
                       {"ideals": 1 << decomp.block_count, "scan": "full lattice"},
                       witnesses[:5])


def _check_bijection(decomp: BlockDecomposition) -> CheckResult:
    """theta and theta^-1 are inverse bijections between the ideals and the
    triples, 2^b of each.  It reads the block fact; given it, for an ideal
    m with U = U(m), V = V(m) and q = m minus I_U:
    - (U, V, q) is a triple: U <= V as each I_o is nonzero; q lies over
      V minus U, fills none of its orbits (m fills none) and meets each of
      them (m does, and I_o misses I_U); theta of it is I_U | q = m.
    - for a triple (U, V, q), m = I_U | q fills exactly U (q fills nothing
      and the I_o are nonzero) and meets exactly V, and m minus I_U is q.
    - a triple chooses, per orbit o, to be in U, outside V, or in V minus U
      with a proper nonempty block subset: 1 + 1 + (2^k_o - 2) = 2^k_o
      ways, for k_o blocks over o, and 2^b triples in all.
    """
    witnesses = _incidence_faults(decomp)
    return CheckResult("bijection", not witnesses,
                       {"triples": 1 << decomp.block_count, "ideals": 1 << decomp.block_count},
                       witnesses[:5])


def _check_obstruction(decomp: BlockDecomposition) -> CheckResult:
    """Every purely non-dynamical ideal lies in J^ob, the least dynamical
    ideal holding them all; the collapse kernel statements of
    ``_obstruction``; and the exact invariants (``_isotropy_faults``).

    It reads, per orbit o, k_o = the blocks over o and |H_o|.  A purely
    non-dynamical ideal (nonzero, U empty) holds no whole I_o, so its blocks
    lie over orbits with k_o >= 2, and each block over such an orbit is one
    alone.  So all lie in J^ob = I over {o : |H_o| > 1} iff k_o >= 2 implies
    |H_o| > 1 (else the ideal of o's first block escapes), and the least
    dynamical ideal holding them all, I over {o : k_o >= 2}, holds J^ob iff
    |H_o| > 1 implies k_o >= 2 (where k_o = 1, I over every orbit but o is
    a witness; k_o = 0 fails the square sum).
    """
    j_mask, kernel, failures = _obstruction(decomp)
    slots = decomp.groupoid._pair_slots()
    orders = slots.isotropy[slots.first_unit].tolist()
    everything = (1 << len(orders)) - 1
    escapes = [f"purely non-dynamical ideal {bm & -bm:#x} escapes the obstruction ideal"
               for bm, h in zip(decomp.orbit_masks, orders) if bm.bit_count() > 1 and h == 1]
    not_minimal = [f"dynamical ideal {everything ^ 1 << o:#x} contains all pnd ideals but not J^ob"
                   for o, (bm, h) in enumerate(zip(decomp.orbit_masks, orders))
                   if bm.bit_count() == 1 and h > 1]
    witnesses = escapes[:3] + failures + not_minimal[:3] + _isotropy_faults(decomp)
    return CheckResult(
        "obstruction",
        not witnesses,
        {
            "obstruction_blocks": _bits(j_mask),
            "kernel_blocks": _bits(kernel),
        },
        witnesses[:5],
    )


def _check_lattice_iso(decomp: BlockDecomposition) -> CheckResult:
    """w -> I_w is a lattice isomorphism onto the dynamical ideals, with
    I_w's diagonal C(w) and its support the reduction to w.  It reads the
    block fact and the arrow fact (``_arrow_faults``); given the first,
    I_w1 & I_w2 = I_(w1 & w2) (P), I_w1 | I_w2 = I_(w1 | w2) (Sigma) and
    U(I_w) = w (each I_o is nonzero), so the map is injective and
    w1 <= w2 iff I_w1 <= I_w2; the second gives the supports.
    """
    witnesses = _incidence_faults(decomp) + _arrow_faults(decomp)
    return CheckResult("lattice", not witnesses,
                       {"invariant_sets": 1 << len(decomp.orbit_masks), "pair_scan": "all pairs"},
                       witnesses[:5])


def _check_support_invariance(decomp: BlockDecomposition) -> CheckResult:
    """The support of every dynamical ideal is closed under inversion and
    composition.  It reads the arrow fact: given it, the support of I_w is
    the reduction to w, and an arrow, its inverse, and two composable arrows
    and their product all lie over one orbit.  The 2^orbits supports are
    distinct once every orbit has a block.
    """
    witnesses = _arrow_faults(decomp)
    return CheckResult("support", not witnesses,
                       {"distinct_supports": 1 << len(decomp.orbit_masks)}, witnesses[:5])


def _check_effective_uniqueness(decomp: BlockDecomposition) -> CheckResult:
    """On an effective groupoid (trivial isotropy at every unit), every
    nonzero ideal meets the diagonal.  A nonzero ideal with U empty exists
    iff some orbit has two blocks (one of them alone is such an ideal; and
    such an ideal holds no whole I_o), so it reads k_o <= 1 per orbit.
    """
    slots = decomp.groupoid._pair_slots()
    effective = bool((slots.isotropy[slots.unit] == 1).all())
    witnesses = []
    if effective:
        witnesses = [f"nonzero ideal {bm & -bm:#x} misses the diagonal on an effective groupoid"
                     for bm in decomp.orbit_masks if bm.bit_count() > 1][:3]
    return CheckResult(
        "effective", not witnesses, {"effective": effective}, witnesses[:5]
    )


def verify(g_or_decomp, tol: TolerancePolicy | None = None, seed: int | None = None,
           max_blocks: int = MAX_BLOCKS) -> VerificationReport:
    """Run the full theorem suite and report one verdict per theorem.  The
    counts are product formulas over the k_o blocks of each orbit: 2^b
    ideals and triples, 2^orbits dynamical ideals, and prod (2^k_o - 1) - 1
    purely non-dynamical ones (a proper block subset per orbit, not all
    empty)."""
    decomp = _decomposition_of(g_or_decomp, tol, seed, max_blocks)
    g = decomp.groupoid
    checks = [
        _check_sandwich(decomp),
        _check_bijection(decomp),
        _check_obstruction(decomp),
        _check_lattice_iso(decomp),
        _check_support_invariance(decomp),
        _check_effective_uniqueness(decomp),
    ]
    b, orbit_masks = decomp.block_count, decomp.orbit_masks
    counts = {
        "ideals": 1 << b,
        "dynamical": 1 << len(orbit_masks),
        "purely_non_dynamical": math.prod((1 << bm.bit_count()) - 1 for bm in orbit_masks) - 1,
        "triples": 1 << b,
    }
    return VerificationReport(
        groupoid_name=g.name,
        element_count=len(g),
        unit_count=len(g.units),
        orbit_count=len(orbit_masks),
        block_dimensions=decomp.dimensions,
        seed=decomp.seed,
        zero_eps=decomp.tol.zero_eps,
        eig_residual=decomp.tol.eig_residual,
        counts=counts,
        checks=checks,
        numerics=dict(decomp.numerics),
    )
