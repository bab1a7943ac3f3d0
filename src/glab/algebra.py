"""The reduced C*-algebra of a finite groupoid, realized concretely.

For a finite groupoid the convolution algebra of all complex functions
on the groupoid IS the reduced C*-algebra: the direct sum of the
regular representations over all units is faithful, so the algebra is
a block-diagonal matrix *-algebra of total dimension |G|.  This module
computes its decomposition into simple matrix blocks (minimal central
idempotents, block dimensions, matrix units) and the lattice of
two-sided ideals, which are exactly the sums of blocks.

The decomposition works inside the center, whose exact orthonormal
basis C (|G| x b) is the normalised isotropy class sums {h gamma h^-1}.
Left convolution by a self-adjoint central w is Hermitian and keeps the
center, so one b x b eigensolve of M = C^H (w * C) splits a generic w.
Minimal central idempotents are l2-orthogonal and sum to 1, so the
eigenvector u_k gives e_k = C u_k <u_k, C^H 1>, of rank
tr lambda(e_k) = sum over units x of |G^x| e_k(x).

Ideals are canonically represented by their block subsets, held as
bitmasks, so ideal identity is exact and free of tolerance drift.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import CapExceededError
from .groupoids import FiniteGroupoid, GroupoidError
from .linalg import DEFAULT_TOLERANCE, TolerancePolicy

DEFAULT_SEED = 0xC0FFEE
MAX_BLOCKS = 20
_RETRIES = 8
_CHECK_EPS = 1e-7
_GAP_EPS = 1e-6     # relative eigenvalue gap that separates two clusters


class AlgebraError(ValueError):
    pass


class DecompositionError(AlgebraError):
    """Numerically degenerate decomposition (never seen on valid input)."""


# -- convolution plan ---------------------------------------------------------


class _Plan:
    """Cached index arrays for convolution and the regular representation."""

    def __init__(self, g: FiniteGroupoid):
        self.n = n = len(g)
        self.ia, self.ib, self.iab = g.composition_table()
        self.inv = np.asarray([g.index(g.inverse(el)) for el in g.elements], dtype=np.intp)
        self.source_idx = g._pair_slots().src
        self.range_idx = self.source_idx[self.inv]
        self.unit_mask = self.source_idx == np.arange(n)


def _plan(g: FiniteGroupoid) -> _Plan:
    plan = g._caches.get("algebra_plan")
    if plan is None:
        plan = _Plan(g)
        g._caches["algebra_plan"] = plan
    return plan


# -- algebra elements ---------------------------------------------------------


class AlgebraElement:
    """A complex function on the groupoid, multiplied by convolution."""

    __slots__ = ("groupoid", "coeffs")

    def __init__(self, groupoid: FiniteGroupoid, coeffs):
        self.groupoid = groupoid
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape != (len(groupoid),):
            raise AlgebraError(
                f"coefficient vector of length {c.shape} for |G| = {len(groupoid)}"
            )
        self.coeffs = c

    @classmethod
    def zero(cls, groupoid):
        return cls(groupoid, np.zeros(len(groupoid), dtype=np.complex128))

    @classmethod
    def delta(cls, groupoid, el):
        c = np.zeros(len(groupoid), dtype=np.complex128)
        c[groupoid.index(el)] = 1.0
        return cls(groupoid, c)

    def _check_same(self, other):
        if self.groupoid is not other.groupoid:
            raise AlgebraError("elements live over different groupoids")

    def __add__(self, other):
        self._check_same(other)
        return AlgebraElement(self.groupoid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same(other)
        return AlgebraElement(self.groupoid, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElement(self.groupoid, -self.coeffs)

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return AlgebraElement(self.groupoid, scalar * self.coeffs)
        return NotImplemented

    def __mul__(self, other):
        """Convolution: (f*g)(gamma) = sum over factorizations gamma = a b."""
        if isinstance(other, (int, float, complex)):
            return AlgebraElement(self.groupoid, other * self.coeffs)
        self._check_same(other)
        plan = _plan(self.groupoid)
        out = np.zeros(plan.n, dtype=np.complex128)
        np.add.at(out, plan.iab, self.coeffs[plan.ia] * other.coeffs[plan.ib])
        return AlgebraElement(self.groupoid, out)

    def adjoint(self):
        """Involution: f*(gamma) = conj(f(gamma^-1))."""
        plan = _plan(self.groupoid)
        return AlgebraElement(self.groupoid, np.conj(self.coeffs[plan.inv]))

    def expectation(self):
        """Conditional expectation onto the diagonal: zero all non-unit terms."""
        plan = _plan(self.groupoid)
        return AlgebraElement(self.groupoid, self.coeffs * plan.unit_mask)

    def jmap(self) -> dict:
        """The element read as a function on the groupoid (all coefficients)."""
        return {el: complex(self.coeffs[i]) for i, el in enumerate(self.groupoid.elements)}

    def coefficient(self, el) -> complex:
        return complex(self.coeffs[self.groupoid.index(el)])

    def norm(self) -> float:
        """The reduced C*-norm: operator norm in the regular representation."""
        return linalg.operator_norm(full_representation(self.groupoid).matrix(self))

    def support(self, eps: float = DEFAULT_TOLERANCE.zero_eps) -> frozenset:
        return frozenset(
            el for i, el in enumerate(self.groupoid.elements) if abs(self.coeffs[i]) > eps
        )

    def allclose(self, other, eps: float = 1e-8) -> bool:
        self._check_same(other)
        return bool(np.max(np.abs(self.coeffs - other.coeffs), initial=0.0) <= eps)

    def __repr__(self):
        terms = []
        for i, el in enumerate(self.groupoid.elements):
            c = self.coeffs[i]
            if abs(c) > 1e-12:
                terms.append(f"{c:.3g}*d[{el!r}]")
            if len(terms) > 4:
                terms.append("...")
                break
        return "AlgebraElement(" + (" + ".join(terms) if terms else "0") + ")"


def delta(groupoid, el) -> AlgebraElement:
    return AlgebraElement.delta(groupoid, el)


def unit_element(groupoid) -> AlgebraElement:
    """The multiplicative unit: the indicator of the unit space."""
    plan = _plan(groupoid)
    return AlgebraElement(groupoid, plan.unit_mask.astype(np.complex128))


def diagonal_element(groupoid, values: dict) -> AlgebraElement:
    """A diagonal function from a unit -> value mapping."""
    c = np.zeros(len(groupoid), dtype=np.complex128)
    for u, v in values.items():
        if u not in groupoid.units:
            raise AlgebraError(f"{u!r} is not a unit")
        c[groupoid.index(u)] = v
    return AlgebraElement(groupoid, c)


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    return f * g


def involute(f: AlgebraElement) -> AlgebraElement:
    return f.adjoint()


def expectation_E(f: AlgebraElement) -> AlgebraElement:
    return f.expectation()


def jmap(f: AlgebraElement) -> dict:
    return f.jmap()


def random_element(groupoid, rng, selfadjoint: bool = False) -> AlgebraElement:
    c = rng.standard_normal(len(groupoid)) + 1j * rng.standard_normal(len(groupoid))
    a = AlgebraElement(groupoid, c)
    if selfadjoint:
        a = 0.5 * (a + a.adjoint())
    return a


# -- the regular representation ----------------------------------------------


class Representation:
    """The direct sum over units x of the regular representation on l2(G_x).

    The total basis is the set of groupoid elements itself (grouped by
    source fiber), so matrices are |G| x |G| and the coefficient of a
    at gamma can be read back as the matrix entry (gamma, source(gamma)).
    """

    def __init__(self, groupoid: FiniteGroupoid):
        self.groupoid = groupoid
        self._plan = _plan(groupoid)

    def matrix(self, f) -> np.ndarray:
        coeffs = f.coeffs if isinstance(f, AlgebraElement) else np.asarray(f, dtype=np.complex128)
        plan = self._plan
        m = np.zeros((plan.n, plan.n), dtype=np.complex128)
        m[plan.iab, plan.ib] = coeffs[plan.ia]
        return m

    def coefficients(self, matrix) -> np.ndarray:
        """Inverse of ``matrix`` on the image algebra, via the entry read-back."""
        plan = self._plan
        return np.asarray(matrix)[np.arange(plan.n), plan.source_idx].copy()

    def fiber_matrix(self, f, x) -> np.ndarray:
        """The block of the representation acting on l2(G_x)."""
        idx = [self.groupoid.index(el) for el in self.groupoid.source_fiber(x)]
        return self.matrix(f)[np.ix_(idx, idx)]


def full_representation(groupoid: FiniteGroupoid) -> Representation:
    return Representation(groupoid)


# -- Wedderburn decomposition --------------------------------------------------


@dataclass
class Block:
    """One simple matrix summand of the algebra."""

    index: int
    dimension: int
    idempotent: AlgebraElement
    orbit: frozenset
    support: frozenset
    _decomposition: "BlockDecomposition" = field(repr=False, default=None)
    _matrix_units: list = field(repr=False, default=None)

    def matrix_units(self):
        """A d x d family of matrix units spanning the block (lazy)."""
        if self._matrix_units is None:
            self._matrix_units = self._decomposition._matrix_units_for(self)
        return self._matrix_units


class BlockDecomposition:
    """Minimal central idempotents and simple-block data for C*_r(G)."""

    def __init__(self, groupoid, tol, seed, blocks, numerics):
        self.groupoid = groupoid
        self.tol = tol
        self.seed = seed
        self.blocks = tuple(blocks)
        self.numerics = numerics
        for blk in self.blocks:
            blk._decomposition = self
        self._subquotients: dict = {}

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def dimensions(self) -> tuple:
        return tuple(b.dimension for b in self.blocks)

    @functools.cached_property
    def orbit_masks(self) -> tuple:
        """Per orbit, in ``groupoid.orbits()`` order, the mask of the
        blocks over it (bit i is block i)."""
        index = {orbit: o for o, orbit in enumerate(self.groupoid.orbits())}
        masks = [0] * len(index)
        for blk in self.blocks:
            masks[index[blk.orbit]] |= 1 << blk.index
        return tuple(masks)

    def orbit_blocks(self) -> dict:
        """Map each orbit to the tuple of indices of blocks sitting over it."""
        return {orbit: tuple(_bits(bm))
                for orbit, bm in zip(self.groupoid.orbits(), self.orbit_masks)}

    # -- the block/orbit incidence ---------------------------------------
    #
    # An ideal is a block mask m and an invariant unit set an orbit mask w
    # (bit o is ``orbits()[o]``).  ``filled``, ``touched`` and ``over`` take
    # one int mask or an int64 array of masks, through the same code.

    def filled(self, m):
        """The orbits all of whose blocks ideal ``m`` holds: its diagonal."""
        return sum((((m & bm) == bm) << o for o, bm in enumerate(self.orbit_masks)), m & 0)

    def touched(self, m):
        """The orbits some block of ideal ``m`` sits over: its support."""
        return sum((((m & bm) != 0) << o for o, bm in enumerate(self.orbit_masks)), m & 0)

    def over(self, w):
        """The dynamical ideal over orbit set ``w``: every block over its orbits."""
        return sum(((w >> o & 1) * bm for o, bm in enumerate(self.orbit_masks)), w & 0)

    def orbit_mask(self, members) -> int:
        """The orbits inside a unit set."""
        return sum(1 << o for o, orbit in enumerate(self.groupoid.orbits()) if orbit <= members)

    def orbit_set(self, w: int) -> frozenset:
        """The units of the orbits in ``w``."""
        orbits = self.groupoid.orbits()
        return frozenset().union(*(orbits[o] for o in _bits(w)))

    # -- ideals ---------------------------------------------------------

    def ideal(self, block_indices) -> "Ideal":
        indices = list(block_indices)
        if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool)
                   and 0 <= i < self.block_count for i in indices):
            raise AlgebraError(f"unknown block indices {sorted(frozenset(indices))}")
        return Ideal(self, _block_mask({int(i) for i in indices}))

    def zero_ideal(self) -> "Ideal":
        return Ideal(self, 0)

    def full_ideal(self) -> "Ideal":
        return Ideal(self, (1 << self.block_count) - 1)

    def all_ideals(self, max_blocks: int = MAX_BLOCKS) -> list:
        """All 2^b block subsets, ordered by their bitmask."""
        b = self.block_count
        if b > max_blocks:
            raise CapExceededError(
                f"{b} blocks would enumerate 2^{b} ideals (cap {max_blocks})"
            )
        return [Ideal(self, m) for m in range(1 << b)]

    def dynamical_ideal_of(self, members) -> "Ideal":
        """The ideal generated by the diagonal functions on an invariant unit set."""
        members = frozenset(members)
        if not self.groupoid.is_invariant_unit_set(members):
            raise GroupoidError(f"unit set is not invariant: {sorted(map(repr, members))}")
        return Ideal(self, self.over(self.orbit_mask(members)))

    def ideal_generated_by(self, a: AlgebraElement) -> "Ideal":
        """The two-sided ideal generated by one element (a block subset)."""
        scale = max(1.0, float(np.linalg.norm(a.coeffs)))
        mask = 0
        for blk in self.blocks:
            comp = blk.idempotent * a
            if np.max(np.abs(comp.coeffs), initial=0.0) > self.tol.zero_eps * scale:
                mask |= 1 << blk.index
        return Ideal(self, mask)

    # -- subquotients ------------------------------------------------------

    def restriction_decomposition(self, members):
        """Decomposition of the reduction to an invariant unit set, plus the
        block correspondence (sub-block index -> parent block index).

        The reduction to an invariant set is the direct sum of the
        per-orbit algebras it contains, so its minimal central
        idempotents are exactly the parent ones restricted to the
        reduction (minimal central idempotents are unique); the
        decomposition is assembled accordingly rather than recomputed,
        and registered as the reduction's cached decomposition.
        """
        members = frozenset(members)
        key = members
        cached = self._subquotients.get(key)
        if cached is not None:
            return cached
        if not self.groupoid.is_invariant_unit_set(members):
            raise GroupoidError("reduction set must be invariant for the subquotient")
        if members == self.groupoid.units:
            result = (self, {i: i for i in range(self.block_count)})
            self._subquotients[key] = result
            return result
        sub_groupoid = self.groupoid.restrict(members, validate=False)
        keep = np.asarray(
            [self.groupoid.index(el) for el in sub_groupoid.elements], dtype=np.intp
        )
        mapping = {}
        blocks = []
        for parent in self.blocks:
            if not parent.orbit <= members:
                continue
            index = len(blocks)
            mapping[index] = parent.index
            blocks.append(Block(
                index=index,
                dimension=parent.dimension,
                idempotent=AlgebraElement(sub_groupoid, parent.idempotent.coeffs[keep]),
                orbit=parent.orbit,
                support=parent.support,
            ))
        sub = BlockDecomposition(
            sub_groupoid, self.tol, self.seed, blocks, dict(self.numerics)
        )
        sub_groupoid._caches[_wedderburn_key(self.tol, self.seed)] = sub
        result = (sub, mapping)
        self._subquotients[key] = result
        return result

    # -- matrix units ------------------------------------------------------

    def _matrix_units_for(self, block: Block):
        g = self.groupoid
        rep = full_representation(g)
        rng = np.random.default_rng((self.seed, block.index, 0xB10C))
        d = block.dimension
        e_mat = rep.matrix(block.idempotent)
        if d == 1:
            return [[AlgebraElement(g, block.idempotent.coeffs.copy())]]
        u, s, _ = np.linalg.svd(e_mat)
        r = int(np.sum(s > 0.5))
        v = u[:, :r]
        mult = r // d
        projections = None
        for _ in range(_RETRIES):
            a = random_element(g, rng, selfadjoint=True)
            y = block.idempotent * a * block.idempotent
            y_r = v.conj().T @ rep.matrix(y) @ v
            eigenvalues, vectors = linalg.hermitian_eigen(y_r, self.tol)
            clusters = _cluster(eigenvalues, d)
            if clusters is None or any(hi - lo != mult for lo, hi in clusters):
                continue
            projections = [
                v @ vectors[:, lo:hi] @ vectors[:, lo:hi].conj().T @ v.conj().T
                for lo, hi in clusters
            ]
            break
        if projections is None:
            raise DecompositionError("matrix-unit eigenvalue clustering failed")
        row = [projections[0]]
        for j in range(1, d):
            ok = False
            for _ in range(_RETRIES):
                a = random_element(g, rng)
                vj = projections[0] @ rep.matrix(block.idempotent * a) @ projections[j]
                c = float(np.real(np.trace(vj.conj().T @ vj))) / mult
                if c > 1e-9:
                    row.append(vj / np.sqrt(c))
                    ok = True
                    break
            if not ok:
                raise DecompositionError("failed to link minimal projections")
        units = [[None] * d for _ in range(d)]
        for j in range(d):
            for k in range(d):
                m = row[j].conj().T @ row[k]
                units[j][k] = AlgebraElement(g, rep.coefficients(m))
        ident = sum((units[j][j].coeffs for j in range(d)), np.zeros(len(g), np.complex128))
        if np.max(np.abs(ident - block.idempotent.coeffs)) > _CHECK_EPS:
            raise DecompositionError("matrix units do not sum to the block idempotent")
        return units

    def __repr__(self):
        dims = "x".join(str(d) for d in self.dimensions) or "0"
        return f"BlockDecomposition({self.groupoid.name}: blocks {dims})"


def _cluster(eigenvalues, expected: int):
    """Split sorted eigenvalues at gaps above ``_GAP_EPS`` times their
    scale, as (lo, hi) index ranges; None unless there are ``expected``."""
    n = len(eigenvalues)
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    bounds = [0]
    for i in range(1, n):
        if eigenvalues[i] - eigenvalues[i - 1] > _GAP_EPS * scale:
            bounds.append(i)
    bounds.append(n)
    if len(bounds) - 1 != expected:
        return None
    return list(zip(bounds, bounds[1:]))


def _wedderburn_key(tol: TolerancePolicy, seed: int) -> tuple:
    """The groupoid cache key of a decomposition, shared by ``wedderburn``
    and the subquotients ``restriction_decomposition`` registers."""
    return ("wedderburn", tol.zero_eps, tol.eig_residual, seed)


def _center_basis(g: FiniteGroupoid) -> np.ndarray:
    """Orthonormal basis (columns) of the center: the normalised indicators
    of the isotropy conjugacy classes {h gamma h^-1}, one per block, in the
    element order of their first arrow."""
    plan = _plan(g)
    # the composable pairs (h, gamma) with gamma isotropy: h runs over the
    # arrows from gamma's unit, those that conjugate it
    isotropy = plan.source_idx == plan.range_idx
    conj = isotropy[plan.ib]
    h, gamma = plan.ia[conj], plan.ib[conj]
    # each class is named by its first arrow, the least index in it
    first = np.full(len(g), len(g))
    np.minimum.at(first, gamma, g._products(plan.iab[conj], plan.inv[h]))
    members = np.flatnonzero(isotropy)
    names, column, sizes = np.unique(first[members], return_inverse=True, return_counts=True)
    basis = np.zeros((len(g), len(names)), dtype=np.complex128)
    basis[members, column] = 1.0 / np.sqrt(sizes[column])
    return basis


def _block_order(a, b) -> int:
    """Blocks by (first unit of the orbit, dimension).  A tie goes to the
    idempotent with the larger real part at the first arrow, in element
    order, where the real parts differ by more than 1e-6; blocks of
    conjugate characters, equal in real part, by imaginary parts alike."""
    if a[:2] != b[:2]:
        return -1 if a[:2] < b[:2] else 1
    diff = b[2].coeffs - a[2].coeffs
    diff = np.concatenate([diff.real, diff.imag])
    decisive = np.flatnonzero(np.abs(diff) > 1e-6)
    return int(np.sign(diff[decisive[0]])) if decisive.size else 0


def wedderburn(g: FiniteGroupoid, tol: TolerancePolicy | None = None,
               seed: int | None = None) -> BlockDecomposition:
    """Decompose C*_r(G) into simple matrix blocks.

    Draws a generic self-adjoint central element w in the class-sum basis
    C from a seeded stream (retrying on eigenvalue collisions), solves the
    b x b Hermitian M = C^H (w * C), and reads each minimal central
    idempotent, its rank and its support (every arrow whose range fiber
    meets it) off one eigenvector of M.  Blocks are numbered by
    ``_block_order``.  The result is cached per groupoid and (tol, seed).
    """
    tol = tol or DEFAULT_TOLERANCE
    seed = DEFAULT_SEED if seed is None else seed
    key = _wedderburn_key(tol, seed)
    cached = g._caches.get(key)
    if cached is not None:
        return cached

    n = len(g)
    numerics = {"eig_residual": 0.0, "dim_rounding": 0.0, "retries": 0}
    if n == 0:
        decomp = BlockDecomposition(g, tol, seed, (), numerics)
        g._caches[key] = decomp
        return decomp

    plan = _plan(g)
    center = _center_basis(g)
    b = center.shape[1]

    rng = np.random.default_rng(seed)
    for _ in range(_RETRIES):
        w = center @ (rng.standard_normal(b) + 1j * rng.standard_normal(b))
        w = (w + np.conj(w[plan.inv])) / 2.0
        if np.linalg.norm(w) < 1e-12:
            numerics["retries"] += 1
            continue
        w_el = AlgebraElement(g, w)
        m = center.conj().T @ np.column_stack(
            [(w_el * AlgebraElement(g, c)).coeffs for c in center.T])
        eigenvalues, vectors = linalg.hermitian_eigen(m, tol)
        numerics["eig_residual"] = max(
            numerics["eig_residual"], linalg.eigen_residual(m, eigenvalues, vectors)
        )
        if _cluster(eigenvalues, expected=b) is not None:
            break
        numerics["retries"] += 1
    else:
        raise DecompositionError(
            f"central element eigenvalues kept colliding after {_RETRIES} draws"
        )

    idempotents = center @ (vectors * (vectors.conj().T @ (center.conj().T @ plan.unit_mask)))
    elements = [AlgebraElement(g, e) for e in idempotents.T.copy()]
    if not all((e * e).allclose(e, _CHECK_EPS) and e.adjoint().allclose(e, _CHECK_EPS)
               for e in elements):
        raise DecompositionError("central idempotents are not self-adjoint idempotents")
    if np.max(np.abs(idempotents.sum(axis=1) - plan.unit_mask)) > _CHECK_EPS:
        raise DecompositionError("central idempotents do not sum to the unit")
    if np.max(np.abs(vectors.conj().T @ vectors - np.eye(b))) > _CHECK_EPS:
        raise DecompositionError("central idempotents are not orthogonal")
    ranks = idempotents[plan.range_idx].sum(axis=0).real
    dims = np.rint(np.sqrt(np.maximum(ranks, 0.0)))
    rounding = np.abs(ranks - dims * dims)
    numerics["dim_rounding"] = float(rounding.max())
    if rounding.max() > _CHECK_EPS:
        raise DecompositionError(
            f"block rank {ranks[rounding.argmax()]:.6g} is not a perfect square")
    if int(np.sum(dims * dims)) != n:
        raise DecompositionError("block dimensions do not account for dim C*_r(G)")

    magnitude = np.abs(idempotents) / np.maximum(np.linalg.norm(idempotents, axis=0), 1e-300)
    fiber_peak = np.zeros((n, b))
    np.maximum.at(fiber_peak, plan.range_idx, magnitude)
    supports = fiber_peak[plan.range_idx] > tol.zero_eps
    units = [(i, g.elements[i]) for i in np.flatnonzero(plan.unit_mask)]
    order = {u: i for i, u in enumerate(g.unit_list)}
    orbits = g.orbits()
    raw_blocks = []
    for k, e in enumerate(elements):
        orbit = frozenset(u for i, u in units if magnitude[i, k] > tol.zero_eps)
        if orbit not in orbits:
            raise DecompositionError(
                f"block diagonal footprint {sorted(map(repr, orbit))} is not an orbit")
        support = frozenset(g.elements[i] for i in np.flatnonzero(supports[:, k]))
        raw_blocks.append((min(order[u] for u in orbit), int(dims[k]), e, orbit, support))

    raw_blocks.sort(key=functools.cmp_to_key(_block_order))
    blocks = [
        Block(index=i, dimension=dim, idempotent=e, orbit=orbit, support=support)
        for i, (_, dim, e, orbit, support) in enumerate(raw_blocks)
    ]
    decomp = BlockDecomposition(g, tol, seed, blocks, numerics)
    g._caches[key] = decomp
    return decomp


# -- ideals --------------------------------------------------------------------


@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal, canonically a sum of Wedderburn blocks, held as
    the mask of its blocks (bit i is block i).  Its diagonal, sandwich
    sets and dynamical hull are read off the decomposition's block/orbit
    incidence (``filled``, ``touched``, ``over``)."""

    decomposition: BlockDecomposition
    mask: int

    @property
    def blocks(self) -> frozenset:
        return frozenset(_bits(self.mask))

    @property
    def is_zero(self) -> bool:
        return not self.mask

    @property
    def dimension(self) -> int:
        return sum(blk.dimension ** 2 for blk in self.decomposition.blocks
                   if self.mask >> blk.index & 1)

    def support(self) -> frozenset:
        """All arrows where some element of the ideal is nonzero."""
        return frozenset().union(*(blk.support for blk in self.decomposition.blocks
                                   if self.mask >> blk.index & 1))

    def diagonal_units(self) -> frozenset:
        """Units x with delta_x in the ideal: those of the orbits it fills."""
        d = self.decomposition
        return d.orbit_set(d.filled(self.mask))

    def is_dynamical(self) -> bool:
        """Generated by its diagonal intersection."""
        d = self.decomposition
        return d.over(d.filled(self.mask)) == self.mask

    def is_purely_nondynamical(self) -> bool:
        """Nonzero with trivial diagonal intersection."""
        return self.mask != 0 and self.decomposition.filled(self.mask) == 0

    def __and__(self, other):
        self._check(other)
        return Ideal(self.decomposition, self.mask & other.mask)

    def __or__(self, other):
        self._check(other)
        return Ideal(self.decomposition, self.mask | other.mask)

    def __le__(self, other):
        self._check(other)
        return (self.mask & other.mask) == self.mask

    def _check(self, other):
        if self.decomposition is not other.decomposition:
            raise AlgebraError("ideals live in different decompositions")

    def __repr__(self):
        return f"Ideal(blocks={_bits(self.mask)})"


def _bits(m: int) -> list:
    """The positions of the set bits of ``m``, ascending."""
    return [i for i in range(m.bit_length()) if m >> i & 1]


def _block_mask(blocks) -> int:
    return sum(1 << i for i in blocks)


def all_ideals(g: FiniteGroupoid, tol: TolerancePolicy | None = None,
               seed: int | None = None, max_blocks: int = MAX_BLOCKS) -> list:
    return wedderburn(g, tol, seed).all_ideals(max_blocks)


def dynamical_ideal_of(g: FiniteGroupoid, members, tol: TolerancePolicy | None = None,
                       seed: int | None = None) -> Ideal:
    return wedderburn(g, tol, seed).dynamical_ideal_of(members)
