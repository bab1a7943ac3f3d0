"""The reduced C*-algebra of a finite groupoid, realized concretely.

For a finite groupoid the convolution algebra of all complex functions
on the groupoid IS the reduced C*-algebra: the regular representations
lambda_x on l2(G_x) are jointly faithful and equivalent along an orbit,
so norms and matrix units are read one orbit's fiber at a time.  This module
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
bitmasks, so ideal identity is exact and free of tolerance drift.  The
decomposition holds the one block incidence: each block's orbit index and a
|G| x b boolean support matrix, turned into frozensets only at the public API.
A groupoid caches it as arrays that never point back at the groupoid.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import check_cap
from .groupoids import FiniteGroupoid, GroupoidError
from .linalg import DEFAULT_TOLERANCE, TolerancePolicy

DEFAULT_SEED = 0xC0FFEE
MAX_BLOCKS = 20
_RETRIES = 8
_CHECK_EPS = 1e-7
_GAP_EPS = 1e-6     # relative eigenvalue gap that separates two clusters
_PROJECTION_CUT = 0.5   # a projection's singular values are 0 or 1, its trace is its rank
_NORM_GUARD = 1e-12     # a central draw this small has no spectrum to split
_LINK_CUT = 1e-9        # a matrix-unit link this small is zero: draw again
_TIE_RESOLUTION = 2.0 ** -20   # tie grid ~1e-6; binary, so no d/|H| (|H| < 2^20) sits halfway


class AlgebraError(ValueError):
    pass


class DecompositionError(AlgebraError):
    """Numerically degenerate decomposition (never seen on valid input)."""


# -- convolution ----------------------------------------------------------------


def _convolve(table: tuple, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f * g on coefficient vectors, or column by column on |G| x k matrices
    (a vector f convolves every column of g), over ``composition_table()``."""
    if g.ndim == 2:
        return np.column_stack([_convolve(table, f if f.ndim == 1 else f[:, j], g[:, j])
                                for j in range(g.shape[1])])
    ia, ib, iab = table
    out = np.zeros(len(g), dtype=np.complex128)
    np.add.at(out, iab, f[ia] * g[ib])
    return out


def _scatter(size: int, rows, cols, els, coeffs) -> np.ndarray:
    """The size x size matrix summing ``coeffs[els]`` at ``(rows, cols)``."""
    m = np.zeros((size, size), dtype=np.complex128)
    np.add.at(m, (rows, cols), coeffs[els])
    return m


class _Fiber:
    """lambda_x on l2(G_x) for the unit of index x, in source-fiber order:
    ``scatter`` lists the composable pairs whose b has source x, and
    delta_a sends delta_b to delta_ab.  It is faithful on the blocks over
    the orbit of x, and ``coefficients`` reads their functions back through
    a transversal: a(gamma) = <lambda_x(a) delta_eta, delta_(gamma eta)>,
    where eta, the first b that gamma acts on, is the first arrow of G_x
    with range source(gamma).  No reference to the groupoid is held."""

    def __init__(self, g: FiniteGroupoid, x: int):
        slots, iab = g._pair_slots(), g.composition_table()[2]
        members = np.flatnonzero(slots.src == x)
        # b's pairs fill the |G_r(b)| = |G_x| slots from start[b]
        pairs = (slots.start[members][:, None] + np.arange(len(members))).ravel()
        self.size = len(slots.src)
        self.scatter = (len(members), slots.pos[iab[pairs]], slots.pos[slots.ib[pairs]],
                        slots.ia[pairs])

    def matrix(self, coeffs) -> np.ndarray:
        return _scatter(*self.scatter, coeffs)

    def coefficients(self, matrix) -> np.ndarray:
        _, rows, cols, els = self.scatter
        gamma, first = np.unique(els, return_index=True)
        out = np.zeros(self.size, dtype=np.complex128)
        out[gamma] = matrix[rows[first], cols[first]]
        return out


def _orbit_fibers(g: FiniteGroupoid) -> tuple:
    """One ``_Fiber`` per orbit, in ``orbits()`` order, at its first unit."""
    if "orbit_fibers" not in g._caches:
        g._caches["orbit_fibers"] = tuple(_Fiber(g, x) for x in g._pair_slots().first_unit.tolist())
    return g._caches["orbit_fibers"]


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

    def _combine(self, other, op):
        """``op`` on the coefficients of two elements over one groupoid;
        ``NotImplemented`` for any other operand, so that Python raises
        ``TypeError``."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        return AlgebraElement(self.groupoid, op(self.coeffs, other.coeffs))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return AlgebraElement(self.groupoid, -self.coeffs)

    def __rmul__(self, scalar):
        if isinstance(scalar, numbers.Number):
            return AlgebraElement(self.groupoid, scalar * self.coeffs)
        return NotImplemented

    def __mul__(self, other):
        """Convolution: (f*g)(gamma) = sum over factorizations gamma = a b."""
        if isinstance(other, numbers.Number):
            return self.__rmul__(other)
        return self._combine(other, lambda f, g: _convolve(
            self.groupoid.composition_table(), f, g))

    def adjoint(self):
        """Involution: f*(gamma) = conj(f(gamma^-1))."""
        return AlgebraElement(self.groupoid, np.conj(self.coeffs[self.groupoid._pair_slots().inv]))

    def expectation(self):
        """Conditional expectation onto the diagonal: zero all non-unit terms."""
        return AlgebraElement(self.groupoid, self.coeffs * self.groupoid._pair_slots().unit)

    def jmap(self) -> dict:
        """The element read as a function on the groupoid (all coefficients)."""
        return {el: complex(self.coeffs[i]) for i, el in enumerate(self.groupoid.elements)}

    def coefficient(self, el) -> complex:
        return complex(self.coeffs[self.groupoid.index(el)])

    def norm(self) -> float:
        """The reduced C*-norm: the largest ||lambda_x(f)||, one x per orbit."""
        return max((linalg.operator_norm(fiber.matrix(self.coeffs))
                    for fiber in _orbit_fibers(self.groupoid)), default=0.0)

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
    return AlgebraElement(groupoid, groupoid._pair_slots().unit.astype(np.complex128))


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    return f * g


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
    ``matrix`` and ``coefficients`` are kept although nothing in the package
    calls them: they are the dense reference that demo 02 and the tests
    check the *-homomorphism (``test_homomorphism_200_pairs``), the witness's
    positivity and the brute-force ideal subspaces against, and the
    ``no_dense_representation`` fixture refuses them to show that the
    decomposition never builds the |G| x |G| matrix.
    """

    def __init__(self, groupoid: FiniteGroupoid):
        self.groupoid = groupoid

    def matrix(self, f) -> np.ndarray:
        ia, ib, iab = self.groupoid.composition_table()
        coeffs = np.asarray(getattr(f, "coeffs", f), dtype=np.complex128)
        return _scatter(len(self.groupoid), iab, ib, ia, coeffs)

    def coefficients(self, matrix) -> np.ndarray:
        """Inverse of ``matrix`` on the image algebra, via the entry read-back."""
        src = self.groupoid._pair_slots().src
        return np.asarray(matrix)[np.arange(len(src)), src]

    def fiber_matrix(self, f, x) -> np.ndarray:
        """The block of the representation acting on l2(G_x), built alone."""
        if x not in self.groupoid.units:
            raise AlgebraError(f"{x!r} is not a unit")
        coeffs = np.asarray(getattr(f, "coeffs", f), dtype=np.complex128)
        return _Fiber(self.groupoid, self.groupoid.index(x)).matrix(coeffs)


def full_representation(groupoid: FiniteGroupoid) -> Representation:
    return Representation(groupoid)


# -- Wedderburn decomposition --------------------------------------------------


@dataclass
class Block:
    """One simple matrix summand of the algebra."""

    index: int
    dimension: int
    idempotent: AlgebraElement
    _record: "_Record" = field(repr=False, default=None)
    _matrix_units: list = field(repr=False, default=None)

    @property
    def orbit(self) -> frozenset:
        return self.idempotent.groupoid.orbits()[self._record.orbit_index[self.index]]

    @property
    def support(self) -> frozenset:
        g = self.idempotent.groupoid
        return frozenset(itertools.compress(g.elements, self._record.support[:, self.index]))

    def matrix_units(self):
        """A d x d family of matrix units spanning the block (lazy)."""
        if self._matrix_units is None:
            self._matrix_units = _matrix_units_for(self)
        return self._matrix_units


class _Record:
    """A decomposition as its groupoid caches it under ``(tol, seed)``: the
    block dimensions, the |G| x b idempotent matrix (one column per block),
    the numerics, the block incidence and, per reduced unit set, the
    ``(sub-groupoid, record, block mapping)`` of the subquotient.  It never
    refers to its groupoid or to a ``BlockDecomposition`` except weakly, to
    the one live view that ``view`` builds again when none is alive."""

    def __init__(self, tol, seed, dims, idempotents, numerics, orbit_index, support):
        self.tol, self.seed, self.dims, self.idempotents = tol, seed, dims, idempotents
        self.numerics, self.orbit_index, self.support = numerics, orbit_index, support
        self.subquotients: dict = {}
        self._live = lambda: None

    def view(self, g: FiniteGroupoid) -> "BlockDecomposition":
        decomp = self._live()
        if decomp is None:
            decomp = BlockDecomposition(g, self)
            self._live = weakref.ref(decomp)
        return decomp


class BlockDecomposition:
    """Minimal central idempotents and simple-block data for C*_r(G): the
    live view of the ``_Record`` its groupoid caches."""

    def __init__(self, groupoid, record: _Record):
        self.groupoid, self._record = groupoid, record
        self.tol, self.seed, self.numerics = record.tol, record.seed, record.numerics
        self._orbit_index, self._support = record.orbit_index, record.support
        self.blocks = tuple(Block(i, d, AlgebraElement(groupoid, e), record) for i, (d, e)
                            in enumerate(zip(record.dims.tolist(), record.idempotents.T)))

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
        return tuple(_block_mask(np.flatnonzero(self._orbit_index == o).tolist())
                     for o in range(len(self.groupoid._pair_slots().first_unit)))

    def orbit_blocks(self) -> dict:
        """Map each orbit to the tuple of indices of blocks sitting over it."""
        return {orbit: tuple(_bits(bm))
                for orbit, bm in zip(self.groupoid.orbits(), self.orbit_masks)}

    # -- the block/orbit incidence ---------------------------------------
    #
    # An ideal is a block mask m and an invariant unit set an orbit mask w
    # (bit o is orbit o, numbered as the ``glab.groupoids`` docstring says).
    # ``filled``, ``touched`` and ``over`` take one int mask or an int64
    # array of masks, through the same code.

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
        return self.groupoid._orbit_mask(members)

    def orbit_set(self, w: int) -> frozenset:
        """The units of the orbits in ``w``."""
        return self.groupoid._orbit_union(w)

    def _held(self, m: int) -> np.ndarray:
        """Per arrow, whether it lies in the support of ideal ``m``."""
        return self._support[:, _bits(m)].any(axis=1)

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
        check_cap(self.block_count, max_blocks, "blocks")
        return [Ideal(self, m) for m in range(1 << self.block_count)]

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
        decomposition is assembled accordingly rather than recomputed.  Its
        record is kept in this decomposition's record and cached on the
        reduction with its center; the live view over it is returned.
        """
        members, g, record = frozenset(members), self.groupoid, self._record
        if members == g.units:
            return self, {i: i for i in range(self.block_count)}
        if members not in record.subquotients:
            if not g.is_invariant_unit_set(members):
                raise GroupoidError("reduction set must be invariant for the subquotient")
            sub_groupoid = g.restrict(members, validate=False)
            keep = np.asarray([g.index(el) for el in sub_groupoid.elements], dtype=np.intp)
            w = self.orbit_mask(members)
            parents = _bits(self.over(w))
            # the reduction keeps the orbits of ``w``, in their order
            sub = _Record(record.tol, record.seed, record.dims[parents],
                          record.idempotents.T[np.ix_(parents, keep)].T, dict(record.numerics),
                          np.searchsorted(_bits(w), record.orbit_index[parents]),
                          record.support[np.ix_(keep, parents)])
            sub_groupoid._caches[record.tol, record.seed] = sub
            center = _center(g)[keep]  # the columns of the parent's classes inside it
            sub_groupoid._caches["center"] = center[:, center.any(axis=0)]
            record.subquotients[members] = (sub_groupoid, sub, dict(enumerate(parents)))
        sub_groupoid, sub, mapping = record.subquotients[members]
        return sub.view(sub_groupoid), mapping

    def __repr__(self):
        dims = "x".join(str(d) for d in self.dimensions) or "0"
        return f"BlockDecomposition({self.groupoid.name}: blocks {dims})"


def _matrix_units_for(block: Block):
    """The d x d matrix units of a block, found in lambda_x at the first
    unit x of its orbit, where the block has multiplicity d / |orbit|."""
    g, d, record = block.idempotent.groupoid, block.dimension, block._record
    if d == 1:
        return [[AlgebraElement(g, block.idempotent.coeffs.copy())]]
    fiber = _orbit_fibers(g)[record.orbit_index[block.index]]
    rng = np.random.default_rng((record.seed, block.index, 0xB10C))
    u, s, _ = np.linalg.svd(fiber.matrix(block.idempotent.coeffs))
    v = u[:, :int(np.sum(s > _PROJECTION_CUT))]
    mult = v.shape[1] // d
    for _ in range(_RETRIES):
        y = block.idempotent * random_element(g, rng, selfadjoint=True) * block.idempotent
        eigenvalues, vectors = linalg.hermitian_eigen(
            v.conj().T @ fiber.matrix(y.coeffs) @ v, record.tol)
        clusters = _cluster(eigenvalues, d)
        if clusters is not None and all(hi - lo == mult for lo, hi in clusters):
            break
    else:
        raise DecompositionError("matrix-unit eigenvalue clustering failed")
    projections = [v @ vectors[:, lo:hi] @ vectors[:, lo:hi].conj().T @ v.conj().T
                   for lo, hi in clusters]
    row = [projections[0]]
    for j in range(1, d):
        for _ in range(_RETRIES):
            a = block.idempotent * random_element(g, rng)
            vj = projections[0] @ fiber.matrix(a.coeffs) @ projections[j]
            c = float(np.real(np.trace(vj.conj().T @ vj))) / mult
            if c > _LINK_CUT:
                row.append(vj / np.sqrt(c))
                break
        else:
            raise DecompositionError("failed to link minimal projections")
    units = [[AlgebraElement(g, fiber.coefficients(rj.conj().T @ rk)) for rk in row]
             for rj in row]
    if np.max(np.abs(sum(units[j][j].coeffs for j in range(d))
                     - block.idempotent.coeffs)) > _CHECK_EPS:
        raise DecompositionError("matrix units do not sum to the block idempotent")
    return units


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


def _center_basis(g: FiniteGroupoid) -> np.ndarray:
    """Orthonormal basis (columns) of the center: the normalised indicators
    of the isotropy conjugacy classes {h gamma h^-1}, one per block, in the
    element order of their first arrow."""
    slots, (ia, ib, iab) = g._pair_slots(), g.composition_table()
    # the composable pairs (h, gamma) with gamma isotropy: h runs over the
    # arrows from gamma's unit, those that conjugate it
    isotropy = slots.src == slots.rng
    conj = isotropy[ib]
    h, gamma = ia[conj], ib[conj]
    # each class is named by its first arrow, the least index in it
    first = np.full(len(g), len(g))
    np.minimum.at(first, gamma, g._products(iab[conj], slots.inv[h]))
    members = np.flatnonzero(isotropy)
    names, column, sizes = np.unique(first[members], return_inverse=True, return_counts=True)
    basis = np.zeros((len(g), len(names)), dtype=np.complex128)
    basis[members, column] = 1.0 / np.sqrt(sizes[column])
    return basis


def _center(g: FiniteGroupoid) -> np.ndarray:
    """``_center_basis(g)``, computed once per groupoid (or given by
    ``restriction_decomposition``).  Its column count is the block count b."""
    if "center" not in g._caches:
        g._caches["center"] = _center_basis(g)
    return g._caches["center"]


def wedderburn(g: FiniteGroupoid, tol: TolerancePolicy | None = None,
               seed: int | None = None) -> BlockDecomposition:
    """Decompose C*_r(G) into simple matrix blocks.

    Draws a generic self-adjoint central element w in the class-sum basis
    C from a seeded stream (retrying on eigenvalue collisions), solves the
    b x b Hermitian M = C^H (w * C), and reads each minimal central
    idempotent, its rank and its support (every arrow whose range fiber
    meets it) off one eigenvector of M.  Blocks are numbered by orbit,
    dimension and coefficients.  The groupoid caches the result's arrays
    per (tol, seed), and this returns the one live view over them.
    """
    tol = tol or DEFAULT_TOLERANCE
    seed = DEFAULT_SEED if seed is None else seed
    if (tol, seed) not in g._caches:
        g._caches[tol, seed] = _decompose(g, tol, seed)
    return g._caches[tol, seed].view(g)


def _decompose(g: FiniteGroupoid, tol: TolerancePolicy, seed: int) -> _Record:
    n = len(g)
    numerics = {"eig_residual": 0.0, "dim_rounding": 0.0, "retries": 0}
    if n == 0:
        return _Record(tol, seed, np.arange(0), np.zeros((0, 0), np.complex128), numerics,
                       np.arange(0), np.zeros((0, 0), bool))

    slots, table = g._pair_slots(), g.composition_table()
    center = _center(g)
    b = center.shape[1]

    rng = np.random.default_rng(seed)
    for _ in range(_RETRIES):
        w = center @ (rng.standard_normal(b) + 1j * rng.standard_normal(b))
        w = (w + np.conj(w[slots.inv])) / 2.0
        if np.linalg.norm(w) < _NORM_GUARD:
            numerics["retries"] += 1
            continue
        m = center.conj().T @ _convolve(table, w, center)
        eigenvalues, vectors, residual = linalg._checked_eigen(m, tol)
        numerics["eig_residual"] = max(numerics["eig_residual"], residual)
        if _cluster(eigenvalues, expected=b) is not None:
            break
        numerics["retries"] += 1
    else:
        raise DecompositionError(
            f"central element eigenvalues kept colliding after {_RETRIES} draws"
        )

    idempotents = center @ (vectors * (vectors.conj().T @ (center.conj().T @ slots.unit)))
    if not (np.max(np.abs(_convolve(table, idempotents, idempotents) - idempotents)) <= _CHECK_EPS
            and np.max(np.abs(np.conj(idempotents[slots.inv]) - idempotents)) <= _CHECK_EPS):
        raise DecompositionError("central idempotents are not self-adjoint idempotents")
    if np.max(np.abs(idempotents.sum(axis=1) - slots.unit)) > _CHECK_EPS:
        raise DecompositionError("central idempotents do not sum to the unit")
    if np.max(np.abs(vectors.conj().T @ vectors - np.eye(b))) > _CHECK_EPS:
        raise DecompositionError("central idempotents are not orthogonal")
    ranks = idempotents[slots.rng].sum(axis=0).real
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
    np.maximum.at(fiber_peak, slots.rng, magnitude)
    supports = fiber_peak[slots.rng] > tol.zero_eps
    # a block's footprint on the units must be the whole of one orbit
    units = np.flatnonzero(slots.unit)
    footprint = magnitude[units] > tol.zero_eps
    unit_orbit = slots.orbit[units]
    orbit = unit_orbit[footprint.argmax(axis=0)]
    stray = np.flatnonzero((footprint != (unit_orbit[:, None] == orbit)).any(axis=0))
    if stray.size:
        members = sorted(repr(g.elements[i]) for i in units[footprint[:, stray[0]]])
        raise DecompositionError(f"block diagonal footprint {members} is not an orbit")

    # by (orbit, dimension), then the larger coefficient on the tie grid, real
    # parts and then imaginary parts in element order; equal rows never decide
    ties = -np.rint(np.concatenate([idempotents.real, idempotents.imag]) / _TIE_RESOLUTION)
    ties = ties[(ties != ties[:, :1]).any(axis=1)]
    order = np.lexsort(np.vstack([ties[::-1], dims, orbit]))
    # each block's column is contiguous: the transpose of one row per block
    return _Record(tol, seed, dims[order].astype(np.intp), idempotents.T[order].T, numerics,
                   orbit[order], supports[:, order])


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
        d = self.decomposition
        return frozenset(itertools.compress(d.groupoid.elements, d._held(self.mask)))

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
    check_cap(_center(g).shape[1], max_blocks, "blocks")
    return wedderburn(g, tol, seed).all_ideals(max_blocks)


def dynamical_ideal_of(g: FiniteGroupoid, members, tol: TolerancePolicy | None = None,
                       seed: int | None = None) -> Ideal:
    return wedderburn(g, tol, seed).dynamical_ideal_of(members)
