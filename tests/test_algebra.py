import gc
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from glab import algebra as al
from glab import groupoids as gp
from glab import ideals as il
from glab.cli import main
from glab.errors import CapExceededError
from glab.formats import load_instance
from glab.generators import random_groupoid
from glab.groups import cyclic_group, symmetric_group
from glab.ideals import collapse_kernel

from _oracles import (
    class_sum_basis,
    commutator_center,
    composition_arrays,
    convolve_literal,
    dense_central_idempotents,
    dense_collapse_kernel,
    dense_fibers,
    dense_norm,
    expected_block_dimensions,
    expected_counts,
    numeric_diagonal_units,
)

DATA = Path(__file__).parent / "data"


def constructions(swap_and_fix):
    """A ``from_tables`` bundle, a ``disjoint_union`` and a
    ``restrict(validate=False)`` reduction of that union."""
    bundle = gp.group_bundle({"u": symmetric_group(3), "v": cyclic_group(4)})
    tables = gp.from_tables(
        bundle.elements, bundle.units,
        {el: bundle.source(el) for el in bundle.elements},
        {el: bundle.range(el) for el in bundle.elements},
        {el: bundle.inverse(el) for el in bundle.elements},
        [(a, b, bundle.compose(a, b)) for a, b in bundle.composable_pairs()],
    )
    union = gp.disjoint_union([swap_and_fix, bundle])
    reduction = union.restrict(
        {u for u in union.unit_list if u[0] == 1 or u[1][0] in "ab"}, validate=False)
    return [tables, union, reduction]


@pytest.fixture(scope="module")
def reference_groupoids(z2_bundle, swap_and_fix, pair2, pair3):
    """The worked instances, the constructions, 30 random draws and an
    S4 bundle over four units."""
    rng = random.Random(5)
    return ([z2_bundle, swap_and_fix, pair2, pair3,
             gp.group_bundle({"u": symmetric_group(3)})]
            + constructions(swap_and_fix)
            + [random_groupoid(rng, 32) for _ in range(30)]
            + [gp.group_bundle({f"u{i}": symmetric_group(4) for i in range(4)})])


def elements_close(f, mapping, eps=1e-9):
    for el, value in mapping.items():
        if abs(f.coefficient(el) - value) > eps:
            return False
    return abs(np.linalg.norm(f.coeffs) ** 2 - sum(abs(v) ** 2 for v in mapping.values())) < eps


class TestPlan:
    """``_Plan`` reads its pair arrays from the groupoid's composition
    table and multiplies nothing itself."""

    @staticmethod
    def assert_matches(plan, expected):
        for got, want in zip((plan.ia, plan.ib, plan.iab), expected):
            assert np.array_equal(got, want)

    def test_validated_groupoids(self, monkeypatch):
        for seed in range(10):
            g = random_groupoid(random.Random(seed), 32)
            expected = composition_arrays(g)
            assert "composition" in g._caches

            def no_compose(a, b):
                raise AssertionError("the plan multiplied")

            monkeypatch.setattr(g, "compose", no_compose)
            self.assert_matches(al._Plan(g), expected)
            monkeypatch.undo()

    def test_unvalidated_groupoids(self, monkeypatch, swap_and_fix):
        def no_validate(self, *args, **kwargs):
            raise AssertionError("validate was called")

        units = gp.unit_space_groupoid(range(4))
        sub = swap_and_fix.restrict({("a", "r0", "a"), ("b", "r0", "b")}, validate=False)
        expected = [composition_arrays(g) for g in (units, sub)]
        monkeypatch.setattr(gp.FiniteGroupoid, "validate", no_validate)
        for g, want in zip((units, sub), expected):
            assert "composition" not in g._caches
            self.assert_matches(al._plan(g), want)
            assert g._caches["composition"][0] is al._plan(g).ia


class TestConvolution:
    def test_unit_law(self, z2_bundle):
        u, g = z2_bundle.elements
        du = al.delta(z2_bundle, u)
        dg = al.delta(z2_bundle, g)
        assert (du * dg).allclose(dg)

    def test_group_law(self, z2_bundle):
        _, g = z2_bundle.elements
        dg = al.delta(z2_bundle, g)
        du = al.delta(z2_bundle, z2_bundle.elements[0])
        assert (dg * dg).allclose(du)

    def test_matrix_unit_law(self, pair2):
        d12 = al.delta(pair2, (1, 2))
        d21 = al.delta(pair2, (2, 1))
        assert (d12 * d21).allclose(al.delta(pair2, (1, 1)))
        assert (d21 * d12).allclose(al.delta(pair2, (2, 2)))

    def test_mismatched_groupoids_rejected(self, pair2, z2_bundle):
        with pytest.raises(al.AlgebraError):
            al.delta(pair2, (1, 2)) * al.delta(z2_bundle, z2_bundle.elements[0])

    def test_against_literal_formula(self, swap_and_fix):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = al.random_element(swap_and_fix, rng)
            g = al.random_element(swap_and_fix, rng)
            expected = convolve_literal(swap_and_fix, f, g)
            assert elements_close(f * g, expected, eps=1e-10)

    def test_involution(self, swap_and_fix):
        rng = np.random.default_rng(4)
        f = al.random_element(swap_and_fix, rng)
        g = al.random_element(swap_and_fix, rng)
        assert (f * g).adjoint().allclose(g.adjoint() * f.adjoint())
        assert f.adjoint().adjoint().allclose(f)


class TestExpectation:
    def test_kills_nonunits(self, z2_bundle):
        _, g = z2_bundle.elements
        assert al.expectation_E(al.delta(z2_bundle, g)).allclose(
            al.AlgebraElement.zero(z2_bundle)
        )

    def test_fixes_units(self, z2_bundle):
        u = z2_bundle.elements[0]
        du = al.delta(z2_bundle, u)
        assert al.expectation_E(du).allclose(du)

    def test_restriction(self, z2_bundle):
        u, g = z2_bundle.elements
        a = 0.5 * (al.delta(z2_bundle, u) + al.delta(z2_bundle, g))
        assert al.expectation_E(a).allclose(0.5 * al.delta(z2_bundle, u))

    def test_faithful_on_positives(self, swap_and_fix):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = al.random_element(swap_and_fix, rng)
            e = al.expectation_E(a.adjoint() * a)
            # faithfulness: E(a* a) = 0 forces a = 0
            if max(abs(e.coeffs)) <= 1e-9:
                assert a.norm() <= 1e-9
            if np.linalg.norm(a.coeffs) > 1e-6:
                assert max(abs(e.coeffs)) > 1e-9

    def test_jmap_verbatim(self, pair2):
        f = al.delta(pair2, (1, 2)) + 2.0 * al.delta(pair2, (2, 2))
        j = al.jmap(f)
        assert j[(1, 2)] == pytest.approx(1.0)
        assert j[(2, 2)] == pytest.approx(2.0)
        assert j[(1, 1)] == 0.0


class TestRepresentation:
    def test_z2_flip_matrix(self, z2_bundle):
        rep = al.full_representation(z2_bundle)
        u, g = z2_bundle.elements
        m = rep.fiber_matrix(al.delta(z2_bundle, g), u)
        assert np.allclose(m, [[0, 1], [1, 0]])
        assert al.delta(z2_bundle, g).norm() == pytest.approx(1.0)

    def test_pair_fibers(self, pair2):
        rep = al.full_representation(pair2)
        d12 = al.delta(pair2, (1, 2))
        for unit in pair2.unit_list:
            block = rep.fiber_matrix(d12, unit)
            assert block.shape == (2, 2)
            assert np.count_nonzero(block) == 1

    def test_unit_indicator_is_identity(self, swap_and_fix):
        rep = al.full_representation(swap_and_fix)
        assert np.allclose(rep.matrix(al.unit_element(swap_and_fix)), np.eye(6))

    def test_diagonal_acts_as_projection(self, swap_and_fix):
        u = swap_and_fix.unit_list[0]
        m = al.full_representation(swap_and_fix).matrix(al.delta(swap_and_fix, u))
        assert np.allclose(m, m @ m) and np.allclose(m, m.conj().T)

    @pytest.mark.parametrize("fixture", ["z2_bundle", "swap_and_fix", "pair3"])
    def test_homomorphism_200_pairs(self, fixture, request):
        g = request.getfixturevalue(fixture)
        rep = al.full_representation(g)
        rng = np.random.default_rng(11)
        for _ in range(200):
            f1 = al.random_element(g, rng)
            f2 = al.random_element(g, rng)
            lhs = rep.matrix(f1 * f2)
            rhs = rep.matrix(f1) @ rep.matrix(f2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8
        f = al.random_element(g, rng)
        assert np.max(np.abs(rep.matrix(f.adjoint()) - rep.matrix(f).conj().T)) <= 1e-8

    @pytest.mark.parametrize("build", [
        lambda: gp.pair_groupoid((1, 2, 3)),
        lambda: gp.group_bundle({"u": cyclic_group(3), "v": cyclic_group(2)}),
    ], ids=["pair", "bundle"])
    def test_freed_by_reference_counting(self, build):
        """A groupoid whose representation matrix and norm were taken is
        freed as soon as the last reference goes, with the collector off."""
        gc.disable()
        try:
            g = build()
            f = al.delta(g, g.elements[-1])
            assert al.full_representation(g).matrix(f).shape == (len(g), len(g))
            assert f.norm() == pytest.approx(1.0)
            ref = weakref.ref(g)
            del g, f
            assert ref() is None
        finally:
            gc.enable()

    def test_fiber_matrix_refuses_a_non_unit(self, z2_bundle):
        rep = al.full_representation(z2_bundle)
        with pytest.raises(al.AlgebraError, match="is not a unit"):
            rep.fiber_matrix(al.unit_element(z2_bundle), z2_bundle.elements[1])

    def test_faithful(self, swap_and_fix):
        rep = al.full_representation(swap_and_fix)
        rng = np.random.default_rng(12)
        f = al.random_element(swap_and_fix, rng)
        assert np.linalg.norm(rep.matrix(f)) > 0
        assert np.allclose(rep.coefficients(rep.matrix(f)), f.coeffs)


class TestWedderburn:
    def test_z2_bundle(self, z2_bundle):
        d = al.wedderburn(z2_bundle)
        assert d.dimensions == (1, 1)
        vectors = sorted(
            tuple(np.round(b.idempotent.coeffs.real, 6)) for b in d.blocks
        )
        assert vectors == [(0.5, -0.5), (0.5, 0.5)]

    def test_pair2(self, pair2):
        d = al.wedderburn(pair2)
        assert d.dimensions == (2,)

    def test_swap_and_fix(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        assert sorted(d.dimensions) == [1, 1, 2]
        assert sum(n * n for n in d.dimensions) == len(swap_and_fix)

    def test_oracle_dimensions(self, swap_and_fix, z2_bundle, pair3):
        s3_bundle = gp.group_bundle({"u": symmetric_group(3)})
        for g in (swap_and_fix, z2_bundle, pair3, s3_bundle):
            d = al.wedderburn(g)
            assert sorted(d.dimensions) == expected_block_dimensions(g)

    def test_idempotent_properties(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        total = al.AlgebraElement.zero(swap_and_fix)
        for blk in d.blocks:
            e = blk.idempotent
            assert (e * e).allclose(e)
            assert e.adjoint().allclose(e)
            total = total + e
        assert total.allclose(al.unit_element(swap_and_fix))
        for blk in d.blocks:
            for other in d.blocks:
                if blk.index != other.index:
                    prod = blk.idempotent * other.idempotent
                    assert np.max(np.abs(prod.coeffs)) <= 1e-8

    def test_idempotents_central(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        rng = np.random.default_rng(13)
        a = al.random_element(swap_and_fix, rng)
        for blk in d.blocks:
            assert (blk.idempotent * a).allclose(a * blk.idempotent)

    def test_empty_groupoid(self):
        d = al.wedderburn(gp.empty_groupoid())
        assert d.block_count == 0
        assert len(d.all_ideals()) == 1

    def test_cached(self, swap_and_fix):
        assert al.wedderburn(swap_and_fix) is al.wedderburn(swap_and_fix)

    def test_block_support_is_orbit_reduction(self, reference_groupoids):
        for g in reference_groupoids:
            for blk in al.wedderburn(g).blocks:
                expected = frozenset(
                    el for el in g.elements
                    if g.source(el) in blk.orbit and g.range(el) in blk.orbit
                )
                assert blk.support == expected

    def test_idempotents_match_dense_oracle(self, reference_groupoids):
        for g in reference_groupoids:
            reference = dense_central_idempotents(g)
            blocks = al.wedderburn(g).blocks
            assert len(blocks) == len(reference)
            matched = set()
            for blk in blocks:
                errors = [np.max(np.abs(blk.idempotent.coeffs - r)) for r in reference]
                assert min(errors) <= 1e-9
                matched.add(int(np.argmin(errors)))
            assert len(matched) == len(blocks)

    @pytest.mark.parametrize("corrupt", [
        lambda c: c * np.r_[np.ones(c.shape[1] - 1), 1.001],
        lambda c: c[:, :-1],
    ], ids=["scaled-column", "dropped-column"])
    def test_corrupted_center_basis_is_refused(self, monkeypatch, corrupt):
        real = al._center_basis
        monkeypatch.setattr(al, "_center_basis", lambda g: corrupt(real(g)))
        with pytest.raises(al.DecompositionError, match="^central idempotents are not"):
            al.wedderburn(gp.group_bundle({"u": symmetric_group(3)}))

    @pytest.fixture()
    def no_dense_representation(self, monkeypatch):
        """Refuse the |G| x |G| regular representation and its read-back."""
        def refuse(self, f):
            raise AssertionError("the dense regular representation was used")

        monkeypatch.setattr(al.Representation, "matrix", refuse)
        monkeypatch.setattr(al.Representation, "coefficients", refuse)

    def test_eigensolves_only_in_the_center(self, monkeypatch, no_dense_representation):
        shapes = []
        real = al.linalg.hermitian_eigen

        def recording(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(al.linalg, "hermitian_eigen", recording)
        d = al.wedderburn(gp.group_bundle({f"u{i}": symmetric_group(4) for i in range(8)}))
        assert shapes and set(shapes) == {(d.block_count, d.block_count)}

    def test_no_path_builds_the_dense_representation(self, no_dense_representation, capsys):
        """The norm, every block's matrix units, the collapse kernel, the
        perturbation witness, ``verify`` and ``glab analyze`` work one
        orbit's fiber at a time, on freshly built groupoids."""
        swap = load_instance(DATA / "swap_and_fix.json").groupoid()
        rng = np.random.default_rng(23)
        for g in (gp.group_bundle({f"u{i}": symmetric_group(4) for i in range(8)}), swap):
            d = al.wedderburn(g)
            assert al.random_element(g, rng).norm() > 0
            for blk in d.blocks:
                assert len(blk.matrix_units()) == blk.dimension
            assert not collapse_kernel(d).is_zero
        assert il.verify(swap).all_passed
        arrow = next(el for el in swap.elements if el[0] == "b" and el[2] == "a")
        x = next(u for u in swap.unit_list if u[0] == "a")
        il.exel_witness(swap, x, [arrow], al.delta(swap, arrow))
        assert main(["analyze", str(DATA / "action8.json"), "--format", "json"]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("name, kernel", [
        ("z2_bundle", [1]),
        ("action8", [1, 3, 4, 5, 7]),
    ])
    def test_tied_block_numbering_is_seed_independent(self, name, kernel):
        path = Path(__file__).parent / "data" / f"{name}.json"
        reference = None
        for seed in (al.DEFAULT_SEED, *range(8)):
            d = al.wedderburn(load_instance(path).groupoid(), seed=seed)
            assert sorted(collapse_kernel(d).blocks) == kernel
            coeffs = np.array([blk.idempotent.coeffs for blk in d.blocks])
            reference = coeffs if reference is None else reference
            assert np.max(np.abs(coeffs - reference)) <= 1e-9

    def test_dimension_counts_random(self):
        rng = random.Random(99)
        for _ in range(10):
            g = random_groupoid(rng, 24)
            d = al.wedderburn(g)
            assert sum(n * n for n in d.dimensions) == len(g)


class TestCenter:
    """``_center_basis`` (isotropy class sums) against the commutator
    kernel in ``_oracles.commutator_center``, and column for column against
    the class sums taken with ``compose`` in ``_oracles.class_sum_basis``
    (the seeded central element, and so the block order, reads the columns)."""

    @staticmethod
    def assert_center(g):
        basis = al._center_basis(g)
        assert np.array_equal(basis, class_sum_basis(g))
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        reference = commutator_center(g)
        assert np.max(np.abs(basis @ basis.conj().T - reference @ reference.conj().T),
                      initial=0.0) <= 1e-9
        assert basis.shape[1] == len(expected_block_dimensions(g))

    def test_worked_instances(self, z2_bundle, swap_and_fix, pair2, pair3):
        s3_bundle = gp.group_bundle({"u": symmetric_group(3)})
        for g in (z2_bundle, swap_and_fix, pair2, pair3, s3_bundle):
            self.assert_center(g)

    def test_constructions(self, swap_and_fix):
        for g in constructions(swap_and_fix):
            self.assert_center(g)

    def test_random_draws(self):
        rng = random.Random(5)
        for _ in range(30):
            self.assert_center(random_groupoid(rng, 32))


class TestMatrixUnits:
    # in lambda_x of the S4 bundle its 2- and 3-dimensional blocks have
    # multiplicity 2 and 3; pair(4) is one orbit of four units
    BUILT = {
        "s4_bundle4": lambda: gp.group_bundle({f"u{i}": symmetric_group(4) for i in range(4)}),
        "pair4": lambda: gp.pair_groupoid(range(4)),
    }

    @pytest.mark.parametrize("fixture", ["pair2", "swap_and_fix", "s4_bundle4", "pair4"])
    def test_relations(self, fixture, request):
        g = self.BUILT[fixture]() if fixture in self.BUILT else request.getfixturevalue(fixture)
        d = al.wedderburn(g)
        for blk in d.blocks:
            units = blk.matrix_units()
            n = blk.dimension
            assert len(units) == n and all(len(row) == n for row in units)
            for j in range(n):
                for k in range(n):
                    assert units[j][k].adjoint().allclose(units[k][j], eps=1e-7)
                    for l in range(n):
                        for m in range(n):
                            prod = units[j][k] * units[l][m]
                            if k == l:
                                assert prod.allclose(units[j][m], eps=1e-7)
                            else:
                                assert np.max(np.abs(prod.coeffs)) <= 1e-7
            total = al.AlgebraElement.zero(g)
            for j in range(n):
                total = total + units[j][j]
            assert total.allclose(blk.idempotent, eps=1e-7)


class TestOrbitFibers:
    """The norm, each fiber lambda_x and the collapse kernel, read one orbit
    at a time, against the dense references in ``_oracles``: the norm and
    the fibers of the |G| x |G| representation, and the kernel taken over
    every orbit."""

    @staticmethod
    def assert_matches_dense(g, rng):
        f = al.random_element(g, rng)
        want = dense_norm(g, f.coeffs)
        assert abs(f.norm() - want) <= 1e-12 * want
        rep = al.full_representation(g)
        for x, fiber in dense_fibers(g, f.coeffs).items():
            assert np.array_equal(rep.fiber_matrix(f, x), fiber)
        d = al.wedderburn(g)
        assert sorted(collapse_kernel(d).blocks) == dense_collapse_kernel(d)

    def test_random_draws(self):
        rng, draws = np.random.default_rng(29), random.Random(31)
        for _ in range(300):
            self.assert_matches_dense(random_groupoid(draws, 32), rng)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_s4_bundles(self, k):
        g = gp.group_bundle({f"u{i}": symmetric_group(4) for i in range(k)})
        self.assert_matches_dense(g, np.random.default_rng(k))

    def test_pair22(self):
        self.assert_matches_dense(gp.pair_groupoid(range(22)), np.random.default_rng(22))

    def test_worked_instances(self, z2_bundle, swap_and_fix, pair2, pair3):
        rng = np.random.default_rng(37)
        for g in (z2_bundle, swap_and_fix, pair2, pair3, gp.empty_groupoid()):
            f = al.random_element(g, rng)
            assert f.norm() == pytest.approx(dense_norm(g, f.coeffs), rel=1e-12, abs=0.0)


class TestIdeals:
    def test_counts(self, z2_bundle, swap_and_fix, pair3):
        for g in (z2_bundle, swap_and_fix, pair3):
            d = al.wedderburn(g)
            oracle = expected_counts(g)
            ideals = d.all_ideals()
            assert len(ideals) == oracle["ideals"]
            assert sum(1 for i in ideals if i.is_dynamical()) == oracle["dynamical"]
            assert (
                sum(1 for i in ideals if i.is_purely_nondynamical())
                == oracle["purely_non_dynamical"]
            )

    def test_canonical_order(self, z2_bundle):
        ideals = al.wedderburn(z2_bundle).all_ideals()
        assert [sorted(i.blocks) for i in ideals] == [[], [0], [1], [0, 1]]

    def test_cap_refusal(self):
        g = gp.unit_space_groupoid(tuple(range(21)))
        with pytest.raises(CapExceededError):
            al.wedderburn(g).all_ideals()

    def test_diagonal_part_one_block(self, z2_bundle):
        d = al.wedderburn(z2_bundle)
        assert numeric_diagonal_units(d.ideal([0])) == []
        assert d.ideal([0]).support() == frozenset(z2_bundle.elements)

    def test_diagonal_part_full(self, z2_bundle):
        full = al.wedderburn(z2_bundle).full_ideal()
        assert len(numeric_diagonal_units(full)) == 1

    def test_m2_block_diagonal(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        m2 = next(b for b in d.blocks if b.dimension == 2)
        ideal = d.ideal([m2.index])
        units = {u[0] for u in ideal.diagonal_units()}
        assert units == {"a", "b"}
        assert len(numeric_diagonal_units(ideal)) == 2
        assert ideal.support() == m2.support

    def test_diagonal_part_matches_diagonal_units(self, swap_and_fix, z2_bundle):
        for g in (swap_and_fix, z2_bundle):
            d = al.wedderburn(g)
            for ideal in d.all_ideals():
                assert frozenset(numeric_diagonal_units(ideal)) == ideal.diagonal_units()

    def test_dynamical_ideal_of(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        fixed_orbit = next(o for o in swap_and_fix.orbits() if len(o) == 1)
        ideal = d.dynamical_ideal_of(fixed_orbit)
        assert len(ideal.blocks) == 2
        assert ideal.diagonal_units() == fixed_orbit
        assert d.dynamical_ideal_of(frozenset()).is_zero
        assert d.dynamical_ideal_of(swap_and_fix.units) == d.full_ideal()

    def test_dynamical_ideal_rejects_noninvariant(self, swap_and_fix):
        a_unit = next(u for u in swap_and_fix.unit_list if u[0] == "a")
        with pytest.raises(gp.GroupoidError):
            al.wedderburn(swap_and_fix).dynamical_ideal_of({a_unit})

    def test_single_block_not_dynamical(self, z2_bundle):
        assert not al.wedderburn(z2_bundle).ideal([0]).is_dynamical()

    def test_generated_ideal_is_block_subset(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        rep = al.full_representation(swap_and_fix)
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = al.random_element(swap_and_fix, rng)
            ideal = d.ideal_generated_by(a)
            vectors = [rep.matrix(x * a * y).ravel()
                       for x in map(lambda el: al.delta(swap_and_fix, el), swap_and_fix.elements)
                       for y in map(lambda el: al.delta(swap_and_fix, el), swap_and_fix.elements)]
            span_dim = np.linalg.matrix_rank(np.array(vectors), tol=1e-8)
            assert span_dim == ideal.dimension

    @pytest.mark.parametrize("indices", [[1.0], [True], [0, False], [3], [-1], ["0"]])
    def test_ideal_rejects_non_block_indices(self, swap_and_fix, indices):
        with pytest.raises(al.AlgebraError, match="unknown block indices"):
            al.wedderburn(swap_and_fix).ideal(indices)

    def test_ideal_accepts_numpy_integers(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        assert d.ideal(np.array([2, 0])) == d.ideal([0, 2])
        assert d.ideal([np.int32(1), 1]).blocks == frozenset({1})

    def test_lattice_operations(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        a = d.ideal([0, 1])
        b = d.ideal([1, 2])
        assert (a & b).blocks == frozenset({1})
        assert (a | b).blocks == frozenset({0, 1, 2})
        assert d.zero_ideal() <= a


class TestSubquotients:
    def test_restriction_matches_fresh_decomposition(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        for members in swap_and_fix.invariant_subsets():
            sub, mapping = d.restriction_decomposition(members)
            fresh = al.wedderburn(
                swap_and_fix.restrict(members), d.tol, d.seed
            )
            assert sorted(sub.dimensions) == sorted(fresh.dimensions)
            for sub_block in sub.blocks:
                match = [
                    fb for fb in fresh.blocks
                    if np.max(np.abs(
                        fb.idempotent.coeffs - sub_block.idempotent.coeffs
                    )) <= 1e-7
                ]
                assert len(match) == 1
            parent_blocks = {b.index for b in d.blocks if b.orbit <= members}
            assert set(mapping.values()) == parent_blocks

    def test_full_restriction_is_identity(self, swap_and_fix):
        d = al.wedderburn(swap_and_fix)
        sub, mapping = d.restriction_decomposition(swap_and_fix.units)
        assert sub is d
        assert mapping == {i: i for i in range(d.block_count)}
