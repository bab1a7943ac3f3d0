import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glab.linalg import (
    DEFAULT_TOLERANCE,
    LinalgInputError,
    TolerancePolicy,
    eigen_residual,
    hermitian_eigen,
    operator_norm,
)

from _oracles import subspace_membership


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_TOLERANCE.zero_eps == 1e-9
        assert DEFAULT_TOLERANCE.eig_residual == 1e-10

    @pytest.mark.parametrize("kwargs", [{"zero_eps": 0.0}, {"eig_residual": -1.0}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            TolerancePolicy(**kwargs)


class TestHermitianEigen:
    def test_scalar(self):
        values, vectors = hermitian_eigen([[2.0]])
        assert values.tolist() == [2.0]
        assert vectors.shape == (1, 1)
        assert abs(abs(vectors[0, 0]) - 1.0) < 1e-12

    def test_pauli_x(self):
        values, vectors = hermitian_eigen([[0, 1], [1, 0]])
        assert np.allclose(values, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(minus @ vectors[:, 0]) - 1.0) < 1e-12
        assert abs(abs(plus @ vectors[:, 1]) - 1.0) < 1e-12

    def test_random_hermitian_residual(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(rng, 6)
        values, vectors = hermitian_eigen(m)
        norm = operator_norm(m)
        residual = np.linalg.norm(m @ vectors - vectors * values, axis=0).max()
        assert residual <= DEFAULT_TOLERANCE.eig_residual * norm
        assert np.all(np.diff(values) >= 0)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 8)
        values, vectors = hermitian_eigen(m)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - m)) <= DEFAULT_TOLERANCE.eig_residual * operator_norm(m)

    def test_rejects_nonsquare(self):
        with pytest.raises(LinalgInputError):
            hermitian_eigen(np.zeros((2, 3)))

    def test_rejects_nonhermitian(self):
        with pytest.raises(LinalgInputError):
            hermitian_eigen([[0, 1], [0, 0]])

    def test_residual_contract_is_eigen_residual(self, monkeypatch):
        """The contract is ``eigen_residual`` against ``eig_residual``, and a
        breach names the absolute residual: here the eigenvectors of diag(2, 1)
        come back swapped, so each column is off by 1."""
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([1.0, 2.0]), np.eye(2)))
        m = np.diag([2.0, 1.0])
        assert eigen_residual(m, *np.linalg.eigh(m)) == 0.5
        with pytest.raises(LinalgInputError,
                           match=r"^eigenpair residual 1\.000e\+00 exceeds 1\.0e-10 \* \|\|M\|\|$"):
            hermitian_eigen(m)


class TestOperatorNorm:
    def test_permutation(self):
        assert operator_norm([[0, 1], [1, 0]]) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm([[3, 0], [0, -4]]) == pytest.approx(4.0)

    def test_empty(self):
        assert operator_norm(np.zeros((0, 0))) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_submultiplicative_and_star_invariant(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9
        assert operator_norm(a.conj().T) == pytest.approx(operator_norm(a), abs=1e-9)


class TestSubspaceMembership:
    def test_on_line(self):
        assert subspace_membership([[1, 0]], [3, 0])

    def test_off_line(self):
        assert not subspace_membership([[1, 0]], [0, 1])

    def test_spanning_set(self):
        assert subspace_membership([[1, 1], [1, -1]], [5, 2])

    def test_empty_basis(self):
        assert subspace_membership([], [0, 0])
        assert not subspace_membership([], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(LinalgInputError):
            subspace_membership([[1, 0, 0]], [1, 0])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1),
        st.lists(st.sampled_from([0.5, -2.0, 3.0, 1e3]), min_size=2, max_size=2),
    )
    def test_invariant_under_scaling_and_reordering(self, seed, scales):
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        baseline = subspace_membership(list(basis), v)
        scaled = [scales[i] * basis[i] for i in range(2)][::-1]
        assert subspace_membership(scaled, v) == baseline
