"""Dense complex linear algebra kernel for the C*-algebra engine.

Everything here works on small (dimension at most a few hundred) complex
matrices with entries of order one, so a single pair of absolute
tolerances is enough: ``zero_eps`` for zero decisions and ``eig_residual``
for eigenpair accuracy.  No rank decision reads ``zero_eps``: a block's
rank is its idempotent's trace rounded to a square, and the collapse kernel
and the matrix units cut at ``glab.algebra._PROJECTION_CUT``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LinalgInputError(ValueError):
    """Raised when a matrix violates an operation's precondition."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Absolute thresholds used for all numeric decisions.

    zero_eps: below this a number is treated as zero (supports,
        footprints, the Hermitian test); no rank decision reads it.
    eig_residual: eigenpair residual bound, relative to the operator
        norm of the input matrix.
    """

    zero_eps: float = 1e-9
    eig_residual: float = 1e-10

    def __post_init__(self):
        if not self.zero_eps > 0:
            raise ValueError("zero_eps must be positive")
        if not self.eig_residual > 0:
            raise ValueError("eig_residual must be positive")


DEFAULT_TOLERANCE = TolerancePolicy()


def as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise LinalgInputError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (the C*-norm of a matrix)."""
    a = as_complex_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hermitian_eigen(m, tol: TolerancePolicy = DEFAULT_TOLERANCE):
    """Full orthonormal eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending
    and eigenvectors as the columns of a unitary matrix.  The residual
    contract ``||M v - lambda v|| <= eig_residual * ||M||`` is verified
    before returning.
    """
    return _checked_eigen(m, tol)[:2]


def _checked_eigen(m, tol: TolerancePolicy):
    """``hermitian_eigen`` together with the relative residual it checked."""
    a = as_complex_matrix(m)
    n, k = a.shape
    if n != k:
        raise LinalgInputError(f"matrix is not square: shape {a.shape}")
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128), 0.0
    if np.max(np.abs(a - a.conj().T)) > tol.zero_eps:
        raise LinalgInputError("matrix is not Hermitian within zero_eps")
    ah = (a + a.conj().T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(ah)
    relative = eigen_residual(a, eigenvalues, eigenvectors)
    if relative > tol.eig_residual:
        worst = relative * max(float(np.abs(eigenvalues).max()), np.finfo(float).tiny)
        raise LinalgInputError(f"eigenpair residual {worst:.3e} exceeds "
                               f"{tol.eig_residual:.1e} * ||M||")
    return eigenvalues, eigenvectors, relative


def eigen_residual(m, eigenvalues, eigenvectors) -> float:
    """Worst relative eigenpair residual, for reporting."""
    a = as_complex_matrix(m)
    if a.shape[0] == 0:
        return 0.0
    scale = max(float(np.abs(np.asarray(eigenvalues)).max()), np.finfo(float).tiny)
    residual = np.linalg.norm(a @ eigenvectors - eigenvectors * np.asarray(eigenvalues), axis=0)
    return float(residual.max()) / scale
