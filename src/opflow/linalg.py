"""Dense complex linear algebra kernel.

Plain complex ndarrays are the working representation of bounded operators;
``HermOp`` wraps a Hermitian matrix together with a lazily computed, memoized
eigendecomposition.  On top of these live the spectral functional calculus and
the operator norm, which everything else in the package is built from.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ValidationError

HERMITICITY_RTOL = 1e-12


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex matrix (no copy when already one)."""
    A = np.asarray(M, dtype=complex)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    return A


def adjoint(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(M)).T


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value.

    Hermitian inputs are detected cheaply and routed through ``eigvalsh``,
    which is both faster and more accurate than a general SVD.
    """
    A = as_matrix(M)
    if A.size == 0:
        return 0.0
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return 0.0
    if np.linalg.norm(A - adjoint(A)) <= 1e-12 * scale:
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
    return float(np.linalg.norm(A, 2))


def hermiticity_defect(M: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part, relative to ||M||_F."""
    A = as_matrix(M)
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(A - adjoint(A)) / scale)


class HermOp:
    """A Hermitian matrix with a cached eigendecomposition.

    The input must be Hermitian to relative tolerance ``rtol`` (Frobenius);
    it is then symmetrized, so downstream code may rely on ``matrix`` being
    exactly equal to its adjoint.  The eigendecomposition is computed at most
    once, under a lock, so instances are safe to share between threads.
    """

    __slots__ = ("matrix", "_lock", "_eigvals", "_eigvecs")

    def __init__(self, matrix, rtol: float = HERMITICITY_RTOL):
        A = as_matrix(matrix)
        defect = hermiticity_defect(A)
        if not defect <= rtol:  # a NaN or inf entry makes the defect NaN
            reason = "has non-finite entries" if math.isnan(defect) else "is not Hermitian"
            raise ValidationError(
                f"matrix {reason}: relative Frobenius defect "
                f"||M - M*||/||M|| = {defect:.3e} exceeds {rtol:g}"
            )
        A = (A + adjoint(A)) / 2.0
        A.setflags(write=False)
        self.matrix = A
        self._lock = threading.Lock()
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order.

        Asking only for eigenvalues takes the cheaper values-only LAPACK
        path; they are cached on first computation and never replaced, so
        repeated reads (from any thread) see one consistent array.
        """
        if self._eigvals is None:
            with self._lock:
                if self._eigvals is None:
                    w = np.linalg.eigvalsh(self.matrix)
                    w.setflags(write=False)
                    self._eigvals = w
        return self._eigvals

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary matrix whose columns match ``eigenvalues``."""
        if self._eigvecs is None:
            with self._lock:
                if self._eigvecs is None:
                    w, V = np.linalg.eigh(self.matrix)
                    V.setflags(write=False)
                    self._eigvecs = V
                    if self._eigvals is None:
                        w.setflags(write=False)
                        self._eigvals = w
        return self._eigvecs

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermOp(dim={self.dim})"


MatrixLike = Union[np.ndarray, HermOp]


def as_hermop(M: MatrixLike, rtol: float = HERMITICITY_RTOL) -> HermOp:
    """Pass through a HermOp, or validate-and-wrap an ndarray."""
    if isinstance(M, HermOp):
        return M
    return HermOp(M, rtol=rtol)


def matrix_of(M: MatrixLike) -> np.ndarray:
    return M.matrix if isinstance(M, HermOp) else as_matrix(M)


def herm_eig(M: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and the unitary of eigenvectors.  Raises a
    validation error naming the hermiticity defect for non-Hermitian input.
    """
    op = as_hermop(M)
    return op.eigenvalues, op.eigenvectors


def func_calc(M: MatrixLike, f: Callable[[float], complex]) -> np.ndarray:
    """Spectral functional calculus: U f(Lambda) U*.

    ``f`` is evaluated once per eigenvalue; a raised exception or a non-finite
    value is reported as a domain error naming the offending eigenvalue.
    """
    op = as_hermop(M)
    w = op.eigenvalues
    values = np.empty(w.shape, dtype=complex)
    for i, lam in enumerate(w):
        try:
            y = complex(f(float(lam)))
        except Exception as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        if not np.isfinite(y.real) or not np.isfinite(y.imag):
            raise DomainError(f"function not finite at eigenvalue {lam!r} (got {y!r})")
        values[i] = y
    return spectral_weights(op, values)


def spectral_weights(op: HermOp, fvals: np.ndarray) -> np.ndarray:
    """U diag(fvals) U* for precomputed per-eigenvalue values (vectorized)."""
    V = op.eigenvectors
    return (V * np.asarray(fvals)) @ adjoint(V)
