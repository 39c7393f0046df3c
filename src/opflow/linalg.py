"""Spectral kernel: Hermitian operators in dense or banded storage.

Plain complex ndarrays are the working representation of bounded operators.
``HermOp`` wraps a Hermitian operator in one of two storages:

* dense: a complex matrix, checked Hermitian and symmetrized on construction;
* tridiagonal: the real bands (d, e) of a symmetric tridiagonal matrix, built
  by ``HermOp.tridiagonal``; the dense ``matrix`` is assembled only when read.

Both hand out the same spectral API: ``eigenvalues`` and ``eigenvectors``
(computed once and memoized) and ``spectrum(lo, hi)``, the eigenvalues in a
closed window with the global index of the first.  A banded operator solves
only that window (a Sturm count for the index plus LAPACK ``stebz``
bisection); a dense one slices its full spectrum.  On top of these live the
spectral functional calculus and the operator norm, which everything else in
the package is built from.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Union

import numpy as np
import scipy.linalg

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
    with np.errstate(invalid="ignore"):  # inf - inf: the defect is NaN, not a warning
        return float(np.linalg.norm(A - adjoint(A)) / scale)


def _sturm_count(d: np.ndarray, e2: np.ndarray, x: float, pivmin: float) -> int:
    """Number of eigenvalues <= x of the symmetric tridiagonal matrix (d, e).

    The count of non-positive pivots of the LDL* factorization of T - x
    (Sylvester's law of inertia), ``e2`` holding the squared off-diagonal.
    Pivots below ``pivmin`` count as negative, as in LAPACK's ``laebz``, so
    that it agrees with the counts ``stebz`` bisects by.
    """
    count = 0
    q = 1.0
    for di, e2i in zip(d.tolist(), [0.0, *e2.tolist()]):
        q = di - e2i / q - x
        if abs(q) < pivmin:
            q = -pivmin
        if q <= 0.0:
            count += 1
    return count


class HermOp:
    """A Hermitian operator, dense or tridiagonal, with cached spectra.

    A dense input must be Hermitian to relative tolerance ``rtol``
    (Frobenius); it is then symmetrized, so downstream code may rely on
    ``matrix`` being exactly equal to its adjoint.  ``HermOp.tridiagonal``
    stores real bands instead, checked finite once.  The full
    eigendecomposition and the dense matrix of a banded operator are each
    computed at most once, under a lock, so instances are safe to share
    between threads.
    """

    __slots__ = ("bands", "_matrix", "_lock", "_eigvals", "_eigvecs")

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
        self._store(A, None)

    def _store(self, matrix: np.ndarray | None, bands) -> None:
        self.bands: tuple[np.ndarray, np.ndarray] | None = bands  # (d, e) or None if dense
        self._matrix = matrix
        self._lock = threading.Lock()
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None

    @classmethod
    def tridiagonal(cls, d, e) -> "HermOp":
        """The real symmetric tridiagonal operator with diagonal d, off-diagonal e."""
        d = np.array(d, dtype=float)
        e = np.array(e, dtype=float)
        if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
            raise ValidationError(
                f"tridiagonal bands need shapes (n,) and (n-1,), got {d.shape} and {e.shape}"
            )
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValidationError("tridiagonal bands have non-finite entries")
        d.setflags(write=False)
        e.setflags(write=False)
        op = cls.__new__(cls)
        op._store(None, (d, e))
        return op

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex matrix (read-only); assembled from the bands on first read."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    d, e = self.bands
                    A = np.diag(d.astype(complex)) + np.diag(e, 1) + np.diag(e, -1)
                    A.setflags(write=False)
                    self._matrix = A
        return self._matrix

    @property
    def dim(self) -> int:
        return self.bands[0].size if self.bands is not None else self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order.

        Asking only for eigenvalues takes the cheaper values-only LAPACK
        path (the tridiagonal solver for banded storage); they are cached on
        first computation and never replaced, so repeated reads (from any
        thread) see one consistent array.
        """
        if self._eigvals is None:
            with self._lock:
                if self._eigvals is None:
                    if self.bands is None:
                        w = np.linalg.eigvalsh(self._matrix)
                    else:
                        w = scipy.linalg.eigvalsh_tridiagonal(*self.bands)
                    w.setflags(write=False)
                    self._eigvals = w
        return self._eigvals

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary matrix whose columns match ``eigenvalues``."""
        if self._eigvecs is None:
            A = self.matrix  # outside the lock: assembling it takes the lock
            with self._lock:
                if self._eigvecs is None:
                    w, V = np.linalg.eigh(A)
                    V.setflags(write=False)
                    self._eigvecs = V
                    if self._eigvals is None:
                        w.setflags(write=False)
                        self._eigvals = w
        return self._eigvecs

    def spectrum(self, lo: float, hi: float) -> tuple[int, np.ndarray]:
        """Eigenvalues in the closed window [lo, hi] and the global index of the first.

        The index is the number of eigenvalues below ``lo``, so
        ``first + arange(len(values))`` are positions in the full ascending
        spectrum.  A banded operator solves only the window; a dense one
        slices the cached full spectrum.  A window holding no eigenvalue
        (including lo > hi) gives an empty array.
        """
        if math.isnan(lo) or math.isnan(hi):
            raise ValidationError(f"spectral window [{lo}, {hi}] has a NaN bound")
        if self.bands is None:
            w = self.eigenvalues
            first = int(np.searchsorted(w, lo, side="left"))
            end = int(np.searchsorted(w, hi, side="right"))
            return first, w[first:max(first, end)]
        d, e = self.bands
        e2 = e * e
        pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2, initial=0.0)))
        # stebz returns (vl, vu] and counts pivots below pivmin as negative
        below = float(np.nextafter(lo - 2.0 * pivmin, -np.inf))
        first = _sturm_count(d, e2, below, pivmin)
        if hi < lo:
            w = np.empty(0)
        else:
            w = scipy.linalg.eigvalsh_tridiagonal(d, e, select="v", select_range=(below, hi))
        w.setflags(write=False)
        return first, w

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
