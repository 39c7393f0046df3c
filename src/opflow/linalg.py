"""Spectral kernel: Hermitian operators in dense or banded storage.

Plain complex ndarrays are the working representation of bounded operators.
``HermOp`` wraps a Hermitian operator in one of two storages:

* dense: a complex matrix, checked Hermitian and symmetrized on construction;
* tridiagonal: the real bands (d, e) of a symmetric tridiagonal matrix, built
  by ``HermOp.tridiagonal``; the dense ``matrix`` is assembled only when read.

Both hand out the same API, so no other module reads the storage:
``eigenvalues`` and ``eigenvectors``, ``lowest_eigenvalue()``,
``eigenvector(k)``, ``spectrum(lo, hi)`` (a closed window's eigenvalues and
the global index of the first), ``norm()``, ``T - S``, ``T @ x``,
``resolvent()`` (LU factors of T + i, for solves with it and its adjoint),
``cayley_phase()`` (arg det of the Cayley transform) and ``flow_terms(r)``
(what spectral flow reads at one parameter).  One memo rule covers
``matrix``, ``eigenvalues``, ``eigenvectors`` and ``resolvent()``: each is
computed at most once, by ``_once`` under the operator's lock, so a shared
operator is safe between threads and never factored twice.  The lock is
reentrant: one memo may read another (a band below MIN_FACTOR_DIM factors
its ``matrix``).  A ``CornerBlock`` holds the fixed part of a family
[[T', b e_l], [b e_l^T, c]] whose only moving entry is the corner c, and
needs T' positive definite; its ``BorderedOp``s are banded ``HermOp``s that
share the block's bands and terms, and answer ``flow_terms`` from them in
closed form.
A banded operator solves only what is asked (LAPACK ``stebz``: its own count
for a window's index, bisection for the window or one eigenvalue, ``stein``
for its vector; ``stevd`` for all eigenpairs, ``gttrf`` for T + i), applies
its three-term product and subtracts on its bands; a dense one slices its
full spectrum and factors with ``getrf``.  On top of these live the spectral
functional calculus and the operator norm, which everything else in the
package is built from.

A quantity that is only compared with a bound is decided by a cheap
certificate first, and solved for only when that cannot decide:
``op_norm_floor`` reads ||M||_F before an SVD, and ``min_singular_ceiling``
factors a dense Hermitian H shifted by a little more than the ceiling c
before an eigensolve.  A Cholesky factor that completes proves every
eigenvalue beyond c (Higham, Thm 10.3), at about a fifth of the cost of a
values-only ``eigvalsh`` at dim 512.

scipy loads on first use, not at import, and only its LAPACK extension
``scipy.linalg._flapack``, loaded by file: importing the package
``scipy.linalg`` takes 0.11-0.16 s and 23 MB on a 2-vCPU host, and dense work
needs only ``numpy.linalg``.  Every banded solve and ``resolvent`` factor
calls LAPACK raw (``dstevd``, ``dstebz``, ``dstein``, ``zgttrf``/``zgttrs``,
``zgetrf``/``zgetrs``; a ``CornerBlock`` reads its terms off the pivots of
``dpttrf`` of T' and of T' + radius and of one ``zgttrf`` of T' + i, with no
``zgttrs``) on the one module ``_lapack()`` returns, so a routine patched
there is the one called and no wrapper re-checks bands checked at
construction.  A nonzero ``info`` raises an error naming the routine.  The
f2py wrappers reject the empty off-diagonal of dim 1; ``_lapack_bands``
passes one zero, unread there.
Dense work stays on ``numpy.linalg`` even once scipy is loaded: numpy and
scipy each bundle OpenBLAS with its own thread pool, and a call into one
straight after a BLAS call in the other can run twice as slow.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .errors import DegeneracyError, DomainError, NonConvergenceError, ValidationError

HERMITICITY_RTOL = 1e-12
MIN_FACTOR_DIM = 3  # the f2py gttrf wrapper rejects smaller bands
FLOAT_EPS = float(np.finfo(float).eps)  # op_norm_floor pads ||M||_F by 4 FLOAT_EPS per entry
FROBENIUS_FLOOR = 1e-140  # op_norm_floor and _beyond_ceiling decide only above this (no underflow)
_FLAPACK = "scipy.linalg._flapack"
_FLAPACK_LOCK = threading.Lock()


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


def require_finite(A: np.ndarray) -> None:
    """Raise a ValidationError naming the first non-finite entry of A, if it has one."""
    finite = np.isfinite(A)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValidationError(f"matrix entry ({i}, {j}) is not finite: {A[i, j]}")


def op_norm(M) -> float:
    """Operator (spectral) norm: the largest singular value.

    A non-finite entry is a ValidationError naming it.  A ``HermOp`` has its
    own ``norm()``, which reads its spectrum instead.  Every reported norm
    comes from this one SVD; a norm that is only compared with a bound goes
    through ``op_norm_floor``, which reads ||M||_F first.
    """
    A = as_matrix(M)
    require_finite(A)
    return float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0


def op_norm_floor(M, floor: float) -> float:
    """max(||M||, floor), with the SVD taken only when ||M||_F cannot decide.

    ||M|| <= ||M||_F, so a Frobenius norm at or below ``floor`` returns
    ``floor`` without an SVD.  It is padded by 4 eps per entry, above its own
    rounding (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1)
    and the SVD's: the result equals ``max(op_norm(M), floor)`` bit for bit.
    ||M||_F is read straight off vdot(M, M), and decides only when that is
    finite and above FROBENIUS_FLOOR, where no square has underflowed enough
    to matter.  Every other case (a zero, underflowing, overflowing or
    non-finite M, a zero floor, a norm above the floor) goes to ``op_norm``,
    so non-finite entries still raise.
    """
    A = as_matrix(M)
    fro = math.sqrt(np.vdot(A, A).real)  # inf on overflow, NaN or inf on a non-finite entry
    if math.isfinite(fro) and fro > FROBENIUS_FLOOR and fro * (1.0 + 4.0 * A.size * FLOAT_EPS) <= floor:
        return floor
    return max(op_norm(A), floor)


def hermiticity_defect(M: np.ndarray) -> float:
    """Frobenius norm of the anti-Hermitian part, relative to ||M||_F.

    Both norms are taken of M / max |entry|, so large finite entries cannot
    overflow them; a non-finite entry makes the defect NaN.
    """
    A = as_matrix(M)
    scale = np.max(np.abs(A), initial=0.0)
    if scale == 0.0:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf / inf: the defect is NaN, not a warning
        A = A / scale
        return float(np.linalg.norm(A - adjoint(A)) / np.linalg.norm(A))


def _lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded on first use: the one route to every LAPACK routine called here.

    It is loaded by file under its own name, so the package ``scipy.linalg``
    is not imported: its init takes about 0.11 s and 23 MB in a fresh
    process, and nothing here calls it.  A later ``import scipy.linalg``
    reuses this module.  Where the file is not found, the package import
    loads it instead.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        with _FLAPACK_LOCK:  # one module object, so a routine patched on it is the one called
            module = sys.modules.get(_FLAPACK)
            if module is None:
                module = _load_flapack()
    return module


def _load_flapack():
    """``_flapack`` from its file in scipy's installed tree, or by the package import where there is none."""
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    folder = Path(scipy.origin).parent / "linalg" if scipy and scipy.origin else None
    for suffix in importlib.machinery.EXTENSION_SUFFIXES if folder else ():
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
            return module
    return importlib.import_module(_FLAPACK)


def _lapack_bands(bands) -> tuple[np.ndarray, np.ndarray]:
    """The bands (d, e) as the f2py wrappers take them: one zero for the empty e of dim 1."""
    d, e = bands
    return d, e if e.size else np.zeros(1)


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.setflags(write=False)
    return a


def _lift(w: np.ndarray, radius: float = math.inf) -> float:
    """-2 sum atan2(1, w / (1 - (w / radius)^2)): Psi, with [-radius, radius] stretched onto R."""
    with np.errstate(divide="ignore"):  # the window's edges map to +-inf
        return -2.0 * float(np.sum(np.arctan2(1.0, w / np.maximum(1.0 - (w / radius) ** 2, 0.0))))


def _tridiagonal_pair(d, e, k: int, vector: bool = False) -> tuple[float, np.ndarray | None]:
    """The k-th eigenvalue (from 0, ascending) of the real tridiagonal (d, e), and its unit vector if asked.

    Index-selected ``stebz`` (``abstol = 0``), then ``stein``: the calls and
    ordering of scipy's index-selected tridiagonal solver, bit for bit.  On a
    split band the index range can fail (``info`` = 2) where scipy raises;
    as the LAPACK documentation advises, it is then recomputed with every
    eigenvalue and the k-th picked.  A ``stebz`` that fails that way too, or a
    failed ``stein``, raises ``NonConvergenceError``.
    """
    if len(d) == 1:  # the f2py wrappers reject an empty e; scipy returns d[0] and [1.0] too
        return float(d[0]), np.ones(1)
    lapack = _lapack()
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, k + 1, k + 1, 0.0, "B" if vector else "E")
    if info != 0:
        _, w, iblock, isplit, info = lapack.dstebz(d, e, 0, 0.0, 1.0, 0, 0, 0.0, "E")
        m, w, iblock = 1, np.roll(w, -k), np.roll(iblock, -k)  # stein reads an iblock of length n
    name, V = "stebz", None
    if info == 0 and vector:
        name, (V, info) = "stein", lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise NonConvergenceError(f"{name} for eigenvalue {k} of dim {len(d)} failed: info = {info}")
    return float(w[0]), None if V is None else V[:, 0]


class ShiftedFactor:
    """LU factors of T + i for a Hermitian T, built once by ``HermOp.resolvent``.

    Bands of dim >= MIN_FACTOR_DIM are factored by LAPACK ``gttrf``, so each
    ``solve`` is one O(n) ``gttrs`` sweep; a dense or smaller operator by
    ``getrf``.  The adjoint solve is the solve with (T + i)* = T - i.
    """

    __slots__ = ("_lu", "_trs", "_trans")

    def __init__(self, op: HermOp):
        lapack = _lapack()
        if op.bands is not None and op.dim >= MIN_FACTOR_DIM:
            off = op.bands[1].astype(complex)
            *self._lu, info = lapack.zgttrf(off, op.bands[0] + 1j, off)
            name, self._trs, self._trans = "zgttrf", lapack.zgttrs, ("N", "C")
        else:
            *self._lu, info = lapack.zgetrf(op.matrix + 1j * np.eye(op.dim), overwrite_a=True)
            name, self._trs, self._trans = "zgetrf", lapack.zgetrs, (0, 2)
        if info != 0:  # an exactly zero pivot, as LAPACK reports it
            raise DegeneracyError(f"T + i of dim {op.dim} is singular: {name} info = {info}")

    def solve(self, x, adjoint: bool = False) -> np.ndarray:
        """(T + i)^-1 x, or (T - i)^-1 x when ``adjoint``, in x's shape; x is a vector, block or list."""
        if np.size(x) == 0:  # f2py passes an empty x on, and gttrs on it can crash the process
            raise ValidationError(f"LU solve needs a non-empty right-hand side, got shape {np.shape(x)}")
        y, info = self._trs(*self._lu, x, trans=self._trans[adjoint])  # f2py converts x, keeps its shape
        if info != 0:
            raise ValidationError(f"LU solve rejected argument {-info} (right-hand side shape {np.shape(x)})")
        return y

    def diagonal_phase(self) -> float:
        """The sum of arg U_kk over the diagonal of the upper triangular LU factor."""
        banded = self._trans[0] == "N"  # gttrs takes "N"/"C", getrs 0/2
        u = self._lu[1] if banded else np.diagonal(self._lu[0])
        return float(np.sum(np.angle(u)))

    def pivots(self) -> np.ndarray | None:
        """U's diagonal if the factor is banded and ``gttrf`` made no row swap, else None.

        With no swap, U_kk = det(T_k + i) / det(T_{k-1} + i) for the leading
        blocks T_k, whose eigenvalues interlace, so arg U_kk lies in (0, pi)
        and -2 sum arg U_kk is Psi(T) itself, not Psi modulo 2 pi; and L is
        unit lower bidiagonal, so ((T + i)^-1)_ll = 1 / U_ll.  A swap at step k
        puts the real e_k on U's diagonal, so the diagonal is handed out only
        where every computed Im U_kk is at least 1, as it is exactly without swaps.
        """
        return self._lu[1] if self._trans[0] == "N" and np.all(self._lu[1].imag >= 1.0) else None


class HermOp:
    """A Hermitian operator, dense or tridiagonal, with cached spectra.

    A dense input must be Hermitian to relative tolerance ``HERMITICITY_RTOL``
    (Frobenius); it is then symmetrized, so downstream code may rely on
    ``matrix`` being exactly equal to its adjoint.  ``HermOp.tridiagonal``
    stores real bands instead, checked once to be finite with a finite
    squared off-diagonal.  Its memos keep the module's one rule (``_once``).
    """

    __slots__ = ("bands", "_matrix", "_lock", "_eigvals", "_eigvecs", "_factor")

    def __init__(self, matrix):
        A = as_matrix(matrix)
        defect = hermiticity_defect(A)
        if not defect <= HERMITICITY_RTOL:  # a NaN or inf entry makes the defect NaN
            reason = "has non-finite entries" if math.isnan(defect) else "is not Hermitian"
            raise ValidationError(
                f"matrix {reason}: relative Frobenius defect "
                f"||M - M*||/||M|| = {defect:.3e} exceeds {HERMITICITY_RTOL:g}"
            )
        self._store(_frozen((A + adjoint(A)) / 2.0), None)

    def _store(self, matrix: np.ndarray | None, bands) -> None:
        self.bands: tuple[np.ndarray, np.ndarray] | None = bands  # (d, e) or None if dense
        self._matrix = matrix
        self._lock = threading.RLock()
        self._eigvals: np.ndarray | None = None
        self._eigvecs: np.ndarray | None = None
        self._factor: ShiftedFactor | None = None

    def _once(self, slot: str, compute: Callable[[], object]):
        """The value memoized in ``slot``, from ``compute()`` run at most once under the lock; a raise stores nothing."""
        value = getattr(self, slot)
        if value is None:
            with self._lock:
                value = getattr(self, slot)
                if value is None:
                    value = compute()
                    setattr(self, slot, value)
        return value

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
        big = np.flatnonzero(np.abs(e) > math.sqrt(np.finfo(float).max))  # e * e overflows
        if big.size:  # stebz squares the off-diagonal
            raise ValidationError(f"off-diagonal e[{big[0]}] = {e[big[0]]:g} overflows when squared")
        op = cls.__new__(cls)
        op._store(None, (_frozen(d), _frozen(e)))
        return op

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex matrix (read-only); assembled from the bands on first read."""
        return self._once("_matrix", lambda: _frozen(
            np.diag(self.bands[0].astype(complex)) + np.diag(self.bands[1], 1) + np.diag(self.bands[1], -1)))

    @property
    def dim(self) -> int:
        return self.bands[0].size if self.bands is not None else self._matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in ascending order, by the values-only LAPACK path (the tridiagonal solver on bands)."""
        return self._once("_eigvals", lambda: _frozen(
            np.linalg.eigvalsh(self._matrix) if self.bands is None else self._stevd(False)[0]))

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary matrix whose columns match ``eigenvalues``.

        Banded storage takes the real tridiagonal solver, so its eigenvectors
        are real and the dense matrix is never assembled.  The solve memoizes
        ``eigenvalues`` too.
        """
        return self._once("_eigvecs", self._eigh)

    def _eigh(self) -> np.ndarray:
        w, V = np.linalg.eigh(self._matrix) if self.bands is None else self._stevd(True)
        self._once("_eigvals", lambda: _frozen(w))
        return _frozen(V)

    def _stevd(self, vectors: bool) -> tuple[np.ndarray, np.ndarray]:
        """Every eigenvalue of the bands, and the eigenvectors if asked, from one LAPACK ``stevd``."""
        w, V, info = _lapack().dstevd(*_lapack_bands(self.bands), compute_v=int(vectors))
        if info != 0:
            raise NonConvergenceError(f"stevd for every eigenvalue of dim {self.dim} failed: info = {info}")
        return w, V

    def _eigenvalue(self, k: int) -> float:
        """The k-th eigenvalue in ascending order; a banded operator bisects for it alone (``stebz``)."""
        if self.bands is None:
            return float(self.eigenvalues[k])
        return _tridiagonal_pair(*self.bands, k)[0]

    def lowest_eigenvalue(self) -> float:
        """The smallest eigenvalue: index-selected ``stebz`` on bands, the cached spectrum if dense."""
        return self._eigenvalue(0)

    def eigenvector(self, k: int) -> np.ndarray:
        """The unit eigenvector of the k-th eigenvalue in ascending order (k from 0).

        A banded operator solves for that one pair alone (index-selected
        ``stebz``, then inverse iteration); a dense one reads a column of
        ``eigenvectors``.
        """
        if not 0 <= k < self.dim:
            raise ValidationError(f"eigenvector index {k} outside [0, {self.dim})")
        if self.bands is None:
            return self.eigenvectors[:, k]
        return _tridiagonal_pair(*self.bands, k, vector=True)[1]

    def resolvent(self) -> ShiftedFactor:
        """The LU factors of T + i, built once, for solves with T + i and T - i; |lambda + i| >= 1 keeps it regular."""
        return self._once("_factor", lambda: ShiftedFactor(self))

    def cayley_phase(self) -> float:
        """arg det kappa(T) in [-pi, pi], for the Cayley transform kappa(T) = (T - i)(T + i)^-1.

        For Hermitian T, det(T - i) is the conjugate of det(T + i), so the
        phase is -2 arg det(T + i).  A banded operator reads it off one LU
        factor of T + i as -2 sum_k arg U_kk (the row swaps' sign +-1 only
        adds a multiple of 2 pi); a dense one, whose spectrum reads solve the
        full spectrum anyway, reads Psi = -2 sum atan2(1, lambda) off its
        eigenvalues (``_lift``).
        """
        if self.bands is None:
            phase = _lift(self.eigenvalues)
        else:
            phase = -2.0 * self.resolvent().diagonal_phase()
        return math.remainder(phase, 2.0 * math.pi)

    def norm(self) -> float:
        """The operator norm max |lambda|, from the two extreme eigenvalues alone."""
        return max(-self._eigenvalue(0), self._eigenvalue(self.dim - 1))

    def _max_entry(self) -> float:
        """max |T_ij|, read off the stored entries: a banded operator's bands, never its matrix."""
        return max(float(np.abs(a).max(initial=0.0)) for a in self.bands or (self._matrix,))

    def __sub__(self, other: "HermOp") -> "HermOp":
        """The difference T - S, banded when both operands are."""
        if self.dim != other.dim:
            raise ValidationError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.bands is not None and other.bands is not None:
            return HermOp.tridiagonal(*(a - b for a, b in zip(self.bands, other.bands)))
        return HermOp(self.matrix - other.matrix)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """T x for a vector x: the three-term product on bands, never the dense matrix."""
        if self.bands is None:
            return self._matrix @ x
        d, e = self.bands
        y = d * x
        y[:-1] += e * x[1:]
        y[1:] += e * x[:-1]
        return y

    def spectrum(self, lo: float, hi: float) -> tuple[int, np.ndarray]:
        """Eigenvalues in the closed window [lo, hi] and the global index of the first.

        The index is the number of eigenvalues below ``lo``, so
        ``first + arange(len(values))`` are positions in the full ascending
        spectrum.  A banded operator reads the index off LAPACK ``stebz``'s
        own count and bisects for the window alone with the same routine from
        the same lower edge, so the two agree; a dense one slices the cached
        full spectrum.  A window holding no eigenvalue (including lo > hi)
        gives an empty array.  A banded count or window that fails raises
        ``NonConvergenceError``.
        """
        if math.isnan(lo) or math.isnan(hi):
            raise ValidationError(f"spectral window [{lo}, {hi}] has a NaN bound")
        if self.bands is None:
            w = self.eigenvalues
            first = int(np.searchsorted(w, lo, side="left"))
            end = int(np.searchsorted(w, hi, side="right"))
            return first, w[first:max(first, end)]
        first, below = self._count_below(lo)
        if hi < lo or hi == -math.inf:  # empty; stebz would reject vl = vu = -inf
            w = np.empty(0)
        else:  # the window (below, hi] by the same bisection, abstol = 0
            m, w, *_, info = _lapack().dstebz(*_lapack_bands(self.bands), 1, below, hi, 0, 0, 0.0, "E")
            if info != 0:
                raise NonConvergenceError(
                    f"stebz window [{lo}, {hi}] failed on dim {self.dim}: info = {info}")
            w = w[:m]
        return first, _frozen(w)

    def _count_below(self, lo: float) -> tuple[int, float]:
        """A banded operator's count of eigenvalues below lo, by ``stebz``, and the lower edge it counted at.

        The edge lies below lo by twice stebz's pivot floor, since stebz
        counts a pivot below that floor as negative; a window from lo is
        bisected from the same edge, so its count and its values agree.
        """
        d, e = _lapack_bands(self.bands)
        pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e * e, initial=0.0)))
        with np.errstate(over="ignore"):  # below -max float lies -inf
            below = float(np.nextafter(lo - 2.0 * pivmin, -np.inf))
        # n minus stebz's count in (below, inf]: counting (-inf, below] would make
        # lo = -inf an illegal vl = vu.  abstol = inf stops the bisection at once
        above, *_, info = _lapack().dstebz(d, e, 1, below, np.inf, 0, 0, np.inf, "E")
        if info != 0:
            raise NonConvergenceError(f"stebz count above {lo} failed on dim {self.dim}: info = {info}")
        return self.dim - above, below

    def flow_terms(self, radius: float) -> tuple[int, int, float, float]:
        """What spectral flow reads at one parameter: (neg, first, phase, lift).

        neg counts the negative eigenvalues and first those below -radius;
        phase is ``cayley_phase()``, and lift is Psi_r, Psi = -2 sum_k
        atan2(1, lambda_k) with [-radius, radius] stretched onto R and the
        eigenvalues outside put at +-inf.  Psi_r is off Psi by less than
        2 atan(1 / radius) per eigenvalue, and continuous where eigenvalues
        cross +-radius; every route to these terms keeps within that.  Here
        they come from one ``spectrum(-radius, radius)`` and one phase.  A
        radius that is not finite and positive is a ValidationError.
        """
        if not 0.0 < radius < math.inf:
            raise ValidationError(f"flow radius {radius} is not finite and positive")
        first, w = self.spectrum(-radius, radius)
        return (first + int(np.count_nonzero(w < 0.0)), first, self.cayley_phase(),
                _lift(w, radius) - 2.0 * math.pi * first)

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermOp(dim={self.dim})"


def _finite_corner(corner: float) -> float:
    if not math.isfinite(corner):
        raise ValidationError(f"corner entry {corner} is not finite")
    return float(corner)


class CornerBlock:
    """The fixed part of a family A(c) = [[T', b e_l], [b e_l^T, c]] whose one moving entry is the corner c.

    T' is a positive definite real tridiagonal ``HermOp`` of dim >=
    MIN_FACTOR_DIM, and b its coupling to one more node.  ``operator(c)``
    returns A(c); every operator of one block shares its bands and terms.
    With g(sigma) = ((T' - sigma)^-1)_ll, the Schur complement on the last
    node gives (Haynsworth, Linear Algebra Appl. 1, 1968)

        neg(A(c) - sigma) = neg(T' - sigma) + [c - sigma - b^2 g(sigma) < 0],
        det(A(c) + i) = det(T' + i) s(c),   s(c) = c + i - b^2 ((T' + i)^-1)_ll,

    where neg(T' - sigma) = 0 for both shifts the flow reads, sigma = 0 and
    sigma = -radius (radius > 0), so each count is one sign.  Im s = 1 +
    b^2 sum_j q_j^2 / (mu_j^2 + 1) >= 1 over T''s eigenpairs, so arg s lies in
    (0, pi) and Psi(A(c)) = Psi(T') - 2 arg s(c) as real numbers, continuous
    in c.  Each operator then answers ``flow_terms`` in O(1).  Here
    g(sigma) = 1 / D_l off one LAPACK ``pttrf`` of T' - sigma = L D L^T,
    since L is unit lower bidiagonal, so L e_l = e_l; the factor at sigma = 0
    proves T' positive definite.  b^2 ((T' + i)^-1)_ll = b^2 / U_ll and
    Psi(T') = -2 sum arg U_kk come off U's diagonal in one ``gttrf`` of T' + i
    (``pivots()``), which must make no row swap, as on the Robin T' at every
    grid tried; a T' + i that swaps is refused.  The block keeps b^2 g(-radius)
    for the last radius asked: a flow asks one.
    """

    __slots__ = ("inner", "coupling", "_e", "_last")

    def __init__(self, inner: HermOp, coupling: float):
        if inner.bands is None or inner.dim < MIN_FACTOR_DIM:
            raise ValidationError(f"a corner block needs banded storage of dim >= {MIN_FACTOR_DIM}")
        if not math.isfinite(coupling * coupling):
            raise ValidationError(f"coupling {coupling:g} is not finite when squared")
        self.inner, self.coupling = inner, float(coupling)
        schur0 = self._schur(0.0)
        u = inner.resolvent().pivots()
        if u is None:
            raise ValidationError(f"gttrf swapped rows of T' + i of dim {inner.dim}: a corner block needs none")
        # (radius, terms), read and replaced whole, so a race can only solve again; a NaN
        # radius matches none, so the first call to terms solves.  Python's complex 1 / U_ll
        # is the gttrs solve of e_l bit for bit (numpy's quotient is not)
        self._last = (math.nan, (schur0, math.nan, self.coupling ** 2 * (1.0 / complex(u[-1])),
                                 -2.0 * float(np.sum(np.angle(u)))))
        self._e = _frozen(np.append(inner.bands[1], self.coupling))

    def operator(self, corner: float) -> "BorderedOp":
        """A(corner): a banded ``HermOp`` whose block's bands are not checked again."""
        op = BorderedOp.__new__(BorderedOp)
        op.block, op.corner = self, _finite_corner(corner)
        op._store(None, (_frozen(np.append(self.inner.bands[0], op.corner)), self._e))
        return op

    def flow_terms(self, corner: float, radius: float) -> tuple[int, int, float, float]:
        """``operator(corner).flow_terms(radius)`` in closed form, with no operator built."""
        corner = _finite_corner(corner)
        schur0, schur_r, schur_i, psi = self.terms(radius)
        lift = psi - 2.0 * math.atan2(1.0 - schur_i.imag, corner - schur_i.real)
        return (int(corner - schur0 < 0.0), int(corner + radius - schur_r < 0.0),
                math.remainder(lift, 2.0 * math.pi), lift)

    def terms(self, radius: float) -> tuple[float, float, complex, float]:
        """(b^2 g(0), b^2 g(-radius), b^2 ((T' + i)^-1)_ll, Psi(T')); a new radius is checked, then one ``pttrf``."""
        last, terms = self._last
        if radius != last:
            if not 0.0 < radius < math.inf:
                raise ValidationError(f"flow radius {radius} is not finite and positive")
            terms = (terms[0], self._schur(-radius), *terms[2:])
            self._last = (radius, terms)
        return terms

    def _schur(self, sigma: float) -> float:
        """b^2 g(sigma) = b^2 / D_l from one ``pttrf`` of T' - sigma; a factor that fails raises."""
        d, e = self.inner.bands
        D, _, info = _lapack().dpttrf(d - sigma, e)
        if info != 0:
            shifted = "T'" if sigma == 0.0 else f"T' + {-sigma:g}"
            raise ValidationError(f"a corner block needs a positive definite {shifted} of dim {self.inner.dim}: "
                                  f"pttrf info = {info}")
        return self.coupling ** 2 * (1.0 / float(D[-1]))


class BorderedOp(HermOp):
    """A(c) = [[T', b e_l], [b e_l^T, c]] of a ``CornerBlock``: a banded ``HermOp`` for every reader.

    Only ``flow_terms`` differs: it reads the block's terms and the corner
    in closed form, and returns the exact Psi, not Psi_r, as its lift.
    """

    __slots__ = ("block", "corner")

    def flow_terms(self, radius: float) -> tuple[int, int, float, float]:
        return self.block.flow_terms(self.corner, radius)


MatrixLike = Union[np.ndarray, HermOp]


def as_hermop(M: MatrixLike) -> HermOp:
    """Pass through a HermOp, or validate-and-wrap an ndarray."""
    return M if isinstance(M, HermOp) else HermOp(M)


def matrix_of(M: MatrixLike) -> np.ndarray:
    return M.matrix if isinstance(M, HermOp) else as_matrix(M)


def _beyond_ceiling(H: np.ndarray, c: float) -> bool:
    """Whether one Cholesky factor proves every eigenvalue of the Hermitian H above c, or every one below -c.

    Only a diagonal wholly above c (sign s = 1) or wholly below -c (s = -1)
    can pass, since lambda_min(sH) <= s h_ii.  Let T = sum(s h_ii - c) > 0 be
    the trace of sH - c, read as the float sum T^, and let u be the unit
    roundoff.  One copy M^ = fl(sH - sigma I) is factored, its diagonal
    shifted in place by sigma = c + delta rounded up, so sigma >= c + delta
    exactly.

    A factor R^ that completes gives M^ + dM = R^* R^ with
    |dM| <= gamma |R^*| |R^| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., Thm 10.3; section 3.6 for complex arithmetic, whose
    constants gamma = gamma_{32(n+1)} covers generously).  So
    ||dM||_2 <= gamma ||R^||_F^2 = gamma tr(M^ + dM) and
    |tr dM| <= gamma ||R^||_F^2, hence ||dM||_2 <= gamma tr(M^) / (1 - gamma).
    Each M^_ii > 0, so tr(M^) <= (1 + u) T, and the shift's rounding
    E = M^ - (sH - sigma I) is diagonal with ||E||_2 <= u T.  Then
    delta = 2 gamma T^ exceeds ||dM||_2 + ||E||_2, and
    lambda_min(sH) >= sigma + lambda_min(M^) - ||E||_2
    > sigma - ||dM||_2 - ||E||_2 >= c.  A T^ at or below FROBENIUS_FLOOR is
    refused: there underflow, which the bound omits, could outrun delta.
    """
    h = H.diagonal().real
    sign = 1.0 if np.all(h > c) else -1.0 if np.all(h < -c) else 0.0
    excess = float(np.sum(sign * h - c))
    if sign == 0.0 or not excess > FROBENIUS_FLOOR:
        return False
    g = 16.0 * (h.size + 1) * FLOAT_EPS  # 32(n + 1) u
    delta = 2.0 * g / (1.0 - g) * excess
    M = sign * H  # the one copy; negation is exact
    M.flat[:: h.size + 1] -= float(np.nextafter(c + delta, math.inf))
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def min_singular_ceiling(M: MatrixLike, ceiling: float) -> float:
    """min(sigma_min(M), ceiling), with the eigensolve taken only when one Cholesky factor cannot decide.

    The mirror of ``op_norm_floor``: a caller that compares sigma_min with a
    bound, or keeps a running minimum, needs its exact value only below that
    ceiling c.  A dense ``HermOp`` whose spectrum is not cached, with every
    diagonal entry above c or every one below -c, is first shifted by a
    little more than c and factored (``_beyond_ceiling``); a factor that
    completes proves every |lambda| > c, and c is returned.  Every other
    case (an indefinite diagonal, a failed factor, a cached spectrum, banded
    storage) reads min |lambda| off ``eigenvalues``, and an ndarray takes an
    SVD.
    """
    if isinstance(M, HermOp):
        if M.bands is None and M._eigvals is None and _beyond_ceiling(M._matrix, ceiling):
            return ceiling
        s = np.abs(M.eigenvalues)
    else:
        s = np.linalg.svd(as_matrix(M), compute_uv=False)
    return min(float(np.min(s)) if s.size else 0.0, ceiling)


def herm_eig(M: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and the unitary of eigenvectors.  Raises a
    validation error naming the hermiticity defect for non-Hermitian input.
    The eigenvectors are read first, so a fresh operator runs one solve that
    fills both caches, not a values-only solve followed by a full one.
    """
    op = as_hermop(M)
    V = op.eigenvectors
    return op.eigenvalues, V


def func_calc(M: MatrixLike, f: Callable[[float], complex]) -> np.ndarray:
    """Spectral functional calculus: U f(Lambda) U*.

    ``f`` is evaluated once per eigenvalue; a raised exception or a non-finite
    value is reported as a domain error naming the offending eigenvalue.
    """
    op = as_hermop(M)
    w, _ = herm_eig(op)
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
