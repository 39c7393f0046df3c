"""The two operator topologies as computable metrics.

``riesz_dist`` measures operators through the bounded transform, ``gap_dist``
through their graph projections.  Operator norms (never Frobenius) are used
throughout: the dichotomy phenomena this package reproduces live in the norm
topology.  ``weyl_gap`` is the eigenvalue lower bound for either, up to the
rounding slack 4 dim u (||A|| + ||B||) of two computed spectra (u the unit roundoff).

For self-adjoint A and B the gap needs no doubled space.  ``v_lag`` conjugates
2p - 1 to [[0, kappa*], [kappa, 0]], with kappa(A) = 1 - 2i (A + i)^-1 the
Cayley transform, and the second resolvent identity (Kato, I 5 and IV 2) gives

    ||p_A - p_B|| = 1/2 ||kappa(A) - kappa(B)|| = ||(A + i)^-1 - (B + i)^-1||
                  = ||(A + i)^-1 (B - A) (B + i)^-1||.

The product subtracts nothing but the stored B - A, so close operators keep
their digits.  Far ones lose digits in proportion to ||B - A|| (the solve with
A + i returns the gap from a right-hand side of that size): a gap above
1 + PROJECTION_ATOL raises, and so does one below eps max |(B - A)_ij|, which
has no certified digit.  Every pair of ``HermOp``s, dense, banded or mixed, is
evaluated the same way: the largest singular value by our own Lanczos, which
stops at the first converged step (``_resolvent_gap``), each step four solves
with one ``HermOp.resolvent`` factor per operand around ``B - A`` and one top
Ritz pair straight from LAPACK ``stebz`` and ``stein``.  Storage stays inside
``linalg``: banded operands solve in O(n) and never form a dense matrix or
eigenvectors.  Anything else takes the graph projections on the doubled space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .linalg import FLOAT_EPS, HermOp, MatrixLike, _tridiagonal_pair, as_hermop, as_matrix, op_norm
from .transforms import PROJECTION_ATOL, bounded_transform, graph_projection

LANCZOS_STEPS = 500  # _resolvent_gap's step budget: exact at k = n, so any dim <= 500 converges


def _check_dims(A: MatrixLike, B: MatrixLike) -> None:
    da = A.dim if isinstance(A, HermOp) else as_matrix(A).shape[0]
    db = B.dim if isinstance(B, HermOp) else as_matrix(B).shape[0]
    if da != db:
        raise ValidationError(f"dimension mismatch: {da} vs {db}")


def riesz_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the bounded transforms."""
    _check_dims(A, B)
    return op_norm(bounded_transform(A) - bounded_transform(B))


def _resolvent_gap(A: HermOp, B: HermOp, D: HermOp) -> float:
    """||(A + i)^-1 D (B + i)^-1||, D = B - A, by Lanczos on M = R*R, R the product.

    Step k applies M once (four solves, two applies of B - A), orthogonalizes
    against every earlier Lanczos vector in two classical Gram-Schmidt passes
    and reads the top eigenpair (theta, y) of the tridiagonal T_k (``stebz``
    and ``stein``, the calls of scipy's index-selected tridiagonal solver).  It stops
    as soon as the Ritz residual beta_k |y_k| <= eps theta, ARPACK's ``tol = 0``
    test, or at k = n, where T_n is M up to rounding.  M is scaled by 1/s^2,
    s a power of 2 near max |R v_1|, so a gap below 1e-154 does not square to 0.

    Not ``svds``: ARPACK tests for convergence only after a full cycle of
    ``ncv`` = 20 vectors (Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*),
    while a Robin-Dirichlet pair converges in 4-8 steps (Parlett, *The
    Symmetric Eigenvalue Problem*, ch. 13), and no smaller fixed ``ncv``
    suits far pairs, whose clustered top singular values need many more.
    There is no restart: the basis grows with the steps taken, and a pair
    not converged within ``LANCZOS_STEPS`` steps raises ``NonConvergenceError``.
    Overflow raises ``ConditioningError``.  The start vector is fixed, so the
    result is reproducible to the bit.
    """
    n = A.dim
    fa, fb = A.resolvent(), B.resolvent()
    Q = np.empty((min(n, 16), n), dtype=complex)  # row j: the j-th Lanczos vector
    v = np.random.default_rng(0).standard_normal(n)
    Q[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    what = f"Lanczos for ||(A + i)^-1 (B - A) (B + i)^-1|| at dim {n}"
    try:
        with np.errstate(over="raise", invalid="raise"):  # fail, not warn, on overflow
            for k in range(1, n + 1):
                V = Q[:k]
                u = fa.solve(D @ fb.solve(V[-1]))
                if k == 1:  # a power of 2 scales exactly; ||M / s^2|| >= 1/4
                    s = math.ldexp(1.0, math.frexp(np.max(np.abs(u)))[1])
                u /= s
                w = fb.solve(D @ fa.solve(u, adjoint=True), adjoint=True) / s
                alpha.append(0.0)
                for _ in range(2):  # classical Gram-Schmidt twice: orthonormal to rounding
                    h = (V @ w.conj()).conj()  # V* w without a conjugated copy of V
                    w -= h @ V
                    alpha[-1] += h[-1].real
                beta.append(float(np.linalg.norm(w)))
                if not math.isfinite(beta[-1]):  # a NaN from LAPACK sets no floating-point flag
                    raise FloatingPointError(f"Lanczos vector norm {beta[-1]} is not finite")
                theta, y = _tridiagonal_pair(alpha, beta[:-1], k - 1, vector=True)  # the top pair alone: O(k)
                if k == n or beta[-1] * abs(y[-1]) <= FLOAT_EPS * theta:
                    return s * math.sqrt(theta)
                if k == LANCZOS_STEPS:
                    raise NonConvergenceError(f"{what} did not converge within {k} steps")
                if k == len(Q):  # the basis grows with the steps taken, doubling
                    Q = np.concatenate([Q, np.empty((min(k, n - k), n), dtype=complex)])
                Q[k] = w / beta[-1]
    except FloatingPointError as exc:
        raise ConditioningError(f"{what} failed: {exc}") from exc


def gap_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the graph projections; always <= 1.

    A ``HermOp`` pair of any storage evaluates ||(A + i)^-1 (B - A) (B + i)^-1||
    (``_resolvent_gap``); anything else takes the doubled space.  A pair
    raises ``ConditioningError`` above 1 + PROJECTION_ATOL (a far pair) and
    below eps m, m = max |(B - A)_ij| <= ||B - A||: the resolvent norms are
    <= 1, so the product errs by O(eps ||B - A||) (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3) and below eps m no digit is
    certified.  The factor 1 still keeps Robin [1 : 1e-8] against Dirichlet
    at n = 400 (gap / (eps m) = 31, relative error 7e-11).
    """
    _check_dims(A, B)
    if isinstance(A, HermOp) and isinstance(B, HermOp):  # no doubled space needed
        D = B - A
        gap = _resolvent_gap(A, B, D)
        if not gap <= 1.0 + PROJECTION_ATOL:  # also catches NaN
            raise ConditioningError(f"gap {gap!r} exceeds 1: a far pair lost its digits")
        m = D._max_entry()
        if gap < FLOAT_EPS * m:  # strict, so an equal pair (m = 0) returns 0
            raise ConditioningError(f"gap {gap:.3e} has no certified digit: below eps m, "
                                    f"m = max |(B - A)_ij| = {m:.3e}, at dim {A.dim}")
        return gap
    return op_norm(graph_projection(A).matrix - graph_projection(B).matrix)


def weyl_gap(A: MatrixLike, B: MatrixLike) -> float:
    """max_k |lambda_k(A) - lambda_k(B)| over sorted eigenvalues.

    By Weyl's inequality the exact value never exceeds ||A - B||; rounding in the
    spectra keeps weyl_gap <= ||A - B|| + 4 dim u (||A|| + ||B||), u the unit roundoff.
    """
    _check_dims(A, B)
    wa, wb = as_hermop(A).eigenvalues, as_hermop(B).eigenvalues
    return float(np.max(np.abs(wa - wb))) if wa.size else 0.0
