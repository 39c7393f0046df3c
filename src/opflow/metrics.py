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
A + i returns the gap from a right-hand side of that size); only a gap read
above 1 + PROJECTION_ATOL raises.  Every pair of ``HermOp``s, dense, banded or
mixed, is evaluated the same way: the largest singular value by Lanczos
(ARPACK via ``svds``), each apply two solves with one ``HermOp.shifted``
factor per operand around ``B - A``.  Storage stays inside ``linalg``: banded
operands solve in O(n) and never form a dense matrix or eigenvectors.  Below
ARPACK's dimension limit the product is formed from the same factors.
Anything else takes the graph projections on the doubled space.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .linalg import HermOp, MatrixLike, as_hermop, as_matrix, op_norm
from .transforms import PROJECTION_ATOL, bounded_transform, graph_projection


def _check_dims(A: MatrixLike, B: MatrixLike) -> None:
    da = A.dim if isinstance(A, HermOp) else as_matrix(A).shape[0]
    db = B.dim if isinstance(B, HermOp) else as_matrix(B).shape[0]
    if da != db:
        raise ValidationError(f"dimension mismatch: {da} vs {db}")


def riesz_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the bounded transforms."""
    _check_dims(A, B)
    return op_norm(bounded_transform(A) - bounded_transform(B))


def _resolvent_gap(A: HermOp, B: HermOp) -> float:
    """||(A + i)^-1 (B - A) (B + i)^-1|| by Lanczos on the solves, or formed below dim 3.

    The start vector is fixed, so the result is reproducible to the bit.
    """
    # imported here: loading scipy.sparse.linalg would add to every command's start-up
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, svds

    n, D = A.dim, B - A
    if D.is_zero():
        return 0.0  # ARPACK cannot start on the zero operator
    fa, fb = A.shifted(-1j), B.shifted(-1j)
    R = LinearOperator(
        (n, n),
        matvec=lambda x: fa.solve(D @ fb.solve(x.ravel())),  # R reshapes the result to x's shape
        rmatvec=lambda x: fb.solve(D @ fa.solve(x.ravel(), adjoint=True), adjoint=True),
        dtype=complex,
    )
    budget = 10 * n  # ARPACK's default number of restarts
    v0 = np.random.default_rng(0).standard_normal(n)
    what = f"Lanczos for ||(A + i)^-1 (B - A) (B + i)^-1|| at dim {n}"
    try:
        with np.errstate(over="raise", invalid="raise"):  # fail, not warn, on overflow
            if n < 3:  # below ARPACK's limit: form the product, one column per apply
                return op_norm(R @ np.eye(n))
            s = svds(R, k=1, tol=0, maxiter=budget, v0=v0, return_singular_vectors=False)
    except ArpackNoConvergence as exc:
        raise NonConvergenceError(f"{what} did not converge within {budget} restarts") from exc
    except (ArpackError, FloatingPointError) as exc:
        raise ConditioningError(f"{what} failed: {exc}") from exc
    return float(s[0])


def gap_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the graph projections; always <= 1.

    A ``HermOp`` pair of any storage evaluates ||(A + i)^-1 (B - A) (B + i)^-1||
    (``_resolvent_gap``) and raises ``ConditioningError`` above
    1 + PROJECTION_ATOL, a far pair; anything else takes the doubled space.
    """
    _check_dims(A, B)
    if isinstance(A, HermOp) and isinstance(B, HermOp):  # no doubled space needed
        gap = _resolvent_gap(A, B)
        if not gap <= 1.0 + PROJECTION_ATOL:  # also catches NaN
            raise ConditioningError(f"gap {gap!r} exceeds 1: a far pair lost its digits")
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
