"""The two operator topologies as computable metrics.

``riesz_dist`` measures operators through the bounded transform, ``gap_dist``
through their graph projections.  Operator norms (never Frobenius) are used
throughout: the dichotomy phenomena this package reproduces live in the norm
topology.  ``weyl_gap`` is the certified eigenvalue lower bound for either.

For self-adjoint A and B the gap needs no doubled space.  ``v_lag`` conjugates
2p - 1 to [[0, kappa*], [kappa, 0]], with kappa(A) = 1 - 2i (A + i)^-1 the
Cayley transform, so the resolvent identity (Kato, IV 2) gives

    ||p_A - p_B|| = 1/2 ||kappa(A) - kappa(B)|| = ||(A + i)^-1 - (B + i)^-1||.

Which route runs depends on storage:

* two banded ``HermOp``s: the largest singular value of the resolvent
  difference by Lanczos (ARPACK via ``svds``), each apply two O(n) solves with
  one ``gttrf`` factor per operator; no eigenvectors, no dense n x n matrix;
* two ``HermOp``s otherwise: 1/2 ||kappa(A) - kappa(B)|| from the
  eigendecompositions (also the tests' reference for the banded route);
* anything else: the graph projections on the doubled space.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError, ValidationError
from .linalg import MIN_FACTOR_DIM, HermOp, MatrixLike, as_hermop, op_norm
from .transforms import bounded_transform, cayley, graph_projection


def _check_dims(A: MatrixLike, B: MatrixLike) -> None:
    da = A.dim if isinstance(A, HermOp) else np.asarray(A).shape[0]
    db = B.dim if isinstance(B, HermOp) else np.asarray(B).shape[0]
    if da != db:
        raise ValidationError(f"dimension mismatch: {da} vs {db}")


def riesz_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the bounded transforms."""
    _check_dims(A, B)
    return op_norm(bounded_transform(A) - bounded_transform(B))


def _resolvent_gap(A: HermOp, B: HermOp) -> float:
    """||(A + i)^-1 - (B + i)^-1|| for banded A, B by Lanczos on the solves.

    The start vector is fixed, so the result is reproducible to the bit.
    """
    # imported here: loading scipy.sparse.linalg would add to every command's start-up
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

    n = A.dim
    if all(np.array_equal(a, b) for a, b in zip(A.bands, B.bands)):
        return 0.0  # R = 0 exactly; ARPACK cannot start on the zero operator
    fa, fb = A.shifted(-1j), B.shifted(-1j)
    R = LinearOperator(
        (n, n),
        matvec=lambda x: fa.solve(x) - fb.solve(x),
        rmatvec=lambda x: fa.solve(x, adjoint=True) - fb.solve(x, adjoint=True),
        dtype=complex,
    )
    budget = 10 * n  # ARPACK's default number of restarts
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        s = svds(R, k=1, tol=0, maxiter=budget, v0=v0, return_singular_vectors=False)
    except ArpackNoConvergence as exc:
        raise NonConvergenceError(
            f"Lanczos for ||(A + i)^-1 - (B + i)^-1|| at dim {n} "
            f"did not converge within {budget} restarts"
        ) from exc
    return float(s[0])


def gap_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the graph projections; always <= 1.

    Two banded ``HermOp``s (dim >= 3) take the matrix-free resolvent route,
    other pairs of ``HermOp``s the Cayley route, anything else the doubled
    space; see the module docstring for the identity behind the first two.
    """
    _check_dims(A, B)
    if isinstance(A, HermOp) and isinstance(B, HermOp):  # no doubled space needed
        if A.bands is not None and B.bands is not None and A.dim >= MIN_FACTOR_DIM:
            return _resolvent_gap(A, B)
        return 0.5 * op_norm(cayley(A) - cayley(B))
    return op_norm(graph_projection(A).matrix - graph_projection(B).matrix)


def weyl_gap(A: MatrixLike, B: MatrixLike) -> float:
    """max_k |lambda_k(A) - lambda_k(B)| over sorted eigenvalues.

    By Weyl's inequality this never exceeds ||A - B||, so it certifies a
    lower bound on the operator-norm distance of Hermitian matrices.
    """
    _check_dims(A, B)
    wa, wb = as_hermop(A).eigenvalues, as_hermop(B).eigenvalues
    return float(np.max(np.abs(wa - wb))) if wa.size else 0.0
