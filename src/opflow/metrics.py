"""The two operator topologies as computable metrics.

``riesz_dist`` measures operators through the bounded transform, ``gap_dist``
through their graph projections.  Operator norms (never Frobenius) are used
throughout: the dichotomy phenomena this package reproduces live in the norm
topology.  ``weyl_gap`` is the certified eigenvalue lower bound for either.
For two ``HermOp``s the gap is 1/2 ||kappa(A) - kappa(B)|| with kappa the Cayley
transform, as ``v_lag`` conjugates 2p - 1 to [[0, kappa*], [kappa, 0]] (Kato, IV 2).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import HermOp, MatrixLike, as_hermop, op_norm
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


def gap_dist(A: MatrixLike, B: MatrixLike) -> float:
    """Operator-norm distance of the graph projections; always <= 1."""
    _check_dims(A, B)
    if isinstance(A, HermOp) and isinstance(B, HermOp):  # no doubled space needed
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
