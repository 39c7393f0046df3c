"""Maps between matrices, the operator unit ball, graph projections, and unitaries.

All maps are total on their stated domains and carry their algebraic
identities as checkable deviations (see ``identity_suite``).  The doubled
space has the block layout ``[[upper-left, upper-right], [lower-left,
lower-right]]`` with the first block row/column indexing the original space.

A note on domains: in the matrix setting every operator is bounded, so the
classical dense-range condition on ``1 - a*a`` collapses to invertibility.
The inverse transform therefore requires a *strict* contraction, and the
strictness tolerance (``STRICTNESS_ATOL``, 1e-8) is part of its contract.

Each map factors its operand once and reads its ball check off that
factorization: ``ball_projection``, ``fredholm_factor_check`` and the inverse
transform take one SVD (||a|| is its largest singular value), ``cayley_ball``
one eigendecomposition.  Neither transform forms a*a, which squares the condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBallError, ValidationError
from .linalg import (
    HermOp,
    MatrixLike,
    adjoint,
    as_matrix,
    func_calc,
    herm_eig,
    matrix_of,
    op_norm,
    require_finite,
    spectral_weights,
)

PROJECTION_ATOL = 1e-10
BALL_ATOL = 1e-10
LAGRANGIAN_ATOL = 1e-8
STRICTNESS_ATOL = 1e-8  # inverse_bounded_transform needs ||a|| < 1 - STRICTNESS_ATOL
UNITARITY_ATOL = 1e-10  # fredholm_factor_check's bound on the second factor's unitarity
# Sqrt clamping: admissible contractions may overshoot the unit sphere by
# BALL_ATOL, driving eigenvalues of 1 - a*a as low as about -2*BALL_ATOL.
SQRT_CLAMP = 3e-10


@dataclass(frozen=True)
class GraphProjection:
    """An orthogonal projection on the doubled space H (+) H."""

    matrix: np.ndarray

    def __post_init__(self):
        P = as_matrix(self.matrix)
        if P.shape[0] % 2 != 0:
            raise ValidationError(f"doubled-space projection needs even dim, got {P.shape[0]}")
        idem = op_norm(P @ P - P)
        herm = op_norm(P - adjoint(P))
        if idem > PROJECTION_ATOL or herm > PROJECTION_ATOL:
            raise ValidationError(
                f"not a projection: ||p^2-p|| = {idem:.3e}, ||p-p*|| = {herm:.3e}"
            )
        P = (P + adjoint(P)) / 2.0
        P.setflags(write=False)
        object.__setattr__(self, "matrix", P)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def half(self) -> int:
        return self.matrix.shape[0] // 2

    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))


def _sqrt_clamped(w: np.ndarray) -> np.ndarray:
    """sqrt of values meant to be >= 0, absorbing unit-sphere float noise.

    Values inside the dead band [-SQRT_CLAMP, SQRT_CLAMP] snap to zero, so
    contractions that are float-indistinguishable from the sphere produce
    exact boundary results instead of sqrt-amplified noise.
    """
    w = np.asarray(w, dtype=float)
    bad = w < -SQRT_CLAMP
    if np.any(bad):
        raise ValidationError(f"negative eigenvalue {w[bad].min():.3e} under the sqrt")
    w = np.where(np.abs(w) <= SQRT_CLAMP, 0.0, np.clip(w, 0.0, None))
    return np.sqrt(w)


def _require_ball(norm: float) -> None:
    if norm > 1.0 + BALL_ATOL:
        raise OutOfBallError(f"operator norm {norm:.12g} exceeds 1 (tol {BALL_ATOL:g})")


def _ball_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U, min(s, 1), Vh of a ball operand and sqrt(1 - s^2); the ball check reads ||a|| = s[0].

    Singular values the check admits above 1 snap to the sphere, so the
    projection built from them stays idempotent to PROJECTION_ATOL.
    """
    require_finite(a)
    U, s, Vh = np.linalg.svd(a)
    _require_ball(np.max(s, initial=0.0))
    s = np.minimum(s, 1.0)
    return U, s, Vh, _sqrt_clamped(1.0 - s * s)


def _ball_projection(U: np.ndarray, s: np.ndarray, Vh: np.ndarray, r: np.ndarray) -> GraphProjection:
    # one SVD feeds every block, so the intertwining identities (and hence
    # idempotency) hold to machine precision even on the unit sphere
    V = adjoint(Vh)
    top_left = (V * (1.0 - s * s)) @ Vh
    top_right = (V * (r * s)) @ adjoint(U)
    bottom_right = (U * (s * s)) @ adjoint(U)
    P = np.block([[top_left, top_right], [adjoint(top_right), bottom_right]])
    return GraphProjection((P + adjoint(P)) / 2.0)


def bounded_transform(A: MatrixLike) -> np.ndarray:
    """A (1 + A*A)^(-1/2) = U diag(s / hypot(1, s)) V*; lands strictly inside the unit ball."""
    if isinstance(A, HermOp):
        w, _ = herm_eig(A)
        return spectral_weights(A, w / np.hypot(1.0, w))
    A = as_matrix(A)
    require_finite(A)
    U, s, Vh = np.linalg.svd(A)
    return (U * (s / np.hypot(1.0, s))) @ Vh


def inverse_bounded_transform(a: MatrixLike) -> np.ndarray:
    """a (1 - a*a)^(-1/2) = U diag(s / sqrt(1 - s^2)) V*; defined for strict contractions only."""
    a = matrix_of(a)
    require_finite(a)
    U, s, Vh = np.linalg.svd(a)
    norm = np.max(s, initial=0.0)
    if norm >= 1.0 - STRICTNESS_ATOL:
        raise OutOfBallError(
            f"inverse transform needs a strict contraction; operator norm is {norm:.12g}"
        )
    return (U * (s / np.sqrt((1.0 - s) * (1.0 + s)))) @ Vh


def graph_projection(A: MatrixLike) -> GraphProjection:
    """Orthogonal projection onto the graph of A inside H (+) H.

    Hermitian input (as ``HermOp``) takes a spectral route that stays accurate
    for large operator norms; general matrices go through linear solves.
    """
    if isinstance(A, HermOp):
        w, _ = herm_eig(A)
        r = 1.0 / np.hypot(1.0, w)  # (1 + w^2)^(-1/2) without overflow in w^2
        F = spectral_weights(A, r * r)
        G = spectral_weights(A, (w * r) * r)
        H = np.eye(A.dim, dtype=complex) - F
        P = np.block([[F, G], [G, H]])
        return GraphProjection((P + adjoint(P)) / 2.0)
    A = as_matrix(A)
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    S = eye + adjoint(A) @ A
    p11, p12 = np.hsplit(np.linalg.solve(S, np.hstack([eye, adjoint(A)])), 2)  # one factor of S
    p22 = eye - np.linalg.solve(eye + A @ adjoint(A), eye)
    P = np.block([[p11, p12], [adjoint(p12), p22]])
    return GraphProjection((P + adjoint(P)) / 2.0)


def ball_projection(a: MatrixLike) -> GraphProjection:
    """Continuous extension of the graph projection to the closed unit ball."""
    return _ball_projection(*_ball_svd(matrix_of(a)))


def cayley(A: MatrixLike) -> np.ndarray:
    """(A - i)(A + i)^(-1) for Hermitian A; always unitary."""
    return func_calc(A, lambda lam: (lam - 1j) / (lam + 1j))


def cayley_ball(a: MatrixLike) -> np.ndarray:
    """(a - i sqrt(1 - a^2))^2 on Hermitian contractions.

    Factors the Cayley transform through the bounded transform and extends it
    continuously to the whole closed ball of Hermitian operators.
    """
    op = a if isinstance(a, HermOp) else HermOp(a)
    w, _ = herm_eig(op)
    _require_ball(np.max(np.abs(w), initial=0.0))
    s = _sqrt_clamped(1.0 - w * w)
    return spectral_weights(op, (w - 1j * s) ** 2)


def lagrangian_defect(p: GraphProjection) -> float:
    """Norm of I(2p-1) + (2p-1)I; zero exactly on Lagrangian projections."""
    h, r = p.half, 2.0 * p.matrix - np.eye(p.dim)
    # I = [[0, -i], [i, 0]] swaps and scales block rows from the left, block columns from the right
    ir = np.concatenate([-1j * r[h:], 1j * r[:h]])
    ri = np.concatenate([1j * r[:, h:], -1j * r[:, :h]], axis=1)
    return op_norm(ir + ri)


def lagrangian_to_unitary(p: GraphProjection) -> np.ndarray:
    """Half-dimensional unitary of a Lagrangian projection.

    Conjugating by the pinned ``v_lag`` moves the projection from the
    symplectic symmetry to the grading, where its symmetry 2p-1 is an
    off-diagonal block matrix; the lower-left block, p22 - p11 - i(p12 + p21),
    is the unitary.  Sends the vertical projection to +1 and the horizontal
    one to -1, and on graph projections of Hermitian operators it reproduces
    the Cayley transform.
    """
    defect = lagrangian_defect(p)
    if defect > LAGRANGIAN_ATOL:
        raise ValidationError(
            f"projection is not Lagrangian: anticommutator norm {defect:.3e} > {LAGRANGIAN_ATOL:g}"
        )
    h, P = p.half, p.matrix
    return P[h:, h:] - P[:h, :h] - 1j * (P[:h, h:] + P[h:, :h])


def odd_embedding(A: MatrixLike) -> HermOp:
    """[[0, A*], [A, 0]]: the Hermitian doubling that anticommutes with the grading."""
    A = matrix_of(A)
    n = A.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return HermOp(np.block([[zero, adjoint(A)], [A, zero]]))


def proj_to_unitary(p: GraphProjection | np.ndarray) -> np.ndarray:
    """v (1 - 2p) v with v = diag(1, i): embeds projections into the odd unitaries.

    The image satisfies J u J = u*; the vertical projection maps to +1 and the
    horizontal one to -1.
    """
    if not isinstance(p, GraphProjection):
        p = GraphProjection(as_matrix(p))
    v = np.repeat([1.0, 1j], p.half)
    return v[:, None] * (np.eye(p.dim) - 2.0 * p.matrix) * v


def odd_unitary_defect(u: np.ndarray) -> float:
    """Norm of J u J - u* on the doubled space (zero on the odd unitaries)."""
    u = as_matrix(u)
    n = u.shape[0]
    if n == 0 or n % 2:
        raise ValidationError(f"odd unitaries live on a doubled (even-dim) space, got dim {n}")
    require_finite(u)
    g = np.repeat([1.0, -1.0], n // 2)
    return op_norm(g[:, None] * u * g - adjoint(u))


def fredholm_factor_check(a: MatrixLike) -> float:
    """Deviation of the block factorization of (ball projection - horizontal).

    Builds the displayed factorization diag(-a*, a) . W and returns
    ``|| (pt(a) - p0) - diag(-a*, a) W ||``; raises if the second factor W
    fails to be unitary to UNITARITY_ATOL.
    """
    U, s, Vh, r = _ball_svd(matrix_of(a))
    n, a = s.size, (U * s) @ Vh       # a snapped to the ball, as the projection sees it
    R1 = (adjoint(Vh) * r) @ Vh       # sqrt(1 - a*a)
    R2 = (U * r) @ adjoint(U)         # sqrt(1 - a a*)
    W = np.block([[a, -R2], [R1, adjoint(a)]])
    unitary_defect = op_norm(adjoint(W) @ W - np.eye(2 * n))
    if unitary_defect > UNITARITY_ATOL:
        raise ValidationError(f"second factor is not unitary: defect {unitary_defect:.3e}")
    DW = np.vstack([-adjoint(a) @ W[:n], a @ W[n:]])  # diag(-a*, a) W, one block row each
    p0 = np.zeros((2 * n, 2 * n), dtype=complex)
    p0[:n, :n] = np.eye(n)
    return op_norm((_ball_projection(U, s, Vh, r).matrix - p0) - DW)


def horizontal_projection(n: int) -> GraphProjection:
    """Projection onto H (+) 0; the graph of the zero operator."""
    P = np.zeros((2 * n, 2 * n), dtype=complex)
    P[:n, :n] = np.eye(n)
    return GraphProjection(P)


def vertical_projection(n: int) -> GraphProjection:
    """Projection onto 0 (+) H; the graph-limit of unboundedly growing operators."""
    P = np.zeros((2 * n, 2 * n), dtype=complex)
    P[n:, n:] = np.eye(n)
    return GraphProjection(P)


def random_matrix(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Complex Ginibre draw, normalized so the norm is O(scale)."""
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * X / np.sqrt(2.0 * dim)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermOp:
    X = random_matrix(rng, dim, scale)
    return HermOp((X + adjoint(X)) / 2.0)


def identity_suite(dim: int = 16, trials: int = 500, seed: int = 0) -> dict[str, float]:
    """Max deviation of each transform identity over random instances.

    Draws ``trials`` random matrices of dimension 2..dim and exercises every
    displayed identity: the factorizations of graph projection and Cayley
    transform through the bounded transform, the resolvent identity, the
    block factorization, the Lagrangian condition for Hermitian graphs,
    the odd-embedding square, and the transform round trips.
    """
    if dim < 2:
        raise ValidationError(f"identity suite needs dim >= 2, got dim = {dim!r}")
    if trials < 1:
        raise ValidationError(f"identity suite needs trials >= 1, got trials = {trials!r}")
    rng = np.random.default_rng(seed)
    # the pinned 2x2 blocks: the symmetries I and J and the conjugator v_lag between them
    sym_i = np.array([[0, -1j], [1j, 0]])
    grading = np.array([[1, 0], [0, -1]], dtype=complex)
    v_lag = np.array([[-1, 1j], [1, 1j]]) / np.sqrt(2.0)
    dev = {
        "resolvent_vs_ball": 0.0,
        "graph_factorization": 0.0,
        "cayley_factorization": 0.0,
        "fredholm_factorization": 0.0,
        "lagrangian_anticommutator": 0.0,
        "odd_commuting_square": 0.0,
        "cayley_minus_one": 0.0,
        "cayley_plus_one": 0.0,
        "lagrangian_unitary_vs_cayley": 0.0,
        "round_trip": 0.0,
        "conjugator_takes_i_to_j": op_norm(v_lag @ sym_i @ adjoint(v_lag) - grading),
    }

    def bump(key: str, value: float) -> None:
        if value > dev[key]:
            dev[key] = value

    for _ in range(trials):
        d = int(rng.integers(2, dim + 1))
        A = random_matrix(rng, d, scale=2.0)
        a = bounded_transform(A)
        pa = ball_projection(a)
        eye = np.eye(d, dtype=complex)

        resolvent = np.linalg.solve(eye + adjoint(A) @ A, eye)
        bump("resolvent_vs_ball", op_norm(resolvent - (eye - adjoint(a) @ a)))
        bump("graph_factorization", op_norm(graph_projection(A).matrix - pa.matrix))
        bump("fredholm_factorization", fredholm_factor_check(a))
        bump("round_trip", op_norm(inverse_bounded_transform(a) - A))

        Ah = random_hermitian(rng, d, scale=2.0)
        ah = HermOp(bounded_transform(Ah))
        kappa, kt = cayley(Ah), cayley_ball(ah)
        bump("cayley_factorization", op_norm(kappa - kt))
        p_h = graph_projection(Ah)
        bump("lagrangian_anticommutator", lagrangian_defect(p_h))
        bump("lagrangian_unitary_vs_cayley", op_norm(lagrangian_to_unitary(p_h) - kappa))

        w = ah.eigenvalues
        s = _sqrt_clamped(1.0 - w * w)
        lhs1 = np.eye(d) - kt
        rhs1 = spectral_weights(ah, 2.0 * (1.0 - w * w) + 2j * w * s)
        bump("cayley_minus_one", op_norm(lhs1 - rhs1))
        lhs2 = kt + np.eye(d)
        rhs2 = spectral_weights(ah, 2.0 * w * (w - 1j * s))
        bump("cayley_plus_one", op_norm(lhs2 - rhs2))

        bump("odd_commuting_square",
             op_norm(proj_to_unitary(pa) - cayley_ball(odd_embedding(a))))

    return dev
