"""Maps between matrices, the operator unit ball, graph projections, and unitaries.

All maps are total on their stated domains and carry their algebraic
identities as checkable deviations (see ``identity_suite``).  The doubled
space has the block layout ``[[upper-left, upper-right], [lower-left,
lower-right]]`` with the first block row/column indexing the original space.

A note on domains: in the matrix setting every operator is bounded, so the
classical dense-range condition on ``1 - a*a`` collapses to invertibility.
The inverse transform therefore requires a *strict* contraction, and the
strictness tolerance (1e-8) is part of its contract.
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


class Symplectics:
    """The fixed block symmetries and conjugators of the doubled space, as dense matrices.

    ``sym_i`` and ``grading`` are the two symmetries; ``v_lag`` conjugates the
    first to the second; ``v_odd`` squares to the grading.  All four are the
    pinned 2x2 block representatives tensored with the identity.  This is the
    dense reference only: the transforms apply the 2x2 blocks directly.
    """

    def __init__(self, half_dim: int):
        if half_dim < 1:
            raise ValidationError("half_dim must be positive")
        eye = np.eye(half_dim, dtype=complex)
        self.sym_i = np.kron([[0, -1j], [1j, 0]], eye)
        self.grading = np.kron([[1, 0], [0, -1]], eye)
        self.v_lag = np.kron(np.array([[-1, 1j], [1, 1j]]) / np.sqrt(2.0), eye)
        self.v_odd = np.kron([[1, 0], [0, 1j]], eye)
        for M in (self.sym_i, self.grading, self.v_lag, self.v_odd):
            M.setflags(write=False)


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


def _require_ball(a: np.ndarray, atol: float = BALL_ATOL) -> float:
    norm = op_norm(a)
    if norm > 1.0 + atol:
        raise OutOfBallError(f"operator norm {norm:.12g} exceeds 1 (tol {atol:g})")
    return norm


def bounded_transform(A: MatrixLike) -> np.ndarray:
    """A (1 + A*A)^(-1/2); lands strictly inside the unit ball."""
    if isinstance(A, HermOp):
        w, _ = herm_eig(A)
        return spectral_weights(A, w / np.sqrt(1.0 + w * w))
    A = as_matrix(A)
    require_finite(A)
    w, V = np.linalg.eigh(adjoint(A) @ A)
    inv_sqrt = (V / np.sqrt(1.0 + np.clip(w, 0.0, None))) @ adjoint(V)
    return A @ inv_sqrt


def inverse_bounded_transform(a: MatrixLike) -> np.ndarray:
    """a (1 - a*a)^(-1/2); defined for strict contractions only."""
    a = matrix_of(a)
    norm = op_norm(a)
    if norm >= 1.0 - 1e-8:
        raise OutOfBallError(
            f"inverse transform needs a strict contraction; operator norm is {norm:.12g}"
        )
    w, V = np.linalg.eigh(adjoint(a) @ a)
    inv_sqrt = (V / np.sqrt(np.clip(1.0 - w, 1e-300, None))) @ adjoint(V)
    return a @ inv_sqrt


def graph_projection(A: MatrixLike) -> GraphProjection:
    """Orthogonal projection onto the graph of A inside H (+) H.

    Hermitian input (as ``HermOp``) takes a spectral route that stays accurate
    for large operator norms; general matrices go through linear solves.
    """
    if isinstance(A, HermOp):
        w, _ = herm_eig(A)
        f = 1.0 / (1.0 + w * w)
        F = spectral_weights(A, f)
        G = spectral_weights(A, w * f)
        H = np.eye(A.dim, dtype=complex) - F
        P = np.block([[F, G], [G, H]])
        return GraphProjection((P + adjoint(P)) / 2.0)
    A = as_matrix(A)
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    S = eye + adjoint(A) @ A
    T = eye + A @ adjoint(A)
    p11 = np.linalg.solve(S, eye)
    p12 = np.linalg.solve(S, adjoint(A))
    p22 = eye - np.linalg.solve(T, eye)
    P = np.block([[p11, p12], [adjoint(p12), p22]])
    return GraphProjection((P + adjoint(P)) / 2.0)


def ball_projection(a: MatrixLike) -> GraphProjection:
    """Continuous extension of the graph projection to the closed unit ball."""
    a = matrix_of(a)
    _require_ball(a)
    # one SVD feeds every block, so the intertwining identities (and hence
    # idempotency) hold to machine precision even on the unit sphere
    U, s, Vh = np.linalg.svd(a)
    V = adjoint(Vh)
    r = _sqrt_clamped(1.0 - s * s)
    top_left = (V * (1.0 - s * s)) @ Vh
    top_right = (V * (r * s)) @ adjoint(U)
    bottom_right = (U * (s * s)) @ adjoint(U)
    P = np.block([[top_left, top_right], [adjoint(top_right), bottom_right]])
    return GraphProjection((P + adjoint(P)) / 2.0)


def cayley(A: MatrixLike) -> np.ndarray:
    """(A - i)(A + i)^(-1) for Hermitian A; always unitary."""
    return func_calc(A, lambda lam: (lam - 1j) / (lam + 1j))


def cayley_ball(a: MatrixLike) -> np.ndarray:
    """(a - i sqrt(1 - a^2))^2 on Hermitian contractions.

    Factors the Cayley transform through the bounded transform and extends it
    continuously to the whole closed ball of Hermitian operators.
    """
    op = a if isinstance(a, HermOp) else HermOp(a)
    _require_ball(op.matrix)
    w, _ = herm_eig(op)
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
    fails to be unitary to 1e-10.
    """
    a = matrix_of(a)
    _require_ball(a)
    n = a.shape[0]
    U, s, Vh = np.linalg.svd(a)
    r = _sqrt_clamped(1.0 - s * s)
    R1 = (adjoint(Vh) * r) @ Vh       # sqrt(1 - a*a)
    R2 = (U * r) @ adjoint(U)         # sqrt(1 - a a*)
    W = np.block([[a, -R2], [R1, adjoint(a)]])
    unitary_defect = op_norm(adjoint(W) @ W - np.eye(2 * n))
    if unitary_defect > 1e-10:
        raise ValidationError(f"second factor is not unitary: defect {unitary_defect:.3e}")
    DW = np.vstack([-adjoint(a) @ W[:n], a @ W[n:]])  # diag(-a*, a) W, one block row each
    p0 = np.zeros((2 * n, 2 * n), dtype=complex)
    p0[:n, :n] = np.eye(n)
    return op_norm((ball_projection(a).matrix - p0) - DW)


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
    rng = np.random.default_rng(seed)
    sp2 = Symplectics(1)
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
        "conjugator_takes_i_to_j": op_norm(
            sp2.v_lag @ sp2.sym_i @ adjoint(sp2.v_lag) - sp2.grading
        ),
    }

    def bump(key: str, value: float) -> None:
        if value > dev[key]:
            dev[key] = value

    for _ in range(trials):
        d = int(rng.integers(2, dim + 1))
        A = random_matrix(rng, d, scale=2.0)
        a = bounded_transform(A)
        eye = np.eye(d, dtype=complex)

        resolvent = np.linalg.solve(eye + adjoint(A) @ A, eye)
        bump("resolvent_vs_ball", op_norm(resolvent - (eye - adjoint(a) @ a)))
        bump("graph_factorization",
             op_norm(graph_projection(A).matrix - ball_projection(a).matrix))
        bump("fredholm_factorization", fredholm_factor_check(a))
        bump("round_trip", op_norm(inverse_bounded_transform(a) - A))

        Ah = random_hermitian(rng, d, scale=2.0)
        ah = HermOp(bounded_transform(Ah))
        bump("cayley_factorization", op_norm(cayley(Ah) - cayley_ball(ah)))
        p_h = graph_projection(Ah)
        bump("lagrangian_anticommutator", lagrangian_defect(p_h))
        bump("lagrangian_unitary_vs_cayley",
             op_norm(lagrangian_to_unitary(p_h) - cayley(Ah)))

        w = ah.eigenvalues
        s = _sqrt_clamped(1.0 - w * w)
        kt = cayley_ball(ah)
        lhs1 = np.eye(d) - kt
        rhs1 = spectral_weights(ah, 2.0 * (1.0 - w * w) + 2j * w * s)
        bump("cayley_minus_one", op_norm(lhs1 - rhs1))
        lhs2 = kt + np.eye(d)
        rhs2 = spectral_weights(ah, 2.0 * w * (w - 1j * s))
        bump("cayley_plus_one", op_norm(lhs2 - rhs2))

        bump("odd_commuting_square",
             op_norm(proj_to_unitary(ball_projection(a)) - cayley_ball(odd_embedding(a))))

    return dev
