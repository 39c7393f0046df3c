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
The Fredholm residual takes the ball projection it factors from its caller
when the caller holds one: ``identity_suite`` builds and validates each
trial's p_t(a) once and hands it to both the graph and the Fredholm check.
Doubled-space matrices are assembled by ``_blocks``, two levels of
``np.concatenate`` in place of ``np.block``'s per-call layout parsing.

A norm that is only compared with a tolerance (the projection, Lagrangian and
unitarity checks, the running maxima of ``identity_suite``) reads ||X||_F
first and takes the SVD only when that cannot decide (``op_norm_floor``); an
exactly zero residual takes neither.  A reported value, and the message of a
failed check, always takes the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfBallError, ValidationError
from .linalg import (
    HermOp,
    MatrixLike,
    adjoint,
    as_hermop,
    as_matrix,
    func_calc,
    herm_eig,
    matrix_of,
    op_norm,
    op_norm_floor,
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
        idem, herm = P @ P - P, P - adjoint(P)
        if (op_norm_floor(idem, PROJECTION_ATOL) > PROJECTION_ATOL
                or op_norm_floor(herm, PROJECTION_ATOL) > PROJECTION_ATOL):
            raise ValidationError(
                f"not a projection: ||p^2-p|| = {op_norm(idem):.3e}, ||p-p*|| = {op_norm(herm):.3e}"
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


def _blocks(tl: np.ndarray, tr: np.ndarray, bl: np.ndarray, br: np.ndarray) -> np.ndarray:
    """[[tl, tr], [bl, br]]: ``np.block`` of a 2x2 layout without its per-call parsing."""
    return np.concatenate([np.concatenate([tl, tr], axis=1), np.concatenate([bl, br], axis=1)])


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
    P = _blocks(top_left, top_right, adjoint(top_right), bottom_right)
    return GraphProjection(P)


def bounded_transform(A: MatrixLike) -> np.ndarray:
    """A (1 + A*A)^(-1/2) = U diag(s / hypot(1, s)) V*; lands strictly inside the unit ball.

    A general matrix goes through its Hermitian dilation H = [[0, A], [A*, 0]]:
    g(x) = x / hypot(1, x) is odd, so g(H) = [[0, g(A)], [g(A)*, 0]] and one
    eigensolve of H gives the map.  An SVD of A does not: LAPACK's bidiagonal
    iteration deflates at a relative tolerance of about 100 u, and on a 3x3
    input near rank one its U diag(s) V* misses A by 96 u ||A||.
    """
    if isinstance(A, HermOp):
        w, _ = herm_eig(A)
        return spectral_weights(A, w / np.hypot(1.0, w))
    A = as_matrix(A)
    require_finite(A)
    n = A.shape[0]
    zero = np.zeros_like(A)
    w, Q = np.linalg.eigh(_blocks(zero, A, adjoint(A), zero))
    return (Q[:n] * (w / np.hypot(1.0, w))) @ adjoint(Q[n:])


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
        P = _blocks(F, G, G, H)
        return GraphProjection(P)
    A = as_matrix(A)
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    S = eye + adjoint(A) @ A
    p11, p12 = np.hsplit(np.linalg.solve(S, np.hstack([eye, adjoint(A)])), 2)  # one factor of S
    p22 = eye - np.linalg.solve(eye + A @ adjoint(A), eye)
    P = _blocks(p11, p12, adjoint(p12), p22)
    return GraphProjection(P)


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
    op = as_hermop(a)
    w, _ = herm_eig(op)
    _require_ball(np.max(np.abs(w), initial=0.0))
    s = _sqrt_clamped(1.0 - w * w)
    return spectral_weights(op, (w - 1j * s) ** 2)


def _lagrangian_residual(p: GraphProjection) -> np.ndarray:
    """I(2p-1) + (2p-1)I; zero exactly on Lagrangian projections."""
    h, r = p.half, 2.0 * p.matrix - np.eye(p.dim)
    # I = [[0, -i], [i, 0]] swaps and scales block rows from the left, block columns from the right
    ir = np.concatenate([-1j * r[h:], 1j * r[:h]])
    ri = np.concatenate([1j * r[:, h:], -1j * r[:, :h]], axis=1)
    return ir + ri


def lagrangian_defect(p: GraphProjection) -> float:
    """Norm of I(2p-1) + (2p-1)I; zero exactly on Lagrangian projections."""
    return op_norm(_lagrangian_residual(p))


def lagrangian_to_unitary(p: GraphProjection) -> np.ndarray:
    """Half-dimensional unitary of a Lagrangian projection.

    Conjugating by the pinned ``v_lag`` moves the projection from the
    symplectic symmetry to the grading, where its symmetry 2p-1 is an
    off-diagonal block matrix; the lower-left block, p22 - p11 - i(p12 + p21),
    is the unitary.  Sends the vertical projection to +1 and the horizontal
    one to -1, and on graph projections of Hermitian operators it reproduces
    the Cayley transform.
    """
    residual = _lagrangian_residual(p)
    if residual.any():  # an exactly Lagrangian p, a zero residual, needs no norm
        defect = op_norm_floor(residual, LAGRANGIAN_ATOL)
        if defect > LAGRANGIAN_ATOL:
            raise ValidationError(f"projection is not Lagrangian: anticommutator norm "
                                  f"{defect:.3e} > {LAGRANGIAN_ATOL:g}")
    h, P = p.half, p.matrix
    return P[h:, h:] - P[:h, :h] - 1j * (P[:h, h:] + P[h:, :h])


def odd_embedding(A: MatrixLike) -> HermOp:
    """[[0, A*], [A, 0]]: the Hermitian doubling that anticommutes with the grading."""
    A = matrix_of(A)
    n = A.shape[0]
    zero = np.zeros((n, n), dtype=complex)
    return HermOp(_blocks(zero, adjoint(A), A, zero))


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
    """Norm of X = J u J - u* on the doubled space (zero on the odd unitaries).

    J X = u J - J u* is anti-Hermitian in floating point too, for every
    square u: J only flips signs, so each entry is minus the conjugate of
    its mirror.  Hence ||X|| = ||J X|| is the spectral radius of the
    Hermitian i J X, read off one values-only ``eigvalsh`` in place of an SVD.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if n == 0 or n % 2:
        raise ValidationError(f"odd unitaries live on a doubled (even-dim) space, got dim {n}")
    require_finite(u)
    g = np.repeat([1.0, -1.0], n // 2)
    w = np.linalg.eigvalsh(1j * (u * g - g[:, None] * adjoint(u)))
    return float(max(-w[0], w[-1]))


def fredholm_factor_check(a: MatrixLike) -> float:
    """Deviation of the block factorization of (ball projection - horizontal).

    Builds the displayed factorization diag(-a*, a) . W and returns
    ``|| (pt(a) - p0) - diag(-a*, a) W ||``; raises if the second factor W
    fails to be unitary to UNITARITY_ATOL.
    """
    svd = _ball_svd(matrix_of(a))
    return op_norm(_fredholm_residual(svd, _ball_projection(*svd)))


def _fredholm_residual(svd: tuple[np.ndarray, ...], pa: GraphProjection) -> np.ndarray:
    """(pt(a) - p0) - diag(-a*, a) W, after checking W unitary; see ``fredholm_factor_check``.

    ``svd`` is ``_ball_svd(a)``, which gives W's blocks, and ``pa`` the
    projection built from it.
    """
    U, s, Vh, r = svd
    n, a = s.size, (U * s) @ Vh       # a snapped to the ball, as the projection sees it
    R1 = (adjoint(Vh) * r) @ Vh       # sqrt(1 - a*a)
    R2 = (U * r) @ adjoint(U)         # sqrt(1 - a a*)
    W = _blocks(a, -R2, R1, adjoint(a))
    unitary_defect = op_norm_floor(adjoint(W) @ W - np.eye(2 * n), UNITARITY_ATOL)
    if unitary_defect > UNITARITY_ATOL:
        raise ValidationError(f"second factor is not unitary: defect {unitary_defect:.3e}")
    DW = np.vstack([-adjoint(a) @ W[:n], a @ W[n:]])  # diag(-a*, a) W, one block row each
    p0 = np.zeros((2 * n, 2 * n), dtype=complex)
    p0[:n, :n] = np.eye(n)
    return (pa.matrix - p0) - DW


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
    the odd-embedding square, and the transform round trips, each named once
    as a key of the trial's residual table (the conjugator taking I to J needs
    no trial).  Each running maximum starts at 0.0, reads ||X||_F first and
    takes the SVD only when that exceeds the maximum so far (``op_norm_floor``);
    an exactly zero residual is skipped, so the maxima are SVD norms throughout.
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
    dev = {"conjugator_takes_i_to_j": op_norm(v_lag @ sym_i @ adjoint(v_lag) - grading)}

    for _ in range(trials):
        d = int(rng.integers(2, dim + 1))
        A = random_matrix(rng, d, scale=2.0)
        a = bounded_transform(A)
        svd = _ball_svd(a)
        pa = _ball_projection(*svd)
        eye = np.eye(d, dtype=complex)

        residuals = {
            "resolvent_vs_ball": np.linalg.solve(eye + adjoint(A) @ A, eye) - (eye - adjoint(a) @ a),
            "graph_factorization": graph_projection(A).matrix - pa.matrix,
            "fredholm_factorization": _fredholm_residual(svd, pa),
            "round_trip": inverse_bounded_transform(a) - A,
        }

        Ah = random_hermitian(rng, d, scale=2.0)
        ah = HermOp(bounded_transform(Ah))
        kappa, kt = cayley(Ah), cayley_ball(ah)
        p_h = graph_projection(Ah)
        residuals["cayley_factorization"] = kappa - kt
        residuals["lagrangian_anticommutator"] = _lagrangian_residual(p_h)
        residuals["lagrangian_unitary_vs_cayley"] = lagrangian_to_unitary(p_h) - kappa

        w = ah.eigenvalues
        s = _sqrt_clamped(1.0 - w * w)
        lhs1 = np.eye(d) - kt
        rhs1 = spectral_weights(ah, 2.0 * (1.0 - w * w) + 2j * w * s)
        residuals["cayley_minus_one"] = lhs1 - rhs1
        lhs2 = kt + np.eye(d)
        rhs2 = spectral_weights(ah, 2.0 * w * (w - 1j * s))
        residuals["cayley_plus_one"] = lhs2 - rhs2
        residuals["odd_commuting_square"] = proj_to_unitary(pa) - cayley_ball(odd_embedding(a))

        for key, X in residuals.items():
            dev.setdefault(key, 0.0)
            if X.any():  # a zero residual leaves the maximum as it is, without an SVD
                dev[key] = op_norm_floor(X, dev[key])

    return dev
