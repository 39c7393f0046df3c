"""Explicit operator homotopies on a discretized unit-interval function space.

Functions on [0, 1] are represented by cell averages on a uniform grid of n
cells with midpoint nodes.  The shrink and stretch isometries are assembled
by exact integration of their dilation kernels against this cell basis, so
they act to second order on smooth data and reduce to the identity exactly
at their trivial parameter.

A uniform grid cannot carry a genuine isometry onto a shorter subinterval:
any matrix supported on a fraction of the coordinates has a kernel-sized
isometry defect in operator norm.  The meaningful discretization error is
therefore measured against a fixed band of smooth modes; ``isometry_defect``
and friends report that band-limited defect, which decays like C/n, and
``discretization_tolerance`` aggregates it into the single delta(n) that the
homotopy assertions carry.

One builder, ``_isometry``, assembles each isometry as a CSR map.  A row of
the map onto a subinterval of length l has at most ceil(1/l) + 1 nonzeros, so
the contractions, ``completeness_defect`` and ``discretization_tolerance``
apply it sparsely; ``shrink_isometry`` and ``stretch_isometry`` hand out its
dense form.  The band-limited defects are reassociated to act on the smooth
band, never forming an n x n product.

The log retraction reads a unitary's spectrum off its Cayley preimage: off
the branch cut, K = i(1 - u)(1 + u)^-1 is Hermitian with
u = (1 + iK)(1 - iK)^-1, so one Hermitian eigensolve of K gives u's
eigenvectors and, through e^(i phi) = e^(2i arctan mu), its principal
arguments.

The homotopies are paths: ``zk_path(a, b, grid)`` and ``log_path(u)`` check
their operands once (``log_path`` also factors u) and return t -> value, so
evaluating at many t repeats neither.

Injectivity is a smallest singular value compared with a bound, so it goes
through ``linalg.min_singular_ceiling``: a Hermitian operand is first shifted
by a little more than the bound and given one Cholesky factor, which, if it
completes, proves every |eigenvalue| above the bound without an eigensolve.
``zk_injectivity_margin`` passes its running minimum as the bound, so only a
t whose interpolant can lower the minimum is solved for; the reported margin
is still the eigensolve of the same matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BranchCutError, DegeneracyError, ValidationError
from .linalg import (
    HermOp,
    MatrixLike,
    adjoint,
    as_hermop,
    as_matrix,
    func_calc,
    matrix_of,
    min_singular_ceiling,
    op_norm,
    op_norm_floor,
    require_finite,
)
from .transforms import odd_embedding, odd_unitary_defect

SMOOTH_MODES = 12
INJECTIVITY_ATOL = 1e-10
DISCRETIZATION_TS = (0.3, 0.5, 0.7)
MARGIN_TS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
RETRACTION_TS = (0.25, 0.5, 0.75)
UNITARY_INPUT_ATOL = 1e-10  # log_path needs ||u*u - 1|| <= UNITARY_INPUT_ATOL
BRANCH_CUT_ATOL = 1e-8  # log_path needs every eigenvalue of u farther than this from -1


@dataclass(frozen=True)
class GridSpace:
    """Uniform cell grid on [0, 1]: n cells and their midpoint nodes."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("grid needs at least 2 points")
        nodes = (np.arange(self.n) + 0.5) / self.n
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)


def _isometry(start: float, length: float, n: int):
    """The compression onto [start, start + length] as a CSR array.

    f |-> f((s - start)/length)/sqrt(length), cell-averaged: row i integrates
    the cell basis over the preimage of cell i, clipped to [0, 1].
    """
    import scipy.sparse  # ~0.1 s to import on a 2-vCPU host, so it stays off the start-up path

    h = 1.0 / n
    edges = (np.arange(n + 1) * h - start) / length
    lo, hi = np.maximum(edges[:-1], 0.0), np.minimum(edges[1:], 1.0)
    j0 = np.maximum(np.floor(lo / h).astype(int), 0)
    j1 = np.minimum(np.ceil(hi / h).astype(int), n)
    counts = np.where(hi > lo, j1 - j0, 0)
    rows = np.repeat(np.arange(n), counts)
    starts = np.cumsum(counts) - counts  # position of each row's first candidate cell
    cols = j0[rows] + np.arange(rows.size) - starts[rows]
    a = np.maximum(lo[rows], cols * h)
    b = np.minimum(hi[rows], (cols + 1) * h)
    keep = b > a
    vals = (np.sqrt(length) / h) * (b - a)[keep]
    return scipy.sparse.csr_array((vals, (rows[keep], cols[keep])), shape=(n, n))


def _conjugated_pair(t: float, A: np.ndarray, B: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(u_t A u_t*, v_t B v_t*) at an interior t.

    The isometries S are real and sparse and act as M |-> (S (S M)^T)^T, so no
    dense n x n product with them is formed.
    """
    U, W = _isometry(0.0, t, n), _isometry(t, 1.0 - t, n)
    return (U @ (U @ A).T).T, (W @ (W @ B).T).T


def shrink_isometry(t: float, grid: GridSpace) -> np.ndarray:
    """Compression onto [0, t]: f |-> (1/sqrt t) f(s/t), cell-averaged.

    Exact identity at t = 1.  The range projection occupies the cells meeting
    [0, t], so its trace tracks t*n (exactly when 1/t is an integer).  A row
    has at most ceil(1/t) + 1 nonzeros; the contractions apply the same
    map sparsely, not this dense array.
    """
    if not 0.0 < t <= 1.0:
        raise ValidationError(f"shrink parameter must be in (0, 1], got {t}")
    return np.eye(grid.n) if t == 1.0 else _isometry(0.0, t, grid.n).toarray()


def stretch_isometry(t: float, grid: GridSpace) -> np.ndarray:
    """Compression onto [t, 1]: f |-> (1/sqrt(1-t)) f((s-t)/(1-t)), cell-averaged.

    Exact identity at t = 0; mirror image of ``shrink_isometry``, with at
    most ceil(1/(1-t)) + 1 nonzeros a row, applied sparsely by the contractions.
    """
    if not 0.0 <= t < 1.0:
        raise ValidationError(f"stretch parameter must be in [0, 1), got {t}")
    return np.eye(grid.n) if t == 0.0 else _isometry(t, 1.0 - t, grid.n).toarray()


def smooth_band(grid: GridSpace, modes: int = SMOOTH_MODES) -> np.ndarray:
    """Unit-norm columns sin(j pi x), j = 1..modes: the resolvable test family."""
    if modes < 1:
        raise ValidationError(f"smooth band needs modes >= 1, got modes = {modes!r}")
    V = np.stack([np.sin((j + 1) * np.pi * grid.nodes) for j in range(modes)], axis=1)
    return V / np.linalg.norm(V, axis=0)


def isometry_defect(U: np.ndarray, grid: GridSpace, modes: int = SMOOTH_MODES) -> float:
    """Band-limited defect max_j ||(U*U - 1) phi_j||; decays like C/n."""
    U = as_matrix(U)
    if U.shape[0] != grid.n:
        raise ValidationError(f"isometry of dim {U.shape[0]} must live on the grid space of dim {grid.n}")
    V = smooth_band(grid, modes)
    return _band_defect(adjoint(U) @ (U @ V) - V)


def completeness_defect(t: float, grid: GridSpace, modes: int = SMOOTH_MODES) -> float:
    """Band-limited defect of u_t u_t* + v_t v_t* = 1 (complementary ranges).

    Defined for interior t only, and taken on the real CSR maps of ``_isometry``.
    """
    if not 0.0 < t < 1.0:
        raise ValidationError(f"completeness needs t in (0, 1), got {t}")
    U, W = _isometry(0.0, t, grid.n), _isometry(t, 1.0 - t, grid.n)
    return _completeness(U, W, smooth_band(grid, modes))


def _completeness(U, W, V: np.ndarray) -> float:
    """The band defect of u_t u_t* + v_t v_t* = 1 for a built pair."""
    return _band_defect(U @ (U.T @ V) + W @ (W.T @ V) - V)


def _band_defect(R: np.ndarray) -> float:
    """The largest column norm of a residual on the smooth band."""
    return float(np.max(np.linalg.norm(R, axis=0)))


def _require_unit_interval(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"t must be in [0, 1], got {t}")


def _require_injective(name: str, M: MatrixLike) -> None:
    smin = min_singular_ceiling(M, INJECTIVITY_ATOL)
    if smin < INJECTIVITY_ATOL:
        raise DegeneracyError(f"operand {name} is not injective: min singular value {smin:.3e}")


def zk_path(a: MatrixLike, b: MatrixLike, grid: GridSpace) -> Callable[[float], np.ndarray]:
    """t -> t u_t a u_t* + (1-t) v_t b v_t*: contraction of the injective compacts.

    The operands are checked once, when the path is built: both must live on
    the grid space and be injective (min singular value above 1e-10; a
    ``HermOp``'s is its min |eigenvalue|, certified by one Cholesky factor
    where that can decide, an ndarray's comes from an SVD).
    The direct-sum structure of the two ranges keeps the interpolant
    injective up to discretization tolerance.  Endpoints are returned
    bit-for-bit, and the isometries are applied as sparse maps.
    """
    A, B = matrix_of(a), matrix_of(b)
    if A.shape[0] != grid.n or B.shape[0] != grid.n:
        raise ValidationError("operands must live on the grid space")
    _require_injective("a", a)
    _require_injective("b", b)

    def at(t: float) -> np.ndarray:
        _require_unit_interval(t)
        if t == 0.0:
            return A.copy()
        if t == 1.0:
            return B.copy()
        UA, WB = _conjugated_pair(t, A, B, grid.n)
        return t * UA + (1.0 - t) * WB

    return at


def rk_contraction(t: float, A: HermOp, B: HermOp, grid: GridSpace) -> HermOp:
    """(1/t) u_t A u_t* + 1/(1-t) v_t B v_t* on invertible Hermitian inputs.

    The endpoint conventions return A at t = 0 and B at t = 1.  Inverting
    intertwines this with ``zk_path`` of the inverses; the relation is
    exact where the grid aligns with the cut (see ``inversion_consistency``).
    The isometries are applied as sparse maps.
    """
    A, B = as_hermop(A), as_hermop(B)
    if A.dim != grid.n or B.dim != grid.n:
        raise ValidationError("operands must live on the grid space")
    _require_unit_interval(t)
    if t == 0.0:
        return A
    if t == 1.0:
        return B
    _require_injective("A", A)
    _require_injective("B", B)
    UA, WB = _conjugated_pair(t, A.matrix, B.matrix, grid.n)
    return HermOp(UA / t + WB / (1.0 - t))


def inversion_consistency(t: float, A: HermOp, B: HermOp, grid: GridSpace) -> float:
    """|| rk(t,A,B)^(-1) - zk(t, A^(-1), B^(-1)) || at an interior t."""
    A, B = as_hermop(A), as_hermop(B)
    H = rk_contraction(t, A, B, grid)
    Hinv = np.linalg.inv(H.matrix)
    ainv = func_calc(A, lambda x: 1.0 / x)
    binv = func_calc(B, lambda x: 1.0 / x)
    return op_norm(Hinv - zk_path(ainv, binv, grid)(t))


def default_compact_factor(dim: int) -> HermOp:
    """Positive compact-profile factor diag(1/(j+1)) scaled to norm 0.9."""
    return HermOp(np.diag(0.9 / np.arange(1.0, dim + 1.0)))


def compactify_homotopy(t: float, A: HermOp, k: HermOp) -> HermOp:
    """C_t A C_t with C_t = ((1-t) + t k)^(-1): pushes A toward compact resolvent.

    ``k`` must be positive definite with norm < 1; then ||C_t^(-1)|| <= 1 for
    every t, so inverses never grow and spectral gaps around 0 survive the
    deformation.  t = 0 returns A unchanged.
    """
    _require_unit_interval(t)
    A, k = as_hermop(A), as_hermop(k)
    if A.dim != k.dim:
        raise ValidationError(f"dimension mismatch: {A.dim} vs {k.dim}")
    wk = k.eigenvalues
    if float(wk[0]) <= 0.0:
        raise ValidationError(f"k must be positive definite, min eigenvalue {wk[0]!r}")
    if float(wk[-1]) >= 1.0:
        raise ValidationError(f"k must have norm < 1, got {wk[-1]!r}")
    if t == 0.0:
        return A
    C = func_calc(k, lambda lam: 1.0 / ((1.0 - t) + t * lam))
    return HermOp(C @ A.matrix @ C)


def log_path(u: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> exp(t log u) along the principal branch, with u checked and factored once.

    Defined for unitaries (||u*u - 1|| <= UNITARY_INPUT_ATOL) with no
    spectrum within BRANCH_CUT_ATOL of -1 (the branch point); contracts them
    to 1.  Eigenvalue arguments scale linearly in t, endpoints are exact for
    every unitary, and J u J = u* is kept for every t.  The unitarity check
    reads ||u*u - 1||_F first and takes the SVD only when that exceeds the
    tolerance, so a unitary input costs no SVD; a failed check reports the
    SVD norm.

    Off the branch cut 1 + u is invertible and K = i(1 - u)(1 + u)^-1 is
    Hermitian: the inverse Cayley image of u.  K has u's eigenvectors, and
    the eigenvalue e^(i phi) of u becomes mu = tan(phi/2), so one LU solve
    and one Hermitian ``eigh`` give orthonormal eigenvectors and the
    principal arguments 2 arctan(mu).  The distance of the eigenvalue from
    the branch point is |e^(i phi) + 1| = 2/sqrt(1 + mu^2); a singular or
    non-finite solve also puts u on the cut.
    """
    u = as_matrix(u)
    require_finite(u)
    n = u.shape[0]
    eye = np.eye(n)
    defect = op_norm_floor(adjoint(u) @ u - eye, UNITARY_INPUT_ATOL)
    if defect > UNITARY_INPUT_ATOL:
        raise ValidationError(f"input is not unitary: ||u*u - 1|| = {defect:.3e}")
    try:
        K = np.linalg.solve(eye + u, 1j * (eye - u))
    except np.linalg.LinAlgError:  # an exactly zero pivot: -1 is an eigenvalue
        K = None
    on_branch_cut = K is None or not np.all(np.isfinite(K))
    if not on_branch_cut:
        mu, Q = np.linalg.eigh((K + adjoint(K)) / 2.0)
        on_branch_cut = bool(np.any(2.0 / np.hypot(1.0, mu) < BRANCH_CUT_ATOL))
        args = 2.0 * np.arctan(mu)

    def at(t: float) -> np.ndarray:
        _require_unit_interval(t)
        if t == 0.0:
            return np.eye(n, dtype=complex)
        if t == 1.0:
            return u.copy()
        if on_branch_cut:
            raise BranchCutError("unitary has an eigenvalue at the branch point -1")
        return (Q * np.exp(1j * t * args)) @ adjoint(Q)

    return at


def discretization_tolerance(n: int, modes: int = SMOOTH_MODES) -> float:
    """delta(n): worst band-limited defect of the isometry pair at t in DISCRETIZATION_TS.

    The isometry defects are ``isometry_defect``'s, taken on the real CSR
    maps of ``_isometry`` (every t is interior) rather than their dense form.
    """
    V = smooth_band(GridSpace(n), modes)
    worst = 0.0
    for t in DISCRETIZATION_TS:
        U, W = _isometry(0.0, t, n), _isometry(t, 1.0 - t, n)
        worst = max(worst, _band_defect(U.T @ (U @ V) - V), _band_defect(W.T @ (W @ V) - V),
                    _completeness(U, W, V))
    return worst


def compact_injective_sample(
    rng: np.random.Generator, n: int, *, mixed_signs: bool = False
) -> np.ndarray:
    """Random Hermitian with the compact eigenvalue profile 1/(j+1), injective."""
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(X)[0]
    lam = 1.0 / np.arange(1.0, n + 1.0)
    if mixed_signs:
        lam = lam * rng.choice([-1.0, 1.0], size=n)
    return (Q * lam) @ adjoint(Q)


def zk_injectivity_margin(n: int, seed: int = 0) -> float:
    """Smallest singular value of the contraction over t in MARGIN_TS (seeded pair).

    The sampled pair is Hermitian, so each interpolant is wrapped in a
    ``HermOp`` and its smallest singular value is its smallest |eigenvalue|.
    The running minimum is each next t's ceiling: an interpolant certified
    above it by one Cholesky factor cannot lower it and takes no eigensolve.
    """
    rng = np.random.default_rng(seed)
    grid = GridSpace(n)
    a = HermOp(compact_injective_sample(rng, n))
    b = HermOp(compact_injective_sample(rng, n))
    path = zk_path(a, b, grid)
    margin = math.inf
    for t in MARGIN_TS:
        margin = min_singular_ceiling(HermOp(path(t)), margin)
    return margin


def odd_retraction_defect(dim: int, seed: int = 0) -> float:
    """Constraint defect of the log retraction on a seeded odd unitary.

    Builds u = exp(i H) with H an odd-embedded random matrix (so J u J = u*
    exactly and the spectrum stays clear of -1) and returns the worst
    ``odd_unitary_defect`` of the retraction over t in RETRACTION_TS.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValidationError(f"odd unitaries live on a doubled (even-dim) space of dim >= 2, got dim {dim}")

    rng = np.random.default_rng(seed)
    half = dim // 2
    C = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    C *= 2.5 / np.linalg.norm(C, 2)  # keeps spec(H) inside (-pi, pi)
    # H = odd_embedding(C) is a temporary, so its matrix and eigenvectors are freed after func_calc
    path = log_path(func_calc(odd_embedding(C), lambda lam: np.exp(1j * lam)))
    return max(odd_unitary_defect(path(t)) for t in RETRACTION_TS)
