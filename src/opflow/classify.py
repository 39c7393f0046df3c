"""Spectral predicates and decompositions.

Window projections, membership in the coverings indexed by symmetric point
sets, the finite/infinite splitting along a window, and the Cayley-controlled
surgery that swaps everything outside a window for a prescribed block.

Finite matrices have no essential spectrum, so the covering predicate
implements only the point-spectrum clause; the essential-spectrum clause of
the infinite-dimensional definition is vacuous here and intentionally omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundaryCollisionError,
    NotInCoveringError,
    SurgeryViolationError,
    ValidationError,
)
from .linalg import HermOp, adjoint, as_hermop, herm_eig, op_norm
from .transforms import cayley

DEFAULT_GAP = 1e-6
MEMBERSHIP_GAP = 1e-9
BOUNDARY_ATOL = 1e-9
# surgery trials draw c above sqrt(16/eps^2 - 1), a positive half-width only for eps < 4
EPS_MAX = 4.0


@dataclass(frozen=True)
class SymmetricTuple:
    """A finite, non-empty, strictly ascending set of reals symmetric about 0."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValidationError("point set must be non-empty")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("points must be strictly ascending")
        if set(pts) != {-p for p in pts}:
            raise ValidationError("points must be symmetric about zero")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_positive(cls, positive: Iterable[float], include_zero: bool = False) -> "SymmetricTuple":
        pos = sorted(float(p) for p in positive)
        if any(p <= 0 for p in pos):
            raise ValidationError("from_positive expects strictly positive points")
        pts = [-p for p in reversed(pos)] + ([0.0] if include_zero else []) + pos
        return cls(tuple(pts))

    def union(self, other: "SymmetricTuple") -> "SymmetricTuple":
        return SymmetricTuple(tuple(sorted(set(self.points) | set(other.points))))

    @property
    def hull(self) -> tuple[float, float]:
        return self.points[0], self.points[-1]


def _window(A: HermOp, lo: float, hi: float, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs of A and the mask of those inside (lo, hi), checked clear of both edges."""
    if not lo <= hi:  # also catches a NaN edge
        raise ValidationError(f"empty window [{lo}, {hi}]")
    w, V = herm_eig(A)
    near = np.minimum(np.abs(w - lo), np.abs(w - hi))
    if np.any(near < tol):
        lam = w[int(np.argmin(near))]
        raise BoundaryCollisionError(
            f"eigenvalue {lam!r} within {tol:g} of window edge [{lo}, {hi}]"
        )
    return w, V, (w > lo) & (w < hi)


def window_projection(A: HermOp, lo: float, hi: float, *, tol: float = BOUNDARY_ATOL) -> np.ndarray:
    """Spectral projection of A onto the window [lo, hi].

    Eigenvalues within ``tol`` of either edge make the projection
    ill-conditioned and raise a boundary-collision error instead of being
    silently included or dropped.
    """
    _, V, inside = _window(A, lo, hi, tol)
    V = V[:, inside]
    P = V @ adjoint(V)
    return (P + adjoint(P)) / 2.0


def covering_membership(A: HermOp, tau: SymmetricTuple, gap: float = DEFAULT_GAP) -> bool:
    """True iff every point of tau is at distance >= gap from the spectrum."""
    if not gap > 0:
        raise ValidationError(f"gap must be positive, got gap = {gap!r}")
    w = as_hermop(A).eigenvalues
    pts = np.asarray(tau.points)
    dist = np.min(np.abs(w[:, None] - pts[None, :]))
    return bool(dist >= gap)


@dataclass(frozen=True)
class SplitOperator:
    """Finite/infinite decomposition of an operator along a window.

    ``finite_part`` acts on the span of ``window_basis`` (eigenvalues inside
    the hull), ``infinite_part`` on the span of ``complement_basis``; both are
    expressed in those bases, ordered by ascending eigenvalue.
    """

    window_basis: np.ndarray
    complement_basis: np.ndarray
    finite_part: HermOp
    infinite_part: HermOp

    def reassemble(self) -> np.ndarray:
        V, W = self.window_basis, self.complement_basis
        return (V @ self.finite_part.matrix @ adjoint(V)
                + W @ self.infinite_part.matrix @ adjoint(W))


def split_finite_infinite(A: HermOp, tau: SymmetricTuple) -> SplitOperator:
    """Split A into its part inside hull(tau) and the complement part."""
    A = as_hermop(A)
    w, V = herm_eig(A)  # before the membership test, so one solve fills both caches
    if not covering_membership(A, tau, MEMBERSHIP_GAP):
        raise NotInCoveringError(
            f"spectrum meets the point set {tau.points} within gap {MEMBERSHIP_GAP:g}"
        )
    lo, hi = tau.hull
    inside = (w > lo) & (w < hi)
    Vin, Vout = V[:, inside], V[:, ~inside]
    finite = HermOp(adjoint(Vin) @ A.matrix @ Vin)
    infinite = HermOp(adjoint(Vout) @ A.matrix @ Vout)
    return SplitOperator(Vin, Vout, finite, infinite)


def density_surgery(A: HermOp, c: float, B: HermOp) -> HermOp:
    """Replace A outside the window [-c, c] by the block B.

    B is given in the complement eigenbasis of A (columns ordered by ascending
    eigenvalue) and must have spectrum disjoint from [-c, c].  The result
    agrees with A on the window subspace; because the Cayley transform maps
    the complement of [-c, c] into a small arc around 1, the Cayley images of
    input and output are uniformly close once c is large.
    """
    if not c > 0:
        raise ValidationError(f"window half-width c must be positive, got c = {c!r}")
    A = as_hermop(A)
    B = as_hermop(B)
    w, V, inside = _window(A, -c, c, BOUNDARY_ATOL)  # eigenvalues at +-c make the split ambiguous
    Vin, Vout = V[:, inside], V[:, ~inside]
    k = Vout.shape[1]
    if B.dim != k:
        raise ValidationError(
            f"replacement block has dim {B.dim}, complement has dim {k}"
        )
    if k and float(np.min(np.abs(B.eigenvalues))) <= c:
        raise SurgeryViolationError(
            f"replacement spectrum enters [-{c}, {c}]: closest eigenvalue "
            f"{B.eigenvalues[int(np.argmin(np.abs(B.eigenvalues)))]!r}"
        )
    out = Vin @ (w[inside][:, None] * adjoint(Vin)) + Vout @ B.matrix @ adjoint(Vout)
    return HermOp((out + adjoint(out)) / 2.0)


def cayley_arc_radius(c: float) -> float:
    """|cayley(c) - 1|: how far the arc image of R \\ [-c, c] strays from 1."""
    return float(abs((c - 1j) / (c + 1j) - 1.0))


def surgery_bound_trials(
    eps_values: Sequence[float],
    instances: int = 100,
    seed: int = 0,
) -> list[dict]:
    """Random surgery instances with the Cayley deviation and its bound.

    For each instance, the dimension is drawn from 4 to 12 and c so that
    ``|cayley(c) - 1| < eps/2``, and the replacement block keeps its spectrum
    outside [-c, c]; the recorded deviation ``||cayley(A') - cayley(A)||``
    must then stay below eps.  Each eps must lie in (0, 4), where such a c is
    positive.
    """
    rng = np.random.default_rng(seed)
    records = []
    for eps in eps_values:
        if not 0.0 < eps < EPS_MAX:
            raise ValidationError(f"eps must lie in (0, {EPS_MAX:g}), got eps = {eps!r}")
        c_min = np.sqrt(max(16.0 / eps**2 - 1.0, 0.0))
        for i in range(instances):
            d = int(rng.integers(4, 13))
            c = float(c_min * rng.uniform(1.01, 2.0))
            n_in = int(rng.integers(1, d))
            lam_in = rng.uniform(-0.9 * c, 0.9 * c, size=n_in)
            n_out = d - n_in
            signs = rng.choice([-1.0, 1.0], size=n_out)
            lam_out = signs * c * rng.uniform(1.05, 4.0, size=n_out)
            Q = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
            A = HermOp(Q @ np.diag(np.concatenate([lam_in, lam_out])) @ adjoint(Q))
            sb = rng.choice([-1.0, 1.0], size=n_out)
            B = HermOp(np.diag(sb * c * rng.uniform(1.05, 4.0, size=n_out)))
            A2 = density_surgery(A, c, B)
            deviation = op_norm(cayley(A2) - cayley(A))
            records.append({
                "eps": float(eps),
                "instance": i,
                "dim": d,
                "c": c,
                "arc_radius": cayley_arc_radius(c),
                "deviation": deviation,
                "holds": bool(deviation < eps),
            })
    return records
