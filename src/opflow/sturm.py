"""Second-derivative boundary family on [0, 1] with a projective Robin parameter.

The operator is -d^2/dt^2 with a Dirichlet condition at t = 0 and the
boundary condition ``x0 psi(1) - x1 psi'(1) = 0`` at t = 1, parametrized by
a point [x0 : x1] of the real projective line.  [1:0] is Dirichlet at both
ends, [0:1] is Dirichlet-Neumann, everything else is a Robin condition.

Discretization: second-order central differences on nodes t_i = i/n
(i = 1..n, node n at t = 1), ghost-point elimination of the boundary
condition, and a half-weight last cell restored to a standard symmetric
eigenproblem by a diagonal similarity.  With this scheme the discrete
eigenfunctions are exactly sin(mu t_i) / sinh(mu t_i) with mu solving the
grid-perturbed secular equations, so eigenvalues converge at second order
uniformly over the parameter circle, and for [1:1] the linear function t is
an exact discrete null vector.  The Dirichlet point [1:0] cannot be reached
by ghost elimination (the elimination coefficient diverges); it is assembled
as the standard n-point Dirichlet matrix on the shifted grid i/(n+1).

The independent oracle solves the secular equations by bracketed bisection:
negative eigenvalues from  x0 sinh(mu) = x1 mu cosh(mu), lambda = -mu^2;
positive eigenvalues from  x0 sin(mu) = x1 mu cos(mu),  lambda = mu^2;
and lambda = 0 exactly at [1:1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import HermOp
from .metrics import gap_dist

SCHEME_GHOST = "central2+ghost-point"
SCHEME_DIRICHLET = "central2+dirichlet"
MIN_GRID = 16
BISECTION_RTOL = 1e-12


@dataclass(frozen=True)
class ProjectivePoint:
    """A point [x0 : x1] of the projective line, in sign-normalized form.

    Normalization: x0^2 + x1^2 = 1 with x0 > 0, or (x0, x1) = (0, 1).
    """

    x0: float
    x1: float

    def __post_init__(self):
        r = math.hypot(self.x0, self.x1)
        if r == 0.0 or not math.isfinite(r):
            raise ValidationError("projective point needs a finite nonzero representative")
        x0, x1 = self.x0 / r, self.x1 / r
        if x0 < 0.0 or (x0 == 0.0 and x1 < 0.0):
            x0, x1 = -x0, -x1
        if abs(x0) < 1e-15:
            x0, x1 = 0.0, 1.0
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    @classmethod
    def from_angle(cls, theta: float) -> "ProjectivePoint":
        return cls(math.cos(theta), math.sin(theta))

    @property
    def theta(self) -> float:
        """Representative angle in [0, pi)."""
        t = math.atan2(self.x1, self.x0)
        return t if t >= 0.0 else t + math.pi

    @property
    def is_dirichlet(self) -> bool:
        return self.x1 == 0.0


@dataclass(frozen=True)
class RobinOperator:
    """Assembled boundary-value matrix plus its grid geometry."""

    parameter: ProjectivePoint
    grid_n: int
    matrix: HermOp
    scheme: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def eigenfunction(self, k: int) -> np.ndarray:
        """Values of the k-th eigenfunction on ``nodes``, unit weighted L2 norm."""
        V = self.matrix.eigenvector(k).real.copy()
        if self.scheme == SCHEME_GHOST:
            V[-1] *= math.sqrt(2.0)  # undo the half-cell similarity
        V /= math.sqrt(float(np.sum(self.weights * V * V)))
        return V


def assemble_robin_operator(x: ProjectivePoint, n: int) -> RobinOperator:
    """Finite-difference operator of the boundary family at parameter x, as tridiagonal bands."""
    if n < MIN_GRID:
        raise ValidationError(f"grid must have at least {MIN_GRID} points, got {n}")
    h = 1.0 / (n + 1) if x.is_dirichlet else 1.0 / n
    d = np.full(n, 2.0 / h**2)
    e = np.full(n - 1, -1.0 / h**2)
    nodes = h * np.arange(1, n + 1)
    weights = np.full(n, h)
    if x.is_dirichlet:
        return RobinOperator(x, n, HermOp.tridiagonal(d, e), SCHEME_DIRICHLET, nodes, weights)
    d[-1] = 2.0 / h**2 - 2.0 * (x.x0 / x.x1) / h
    e[-1] = -math.sqrt(2.0) / h**2
    weights[-1] = h / 2.0
    return RobinOperator(x, n, HermOp.tridiagonal(d, e), SCHEME_GHOST, nodes, weights)


def _bisect(f, lo: float, hi: float) -> float:
    """Bracketed bisection to relative tolerance BISECTION_RTOL in mu."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0.0:
        raise ValidationError(f"bisection bracket [{lo}, {hi}] does not change sign")
    while hi - lo > BISECTION_RTOL * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def negative_eigenvalue_root(x: ProjectivePoint) -> float | None:
    """Root mu > 0 of x0 sinh(mu) = x1 mu cosh(mu), or None.

    A root exists exactly for parameters [1 : s] with s in (0, 1); it gives
    the single negative eigenvalue lambda = -mu^2 and diverges as s -> 0+.
    """
    if not (x.x0 > 0.0 and 0.0 < x.x1 < x.x0):
        return None

    def f(mu: float) -> float:
        return x.x0 * math.tanh(mu) - x.x1 * mu

    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - unreachable for valid parameters
            return None
    return _bisect(f, 1e-12, hi)


def positive_eigenvalue_roots(x: ProjectivePoint, count: int) -> list[float]:
    """First ``count`` roots mu > 0 of x0 sin(mu) = x1 mu cos(mu), ascending."""
    if x.x1 == 0.0:
        return [k * math.pi for k in range(1, count + 1)]
    if x.x0 == 0.0:
        return [(k + 0.5) * math.pi for k in range(count)]

    def g(mu: float) -> float:
        return x.x0 * math.sin(mu) - x.x1 * mu * math.cos(mu)

    roots: list[float] = []
    if x.x1 > x.x0 > 0.0:
        # one root below pi/2 for parameters beyond [1:1]
        roots.append(_bisect(g, 1e-9, 0.5 * math.pi - 1e-12))
    k = 1
    while len(roots) < count:
        if x.x1 > 0.0:
            lo, hi = k * math.pi + 1e-12, (k + 0.5) * math.pi - 1e-12
        else:
            lo, hi = (k - 0.5) * math.pi + 1e-12, k * math.pi - 1e-12
        if g(lo) * g(hi) < 0.0:
            roots.append(_bisect(g, lo, hi))
        k += 1
    return roots[:count]


def analytic_eigenvalues(x: ProjectivePoint, count: int) -> list[float]:
    """The lowest ``count`` eigenvalues from the transcendental oracle."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    out: list[float] = []
    mu = negative_eigenvalue_root(x)
    if mu is not None:
        out.append(-mu * mu)
    if x.x0 > 0.0 and abs(x.x0 - x.x1) < 1e-14:
        out.append(0.0)
    out.extend(mu * mu for mu in positive_eigenvalue_roots(x, count))
    return sorted(out)[:count]


def spectral_graph(
    loop_samples: int,
    n: int,
    window: float = 50.0,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Windowed eigenvalues of the family over theta_j = j pi / loop_samples.

    Returns one record (theta, indices, values) per sample, where ``indices``
    are positions in the full ascending spectrum and ``values`` the
    eigenvalues inside [-window, window].
    """
    if loop_samples < 16:
        raise ValidationError(f"need at least 16 loop samples, got {loop_samples}")
    if window <= 0:
        raise ValidationError("window must be positive")
    thetas = [j * math.pi / loop_samples for j in range(loop_samples)]

    def solve(theta: float) -> tuple[float, np.ndarray, np.ndarray]:
        op = assemble_robin_operator(ProjectivePoint.from_angle(theta), n)
        first, values = op.matrix.spectrum(-window, window)
        return theta, first + np.arange(values.size), values

    return [solve(theta) for theta in thetas]


def eigenfunction_concentration(
    x: ProjectivePoint, n: int, delta: float = 0.1
) -> tuple[float, float]:
    """Decay rate and left-mass of the negative-eigenvalue eigenfunction.

    Returns mu = sqrt(-lambda_min) and the weighted L2 mass on [0, 1 - delta]
    of the normalized lowest eigenfunction.  As the parameter approaches the
    Dirichlet point, mu grows and the mass drains toward the right endpoint
    (the profile approaches sqrt(2 mu) exp(mu (t - 1))).  Only the lowest
    eigenpair is solved for, not the whole banded spectrum.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"delta must lie in [0, 1], got delta = {delta!r}")
    op = assemble_robin_operator(x, n)
    lam = op.matrix.lowest_eigenvalue()
    if lam >= 0.0:
        raise DomainError(f"no negative eigenvalue at parameter ({x.x0}, {x.x1}); lowest is {lam!r}")
    psi = op.eigenfunction(0)
    left = op.nodes <= 1.0 - delta
    mass_left = float(np.sum(op.weights[left] * psi[left] ** 2))
    return math.sqrt(-lam), mass_left


def dichotomy_row(x1: float, n: int) -> tuple[float, float]:
    """Certified transform-distance lower bound and graph distance to Dirichlet.

    The lower bound is max(0, -min eig of the bounded transform at [1:x1]),
    valid because the Dirichlet comparison operator is verified positive, so
    sorted-eigenvalue pairing already forces the transform distance above it.
    Both lowest eigenvalues come from index-selected bisection (``stebz``), not
    a full spectrum.  The graph distance is the resolvent distance
    ||(A + i)^-1 - (B + i)^-1|| = 1/2 ||kappa(A) - kappa(B)||; both operators
    are banded, so it runs matrix-free by Lanczos on one tridiagonal factor
    each (see ``metrics``).
    """
    robin = assemble_robin_operator(ProjectivePoint(1.0, x1), n)
    dirichlet = assemble_robin_operator(ProjectivePoint(1.0, 0.0), n)
    if dirichlet.matrix.lowest_eigenvalue() <= 0.0:  # pragma: no cover
        raise ValidationError("Dirichlet comparison operator is not positive")
    lam0 = robin.matrix.lowest_eigenvalue()
    riesz_lower = max(0.0, -lam0 / math.sqrt(1.0 + lam0 * lam0))
    return riesz_lower, gap_dist(robin.matrix, dirichlet.matrix)


def robin_generator(n: int):
    """theta -> assembled operator matrix, periodic over the projective line."""

    def gen(theta: float) -> HermOp:
        return assemble_robin_operator(
            ProjectivePoint.from_angle(theta % math.pi), n
        ).matrix

    return gen
