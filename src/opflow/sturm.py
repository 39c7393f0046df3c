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
as the standard n-point Dirichlet matrix on the shifted grid i/(n+1).  Every
operator here comes from one ``_RobinFamily`` per grid, described there.

The independent oracle solves the secular equations by bisection on brackets
known in closed form, so it holds up to the Dirichlet point:
negative eigenvalues from  x0 sinh(mu) = x1 mu cosh(mu), lambda = -mu^2,
  one root in (0, x0/x1] (an x0/x1 or -mu^2 that overflows raises);
positive eigenvalues from  x0 sin(mu) = x1 mu cos(mu),  lambda = mu^2,
  the k-th root at an offset in [0, pi/2] from k pi;
and lambda = 0 exactly at [1:1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import CornerBlock, HermOp
from .metrics import gap_dist

SCHEME_GHOST = "central2+ghost-point"
SCHEME_DIRICHLET = "central2+dirichlet"
MIN_GRID = 16
BISECTION_RTOL = 1e-12


def _normalized(x0: float, x1: float) -> tuple[float, float]:
    """The sign-normalized representative of [x0 : x1]: x0^2 + x1^2 = 1 with x0 > 0, or (0, 1)."""
    r = math.hypot(x0, x1)
    if r == 0.0 or not math.isfinite(r):
        raise ValidationError("projective point needs a finite nonzero representative")
    x0, x1 = x0 / r, x1 / r
    if x0 < 0.0:
        x0, x1 = -x0, -x1
    if abs(x0) < 1e-15:
        x0, x1 = 0.0, 1.0
    return x0, x1


@dataclass(frozen=True)
class ProjectivePoint:
    """A point [x0 : x1] of the projective line, in sign-normalized form.

    Normalization: x0^2 + x1^2 = 1 with x0 > 0, or (x0, x1) = (0, 1).
    """

    x0: float
    x1: float

    def __post_init__(self):
        x0, x1 = _normalized(self.x0, self.x1)
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


def _robin_corner(x0: float, x1: float, n: int) -> float:
    """The one entry that moves with a Robin parameter [x0 : x1]: c = 2/h^2 - 2 (x0/x1)/h, h = 1/n."""
    h = 1.0 / n
    c = 2.0 / h**2 - 2.0 * (x0 / x1) / h
    if not math.isfinite(c):
        raise ValidationError(f"boundary entry d[-1] = {c} overflows at [{x0} : {x1}], n = {n}")
    return c


class _RobinFamily:
    """The boundary family on n nodes, as the pi-periodic generator theta -> A([cos theta : sin theta]).

    Off the Dirichlet point the matrices differ only in the corner
    c = 2/h^2 - 2 (x0/x1)/h, h = 1/n.  So the family builds the rest once, as
    the ``CornerBlock`` of T' = tridiag(-1, 2, -1)/h^2 on nodes 1..n-1 with the
    coupling -sqrt(2)/h^2 to node n, and every reader holds one family per call:
    its operators share the block and what the block solves for the flow.  At
    x1 = 0 the operator is the Dirichlet matrix on the grid i/(n+1), built on
    first read, since only the Dirichlet point reads it; a race on that read
    only builds it again.  One rule takes theta to the normalized pair of
    [cos : sin] at theta mod pi.  ``__call__`` builds that pair's operator by
    ``at``, and ``flow_terms(theta, radius)`` equals
    ``family(theta).flow_terms(radius)`` with no operator built.
    """

    __slots__ = ("n", "block", "_dirichlet")

    def __init__(self, n: int):
        if n < MIN_GRID:
            raise ValidationError(f"grid must have at least {MIN_GRID} points, got {n}")
        h = 1.0 / n
        self.n, self._dirichlet = n, None
        self.block = CornerBlock(HermOp.tridiagonal(np.full(n - 1, 2.0 / h**2), np.full(n - 2, -1.0 / h**2)),
                                 -math.sqrt(2.0) / h**2)

    @property
    def dirichlet(self) -> HermOp:
        if self._dirichlet is None:
            g = 1.0 / (self.n + 1)
            self._dirichlet = HermOp.tridiagonal(np.full(self.n, 2.0 / g**2), np.full(self.n - 1, -1.0 / g**2))
        return self._dirichlet

    def at(self, x0: float, x1: float) -> HermOp:
        """The operator at the sign-normalized pair (x0, x1) of a point [x0 : x1]."""
        return self.dirichlet if x1 == 0.0 else self.block.operator(_robin_corner(x0, x1, self.n))

    @staticmethod
    def _pair(theta: float) -> tuple[float, float]:
        t = theta % math.pi
        return _normalized(math.cos(t), math.sin(t))

    def __call__(self, theta: float) -> HermOp:
        return self.at(*self._pair(theta))

    def flow_terms(self, theta: float, radius: float) -> tuple[int, int, float, float]:
        x0, x1 = self._pair(theta)
        if x1 == 0.0:
            return self.dirichlet.flow_terms(radius)
        return self.block.flow_terms(_robin_corner(x0, x1, self.n), radius)


def assemble_robin_operator(x: ProjectivePoint, n: int) -> RobinOperator:
    """Finite-difference operator of the boundary family at parameter x, as tridiagonal bands."""
    op = _RobinFamily(n).at(x.x0, x.x1)
    h, scheme = (1.0 / (n + 1), SCHEME_DIRICHLET) if x.is_dirichlet else (1.0 / n, SCHEME_GHOST)
    weights = np.full(n, h)
    weights[-1] = h if x.is_dirichlet else h / 2.0  # the ghost scheme's half-weight last cell
    return RobinOperator(x, n, op, scheme, h * np.arange(1, n + 1), weights)


def _bisect(f, lo: float, hi: float) -> float:
    """Bracketed bisection to relative tolerance BISECTION_RTOL in mu."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    if (flo > 0.0) == (fhi > 0.0):  # a sign test; flo * fhi can underflow to 0
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
    It lies below q = x0/x1, where q tanh(q) - q <= 0 even after rounding.
    """
    if not (x.x0 > 0.0 and 0.0 < x.x1 < x.x0):
        return None
    q = x.x0 / x.x1
    if not math.isfinite(q):
        raise ValidationError(f"bracket x0/x1 = {q} overflows at [{x.x0} : {x.x1}]")
    return _bisect(lambda mu: q * math.tanh(mu) - mu, 1e-12, q)


def positive_eigenvalue_roots(x: ProjectivePoint, count: int) -> list[float]:
    """First ``count`` roots mu > 0 of x0 sin(mu) = x1 mu cos(mu), ascending.

    The k-th root past 0 is k pi + s delta, s = sign(x1), with delta in
    [0, pi/2] the root of h(delta) = x0 sin(delta) - |x1| (k pi + s delta) cos(delta),
    since h(0) = -|x1| k pi <= 0 < x0 = h(pi/2).  Solving for the offset keeps
    every root, however close to k pi.  Past [1:1] (x1 > x0) one more root
    lies below pi/2, where x0 sin(mu) / mu - x1 cos(mu) rises from x0 - x1 < 0.
    """
    if x.x0 == 0.0:
        return [(k + 0.5) * math.pi for k in range(count)]
    s, a = math.copysign(1.0, x.x1), abs(x.x1)
    cos = lambda t: math.sin(0.5 * math.pi - t)  # 0 at pi/2, where math.cos reads 6e-17: h(pi/2) = x0
    roots = []
    if x.x1 > x.x0:
        roots.append(_bisect(lambda mu: x.x0 * np.sinc(mu / math.pi) - x.x1 * cos(mu), 0.0, 0.5 * math.pi))
    for k in range(1, count + 1 - len(roots)):
        h = lambda d: x.x0 * math.sin(d) - a * (k * math.pi + s * d) * cos(d)
        roots.append(k * math.pi + s * _bisect(h, 0.0, 0.5 * math.pi))
    return roots[:count]  # count = 0 past [1:1]


def analytic_eigenvalues(x: ProjectivePoint, count: int) -> list[float]:
    """The lowest ``count`` eigenvalues from the transcendental oracle."""
    if count < 1:
        raise ValidationError("count must be at least 1")
    out: list[float] = []
    mu = negative_eigenvalue_root(x)
    if mu is not None:
        if not math.isfinite(mu * mu):
            raise ValidationError(f"eigenvalue -mu^2 overflows at [{x.x0} : {x.x1}], mu = {mu}")
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
    if not window > 0:  # also catches a NaN window
        raise ValidationError(f"window must be positive, got window = {window!r}")
    thetas = [j * math.pi / loop_samples for j in range(loop_samples)]
    family = _RobinFamily(n)

    def solve(theta: float) -> tuple[float, np.ndarray, np.ndarray]:
        first, values = family(theta).spectrum(-window, window)
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


def dichotomy_sweep(x1s, n: int) -> list[tuple[float, float]]:
    """Per x1: a certified lower bound on the transform distance to Dirichlet, and the gap.

    The bound is max(0, -min eig of the bounded transform at [1:x1]), that is
    -lambda / hypot(1, lambda), which reads 1 even where lambda^2 overflows.
    It holds because the Dirichlet operator, built once per sweep with its
    family, is verified positive, so sorted-eigenvalue pairing forces the
    transform distance above it.  Both lowest eigenvalues come from
    index-selected bisection (``stebz``).  The gap ||(A + i)^-1 (B - A) (B + i)^-1|| runs
    Lanczos on one tridiagonal factor per operand (see ``metrics``).
    """
    family = _RobinFamily(n)
    dirichlet = family.dirichlet
    if dirichlet.lowest_eigenvalue() <= 0.0:  # pragma: no cover
        raise ValidationError("Dirichlet comparison operator is not positive")
    rows = []
    for x1 in x1s:
        robin = family.at(*_normalized(1.0, x1))
        lam0 = robin.lowest_eigenvalue()
        rows.append((max(0.0, -lam0 / math.hypot(1.0, lam0)), gap_dist(robin, dirichlet)))
    return rows


def robin_generator(n: int):
    """The boundary family on n nodes as a closed path's generator: see ``_RobinFamily``."""
    return _RobinFamily(n)
