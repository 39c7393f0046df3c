"""Integer spectral flow along sampled paths of Hermitian operators.

No eigenvalue is paired between parameters.  The flow is read off the inertia
neg(A), the number of negative eigenvalues, and the phase of det kappa(A) for
the Cayley transform kappa(A) = (A - i)(A + i)^-1, whose eigenvalues reach 1
only where an eigenvalue passes through infinity.  Along a path on [a, b]
continuous in the gap topology (Phillips, Canad. Math. Bull. 39, 1996;
Booss-Bavnbek, Lesch & Phillips, Canad. J. Math. 57, 2005),

    SF = neg(A(a)) - neg(A(b)) + W,   Psi(A) = -2 sum_k atan2(1, lambda_k),
    W = (lifted change of arg det kappa - Psi(A(b)) + Psi(A(a))) / 2 pi,

where W counts passages through infinity from +inf to -inf, less those the
other way: 0 on a norm-continuous path, 1 on the Robin loop (the Dirichlet
point).  On a closed path neg and Psi cancel, and SF is the winding of det kappa.

Each parameter has four terms at r = max(2 window0, RADIUS_MIN): neg, the
count ``first`` of eigenvalues below -r, the phase of det kappa and a lift L
of Psi.  A generator with a method ``flow_terms(theta, r)`` answers a
parameter's terms itself, with no operator built, and is called only at the
start and at an open path's end; of every other generator the operator is
asked, as ``generator(theta).flow_terms(r)``.  L is the windowed lift Psi_r,
which stretches [-r, r] onto R by w -> w / (1 - (w / r)^2) and puts the
eigenvalues outside at +-inf, or Psi itself where it is known in closed form;
each is exact for passages and continuous where eigenvalues cross +-r, and
they differ by < 2 atan(1/r) per eigenvalue, so a step may mix them.  On a
step [lo, hi], x = (wrap(phase(hi) - phase(lo)) - L(hi) + L(lo)) / 2 pi counts
passages, and the step contributes neg(lo) - neg(hi) + round(x), a crossing
bracket if nonzero.  L's error can move a bracket but not the flow, which
takes Psi from the endpoints' full spectra and must equal the brackets' sum.
A step is bisected while its phase turns by more than PHASE_STEP_MAX, x is
more than RESIDUAL_MAX from an integer, or it claims a passage that ``first``
does not show or that turns the phase or misses an integer by more than
PASSAGE_TURN_MAX of a turn: a passing eigenvalue sits near kappa = 1 at both
ends, a wrapped phase or a run across the window does not.  The sampling must
resolve det kappa, whose phase is read modulo a turn.  A path is a pure
generator on a partition; every operator read must have the first's dimension,
and a closed path (periodic, ends identified) skips its end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .linalg import HermOp, _lift

ZERO_ATOL = 1e-9
ENDPOINT_MATCH_RTOL = 1e-9
PHASE_STEP_MAX = math.pi / 2
RESIDUAL_MAX = 0.25
PASSAGE_TURN_MAX = 1.0 / 16.0
RADIUS_MIN = 2.0
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OperatorPath:
    """A partition of [a, b] and a pure generator theta -> HermOp.

    The generator is the path: it is called at the sample parameters and at
    refinement midpoints, and every operator it returns there must have the
    dimension of the first; one that answers its own terms is called less
    (see the module docstring).  A closed path's generator is (b - a)-periodic;
    its ends are identified, so the end parameter is never evaluated.
    """

    thetas: np.ndarray
    generator: Callable[[float], HermOp]
    closed: bool = False

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        if th.ndim != 1 or th.size < 2:
            raise ValidationError("a path needs at least two samples")
        if not np.all(np.isfinite(th)):
            raise ValidationError(f"sample parameter {th[~np.isfinite(th)][0]} is not finite")
        if np.any(np.diff(th) <= 0):
            raise ValidationError("sample parameters must be strictly ascending")
        if not callable(self.generator):
            raise ValidationError(f"generator is not callable: {type(self.generator).__name__}")
        th.setflags(write=False)
        object.__setattr__(self, "thetas", th)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.thetas[0]), float(self.thetas[-1])

    @classmethod
    def sample(cls, generator: Callable[[float], HermOp], a: float, b: float, n_samples: int,
               closed: bool = False) -> "OperatorPath":
        """Sample a generator on [a, b] with ``n_samples`` subintervals.

        Closed paths are sampled on the half-step-rotated partition
        a + (j + 1/2) h, which keeps dyadic refinement away from parameter
        values where the family typically has exact kernel (loop base points
        and symmetric crossings); the generator must be (b - a)-periodic.
        """
        if n_samples < 1:
            raise ValidationError("need at least one subinterval")
        for end in (a, b):  # an infinite end would make the partition warn, then name a nan
            if not math.isfinite(end):
                raise ValidationError(f"sample parameter {end} is not finite")
        h = (b - a) / n_samples
        if closed:
            th = a + (np.arange(n_samples + 1) + 0.5) * h
        else:
            th = np.linspace(a, b, n_samples + 1)
        return cls(th, generator, closed)


@dataclass(frozen=True)
class Crossing:
    theta_lo: float
    theta_hi: float
    direction: int


@dataclass(frozen=True)
class SpecFlowReport:
    partition: np.ndarray
    crossings: tuple[Crossing, ...]

    @property
    def flow(self) -> int:
        """The signed sum of the crossings."""
        return sum(c.direction for c in self.crossings)

    def to_json_dict(self) -> dict:
        """The wire form: flow, partition, and crossing brackets."""
        return {
            "flow": self.flow,
            "partition": self.partition.tolist(),
            "crossings": [asdict(c) for c in self.crossings],
        }


def spectral_flow(path: OperatorPath, window0: float = 1.0, max_depth: int = 24) -> SpecFlowReport:
    """Net signed count of eigenvalues crossing zero upward: neg(a) - neg(b) + W.

    ``window0`` sets the radius of the spectrum read at each parameter, which
    places the brackets but does not decide the flow.  Open paths need endpoint
    spectrum at least ZERO_ATOL from zero.  Raises ``NonConvergenceError`` for a
    step still split at ``max_depth``, ``ConditioningError`` if the brackets do
    not sum to the flow.
    """
    if not 0.0 < window0 < math.inf:
        raise ValidationError(f"window0 must be positive and finite, got {window0}")
    if max_depth < 0:
        raise ValidationError(f"max_depth must be non-negative, got {max_depth}")
    a, b = path.domain
    start = path.generator(a)
    dim, radius = start.dim, max(2.0 * window0, RADIUS_MIN)

    def operator(theta: float) -> HermOp:
        op = path.generator(theta)
        if op.dim != dim:
            raise ValidationError(f"the operator at theta={theta} has dimension {op.dim}, "
                                  f"the one at theta={a} has {dim}")
        return op

    terms = getattr(path.generator, "flow_terms", None) or (lambda theta, r: operator(theta).flow_terms(r))
    end = start if path.closed else operator(b)
    end_lift = 0.0
    if not path.closed:
        for t, op in ((a, start), (b, end)):
            if np.min(np.abs(op.eigenvalues)) < ZERO_ATOL:
                raise ValidationError(f"open-path endpoint at theta={t} has an eigenvalue "
                                      f"within {ZERO_ATOL:g} of 0")
        end_lift = _lift(end.eigenvalues) - _lift(start.eigenvalues)
    points = {a: start.flow_terms(radius)}  # theta -> (neg, first, phase, lift)
    points[b] = points[a] if path.closed else end.flow_terms(radius)
    start = end = op = None  # from here the flow holds terms, and each operator only while it is read
    thetas = path.thetas.tolist()
    for theta in thetas[1:-1]:
        points[theta] = terms(theta, radius)
    segments, lifted = [], 0.0  # segments: (lo, hi, contribution, residual)
    stack = [(lo, hi, 0) for lo, hi in zip(thetas[:-1], thetas[1:])]
    while stack:
        lo, hi, depth = stack.pop()
        neg_lo, first_lo, phase_lo, lift_lo = points[lo]
        neg_hi, first_hi, phase_hi, lift_hi = points[hi]
        step = math.remainder(phase_hi - phase_lo, TWO_PI)
        x = (step - lift_hi + lift_lo) / TWO_PI
        passages, moved = round(x), first_hi - first_lo
        residual = x - passages
        if abs(step) > PHASE_STEP_MAX or abs(residual) > RESIDUAL_MAX or passages and (
                passages != moved or max(abs(step) / TWO_PI, abs(residual)) > PASSAGE_TURN_MAX):
            if depth >= max_depth:
                raise NonConvergenceError(
                    f"refinement budget exhausted on [{lo}, {hi}] at depth {depth}: phase step "
                    f"{step:.3e} (limit {PHASE_STEP_MAX:.4g}), residual {residual:.3e} (limit "
                    f"{RESIDUAL_MAX:g}), {passages} passages against {moved} in the count below -r")
            mid = 0.5 * (lo + hi)
            if mid not in points:
                points[mid] = terms(mid, radius)
            stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
            continue
        lifted += step
        segments.append((lo, hi, neg_lo - neg_hi + passages, residual))

    segments.sort()
    winding = (lifted - end_lift) / TWO_PI
    flow = points[a][0] - points[b][0] + round(winding)
    total = sum(s[2] for s in segments)
    if total != flow:
        lo, hi, _, residual = max(segments, key=lambda s: abs(s[3]))
        raise ConditioningError(f"brackets sum to {total} but neg(a) - neg(b) + W gives {flow} (W = "
                                f"{winding:.6f}); worst residual {residual:.3e} on [{lo}, {hi}]")
    crossings = tuple(Crossing(lo, hi, c) for lo, hi, c, _ in segments if c)
    return SpecFlowReport(np.array([s[0] for s in segments] + [segments[-1][1]]), crossings)


def concat(path1: OperatorPath, path2: OperatorPath) -> OperatorPath:
    """Concatenate two paths whose generators agree at the junction.

    The parameter domains must abut, and both generators are called there:
    the operators must have one dimension and agree to ENDPOINT_MATCH_RTOL
    (1 + ||A||), in ``HermOp.norm()``, so banded operators are never densified.
    Spectral flow is additive over the junction.
    """
    junction = path1.domain[1]
    if not math.isclose(junction, path2.domain[0], rel_tol=0.0, abs_tol=1e-12):
        raise ValidationError(f"parameter domains do not abut: {junction} vs {path2.domain[0]}")
    left, right = path1.generator(junction), path2.generator(path2.domain[0])
    if left.dim != right.dim:
        raise ValidationError(f"junction operators have dimensions {left.dim} and {right.dim}")
    mismatch = (left - right).norm()
    if mismatch > ENDPOINT_MATCH_RTOL:  # ||left|| is read only when needed
        tol = ENDPOINT_MATCH_RTOL * (1.0 + left.norm())
        if mismatch > tol:
            raise ValidationError(f"junction operators differ by {mismatch:.3e} (tol {tol:.3e})")

    def gen(theta: float) -> HermOp:
        return path1.generator(theta) if theta <= junction else path2.generator(theta)

    return OperatorPath(np.concatenate([path1.thetas, path2.thetas[1:]]), gen)
