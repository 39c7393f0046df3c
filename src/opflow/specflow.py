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

Each parameter costs one spectrum on [-r, r], r = max(2 window0, RADIUS_MIN)
(neg is its index ``first`` plus its negative values), and one
``HermOp.cayley_phase``.  The windowed lift Psi_r stretches [-r, r] onto R by
w -> w / (1 - (w / r)^2) and puts the eigenvalues outside at +-inf; on a step
[lo, hi], x = (wrap(phase(hi) - phase(lo)) - Psi_r(hi) + Psi_r(lo)) / 2 pi
counts passages, and the step contributes neg(lo) - neg(hi) + round(x), a
crossing bracket if nonzero.  Psi_r is exact for passages, continuous where
eigenvalues cross +-r and off by < 2 atan(1/r) per eigenvalue: that can move a
bracket but not the flow, which takes Psi from the endpoints' full spectra and
must equal the brackets' sum.  A step is bisected while its phase turns by more
than PHASE_STEP_MAX, x is more than RESIDUAL_MAX from an integer, or it claims
a passage that ``first`` does not show or that turns the phase or misses an
integer by more than PASSAGE_TURN_MAX of a turn: a passing eigenvalue sits near
kappa = 1 at both ends, a wrapped phase or a run across the window does not.
The sampling must resolve det kappa, whose phase is read modulo a turn.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .linalg import HermOp

ZERO_ATOL = 1e-9
ENDPOINT_MATCH_RTOL = 1e-9
PHASE_STEP_MAX = math.pi / 2
RESIDUAL_MAX = 0.25
PASSAGE_TURN_MAX = 1.0 / 16.0
RADIUS_MIN = 2.0
TWO_PI = 2.0 * math.pi


def _check_match(left: HermOp, right: HermOp, what: str) -> None:
    """Raise unless ||left - right|| <= ENDPOINT_MATCH_RTOL (1 + ||left||).

    Norms are ``HermOp.norm()``, so banded operators are never densified; the
    same object matches without a solve, and ||left|| is read only when needed.
    """
    if left is right:
        return
    if left.dim != right.dim:
        raise ValidationError(f"{what} have dimensions {left.dim} and {right.dim}")
    mismatch = (left - right).norm()
    if mismatch > ENDPOINT_MATCH_RTOL:
        tol = ENDPOINT_MATCH_RTOL * (1.0 + left.norm())
        if mismatch > tol:
            raise ValidationError(f"{what} differ by {mismatch:.3e} (tol {tol:.3e})")


@dataclass(frozen=True)
class OperatorPath:
    """A sampled path of same-dimension Hermitian operators with a generator.

    ``generator`` must reproduce the sampled family at intermediate
    parameters (it is called during refinement) and must be pure.  For closed
    paths the final sample repeats the first operator object, so endpoint
    identification is exact by construction; the generator is then assumed
    periodic over the sampled domain.
    """

    thetas: np.ndarray
    operators: tuple[HermOp, ...]
    generator: Callable[[float], HermOp]
    closed: bool = False

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        if th.ndim != 1 or th.size < 2:
            raise ValidationError("a path needs at least two samples")
        if np.any(np.diff(th) <= 0):
            raise ValidationError("sample parameters must be strictly ascending")
        if len(self.operators) != th.size:
            raise ValidationError("one operator per sample required")
        dims = {op.dim for op in self.operators}
        if len(dims) != 1:
            raise ValidationError(f"mixed operator dimensions {sorted(dims)}")
        if self.closed:
            _check_match(self.operators[0], self.operators[-1], "closed path endpoints")
        th.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "operators", tuple(self.operators))

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
        h = (b - a) / n_samples
        if closed:
            th = a + (np.arange(n_samples + 1) + 0.5) * h
            ops = [generator(float(t)) for t in th[:-1]]
            ops.append(ops[0])
        else:
            th = np.linspace(a, b, n_samples + 1)
            ops = [generator(float(t)) for t in th]
        return cls(th, tuple(ops), generator, closed)


@dataclass(frozen=True)
class Crossing:
    theta_lo: float
    theta_hi: float
    direction: int


@dataclass(frozen=True)
class SpecFlowReport:
    flow: int
    partition: np.ndarray
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        if self.flow != sum(c.direction for c in self.crossings):
            raise ValidationError("flow must equal the signed sum of crossings")

    def to_json_dict(self) -> dict:
        """The wire form: flow, partition, and crossing brackets."""
        return {
            "flow": int(self.flow),
            "partition": [float(t) for t in self.partition],
            "crossings": [asdict(c) for c in self.crossings],
        }


def _lift(w: np.ndarray, radius: float = math.inf) -> float:
    """-2 sum atan2(1, w / (1 - (w / radius)^2)): Psi, with [-radius, radius] stretched onto R."""
    with np.errstate(divide="ignore"):  # the window's edges map to +-inf
        return -2.0 * float(np.sum(np.arctan2(1.0, w / np.maximum(1.0 - (w / radius) ** 2, 0.0))))


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
    ends = (path.operators[0], path.operators[-1])
    end_lift = 0.0
    if not path.closed:
        for t, op in zip(path.domain, ends):
            if np.min(np.abs(op.eigenvalues)) < ZERO_ATOL:
                raise ValidationError(f"open-path endpoint at theta={t} has an eigenvalue "
                                      f"within {ZERO_ATOL:g} of 0")
        end_lift = _lift(ends[1].eigenvalues) - _lift(ends[0].eigenvalues)
    radius = max(2.0 * window0, RADIUS_MIN)

    def evaluate(op: HermOp) -> tuple[int, int, float, float]:  # (neg, first, phase, Psi_r)
        first, w = op.spectrum(-radius, radius)
        return (first + int(np.count_nonzero(w < 0.0)), first, op.cayley_phase(),
                _lift(w, radius) - TWO_PI * first)

    points = {float(t): evaluate(op) for t, op in zip(path.thetas[:-1], path.operators[:-1])}
    points[path.domain[1]] = points[path.domain[0]] if path.closed else evaluate(ends[1])
    segments, lifted = [], 0.0  # segments: (lo, hi, contribution, residual)
    stack = [(float(lo), float(hi), 0) for lo, hi in zip(path.thetas[:-1], path.thetas[1:])]
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
                points[mid] = evaluate(path.generator(mid))
            stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
            continue
        lifted += step
        segments.append((lo, hi, neg_lo - neg_hi + passages, residual))

    segments.sort()
    winding = (lifted - end_lift) / TWO_PI
    flow = points[path.domain[0]][0] - points[path.domain[1]][0] + round(winding)
    total = sum(s[2] for s in segments)
    if total != flow:
        lo, hi, _, residual = max(segments, key=lambda s: abs(s[3]))
        raise ConditioningError(f"brackets sum to {total} but neg(a) - neg(b) + W gives {flow} (W = "
                                f"{winding:.6f}); worst residual {residual:.3e} on [{lo}, {hi}]")
    crossings = tuple(Crossing(lo, hi, c) for lo, hi, c, _ in segments if c)
    return SpecFlowReport(flow, np.array([s[0] for s in segments] + [segments[-1][1]]), crossings)


def concat(path1: OperatorPath, path2: OperatorPath) -> OperatorPath:
    """Concatenate two paths whose junction operators agree.

    The parameter domains must abut and the right endpoint operator of the
    first path must equal the left endpoint operator of the second to 1e-9
    (relative to scale); spectral flow is additive over the junction.
    """
    if not math.isclose(path1.domain[1], path2.domain[0], rel_tol=0.0, abs_tol=1e-12):
        raise ValidationError(
            f"parameter domains do not abut: {path1.domain[1]} vs {path2.domain[0]}"
        )
    _check_match(path1.operators[-1], path2.operators[0], "junction operators")
    junction = path1.domain[1]

    def gen(theta: float) -> HermOp:
        return path1.generator(theta) if theta <= junction else path2.generator(theta)

    thetas = np.concatenate([path1.thetas, path2.thetas[1:]])
    ops = path1.operators + path2.operators[1:]
    return OperatorPath(thetas, ops, gen, closed=False)
