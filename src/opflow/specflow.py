"""Integer spectral flow along sampled paths of Hermitian operators.

The flow is computed by windowed counting: on each subinterval a counting
level a_i > 0 is placed inside a spectrum-free band of both endpoint
operators, and the contribution is the change in the number of eigenvalues
inside [0, a_i).  Summed over a partition this telescopes to the net signed
count of eigenvalue crossings through zero, provided no eigenvalue path
crosses the level a_i within a subinterval; subintervals are bisected
(through the path's generator) until the observed eigenvalue movement is
small against the band placing a_i.

Level selection: collect |eigenvalue| values of both endpoints inside the
initial window, scan the gaps of that ladder from zero upward, and take the
midpoint of the first gap wider than twice the observed movement.  Away from
crossings the first gap is (0, min |eigenvalue|), which reduces to "half the
smallest windowed eigenvalue magnitude"; while a crossing is in progress
that gap collapses and the rule steps over it to the next spectral gap, so
the crossing eigenvalue is counted rather than chased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConditioningError, NonConvergenceError, ValidationError
from .linalg import HermOp, op_norm

WINDOW_FLOOR = 1e-7
ZERO_ATOL = 1e-9
ENDPOINT_MATCH_RTOL = 1e-9
MIDPOINT_OFFSETS = (0.5, 0.5 + 1.0 / 16.0, 0.5 - 1.0 / 16.0, 0.5 + 1.0 / 8.0)


def _check_match(left: HermOp, right: HermOp, what: str) -> None:
    """Raise unless two operators agree to ENDPOINT_MATCH_RTOL relative to scale.

    The scale ``1 + ||left||`` is at least 1, so it is computed only when the
    mismatch already exceeds the bare tolerance.
    """
    mismatch = op_norm(left.matrix - right.matrix)
    if mismatch > ENDPOINT_MATCH_RTOL:
        tol = ENDPOINT_MATCH_RTOL * (1.0 + op_norm(left.matrix))
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

    @property
    def dim(self) -> int:
        return self.operators[0].dim

    @classmethod
    def sample(
        cls,
        generator: Callable[[float], HermOp],
        a: float,
        b: float,
        n_samples: int,
        closed: bool = False,
    ) -> "OperatorPath":
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
    window_radii: tuple[float, ...]
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        if self.flow != sum(c.direction for c in self.crossings):
            raise ValidationError("flow must equal the signed sum of crossings")

    def to_json_dict(self) -> dict:
        """The wire form: flow, partition, and crossing brackets."""
        return {
            "flow": int(self.flow),
            "partition": [float(t) for t in self.partition],
            "crossings": [
                {
                    "theta_lo": float(c.theta_lo),
                    "theta_hi": float(c.theta_hi),
                    "direction": int(c.direction),
                }
                for c in self.crossings
            ],
        }


def _pick_level(
    el: np.ndarray, er: np.ndarray, window0: float
) -> tuple[float | None, float]:
    """Counting level for one subinterval, or None if it must be bisected.

    Returns (level, movement).  The level lies in a band of half-width
    > movement that is free of endpoint spectrum, and the spec criterion
    movement < level/2 is enforced on top.
    """
    relevant = (np.abs(el) <= window0) | (np.abs(er) <= window0)
    movement = float(np.max(np.abs(el - er)[relevant])) if relevant.any() else 0.0
    mags = np.concatenate([np.abs(el[np.abs(el) <= window0]),
                           np.abs(er[np.abs(er) <= window0])])
    ladder = np.concatenate([[0.0], np.sort(mags), [window0]])
    for u, v in zip(ladder[:-1], ladder[1:]):
        if v - u <= max(2.0 * movement, 4.0 * WINDOW_FLOOR):
            continue
        level = 0.5 * (u + v)
        if movement < level / 2.0 and level >= WINDOW_FLOOR:
            return level, movement
    return None, movement


def _guard_level(el: np.ndarray, er: np.ndarray, level: float) -> float:
    """Nudge the level by +-10% if an endpoint eigenvalue is pinned at it."""
    for cand in (level, 1.1 * level, 0.9 * level):
        pinned = min(
            float(np.min(np.abs(np.abs(el) - cand))),
            float(np.min(np.abs(np.abs(er) - cand))),
        )
        if pinned >= ZERO_ATOL:
            return cand
    raise ConditioningError(
        f"an eigenvalue stays pinned at the counting level {level!r} under +-10% perturbation"
    )


def spectral_flow(
    path: OperatorPath,
    window0: float = 1.0,
    max_depth: int = 24,
) -> SpecFlowReport:
    """Net signed count of eigenvalues crossing zero along the path.

    ``window0`` bounds the spectral region inspected for movement and level
    placement; eigenvalues that stay outside it are ignored, which is what
    lets families with branches escaping to +-infinity be handled.  Open
    paths must not have endpoint spectrum within 1e-9 of zero.  Raises a
    non-convergence error naming the offending bracket when bisection depth
    is exhausted.
    """
    if window0 <= 0:
        raise ValidationError("window0 must be positive")
    eigs: dict[float, np.ndarray] = {}

    def eig_at(theta: float, op: HermOp | None = None) -> np.ndarray:
        t = float(theta)
        if t not in eigs:
            eigs[t] = (op if op is not None else path.generator(t)).eigenvalues
        return eigs[t]

    for t, op in zip(path.thetas, path.operators):
        eig_at(t, op)

    if not path.closed:
        for t in path.domain:
            if float(np.min(np.abs(eig_at(t)))) < ZERO_ATOL:
                raise ValidationError(
                    f"open-path endpoint at theta={t} has an eigenvalue within {ZERO_ATOL:g} of 0"
                )

    def refined_midpoint(lo: float, hi: float) -> float:
        """Interior evaluation point whose spectrum avoids exact zero."""
        for frac in MIDPOINT_OFFSETS:
            mid = lo + frac * (hi - lo)
            if float(np.min(np.abs(eig_at(mid)))) >= ZERO_ATOL:
                return mid
        raise ConditioningError(
            f"every candidate split of [{lo}, {hi}] has an eigenvalue at zero"
        )

    flow = 0
    crossings: list[Crossing] = []
    final_segments: list[tuple[float, float, float]] = []
    stack = [
        (float(path.thetas[j]), float(path.thetas[j + 1]), 0)
        for j in range(path.thetas.size - 1)
    ]
    while stack:
        lo, hi, depth = stack.pop()
        el, er = eig_at(lo), eig_at(hi)
        level, movement = _pick_level(el, er, window0)
        if level is None:
            if depth >= max_depth:
                raise NonConvergenceError(
                    f"refinement budget exhausted on [{lo}, {hi}] "
                    f"(movement {movement:.3e} within window {window0})"
                )
            mid = refined_midpoint(lo, hi)
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
            continue
        level = _guard_level(el, er, level)
        count_l = int(np.sum((el >= 0.0) & (el < level)))
        count_r = int(np.sum((er >= 0.0) & (er < level)))
        if count_r != count_l:
            crossings.append(Crossing(lo, hi, count_r - count_l))
        flow += count_r - count_l
        final_segments.append((lo, hi, level))

    final_segments.sort()
    crossings.sort(key=lambda c: (c.theta_lo, c.theta_hi))
    partition = np.array([s[0] for s in final_segments] + [final_segments[-1][1]])
    radii = tuple(s[2] for s in final_segments)
    return SpecFlowReport(flow, partition, radii, tuple(crossings))


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
