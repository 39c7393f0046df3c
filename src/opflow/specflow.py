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

Windowed solves: every parameter's spectrum is solved only on the window
[-2 window0, 2 window0] (``HermOp.spectrum``, cached per parameter), and the
eigenvalues of two endpoints are paired by their global index in the full
ascending spectrum.  Levels never exceed 1.1 window0 and movement is only read
for eigenvalues within window0, so nothing outside the solve radius could
change a decision, with one exception handled by the missing-partner rule: an
index inside window0 at one endpoint but beyond the radius at the other has
moved by more than window0, and is recorded as a movement of window0.  That
forces the bisection the full spectrum would force, since a level is placed
only when movement < window0 / 2.
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

    The same object always matches, without building its matrix.  The scale
    ``1 + ||left||`` is at least 1, so it is computed only when the mismatch
    already exceeds the bare tolerance.
    """
    if left is right:
        return
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


# A windowed spectrum: (global index of the first eigenvalue, the eigenvalues).
Spectrum = tuple[int, np.ndarray]


def _pair(left: Spectrum, right: Spectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues of both endpoints paired by global index, and the unpaired rest."""
    (fl, wl), (fr, wr) = left, right
    lo = max(fl, fr)
    hi = max(lo, min(fl + wl.size, fr + wr.size))
    unpaired = np.concatenate([wl[:lo - fl], wl[hi - fl:], wr[:lo - fr], wr[hi - fr:]])
    return wl[lo - fl:hi - fl], wr[lo - fr:hi - fr], unpaired


def _pick_level(
    left: Spectrum, right: Spectrum, window0: float
) -> tuple[float | None, float]:
    """Counting level for one subinterval, or None if it must be bisected.

    Returns (level, movement).  The level lies in a band of half-width
    > movement that is free of endpoint spectrum, and the spec criterion
    movement < level/2 is enforced on top.
    """
    el, er, unpaired = _pair(left, right)
    relevant = (np.abs(el) <= window0) | (np.abs(er) <= window0)
    movement = float(np.max(np.abs(el - er)[relevant])) if relevant.any() else 0.0
    if np.any(np.abs(unpaired) <= window0):  # the missing-partner rule
        movement = max(movement, window0)
    mags = np.abs(np.concatenate([left[1], right[1]]))
    ladder = np.concatenate([[0.0], np.sort(mags[mags <= window0]), [window0]])
    for u, v in zip(ladder[:-1], ladder[1:]):
        if v - u <= max(2.0 * movement, 4.0 * WINDOW_FLOOR):
            continue
        level = 0.5 * (u + v)
        if movement < level / 2.0 and level >= WINDOW_FLOOR:
            return level, movement
    return None, movement


def _guard_level(left: Spectrum, right: Spectrum, level: float) -> float:
    """Nudge the level by +-10% if an endpoint eigenvalue is pinned at it."""
    mags = np.abs(np.concatenate([left[1], right[1]]))
    for cand in (level, 1.1 * level, 0.9 * level):
        if float(np.min(np.abs(mags - cand), initial=np.inf)) >= ZERO_ATOL:
            return cand
    raise ConditioningError(
        f"an eigenvalue stays pinned at the counting level {level!r} under +-10% perturbation"
    )


def _near_zero(spectrum: Spectrum) -> bool:
    return float(np.min(np.abs(spectrum[1]), initial=np.inf)) < ZERO_ATOL


def spectral_flow(
    path: OperatorPath,
    window0: float = 1.0,
    max_depth: int = 24,
) -> SpecFlowReport:
    """Net signed count of eigenvalues crossing zero along the path.

    ``window0`` bounds the spectral region inspected for movement and level
    placement; eigenvalues that stay outside it are ignored, which is what
    lets families with branches escaping to +-infinity be handled.  Each
    parameter's spectrum is solved only within twice that radius (and never
    within less than the zero tolerance).  Open paths must not have endpoint
    spectrum within 1e-9 of zero.  Raises a non-convergence error naming the
    offending bracket when bisection depth is exhausted.
    """
    if window0 <= 0:
        raise ValidationError("window0 must be positive")
    radius = 2.0 * max(window0, ZERO_ATOL)
    spectra: dict[float, Spectrum] = {}

    def spectrum_at(theta: float, op: HermOp | None = None) -> Spectrum:
        t = float(theta)
        if t not in spectra:
            spectra[t] = (op if op is not None else path.generator(t)).spectrum(-radius, radius)
        return spectra[t]

    for t, op in zip(path.thetas, path.operators):
        spectrum_at(t, op)

    if not path.closed:
        for t in path.domain:
            if _near_zero(spectrum_at(t)):
                raise ValidationError(
                    f"open-path endpoint at theta={t} has an eigenvalue within {ZERO_ATOL:g} of 0"
                )

    def refined_midpoint(lo: float, hi: float) -> float:
        """Interior evaluation point whose spectrum avoids exact zero."""
        for frac in MIDPOINT_OFFSETS:
            mid = lo + frac * (hi - lo)
            if not _near_zero(spectrum_at(mid)):
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
        left, right = spectrum_at(lo), spectrum_at(hi)
        level, movement = _pick_level(left, right, window0)
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
        level = _guard_level(left, right, level)
        count_l = int(np.sum((left[1] >= 0.0) & (left[1] < level)))
        count_r = int(np.sum((right[1] >= 0.0) & (right[1] < level)))
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
