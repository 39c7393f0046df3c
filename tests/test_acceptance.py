"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail line
per criterion.  Criteria 1 and 2 work at the production resolutions (grid
800/1600 loops, grid-2000 fibers) and dominate the runtime.
"""

import math
import time

import numpy as np
import pytest

from opflow.classify import SymmetricTuple, covering_membership, surgery_bound_trials
from opflow.homotopy import (
    GridSpace,
    compact_injective_sample,
    default_compact_factor,
    compactify_homotopy,
    discretization_tolerance,
    log_path,
    odd_retraction_defect,
    rk_contraction,
    shrink_isometry,
    stretch_isometry,
    zk_injectivity_margin,
    zk_path,
)
from opflow.linalg import HermOp
from opflow.specflow import OperatorPath, spectral_flow
from opflow.sturm import (
    ProjectivePoint,
    analytic_eigenvalues,
    assemble_robin_operator,
    dichotomy_sweep,
    negative_eigenvalue_root,
    robin_generator,
    spectral_graph,
)
from opflow.transforms import identity_suite, random_hermitian

GATED_IDENTITIES = (
    "graph_factorization",
    "cayley_factorization",
    "resolvent_vs_ball",
    "fredholm_factorization",
    "lagrangian_anticommutator",
    "odd_commuting_square",
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def robin_flow(grid: int, samples: int) -> int:
    path = OperatorPath.sample(robin_generator(grid), 0.0, math.pi, samples, closed=True)
    return spectral_flow(path, window0=1.0).flow


def test_criterion_1_robin_loop_spectral_flow():
    t0 = time.time()
    flow = robin_flow(800, 64)
    elapsed = time.time() - t0
    doubled_samples = robin_flow(800, 128)
    doubled_grid = robin_flow(1600, 64)
    ok = flow == 1 and elapsed < 60.0 and doubled_samples == 1 and doubled_grid == 1
    report(
        "1 Robin loop spectral flow",
        ok,
        f"flow={flow} in {elapsed:.1f}s (<60s); doubled samples -> {doubled_samples}, "
        f"doubled grid -> {doubled_grid}",
    )


def test_criterion_2_spectral_graph_fibers():
    n = 2000
    dirichlet = assemble_robin_operator(ProjectivePoint(1.0, 0.0), n).matrix.eigenvalues[:4]
    neumann = assemble_robin_operator(ProjectivePoint(0.0, 1.0), n).matrix.eigenvalues[:4]
    rel_d = [abs(d - (k * math.pi) ** 2) / (k * math.pi) ** 2
             for k, d in zip((1, 2, 3, 4), dirichlet)]
    rel_n = [abs(d - ((k + 0.5) * math.pi) ** 2) / ((k + 0.5) * math.pi) ** 2
             for k, d in zip((0, 1, 2, 3), neumann)]
    worst = max(rel_d + rel_n)
    report("2 fibers at the two axis points", worst < 1e-3,
           f"worst relative error {worst:.2e} over 4+4 eigenvalues at grid {n}")


def test_criterion_3_zero_crossing_location():
    samples = 128
    records = spectral_graph(samples, 400, window=30.0)
    nearest = [(theta, values[np.argmin(np.abs(values))] if values.size else math.inf)
               for theta, _, values in records]
    brackets = [
        (t1, t2) for (t1, v1), (t2, v2) in zip(nearest, nearest[1:])
        if math.isfinite(v1) and math.isfinite(v2) and v1 < 0 <= v2
    ]
    ok = len(brackets) == 1
    mid = 0.5 * (brackets[0][0] + brackets[0][1]) if brackets else math.nan
    tol = 2 * math.pi / samples
    ok = ok and abs(mid - math.pi / 4) <= tol
    report("3 zero crossing at the balanced parameter", ok,
           f"crossing bracket midpoint {mid:.4f} vs pi/4 = {math.pi/4:.4f} (tol {tol:.4f})")


def test_criterion_4_negative_branch_oracle():
    x = ProjectivePoint(1.0, 0.5)
    mu = negative_eigenvalue_root(x)
    lam = analytic_eigenvalues(x, 1)[0]
    disc = float(assemble_robin_operator(x, 800).matrix.eigenvalues[0])
    ok = abs(mu - 1.9150) < 1e-4 and abs(lam + 3.667) < 1e-3 and abs(disc - lam) < 1e-2
    report("4 negative-branch oracle", ok,
           f"mu={mu:.5f}, analytic {lam:.5f}, discretized {disc:.5f} (|diff| {abs(disc-lam):.1e})")


def test_criterion_5_riesz_gap_dichotomy():
    [(riesz_lower, gap)] = dichotomy_sweep([1e-4], 400)
    ok = riesz_lower >= 0.9 and gap <= 0.2
    report("5 transform/graph distance dichotomy", ok,
           f"certified transform-distance lower bound {riesz_lower:.4f} (>=0.9), "
           f"graph distance {gap:.4f} (<=0.2)")


def test_criterion_6_transform_identity_suite():
    t0 = time.time()
    deviations = identity_suite(dim=16, trials=500, seed=0)
    elapsed = time.time() - t0
    worst = max(deviations[name] for name in GATED_IDENTITIES)
    ok = worst <= 1e-9 and elapsed < 30.0
    report("6 transform identity suite", ok,
           f"worst gated deviation {worst:.2e} over 500 instances in {elapsed:.1f}s (<30s)")


def test_criterion_7_surgery_bound():
    records = surgery_bound_trials([0.5, 0.1, 0.02], instances=100, seed=0)
    violations = [r for r in records if not r["holds"]]
    margins = min(r["eps"] - r["deviation"] for r in records)
    report("7 window-surgery Cayley bound", not violations,
           f"{len(records)} instances across eps in (0.5, 0.1, 0.02), "
           f"{len(violations)} violations, min margin {margins:.3f}")


def test_criterion_8_homotopy_suite():
    n = 256
    grid = GridSpace(n)
    rng = np.random.default_rng(0)
    a = compact_injective_sample(rng, n)
    b = compact_injective_sample(rng, n)
    A, B = HermOp(np.eye(n) + 0.5 * a), HermOp(np.eye(n) + 0.5 * b)
    k = default_compact_factor(n)
    u = np.eye(n, dtype=complex)

    zk = zk_path(a, b, grid)
    endpoints = (
        np.array_equal(zk(0.0), a)
        and np.array_equal(zk(1.0), b)
        and rk_contraction(0.0, A, B, grid) is A
        and rk_contraction(1.0, A, B, grid) is B
        and compactify_homotopy(0.0, A, k) is A
        and np.array_equal(shrink_isometry(1.0, grid), np.eye(n))
        and np.array_equal(stretch_isometry(0.0, grid), np.eye(n))
        and np.array_equal(log_path(u)(0.0), np.eye(n, dtype=complex))
    )
    margin = zk_injectivity_margin(128, seed=0)
    odd_defect = odd_retraction_defect(64, seed=0)
    deltas = [discretization_tolerance(m) for m in (128, 256, 512)]
    monotone = deltas[0] > deltas[1] > deltas[2]
    ok = endpoints and margin > 1e-8 and odd_defect <= 1e-9 and monotone
    report("8 homotopy suite", ok,
           f"endpoints exact: {endpoints}; min singular value {margin:.2e} (>1e-8); "
           f"odd-constraint defect {odd_defect:.2e} (<=1e-9); "
           f"delta(n) = {[round(d, 4) for d in deltas]} decreasing: {monotone}")


def test_criterion_9_covering_conjunction_law():
    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 8))
        A = random_hermitian(rng, dim, scale=3.0)
        tau = SymmetricTuple.from_positive(np.sort(rng.uniform(0.05, 3.5, int(rng.integers(1, 4)))))
        sig = SymmetricTuple.from_positive(np.sort(rng.uniform(0.05, 3.5, int(rng.integers(1, 4)))))
        lhs = covering_membership(A, tau.union(sig))
        rhs = covering_membership(A, tau) and covering_membership(A, sig)
        failures += lhs != rhs
    report("9 covering conjunction law", failures == 0,
           f"1000 random instances, {failures} counterexamples")
