import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow.errors import DomainError, ValidationError
from opflow.sturm import (
    SCHEME_DIRICHLET,
    SCHEME_GHOST,
    ProjectivePoint,
    analytic_eigenvalues,
    assemble_robin_operator,
    dichotomy_row,
    eigenfunction_concentration,
    negative_eigenvalue_root,
    robin_generator,
    spectral_graph,
)

DIRICHLET = ProjectivePoint(1.0, 0.0)
NEUMANN = ProjectivePoint(0.0, 1.0)


class TestProjectivePoint:
    @settings(max_examples=100, deadline=None)
    @given(x0=st.floats(-10, 10), x1=st.floats(-10, 10))
    def test_normalization(self, x0, x1):
        if abs(x0) + abs(x1) < 1e-6:
            return
        p = ProjectivePoint(x0, x1)
        assert abs(p.x0**2 + p.x1**2 - 1.0) < 1e-12
        assert p.x0 > 0.0 or (p.x0 == 0.0 and p.x1 == 1.0)

    def test_sign_identification(self):
        assert ProjectivePoint(1.0, 2.0) == ProjectivePoint(-1.0, -2.0)

    def test_angle_periodicity(self):
        p = ProjectivePoint.from_angle(0.3)
        q = ProjectivePoint.from_angle(0.3 + math.pi)
        assert abs(p.x0 - q.x0) < 1e-12 and abs(p.x1 - q.x1) < 1e-12

    def test_theta_in_range(self):
        for theta in (0.1, 1.2, 2.9):
            assert abs(ProjectivePoint.from_angle(theta).theta - theta) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            ProjectivePoint(0.0, 0.0)


class TestAssembly:
    def test_minimum_grid(self):
        with pytest.raises(ValidationError):
            assemble_robin_operator(DIRICHLET, 8)

    def test_schemes(self):
        assert assemble_robin_operator(DIRICHLET, 32).scheme == SCHEME_DIRICHLET
        assert assemble_robin_operator(NEUMANN, 32).scheme == SCHEME_GHOST

    def test_dirichlet_lowest_eigenvalue(self):
        op = assemble_robin_operator(DIRICHLET, 500)
        assert abs(op.matrix.eigenvalues[0] - math.pi**2) / math.pi**2 < 1e-3

    def test_neumann_lowest_eigenvalue(self):
        op = assemble_robin_operator(NEUMANN, 500)
        assert abs(op.matrix.eigenvalues[0] - math.pi**2 / 4) / (math.pi**2 / 4) < 1e-3

    def test_balanced_point_has_exact_kernel(self):
        op = assemble_robin_operator(ProjectivePoint(1.0, 1.0), 500)
        assert float(np.min(np.abs(op.matrix.eigenvalues))) < 1e-4
        # the discrete null vector is the linear function
        psi = op.eigenfunction(int(np.argmin(np.abs(op.matrix.eigenvalues))))
        psi /= psi[-1]
        np.testing.assert_allclose(psi, op.nodes, atol=1e-6)

    def test_convergence_order(self):
        ns = [250, 500, 1000, 2000]
        errs = [abs(assemble_robin_operator(DIRICHLET, n).matrix.eigenvalues[0] - math.pi**2)
                for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope + 2.0) < 0.3


class TestOracle:
    def test_dirichlet_ladder(self):
        evs = analytic_eigenvalues(DIRICHLET, 4)
        np.testing.assert_allclose(evs, [(k * math.pi) ** 2 for k in (1, 2, 3, 4)], rtol=1e-12)

    def test_neumann_ladder(self):
        evs = analytic_eigenvalues(NEUMANN, 3)
        np.testing.assert_allclose(evs, [((k + 0.5) * math.pi) ** 2 for k in (0, 1, 2)], rtol=1e-12)

    def test_balanced_contains_zero(self):
        evs = analytic_eigenvalues(ProjectivePoint(1.0, 1.0), 3)
        assert abs(evs[0]) < 1e-12

    def test_half_parameter_negative_root(self):
        x = ProjectivePoint(1.0, 0.5)
        mu = negative_eigenvalue_root(x)
        assert abs(mu - 1.9150) < 1e-4
        assert abs(x.x0 * math.tanh(mu) - x.x1 * mu) < 1e-12
        assert abs(analytic_eigenvalues(x, 1)[0] + 3.667) < 1e-3

    def test_negative_root_exists_iff_between_dirichlet_and_balanced(self):
        assert negative_eigenvalue_root(ProjectivePoint(1.0, 0.7)) is not None
        assert negative_eigenvalue_root(ProjectivePoint(1.0, 1.0)) is None
        assert negative_eigenvalue_root(ProjectivePoint(1.0, 1.5)) is None
        assert negative_eigenvalue_root(ProjectivePoint(1.0, -0.2)) is None
        assert negative_eigenvalue_root(DIRICHLET) is None

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            analytic_eigenvalues(DIRICHLET, 0)

    def test_discrete_agreement_random_parameters(self):
        """Discretized vs transcendental-root eigenvalues, 5 lowest each."""
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0.05, math.pi - 0.05, 10):
            x = ProjectivePoint.from_angle(float(theta))
            ana = analytic_eigenvalues(x, 5)
            disc = assemble_robin_operator(x, 2000).matrix.eigenvalues[:5]
            for a, d in zip(ana, disc):
                if abs(a) < 1.0:
                    assert abs(a - d) < 1e-2
                else:
                    assert abs(a - d) / abs(a) < 1e-3


class TestSpectralGraph:
    def test_minimum_samples(self):
        with pytest.raises(ValidationError):
            spectral_graph(8, 64)

    def test_zero_crossing_location(self):
        records = spectral_graph(64, 200, window=30.0)
        # bracket the sign change of the eigenvalue branch nearest zero
        nearest = [(theta, values[np.argmin(np.abs(values))] if values.size else np.inf)
                   for theta, _, values in records]
        brackets = [
            (t1, t2)
            for (t1, v1), (t2, v2) in zip(nearest, nearest[1:])
            if np.isfinite(v1) and np.isfinite(v2) and v1 < 0 <= v2
        ]
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo <= math.pi / 4 <= hi + 2 * math.pi / 64

    def test_neumann_fiber(self):
        records = spectral_graph(16, 400, window=30.0)
        theta, _, values = records[8]  # theta = pi/2
        assert abs(theta - math.pi / 2) < 1e-12
        expected = [v for v in ((k + 0.5) ** 2 * math.pi**2 for k in range(3)) if v <= 30.0]
        np.testing.assert_allclose(values[:len(expected)], expected, rtol=1e-3)

    def test_negative_eigenvalues_only_before_quarter_turn(self):
        h = math.pi / 64
        for j in range(64):
            theta = j * h
            lowest = float(assemble_robin_operator(
                ProjectivePoint.from_angle(theta), 200).matrix.eigenvalues[0])
            inside = 0.0 < theta < math.pi / 4
            if abs(theta - math.pi / 4) <= h or theta == 0.0:
                continue  # grid-tolerance collar around the transition
            assert (lowest < -1e-8) == inside

    def test_branch_monotonicity_off_the_wrap(self):
        records = spectral_graph(32, 200, window=50.0)
        full = [np.asarray(assemble_robin_operator(
            ProjectivePoint.from_angle(t), 200).matrix.eigenvalues)
            for t, _, _ in records]
        for j in range(1, len(full) - 1):
            w1, w2 = full[j], full[j + 1]
            sel = (np.abs(w1) <= 50.0) | (np.abs(w2) <= 50.0)
            assert np.all(w2[sel] - w1[sel] > -1e-6)


class TestConcentration:
    def test_rate_matches_oracle(self):
        mu, _ = eigenfunction_concentration(ProjectivePoint(1.0, 0.5), 400)
        assert abs(mu - 1.9150) < 1e-3

    def test_mass_drains_toward_boundary(self):
        m_sharp = eigenfunction_concentration(ProjectivePoint(1.0, 0.01), 400)[1]
        m_soft = eigenfunction_concentration(ProjectivePoint(1.0, 0.3), 400)[1]
        assert m_sharp < m_soft

    def test_asymptotic_profile(self):
        # choose the parameter so the decay rate is mu = 5
        x = ProjectivePoint(1.0, math.tanh(5.0) / 5.0)
        mu, mass_left = eigenfunction_concentration(x, 400)
        assert abs(mu - 5.0) < 1e-3
        ratio = mass_left / math.exp(-2.0 * mu * 0.1)
        assert 0.5 < ratio < 2.0

    def test_no_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            eigenfunction_concentration(ProjectivePoint(1.0, 1.5), 64)

    @pytest.mark.parametrize("delta", [float("nan"), -0.1, 1.5, float("inf")])
    def test_delta_outside_the_unit_interval_rejected(self, delta):
        with pytest.raises(ValidationError, match=f"delta = {delta!r}"):
            eigenfunction_concentration(ProjectivePoint(1.0, 0.3), 64, delta=delta)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_delta_endpoints_allowed(self, delta):
        _, mass_left = eigenfunction_concentration(ProjectivePoint(1.0, 0.3), 64, delta=delta)
        assert 0.0 <= mass_left <= 1.0 + 1e-12

    @pytest.mark.parametrize("x1", [0.01, 0.3, 0.5])
    def test_one_eigenpair_matches_the_full_solve(self, x1):
        x = ProjectivePoint(1.0, x1)
        op = assemble_robin_operator(x, 400)
        w, V = scipy.linalg.eigh_tridiagonal(*op.matrix.bands)
        psi = V[:, 0].copy()
        assert op.scheme == SCHEME_GHOST
        psi[-1] *= math.sqrt(2.0)  # undo the half-cell similarity
        psi /= math.sqrt(float(np.sum(op.weights * psi * psi)))
        left = op.nodes <= 0.9
        mu, mass_left = eigenfunction_concentration(x, 400)
        assert abs(mu - math.sqrt(-w[0])) <= 1e-10
        assert abs(mass_left - float(np.sum(op.weights[left] * psi[left] ** 2))) <= 1e-10

    def test_large_grid_solves_one_pair(self):
        eigenfunction_concentration(ProjectivePoint(1.0, 0.3), 64)  # warm-up
        start = time.perf_counter()
        eigenfunction_concentration(ProjectivePoint(1.0, 0.3), 2000)
        assert time.perf_counter() - start < 0.2


class TestDichotomy:
    def test_certificate_thresholds(self):
        for x1 in (1e-2, 1e-3, 1e-4):
            riesz_lower, gap = dichotomy_row(x1, 400)
            assert riesz_lower >= 0.9
        assert gap <= 0.2  # x1 = 1e-4 row

    def test_soft_parameter_has_weak_bound(self):
        riesz_lower, _ = dichotomy_row(0.9, 400)
        assert riesz_lower < 0.5

    def test_grid_convergence_of_the_dichotomy(self):
        """Riesz-far stays near 1 while the gap to Dirichlet shrinks with the grid."""
        gaps = []
        for n in (400, 1600, 10000):
            start = time.perf_counter()
            riesz_lower, gap = dichotomy_row(1e-4, n)
            elapsed = time.perf_counter() - start
            assert riesz_lower >= 0.9
            gaps.append(gap)
        assert elapsed < 1.0  # the n = 10^4 row: banded solves only
        assert gaps[0] > gaps[1] > gaps[2]

    def test_transform_eigenvalue_signs(self):
        robin = assemble_robin_operator(ProjectivePoint(1.0, 1e-3), 400)
        dirichlet = assemble_robin_operator(DIRICHLET, 400)
        lam = robin.matrix.eigenvalues[0]
        assert lam / math.sqrt(1 + lam * lam) <= -0.9
        assert dirichlet.matrix.eigenvalues[0] > 0


def test_generator_is_projectively_periodic():
    gen = robin_generator(64)
    A = gen(0.4)
    B = gen(0.4 + math.pi)
    assert np.max(np.abs(A.matrix - B.matrix)) < 1e-6 * np.max(np.abs(A.matrix))
