import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from opflow import sturm
from opflow.errors import DomainError, ValidationError
from opflow.linalg import _lapack
from opflow.sturm import (
    SCHEME_DIRICHLET,
    SCHEME_GHOST,
    ProjectivePoint,
    analytic_eigenvalues,
    assemble_robin_operator,
    dichotomy_sweep,
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
        assert DIRICHLET.theta == ProjectivePoint(-1.0, 0.0).theta == 0.0  # not pi

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            ProjectivePoint(0.0, 0.0)

    def test_neumann_normalization_starts_below_1e_15(self):
        """x0 = 1e-15 exactly is kept; anything below it, and x0 = -0.0, is the Neumann point (0, 1)."""
        assert ProjectivePoint(1e-15, 1.0).x0 == 1e-15
        for x0, x1 in ((5e-16, 1.0), (-5e-16, -1.0), (-0.0, -1.0), (0.0, -2.0)):
            p = ProjectivePoint(x0, x1)
            assert (p.x0, p.x1) == (0.0, 1.0) and math.copysign(1.0, p.x0) == 1.0


class TestAssembly:
    def test_minimum_grid(self):
        with pytest.raises(ValidationError):
            assemble_robin_operator(DIRICHLET, 8)
        assert assemble_robin_operator(DIRICHLET, sturm.MIN_GRID).matrix.dim == sturm.MIN_GRID

    @pytest.mark.parametrize("x", [ProjectivePoint(1.0, 0.3), NEUMANN, DIRICHLET])
    def test_eigenfunctions_are_orthonormal_in_the_weights(self, x):
        """The half-weight last cell of the ghost scheme is what makes them orthogonal."""
        op = assemble_robin_operator(x, 32)
        psi = np.array([op.eigenfunction(k) for k in range(4)])
        np.testing.assert_allclose((psi * op.weights) @ psi.T, np.eye(4), atol=1e-12)

    def test_boundary_entry_overflow_names_the_parameter(self):
        with pytest.raises(ValidationError, match=r"d\[-1\] = -inf .* \[1\.0 : 1e-310\], n = 400"):
            assemble_robin_operator(ProjectivePoint(1.0, 1e-310), 400)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(16, 5000), theta=st.floats(0.0, math.pi, exclude_max=True))
    @example(n=16, theta=0.0)  # the Dirichlet point
    @example(n=800, theta=math.pi / 4)  # [1:1], whose corner is 2/h^2 - 2/h
    def test_family_bands_are_the_finite_difference_matrix_bit_for_bit(self, n, theta):
        x = ProjectivePoint.from_angle(theta)
        if x.is_dirichlet:
            h = 1.0 / (n + 1)
            d, e = np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2)
        else:
            h = 1.0 / n
            d, e = np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2)
            d[-1], e[-1] = 2.0 / h**2 - 2.0 * (x.x0 / x.x1) / h, -math.sqrt(2.0) / h**2
            assume(math.isfinite(d[-1]))  # an overflowing corner raises; see the overflow test
        bands = sturm._RobinFamily(n)(x).bands
        assert np.array_equal(bands[0], d) and np.array_equal(bands[1], e)
        assert bands[0].dtype == bands[1].dtype == np.float64

    def test_dirichlet_nodes_are_the_shifted_grid(self):
        """On t_i = i/(n+1) with weight 1/(n+1), the lowest eigenfunction is sqrt(2) sin(pi t) exactly."""
        op = assemble_robin_operator(DIRICHLET, 32)
        np.testing.assert_allclose(op.nodes, np.arange(1, 33) / 33.0, rtol=1e-15)
        psi = op.eigenfunction(0)
        np.testing.assert_allclose(np.sign(psi[0]) * psi, math.sqrt(2.0) * np.sin(math.pi * op.nodes),
                                   atol=1e-12)

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
    def test_bisection_returns_an_exact_zero_at_once(self):
        assert sturm._bisect(lambda mu: mu - 1.0, 1.0, 2.0) == 1.0  # at the lower edge
        assert sturm._bisect(lambda mu: mu - 1.5, 1.0, 2.0) == 1.5  # at the first midpoint
        assert sturm._bisect(lambda mu: mu - 2.0, 1.0, 2.0) == 2.0  # at the upper edge

    def test_bisection_tolerance_is_relative(self):
        """Near 1e6 an absolute 1e-12 is below the spacing of floats, so bisection would never stop."""
        assert sturm._bisect(lambda mu: mu - 1e6 - 0.3, 1e6, 2e6) == pytest.approx(1e6 + 0.3, rel=1e-12)

    def test_bisection_bracket_must_change_sign(self):
        with pytest.raises(ValidationError, match=r"bracket \[1.0, 2.0\] does not change sign"):
            sturm._bisect(lambda mu: mu, 1.0, 2.0)

    def test_dirichlet_ladder(self):
        evs = analytic_eigenvalues(DIRICHLET, 4)
        np.testing.assert_allclose(evs, [(k * math.pi) ** 2 for k in (1, 2, 3, 4)], rtol=1e-12)

    def test_neumann_ladder(self):
        evs = analytic_eigenvalues(NEUMANN, 3)
        np.testing.assert_allclose(evs, [((k + 0.5) * math.pi) ** 2 for k in (0, 1, 2)], rtol=1e-12)

    def test_balanced_contains_zero(self):
        evs = analytic_eigenvalues(ProjectivePoint(1.0, 1.0), 3)
        assert abs(evs[0]) < 1e-12
        assert evs[1] == pytest.approx(4.493409457909064**2, rel=1e-10)  # tan mu = mu

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

    @pytest.mark.parametrize("x1", [1e-12, 1e-13])
    def test_negative_root_of_a_parameter_near_dirichlet(self, x1):
        """At [1 : x1] the root is x0/x1 to rounding: tanh(mu) is 1 there."""
        x = ProjectivePoint(1.0, x1)
        assert negative_eigenvalue_root(x) == pytest.approx(x.x0 / x.x1, rel=1e-12)
        assert analytic_eigenvalues(x, 1)[0] == pytest.approx(-((x.x0 / x.x1) ** 2), rel=1e-12)

    @pytest.mark.parametrize("x1", [1e-13, 1e-16])
    def test_lowest_values_near_dirichlet(self, x1):
        """-(x0/x1)^2, then the Dirichlet ladder: the k-th positive root sits about x1 k pi above k pi."""
        x = ProjectivePoint(1.0, x1)
        np.testing.assert_allclose(analytic_eigenvalues(x, 3),
                                   [-((x.x0 / x.x1) ** 2), math.pi**2, 4 * math.pi**2], rtol=1e-12)

    def test_overflowing_bracket_raises(self):
        """x0/x1 is inf at [1 : 5e-324]; bisecting up to it would never stop."""
        with pytest.raises(ValidationError, match=r"x0/x1 = inf overflows at \[1.0 : 5e-324\]"):
            analytic_eigenvalues(ProjectivePoint(1.0, 5e-324), 3)

    def test_overflowing_negative_eigenvalue_raises(self):
        """At [1 : 1e-160] the root mu = 1e160 is finite, but -mu^2 is not a float."""
        with pytest.raises(ValidationError, match=r"-mu\^2 overflows at \[1.0 : 1e-160\], mu = 1e\+160"):
            analytic_eigenvalues(ProjectivePoint(1.0, 1e-160), 2)

    def test_largest_negative_eigenvalue_is_finite(self):
        """At [1 : 1e-150] -mu^2 = -1e300 is still a float, and is returned."""
        assert analytic_eigenvalues(ProjectivePoint(1.0, 1e-150), 1)[0] == pytest.approx(-1e300, rel=1e-12)

    def test_roots_near_neumann_all_found(self):
        """At [1e-15 : 1] the roots sit within 1e-15 of (k + 1/2) pi, past where cos(pi/2) > 0 in floats."""
        roots = sturm.positive_eigenvalue_roots(ProjectivePoint(1e-15, 1.0), 12)
        np.testing.assert_allclose(roots, (np.arange(12) + 0.5) * math.pi, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(exponent=st.floats(-300.0, 3.0), sign=st.sampled_from([1.0, -1.0]))
    def test_roots_satisfy_their_secular_equations(self, exponent, sign):
        """Every root solves its equation in offset form, and k pi interlaces the positive roots."""
        x = ProjectivePoint(1.0, sign * 10.0**exponent)
        s, a = math.copysign(1.0, x.x1), abs(x.x1)
        mu = negative_eigenvalue_root(x)
        assert (mu is not None) == (0.0 < x.x1 < x.x0)
        if mu is not None:
            assert 0.0 < mu <= x.x0 / x.x1
            assert abs(x.x0 * math.tanh(mu) - x.x1 * mu) <= 1e-12 * (x.x0 + x.x1 * mu)
        roots = sturm.positive_eigenvalue_roots(x, 6)
        first = 1 if x.x1 <= x.x0 else 0  # past [1:1] one root lies below pi/2
        for k, root in enumerate(roots, start=first):
            delta = s * (root - k * math.pi)
            assert 0.0 <= delta <= 0.5 * math.pi
            h = x.x0 * math.sin(delta) - a * root * math.cos(delta)  # root = k pi + s delta
            assert abs(h) <= 2e-12 * (x.x0 + a * (root + 1.0))
        assert all(np.diff(roots) > 0.0)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            analytic_eigenvalues(DIRICHLET, 0)
        assert sturm.positive_eigenvalue_roots(ProjectivePoint(1.0, 2.0), 0) == []

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

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan])
    def test_window_must_be_positive(self, window):
        with pytest.raises(ValidationError, match=f"window = {window!r}"):
            spectral_graph(16, 32, window)

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

    def test_indices_count_from_the_window_edge(self):
        for theta, indices, values in spectral_graph(16, 64, window=300.0):
            full = assemble_robin_operator(ProjectivePoint.from_angle(theta), 64).matrix.eigenvalues
            below = int(np.sum(full < -300.0))
            assert np.array_equal(indices, below + np.arange(values.size))
            np.testing.assert_allclose(values, full[indices], rtol=1e-12, atol=1e-9)

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
        for riesz_lower, gap in dichotomy_sweep([1e-2, 1e-3, 1e-4], 400):
            assert riesz_lower >= 0.9
        assert gap <= 0.2  # x1 = 1e-4 row

    @pytest.mark.parametrize("x1", [1e-152, 1e-200])
    def test_far_parameter_bound_is_one(self, monkeypatch, x1):
        """lambda_0 ~ -2n/x1 squared would overflow; the bound is still 1."""
        monkeypatch.setattr(sturm, "gap_dist", lambda A, B: 0.0)  # far pairs raise there
        assert dichotomy_sweep([x1], 400) == [(1.0, 0.0)]

    def test_soft_parameter_has_weak_bound(self):
        [(riesz_lower, _)] = dichotomy_sweep([0.9], 400)
        assert riesz_lower < 0.5

    def test_grid_convergence_of_the_dichotomy(self):
        """Riesz-far stays near 1 while the gap to Dirichlet shrinks with the grid."""
        gaps = []
        for n in (400, 1600, 10000):
            start = time.perf_counter()
            [(riesz_lower, gap)] = dichotomy_sweep([1e-4], n)
            elapsed = time.perf_counter() - start
            assert riesz_lower >= 0.9
            gaps.append(gap)
        assert elapsed < 1.0  # the n = 10^4 row: banded solves only
        assert gaps[0] > gaps[1] > gaps[2]

    def test_sweep_checks_one_comparison_operator(self, monkeypatch):
        """One family and one read of the Dirichlet operator's lowest eigenvalue for the whole sweep."""
        x1s = [1e-4, 1e-2, 0.9]
        rows = [dichotomy_sweep([x1], 64)[0] for x1 in x1s]
        built, lowest = [], []
        family, read = sturm._RobinFamily, sturm.HermOp.lowest_eigenvalue

        def counted_family(n):
            built.append(n)
            return family(n)

        def counted_read(op):
            lowest.append(op)
            return read(op)

        monkeypatch.setattr(sturm, "_RobinFamily", counted_family)
        monkeypatch.setattr(sturm.HermOp, "lowest_eigenvalue", counted_read)
        assert dichotomy_sweep(x1s, 64) == rows
        assert built == [64]
        assert len(lowest) == 4 and len({id(op) for op in lowest}) == 4  # the Dirichlet op once

    def test_sweep_factors_the_dirichlet_operator_once(self, monkeypatch):
        """Nine rows at n = 400: one T' + i factor for the block, one for Dirichlet, one per Robin row."""
        lapack, calls = _lapack(), []
        factor = lapack.zgttrf

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(lapack, "zgttrf", counted)
        dichotomy_sweep(np.geomspace(1e-4, 0.9, 9), 400)
        assert 0 < len(calls) <= 11

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


def outcome(read):
    """What a route answers: its terms, or the ValidationError it raises, as (type, message)."""
    try:
        return read()
    except ValidationError as exc:
        return type(exc), str(exc)


class TestRobinLoopTerms:
    """The loop answers each parameter's terms itself, bit for bit as its operator would."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(16, 2000), theta=st.floats(-10.0, 10.0), radius=st.sampled_from([2.0, 20.0, 2e5]))
    @example(n=64, theta=0.0, radius=2.0)  # the Dirichlet point: the Dirichlet matrix's terms
    @example(n=64, theta=math.pi, radius=20.0)
    @example(n=800, theta=3.0 * math.pi, radius=2.0)
    @example(n=800, theta=math.pi / 2, radius=2.0)  # Neumann
    @example(n=800, theta=math.pi / 2 + 1e-16, radius=2e5)
    @example(n=800, theta=math.pi / 2 - 1e-16, radius=2.0)
    @example(n=800, theta=5e-16, radius=2.0)
    @example(n=2000, theta=math.pi - 1e-15, radius=2.0)
    @example(n=16, theta=1e-300, radius=2.0)
    @example(n=800, theta=math.pi / 4, radius=2.0)  # [1:1]: the exact discrete null vector
    def test_terms_equal_the_operator_route(self, n, theta, radius):
        loop = robin_generator(n)
        assert outcome(lambda: loop.flow_terms(theta, radius)) == outcome(lambda: loop(theta).flow_terms(radius))

    @pytest.mark.parametrize("theta", [1e-310, 5e-324])
    def test_an_overflowing_corner_raises_the_same_error_on_both_routes(self, theta):
        loop = robin_generator(400)
        with pytest.raises(ValidationError, match=r"d\[-1\] = -inf overflows at \[1\.0 : .*\], n = 400$") as terms:
            loop.flow_terms(theta, 2.0)
        with pytest.raises(ValidationError) as operator:
            loop(theta)
        assert str(terms.value) == str(operator.value)


class TestDirichletOnFirstRead:
    @staticmethod
    def spy(monkeypatch):
        """Every family built from here on records each read of its Dirichlet matrix: True where it built it."""
        reads = []

        class Spy(sturm._RobinFamily):
            __slots__ = ()

            @property
            def dirichlet(self):
                reads.append(self._dirichlet is None)
                return super().dirichlet

        monkeypatch.setattr(sturm, "_RobinFamily", Spy)
        return reads

    def test_a_robin_operator_off_the_dirichlet_point_builds_none(self, monkeypatch):
        reads = self.spy(monkeypatch)
        assert assemble_robin_operator(ProjectivePoint(1.0, 0.3), 400).scheme == SCHEME_GHOST
        assert reads == []
        assert assemble_robin_operator(DIRICHLET, 400).scheme == SCHEME_DIRICHLET
        assert reads == [True]

    def test_a_dichotomy_sweep_builds_it_once(self, monkeypatch):
        reads = self.spy(monkeypatch)
        dichotomy_sweep([1e-4, 1e-2, 0.9], 64)
        assert reads == [True]

    def test_a_robin_flow_builds_none_and_the_dirichlet_point_one(self):
        from opflow.specflow import OperatorPath, spectral_flow

        loop = robin_generator(64)
        assert spectral_flow(OperatorPath.sample(loop, 0.0, math.pi, 16, closed=True)).flow == 1
        assert loop.family._dirichlet is None
        dirichlet = loop(math.pi)
        assert loop.flow_terms(0.0, 2.0) == dirichlet.flow_terms(2.0)
        assert loop.family.dirichlet is dirichlet and loop(3.0 * math.pi) is dirichlet
