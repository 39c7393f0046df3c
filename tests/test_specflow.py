import math

import numpy as np
import pytest

from opflow.errors import NonConvergenceError, ValidationError
from opflow.linalg import HermOp
from opflow.specflow import Crossing, OperatorPath, SpecFlowReport, concat, spectral_flow
from opflow.sturm import robin_generator


def diag_gen(*funcs):
    return lambda t: HermOp(np.diag([f(t) for f in funcs]))


CROSS = diag_gen(lambda t: t - 0.5, lambda t: 2.0)
CONST = diag_gen(lambda t: 1.0, lambda t: 2.0)


def reverse_path(path: OperatorPath) -> OperatorPath:
    a, b = path.domain
    gen = lambda t: path.generator(a + b - t)
    thetas = (a + b - path.thetas)[::-1]
    return OperatorPath(thetas, path.operators[::-1], gen, closed=path.closed)


class TestOperatorPath:
    def test_requires_ascending(self):
        ops = (HermOp(np.eye(2)), HermOp(np.eye(2)))
        with pytest.raises(ValidationError, match="ascending"):
            OperatorPath(np.array([1.0, 0.0]), ops, lambda t: ops[0])

    def test_requires_same_dims(self):
        ops = (HermOp(np.eye(2)), HermOp(np.eye(3)))
        with pytest.raises(ValidationError, match="dimension"):
            OperatorPath(np.array([0.0, 1.0]), ops, lambda t: ops[0])

    def test_closed_endpoint_mismatch(self):
        ops = (HermOp(np.eye(2)), HermOp(2 * np.eye(2)))
        with pytest.raises(ValidationError, match="closed"):
            OperatorPath(np.array([0.0, 1.0]), ops, lambda t: ops[0], closed=True)

    def test_closed_sampling_repeats_first_operator(self):
        path = OperatorPath.sample(robin_generator(32), 0.0, math.pi, 8, closed=True)
        assert path.operators[0] is path.operators[-1]
        assert path.thetas.size == 9

    def test_open_sampling_hits_endpoints(self):
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 4)
        assert path.thetas[0] == 0.0 and path.thetas[-1] == 1.0


class TestSpectralFlowBasics:
    def test_single_upward_crossing(self):
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 8)
        report = spectral_flow(path, window0=1.0)
        assert report.flow == 1
        assert len(report.crossings) == 1
        c = report.crossings[0]
        assert c.theta_lo <= 0.5 <= c.theta_hi and c.direction == 1

    def test_constant_path(self):
        path = OperatorPath.sample(CONST, 0.0, 1.0, 8)
        assert spectral_flow(path, window0=1.0).flow == 0

    def test_reversal_negates(self):
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 8)
        assert spectral_flow(reverse_path(path), window0=1.0).flow == -1

    def test_downward_crossing(self):
        gen = diag_gen(lambda t: 0.5 - t, lambda t: 2.0)
        path = OperatorPath.sample(gen, 0.0, 1.0, 8)
        assert spectral_flow(path, window0=1.0).flow == -1

    def test_multiple_crossings_cancel(self):
        gen = diag_gen(lambda t: math.sin(2 * math.pi * t) + 0.3, lambda t: 2.0)
        path = OperatorPath.sample(gen, 0.0, 1.0, 32)
        assert spectral_flow(path, window0=1.5).flow == 0

    def test_window_must_be_positive(self):
        path = OperatorPath.sample(CONST, 0.0, 1.0, 4)
        with pytest.raises(ValidationError):
            spectral_flow(path, window0=0.0)

    def test_open_endpoint_kernel_rejected(self):
        gen = diag_gen(lambda t: t, lambda t: 2.0)
        path = OperatorPath.sample(gen, 0.0, 1.0, 4)
        with pytest.raises(ValidationError, match="endpoint"):
            spectral_flow(path, window0=1.0)

    def test_nonconvergence_reports_bracket(self):
        rng = np.random.default_rng(0)
        jitter = rng.uniform(-1.0, 1.0, 64)
        gen = lambda t: HermOp(np.diag([jitter[int(t * 63.999)], 2.0]))
        path = OperatorPath.sample(gen, 0.0, 1.0, 8)
        with pytest.raises(NonConvergenceError, match="refinement budget"):
            spectral_flow(path, window0=1.5, max_depth=3)

    def test_report_invariant_enforced(self):
        with pytest.raises(ValidationError, match="signed sum"):
            SpecFlowReport(2, np.array([0.0, 1.0]), (0.5,), (Crossing(0.0, 1.0, 1),))

    def test_json_shape(self):
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 8)
        payload = spectral_flow(path, window0=1.0).to_json_dict()
        assert set(payload) == {"flow", "partition", "crossings"}
        assert payload["crossings"][0].keys() == {"theta_lo", "theta_hi", "direction"}


class TestRefinementAndStability:
    def test_doubling_samples_stable(self):
        for n in (8, 16, 32):
            path = OperatorPath.sample(CROSS, 0.0, 1.0, n)
            assert spectral_flow(path, window0=1.0).flow == 1

    def test_exact_zero_at_sample_point_handled(self):
        # t = 0.5 is a sample: the crossing eigenvalue is exactly 0.0 there
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 4)
        assert spectral_flow(path, window0=1.0).flow == 1

    def test_refinement_called_through_generator(self):
        calls = []

        def gen(t):
            calls.append(t)
            return HermOp(np.diag([math.tan(2.0 * (t - 0.5)), 2.0]))

        path = OperatorPath.sample(gen, 0.0, 1.0, 4)
        report = spectral_flow(path, window0=1.0, max_depth=20)
        assert report.flow == 1
        assert len(calls) > 5  # coarse sampling forces bisection
        assert len(report.partition) > 5

    def test_perturbation_robustness(self):
        path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, 32, closed=True)
        report = spectral_flow(path, window0=1.0)
        scale = min(report.window_radii) / 10.0
        rng = np.random.default_rng(7)
        noise = {}

        def perturbed(theta):
            base = robin_generator(200)(theta)
            if theta not in noise:
                X = rng.standard_normal((200, 200))
                X = (X + X.T) / 2
                noise[theta] = scale * X / np.linalg.norm(X, 2)
            return HermOp(base.matrix + noise[theta])

        p2 = OperatorPath.sample(perturbed, 0.0, math.pi, 32, closed=True)
        assert spectral_flow(p2, window0=1.0).flow == report.flow == 1


class TestConcat:
    def test_split_crossing_path(self):
        left = OperatorPath.sample(CROSS, 0.0, 0.4375, 7)
        right = OperatorPath.sample(CROSS, 0.4375, 1.0, 9)
        joined = concat(left, right)
        f_left = spectral_flow(left, window0=1.0).flow
        f_right = spectral_flow(right, window0=1.0).flow
        assert f_left + f_right == 1
        assert spectral_flow(joined, window0=1.0).flow == 1

    def test_path_plus_reversal_cancels(self):
        fwd = OperatorPath.sample(CROSS, 0.0, 1.0, 8)
        bwd = reverse_path(OperatorPath.sample(
            lambda t: CROSS(t - 1.0), 1.0, 2.0, 8))
        assert spectral_flow(fwd, window0=1.0).flow + spectral_flow(bwd, window0=1.0).flow == 1 - 1

    def test_junction_mismatch_rejected(self):
        left = OperatorPath.sample(CROSS, 0.0, 0.5, 4)
        right = OperatorPath.sample(CONST, 0.5, 1.0, 4)
        with pytest.raises(ValidationError, match="junction"):
            concat(left, right)

    def test_domain_mismatch_rejected(self):
        left = OperatorPath.sample(CROSS, 0.0, 0.4, 4)
        right = OperatorPath.sample(CROSS, 0.5, 1.0, 4)
        with pytest.raises(ValidationError, match="abut"):
            concat(left, right)

    def test_robin_loop_split_at_half(self):
        gen = robin_generator(200)
        left = OperatorPath.sample(gen, 0.05, math.pi / 2, 16)
        right = OperatorPath.sample(gen, math.pi / 2, math.pi + 0.05, 16)
        total = (spectral_flow(left, window0=1.0).flow
                 + spectral_flow(right, window0=1.0).flow)
        assert total == 1
        assert spectral_flow(concat(left, right), window0=1.0).flow == 1


class TestRobinLoop:
    def test_flow_is_one(self):
        path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, 32, closed=True)
        report = spectral_flow(path, window0=1.0)
        assert report.flow == 1
        assert len(report.crossings) == 1
        c = report.crossings[0]
        assert c.theta_lo <= math.pi / 4 + 0.11 and c.theta_hi >= math.pi / 4 - 0.11

    def test_flow_stable_under_sample_doubling(self):
        for samples in (32, 64):
            path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, samples, closed=True)
            assert spectral_flow(path, window0=1.0).flow == 1


def dense_twin(path: OperatorPath) -> OperatorPath:
    """The same path with every operator re-wrapped in dense storage."""
    dense = lambda op: HermOp(op.matrix)
    gen = lambda t: dense(path.generator(t))
    ops = tuple(dense(op) for op in path.operators[:-1])
    last = ops[0] if path.closed else dense(path.operators[-1])
    return OperatorPath(path.thetas, ops + (last,), gen, closed=path.closed)


def banded_diag_gen(*funcs):
    return lambda t: HermOp.tridiagonal([f(t) for f in funcs], [0.0] * (len(funcs) - 1))


class TestWindowedSpectra:
    def test_robin_loop_banded_equals_dense(self):
        path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, 32, closed=True)
        assert path.operators[0].bands is not None
        banded = spectral_flow(path, window0=1.0)
        dense = spectral_flow(dense_twin(path), window0=1.0)
        assert banded.to_json_dict() == dense.to_json_dict()
        np.testing.assert_allclose(banded.window_radii, dense.window_radii, rtol=1e-8)

    def test_eigenvalue_leaving_the_solve_radius_forces_bisection(self):
        # one eigenvalue ramps from 0.5 to 5 inside the sample step [0.25, 0.375];
        # at 5 it lies beyond the solve radius 2 * window0 and has no partner,
        # while the eigenvalue at 10 stays out of every window
        ramp = lambda t: 0.5 + 4.5 * min(max((t - 0.3) / 0.02, 0.0), 1.0)
        path = OperatorPath.sample(
            banded_diag_gen(ramp, lambda t: t - 0.5, lambda t: 10.0), 0.0, 1.0, 8)
        report = spectral_flow(path, window0=1.0)
        assert report.flow == 1
        assert np.any((report.partition > 0.25) & (report.partition < 0.375))
        assert report.to_json_dict() == spectral_flow(dense_twin(path), window0=1.0).to_json_dict()

    @pytest.mark.parametrize("storage", [diag_gen, banded_diag_gen])
    def test_empty_windows(self, storage):
        path = OperatorPath.sample(storage(lambda t: 5.0 + t, lambda t: -6.0), 0.0, 1.0, 4)
        report = spectral_flow(path, window0=1.0)
        assert report.flow == 0 and report.partition.size == 5

    def test_closed_path_never_builds_its_matrix(self):
        path = OperatorPath.sample(robin_generator(64), 0.0, math.pi, 16, closed=True)
        spectral_flow(path, window0=1.0)
        assert all(op._matrix is None for op in path.operators)
