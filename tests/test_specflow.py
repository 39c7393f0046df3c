import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opflow import specflow
from opflow.errors import ConditioningError, NonConvergenceError, ValidationError
from opflow.linalg import BorderedOp, HermOp
from opflow.specflow import OperatorPath, concat, spectral_flow
from opflow.sturm import robin_generator


def diag_gen(*funcs):
    return lambda t: HermOp(np.diag([f(t) for f in funcs]))


CROSS = diag_gen(lambda t: t - 0.5, lambda t: 2.0)
CONST = diag_gen(lambda t: 1.0, lambda t: 2.0)


def reverse_path(path: OperatorPath) -> OperatorPath:
    a, b = path.domain
    gen = lambda t: path.generator(a + b - t)
    return OperatorPath((a + b - path.thetas)[::-1], gen, closed=path.closed)


class TestOperatorPath:
    def test_requires_ascending(self):
        with pytest.raises(ValidationError, match="ascending"):
            OperatorPath(np.array([1.0, 0.0]), CONST)

    def test_requires_same_dims(self):
        path = OperatorPath(np.array([0.0, 1.0]), lambda t: HermOp(np.eye(2 if t < 0.5 else 3)))
        with pytest.raises(ValidationError, match="dimension"):
            spectral_flow(path)

    def test_midpoint_dimension_is_checked(self):
        # 2x2 at the samples, 3x3 elsewhere: only refinement reads the odd ones
        samples = {0.0, 0.5, 1.0}
        tail = lambda t: [-1.0] * (t not in samples)
        gen = lambda t: HermOp(np.diag([math.tan(4.0 * (t - 0.5)), 2.0] + tail(t)))
        with pytest.raises(ValidationError, match=r"the operator at theta=0\.\d+ has dimension 3, "
                                                  r"the one at theta=0\.0 has 2"):
            spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, 2), window0=1.0)

    @pytest.mark.parametrize("thetas", [[0.0], [[0.0, 1.0]]])
    def test_requires_two_samples_on_one_axis(self, thetas):
        with pytest.raises(ValidationError, match="at least two samples"):
            OperatorPath(np.array(thetas), CONST)

    def test_requires_finite_samples(self):
        with pytest.raises(ValidationError, match="sample parameter nan is not finite"):
            OperatorPath.sample(CONST, 0.0, math.nan, 4)
        with pytest.raises(ValidationError, match="sample parameter inf is not finite"):
            OperatorPath(np.array([0.0, 1.0, math.inf]), CONST)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("a, b, bad", [(0.0, math.inf, "inf"), (-math.inf, 1.0, "-inf"),
                                           (0.0, -math.inf, "-inf"), (math.nan, 1.0, "nan")])
    def test_sampling_names_a_non_finite_end(self, a, b, bad, closed):
        """The end the caller passed is named, before any partition arithmetic can warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^sample parameter {bad} is not finite$"):
                OperatorPath.sample(CONST, a, b, 4, closed=closed)

    def test_requires_a_callable_generator(self):
        # the sampled-operators form (thetas, operators, generator) fails when built
        ops = (HermOp(np.eye(2)),) * 2
        with pytest.raises(ValidationError, match="generator is not callable: tuple"):
            OperatorPath(np.array([0.0, 1.0]), ops, CONST)

    def test_sampling_needs_a_subinterval(self):
        with pytest.raises(ValidationError, match="at least one subinterval"):
            OperatorPath.sample(CROSS, 0.0, 1.0, 0)

    def test_requires_strictly_ascending(self):
        with pytest.raises(ValidationError, match="strictly ascending"):
            OperatorPath(np.array([0.0, 0.5, 0.5]), CONST)

    def test_closed_sampling_off_the_origin(self):
        calls = []

        def gen(t):
            calls.append(t)
            return HermOp(np.eye(2))

        path = OperatorPath.sample(gen, 1.0, 3.0, 4, closed=True)
        np.testing.assert_array_equal(path.thetas, [1.25, 1.75, 2.25, 2.75, 3.25])
        assert calls == []
        spectral_flow(path)
        assert calls == [1.25, 1.75, 2.25, 2.75]

    def test_closed_sampling_repeats_first_operator(self):
        calls, gen = [], robin_generator(32)

        def recording(t):
            calls.append(t)
            return gen(t)

        path = OperatorPath.sample(recording, 0.0, math.pi, 8, closed=True)
        assert path.thetas.size == 9
        assert spectral_flow(path).flow == 1
        assert calls[:8] == list(path.thetas[:-1]) and path.thetas[-1] not in calls

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

    @pytest.mark.parametrize("window0", [math.inf, math.nan])
    def test_window_must_be_finite(self, window0):
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 4)
        with pytest.raises(ValidationError, match="window0 must be positive and finite"):
            spectral_flow(path, window0=window0)

    def test_max_depth_must_be_non_negative(self):
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 4)
        with pytest.raises(ValidationError, match="max_depth"):
            spectral_flow(path, window0=1.0, max_depth=-1)

    def test_zero_max_depth_is_allowed(self):
        path = OperatorPath.sample(CONST, 0.0, 1.0, 4)
        assert spectral_flow(path, window0=1.0, max_depth=0).flow == 0

    def test_spectrum_is_read_on_twice_the_window(self, monkeypatch):
        windows, spectrum = set(), HermOp.spectrum

        def spy(op, lo, hi):
            windows.add((lo, hi))
            return spectrum(op, lo, hi)

        monkeypatch.setattr(HermOp, "spectrum", spy)
        spectral_flow(OperatorPath.sample(CROSS, 0.0, 1.0, 8), window0=3.0)
        assert windows == {(-6.0, 6.0)}

    def test_positive_max_depth_is_honoured(self):
        # one sample step across a slope-4 crossing needs three bisections
        path = OperatorPath.sample(diag_gen(lambda t: 4.0 * (t - 0.3), lambda t: 2.0), 0.0, 1.0, 1)
        report = spectral_flow(path, window0=1.0, max_depth=3)
        assert report.flow == 1 and np.diff(report.partition).min() == 0.125
        with pytest.raises(NonConvergenceError, match="at depth 2: "):
            spectral_flow(path, window0=1.0, max_depth=2)

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
        with pytest.raises(NonConvergenceError,
                           match=r"refinement budget exhausted on \[\S+, \S+\] at depth 3: "
                                 r"phase step \S+ \(limit 1.571\), residual \S+ \(limit 0.25\)"):
            spectral_flow(path, window0=1.5, max_depth=3)

    def test_disagreement_names_the_worst_step(self, monkeypatch):
        # an exact endpoint lift 0.6 turn off the windowed one moves W but no bracket
        lift = specflow._lift
        shifted = lambda w, radius=math.inf: lift(w, radius) + (
            1.2 * math.pi if radius == math.inf and w[0] > 0 else 0.0)
        monkeypatch.setattr(specflow, "_lift", shifted)
        path = OperatorPath.sample(CROSS, 0.0, 1.0, 8)
        with pytest.raises(ConditioningError,
                           match=r"brackets sum to 1 but neg\(a\) - neg\(b\) \+ W gives 0 "
                                 r"\(W = -0.6\d+\); worst residual \S+ on \[\S+, \S+\]"):
            spectral_flow(path, window0=1.0)

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
            return HermOp(np.diag([math.tan(4.0 * (t - 0.5)), 2.0]))

        path = OperatorPath.sample(gen, 0.0, 1.0, 4)
        report = spectral_flow(path, window0=1.0, max_depth=20)
        assert report.flow == 1  # the zero at 1/2; the passages through infinity at 1/2 +- pi/8 add none
        assert len(calls) > 5  # det kappa turns by 2 rad a sample step, which forces bisection
        assert len(report.partition) > 5

    def test_perturbation_robustness(self):
        path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, 32, closed=True)
        report = spectral_flow(path, window0=1.0)
        # a tenth of the smallest |eigenvalue| at any sample, so no sample's inertia moves
        scale = min(np.min(np.abs(path.generator(t).eigenvalues))
                    for t in path.thetas[:-1]) / 10.0
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


@pytest.fixture
def no_banded_matrix(monkeypatch):
    """Make reading the dense matrix of a banded operator an error."""
    matrix = HermOp.matrix

    def guarded(op):
        if op.bands is not None:
            raise AssertionError("a banded operator was densified")
        return matrix.fget(op)

    monkeypatch.setattr(HermOp, "matrix", property(guarded))


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

    def test_junction_dimension_mismatch_rejected(self):
        left = OperatorPath.sample(lambda t: HermOp(np.eye(2)), 0.0, 0.5, 2)
        right = OperatorPath.sample(lambda t: HermOp(np.eye(3)), 0.5, 1.0, 2)
        with pytest.raises(ValidationError, match="dimensions 2 and 3"):
            concat(left, right)

    def test_domain_mismatch_rejected(self):
        left = OperatorPath.sample(CROSS, 0.0, 0.4, 4)
        right = OperatorPath.sample(CROSS, 0.5, 1.0, 4)
        with pytest.raises(ValidationError, match="abut"):
            concat(left, right)

    def test_robin_junction_is_not_densified(self, no_banded_matrix):
        gen = robin_generator(200)
        left = OperatorPath.sample(gen, 0.05, math.pi / 2, 4)
        right = OperatorPath.sample(gen, math.pi / 2, math.pi + 0.05, 4)
        assert concat(left, right).thetas.size == 9

    def test_banded_junction_tolerance_scales_with_the_norm(self, no_banded_matrix):
        d, e = robin_generator(200)(0.5).bands  # norm ~ 1.6e5, so the tolerance ~ 1.6e-4
        left = OperatorPath.sample(lambda t: HermOp.tridiagonal(d, e), 0.0, 0.5, 2)
        right = lambda shift: OperatorPath.sample(
            lambda t: HermOp.tridiagonal(d + shift, e), 0.5, 1.0, 2)
        concat(left, right(1e-6))
        with pytest.raises(ValidationError, match="junction"):
            concat(left, right(1e-3))

    def test_refinement_in_either_half_calls_that_half_s_generator(self):
        """Bisection on each side of the junction samples the generator of the path that owns it."""
        calls = []

        def tan_branch(side):
            def gen(t):
                calls.append((side, t))
                return HermOp(np.diag([math.tan(4.0 * (t - 0.5)), 2.0]))
            return gen

        left = OperatorPath.sample(tan_branch("left"), 0.0, 0.25, 2)
        right = OperatorPath.sample(tan_branch("right"), 0.25, 1.0, 3)
        joined = concat(left, right)  # which calls both generators at the junction
        calls.clear()
        assert spectral_flow(joined, window0=1.0, max_depth=20).flow == 1
        assert {side for side, t in calls if t not in joined.thetas} == {"left", "right"}
        assert all((t <= 0.25) == (side == "left") for side, t in calls)

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

    def test_large_window_counts_the_crossing(self):
        path = OperatorPath.sample(robin_generator(64), 0.0, math.pi, 64, closed=True)
        assert spectral_flow(path, window0=1e5).flow == 1

    @pytest.mark.parametrize("grid, samples, window0", [
        (grid, samples, window0)
        for grid, samples in ((64, 16), (200, 32), (800, 64))
        for window0 in (0.1, 1.0, 10.0, 1e3, 1e5, 1e6)
    ])
    def test_one_bracket_at_pi_over_4_for_every_window(self, grid, samples, window0):
        path = OperatorPath.sample(robin_generator(grid), 0.0, math.pi, samples, closed=True)
        report = spectral_flow(path, window0=window0)
        assert report.flow == 1
        (c,) = report.crossings
        assert c.theta_lo <= math.pi / 4 <= c.theta_hi and c.direction == 1

    def test_the_passage_at_the_dirichlet_point_needs_no_bisection(self):
        # the step across theta = pi passes one eigenvalue through infinity with a phase
        # turn and residual well inside the passage test; only the crossing at pi/4 bisects
        path = OperatorPath.sample(robin_generator(64), 0.0, math.pi, 16, closed=True)
        report = spectral_flow(path, window0=1.0)
        assert report.partition.tolist() == sorted([*path.thetas.tolist(), math.pi / 4])

    def test_smoke_size_bracket_starts_on_the_null_vector(self):
        # the midpoint of the sample step around pi/4 is pi/4 itself, where [1:1]
        # has the exact discrete null vector t; its eigenvalue computes below zero
        path = OperatorPath.sample(robin_generator(64), 0.0, math.pi, 16, closed=True)
        (c,) = spectral_flow(path, window0=1.0).crossings
        assert (c.theta_lo, c.theta_hi) == (math.pi / 4, 4.5 * math.pi / 16)


def dense_twin(path: OperatorPath) -> OperatorPath:
    """The same path with every operator re-wrapped in dense storage."""
    return OperatorPath(path.thetas, lambda t: HermOp(path.generator(t).matrix), closed=path.closed)


def banded_twin(path: OperatorPath) -> OperatorPath:
    """The same path with every operator re-wrapped as plain bands, so the window route reads it."""
    return OperatorPath(path.thetas, lambda t: HermOp.tridiagonal(*path.generator(t).bands),
                        closed=path.closed)


class WeakOp(HermOp):
    """A ``HermOp`` that takes weak references, so a test can count the live ones."""


def live_counting(generator, wrap):
    """generator, each operator re-wrapped as a ``WeakOp`` by ``wrap``; and the live count at each call."""
    refs, live = [], []

    def gen(theta: float) -> HermOp:
        live.append(sum(ref() is not None for ref in refs))
        op = wrap(generator(theta))
        refs.append(weakref.ref(op))
        return op

    return gen, live


class TestFlowHoldsTerms:
    """The flow keeps each parameter's terms, not its operator: a generic banded flow holds a T + i factor per op."""

    def test_a_closed_banded_loop_holds_at_most_one_operator(self):
        gen, live = live_counting(robin_generator(64), lambda op: WeakOp.tridiagonal(*op.bands))
        assert spectral_flow(OperatorPath.sample(gen, 0.0, math.pi, 16, closed=True)).flow == 1
        assert len(live) > 16 and max(live) <= 1

    def test_an_open_dense_path_holds_at_most_its_two_ends(self):
        gen, live = live_counting(lambda t: np.diag([t - 0.5, 2.0]), WeakOp)
        assert spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, 8)).flow == 1
        assert len(live) >= 9 and max(live) <= 2


class TestGeneratorAnswersItsTerms:
    """A generator with ``flow_terms(theta, radius)`` answers each parameter; no operator is built for it."""

    @pytest.mark.parametrize("grid, samples, window0", [(16, 8, 1.0), (64, 16, 1e5), (800, 64, 1.0)])
    def test_the_robin_loop_flows_as_its_operators_do(self, grid, samples, window0):
        loop = robin_generator(grid)
        path = OperatorPath.sample(loop, 0.0, math.pi, samples, closed=True)
        by_operator = OperatorPath(path.thetas, lambda t: loop(t), closed=True)
        report, reference = spectral_flow(path, window0), spectral_flow(by_operator, window0)
        assert report.partition.tolist() == reference.partition.tolist()
        assert report.crossings == reference.crossings and report.flow == 1

    def test_an_overflowing_corner_raises_on_both_routes(self):
        loop = robin_generator(400)
        errors = []
        for generator in (loop, lambda t: loop(t)):
            with pytest.raises(ValidationError, match=r"d\[-1\] = -inf overflows") as error:
                spectral_flow(OperatorPath(np.array([-0.5, 1e-310, 0.5]), generator))
            errors.append(str(error.value))
        assert errors[0] == errors[1]

    def test_a_generator_that_answers_is_called_only_at_the_start(self):
        calls, answered = [], []

        class Answering:
            def __call__(self, theta):
                calls.append(theta)
                return HermOp(np.diag([theta - 0.5, 2.0]))

            def flow_terms(self, theta, radius):
                answered.append(theta)
                return HermOp(np.diag([theta - 0.5, 2.0])).flow_terms(radius)

        report = spectral_flow(OperatorPath.sample(Answering(), 0.0, 1.0, 8))
        assert report.flow == 1 and calls == [0.0, 1.0]  # the start, and the open path's end
        assert sorted(answered) == sorted(set(report.partition.tolist()) - {0.0, 1.0})

    def test_one_cli_op_builds_one_operator_one_point_and_no_dirichlet_matrix(self, monkeypatch, tmp_path):
        from opflow import cli, linalg, sturm

        built = {"BorderedOp": 0, "ProjectivePoint": 0, "dirichlet": 0, "lapack": []}

        def bordered(cls, *args, **kwargs):
            built["BorderedOp"] += 1
            return HermOp.__new__(cls)

        post_init = sturm.ProjectivePoint.__post_init__

        def point(self):
            built["ProjectivePoint"] += 1
            post_init(self)

        dirichlet = sturm._RobinFamily.dirichlet.fget

        def read(self):
            built["dirichlet"] += 1
            return dirichlet(self)

        lapack = linalg._lapack()
        for name in ("dpttrf", "zgttrf", "zgttrs", "dstebz", "dstevd"):
            def counted(*args, _name=name, _real=getattr(lapack, name), **kwargs):
                built["lapack"].append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(lapack, name, counted)
        monkeypatch.setattr(linalg.BorderedOp, "__new__", bordered)
        monkeypatch.setattr(sturm.ProjectivePoint, "__post_init__", point)
        monkeypatch.setattr(sturm._RobinFamily, "dirichlet", property(read))
        assert cli.main(["specflow", "--path", "robin", "--grid", "800", "--samples", "64",
                         "--out", str(tmp_path)]) == 0
        assert built == {"BorderedOp": 1, "ProjectivePoint": 1, "dirichlet": 0,
                         "lapack": ["dpttrf", "zgttrf", "dpttrf"]}


def banded_diag_gen(*funcs):
    return lambda t: HermOp.tridiagonal([f(t) for f in funcs], [0.0] * (len(funcs) - 1))


class TestWindowedSpectra:
    def test_robin_loop_banded_equals_dense(self):
        # the bordered route, the window route on the same bands, and the dense route
        path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, 32, closed=True)
        assert isinstance(path.generator(path.thetas[0]), BorderedOp)
        bordered = spectral_flow(path, window0=1.0)
        banded = spectral_flow(banded_twin(path), window0=1.0)
        dense = spectral_flow(dense_twin(path), window0=1.0)
        assert bordered.to_json_dict() == banded.to_json_dict() == dense.to_json_dict()

    def test_eigenvalue_leaving_the_solve_radius_forces_bisection(self):
        # one eigenvalue ramps from 0.5 to 5 inside the sample step [0.25, 0.375],
        # beyond the solve radius 2 * window0, and turns det kappa by 1.8 rad on
        # the way, while the eigenvalue at 10 stays out of every window
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

    def test_closed_path_solves_each_operator_once(self, monkeypatch):
        solved = []  # the operators themselves, so no id is reused after garbage collection
        spectrum = HermOp.spectrum

        def recording(self, lo, hi):
            solved.append(self)
            return spectrum(self, lo, hi)

        monkeypatch.setattr(HermOp, "spectrum", recording)
        path = OperatorPath.sample(robin_generator(200), 0.0, math.pi, 32, closed=True)
        spectral_flow(banded_twin(path), window0=1.0)
        ids = [id(op) for op in solved]
        assert len(ids) == len(set(ids)) and len(ids) >= path.thetas.size - 1

    def test_closed_path_never_builds_its_matrix(self):
        built, gen = [], robin_generator(64)

        def recording(t):
            built.append(gen(t))
            return built[-1]

        spectral_flow(OperatorPath.sample(recording, 0.0, math.pi, 16, closed=True), window0=1.0)
        assert len(built) >= 16 and all(op._matrix is None for op in built)


# Families with a known flow.  Each draws an integer seed and builds its path
# from it, so hypothesis explores generic paths instead of shrinking towards
# degenerate ones.
SEEDS = st.integers(0, 2**32 - 1)
WINDOWS = st.sampled_from([1.0, 10.0, 1e3])


def unitary_path(rng, dim):
    """t -> exp(i t H) for a random Hermitian H."""
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, V = np.linalg.eigh(X + X.conj().T)
    return lambda t: (V * np.exp(1j * t * w)) @ V.conj().T


def conjugated(rng, blocks):
    """t -> U(t) B(t) U(t)* for a random unitary path U and block-diagonal B(t)."""
    sizes = [np.atleast_2d(block(0.0)).shape[0] for block in blocks]
    U = unitary_path(rng, sum(sizes))

    def gen(t):
        B = scipy.linalg.block_diag(*(np.atleast_2d(block(t)) for block in blocks))
        u = U(t)
        return HermOp(u @ B @ u.conj().T)
    return gen


def linear(slope, root):
    return lambda t: slope * (t - root)


def constants(rng, count):
    return [(lambda c: lambda t: c)(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
            for _ in range(count)]


def assert_brackets(report, roots):
    """Every bracket holds the signed count of the known crossings (t, sign) inside it."""
    for c in report.crossings:
        assert c.direction == sum(sign for t, sign in roots if c.theta_lo <= t <= c.theta_hi)


class TestKnownFlowFamilies:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, samples=st.integers(2, 16), window0=WINDOWS)
    def test_diagonal_crossings_under_a_unitary_path(self, seed, samples, window0):
        rng = np.random.default_rng(seed)
        roots = [(rng.uniform(0.1, 0.9), int(rng.choice([-1, 1]))) for _ in range(rng.integers(1, 4))]
        branches = [linear(sign * rng.uniform(0.5, 3.0), t) for t, sign in roots]
        gen = conjugated(rng, branches + constants(rng, 2))
        report = spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, samples), window0=window0)
        assert report.flow == sum(sign for _, sign in roots)
        assert_brackets(report, roots)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, samples=st.integers(2, 16), window0=WINDOWS)
    def test_avoided_crossing_at_gap_1e_6(self, seed, samples, window0):
        # eigenvalues of [[s1 tau, g], [g, s2 tau]]: both cross zero within
        # ~1e-6 of the root if s1 s2 > 0, and neither does otherwise
        rng = np.random.default_rng(seed)
        root, gap = rng.uniform(0.1, 0.9), 1e-6
        s1, s2 = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.5, 3.0, 2)
        block = lambda t: np.array([[s1 * (t - root), gap], [gap, s2 * (t - root)]])
        gen = conjugated(rng, [block] + constants(rng, 2))
        report = spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, samples), window0=window0)
        assert report.flow == (2 * int(np.sign(s1)) if s1 * s2 > 0 else 0)
        for c in report.crossings:
            assert c.theta_lo - 1e-5 <= root <= c.theta_hi + 1e-5

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, samples=st.integers(2, 16), window0=WINDOWS, k=st.integers(2, 5))
    def test_k_simultaneous_crossings(self, seed, samples, window0, k):
        rng = np.random.default_rng(seed)
        root, sign = rng.uniform(0.1, 0.9), int(rng.choice([-1, 1]))
        branch = linear(sign * rng.uniform(0.5, 3.0), root)
        gen = conjugated(rng, [branch] * k + constants(rng, 2))
        report = spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, samples), window0=window0)
        (c,) = report.crossings
        assert report.flow == c.direction == k * sign
        assert c.theta_lo <= root <= c.theta_hi

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, extra=st.integers(0, 8), window0=WINDOWS, banded=st.booleans())
    def test_tan_branches_through_infinity(self, seed, extra, window0, banded):
        rng = np.random.default_rng(seed)
        params = [(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 8.0), rng.uniform(0.0, 1.0))
                  for _ in range(rng.integers(1, 4))]
        # kappa(tan s) = -exp(2is), so det kappa turns at 2 sum |omega|: the
        # samples keep each step below half a turn, which the engine needs
        samples = math.ceil(2.0 * sum(abs(omega) for omega, _ in params) / math.pi) + extra
        funcs = [(lambda omega, s: lambda t: math.tan(omega * (t - s)))(omega, s) for omega, s in params]
        funcs += constants(rng, 1)
        gen = (banded_diag_gen if banded else diag_gen)(*funcs)
        roots = [(s + m * math.pi / abs(omega), int(np.sign(omega)))
                 for omega, s in params for m in range(-8, 9)
                 if 0.0 < s + m * math.pi / abs(omega) < 1.0]
        report = spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, samples), window0=window0)
        assert report.flow == sum(sign for _, sign in roots)
        assert_brackets(report, roots)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, samples=st.integers(1, 4), window0=WINDOWS)
    def test_oscillation_inside_one_sample_step(self, seed, samples, window0):
        # sin(2 pi m t) vanishes at both ends, so only the slope decides the flow
        rng = np.random.default_rng(seed)
        root, slope = rng.uniform(0.1, 0.9), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        m, amplitude = int(rng.integers(5, 40)), rng.uniform(0.5, 3.0)
        wiggle = lambda t: slope * (t - root) + amplitude * math.sin(2.0 * math.pi * m * t)
        gen = conjugated(rng, [wiggle] + constants(rng, 2))
        assert spectral_flow(OperatorPath.sample(gen, 0.0, 1.0, samples), window0=window0).flow == np.sign(slope)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, samples=st.integers(2, 16), window0=WINDOWS, dim=st.integers(3, 12))
    @example(seed=4610, samples=2, window0=1.0, dim=3)  # wrong without PASSAGE_TURN_MAX
    def test_banded_and_dense_twins_agree(self, seed, samples, window0, dim):
        rng = np.random.default_rng(seed)
        d0, d1, d2 = rng.uniform(-3.0, 3.0, (3, dim))
        e0, e1 = rng.uniform(-1.0, 1.0, (2, dim - 1))
        gen = lambda t: HermOp.tridiagonal(d0 + t * d1 + t * t * d2, e0 + t * e1)
        path = OperatorPath.sample(gen, 0.0, 1.0, samples)
        banded = spectral_flow(path, window0=window0)
        neg = lambda op: int(np.sum(np.linalg.eigvalsh(op.matrix) < 0.0))
        assert banded.flow == neg(gen(0.0)) - neg(gen(1.0))
        assert banded.to_json_dict() == spectral_flow(dense_twin(path), window0=window0).to_json_dict()


class TestRobinFlowClosedForm:
    """The Robin loop against a closed form taken from its bordered structure, not the engine.

    Off the Dirichlet point the Robin matrix on n nodes is
    [[T', b e_l], [b e_l^T, c(theta)]]: T' is the Dirichlet block on n - 1
    nodes (h = 1/n), b = -sqrt(2)/h^2 and c(theta) = 2/h^2 - 2 cot(theta)/h.
    T' is positive definite, so Haynsworth's inertia additivity gives
    neg(A(theta)) = [c(theta) < b^2 (T'^-1)_ll], and the one zero crossing
    sits at cot theta* = (h/2)(2/h^2 - b^2 (T'^-1)_ll).
    """

    @pytest.mark.parametrize("n", [16, 64, 200, 800])
    def test_flow_bracket_and_inertia_match_the_closed_form(self, n):
        h = 1.0 / n
        T = (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)) / h**2
        assert np.linalg.eigvalsh(T)[0] > 0.0
        b = -math.sqrt(2.0) / h**2
        schur = b * b * np.linalg.solve(T, np.eye(n - 1)[:, -1])[-1]  # b^2 (T'^-1)_ll

        def c(theta):
            return 2.0 / h**2 - 2.0 * math.cos(theta) / (h * math.sin(theta))

        theta_star = math.atan2(1.0, (h / 2.0) * (2.0 / h**2 - schur))
        gen = robin_generator(n)
        d, e = gen(1.0).bands
        np.testing.assert_allclose(d, [*np.diag(T), c(1.0)], rtol=1e-12)
        np.testing.assert_allclose(e, [*np.diag(T, 1), b], rtol=1e-12)

        report = spectral_flow(OperatorPath.sample(gen, 0.0, math.pi, 64, closed=True))
        assert report.flow == 1 and len(report.crossings) == 1
        assert report.crossings[0].theta_lo < theta_star < report.crossings[0].theta_hi
        checked = 0
        for theta in report.partition:
            if math.remainder(theta, math.pi) == 0.0 or abs(theta - theta_star) < 1e-9:
                continue  # the Dirichlet point, and the crossing itself
            assert gen(theta).spectrum(0.0, 0.0)[0] == int(c(theta) < schur), theta
            checked += 1
        assert checked >= 64


def robin_theta(where: str, u: float) -> float:
    """A parameter in (0, pi): anywhere, 1e-9 either side of the crossing pi/4, or 1e-12..1e-3 from an end."""
    offset = 10.0 ** (-12.0 + 9.0 * u)
    return {"any": (0.001 + 0.998 * u) * math.pi, "below": math.pi / 4 - 1e-9,
            "above": math.pi / 4 + 1e-9, "pi/4": math.pi / 4, "near 0": offset,
            "near pi": math.pi - offset}[where]


class TestBorderedFlowTerms:
    """The Robin generator's bordered operators answer the flow's terms as the window route does.

    The crossing sits at cot theta* = 1 on every grid: [1:1] has the exact
    discrete null vector t, and b^2 (T'^-1)_ll = 2n(n - 1) exactly.
    """

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(16, 800), u=st.floats(0.0, 1.0),
           where=st.sampled_from(["any", "below", "above", "near 0", "near pi"]),
           radius=st.sampled_from([2.0, 20.0, 2e3, 2e5, 2e6]))
    @example(n=64, u=0.0, where="pi/4", radius=2.0)  # the exact null vector: neg 1 either way
    @example(n=200, u=0.0, where="pi/4", radius=2.0)  # there the Schur complement computes to 0.0
    def test_terms_match_the_window_route_and_the_full_spectrum(self, n, u, where, radius):
        op = robin_generator(n)(robin_theta(where, u))
        assert isinstance(op, BorderedOp)
        neg, first, phase, lift = op.flow_terms(radius)
        twin = HermOp.tridiagonal(*op.bands)
        assert (neg, first) == twin.flow_terms(radius)[:2]
        assert abs(math.remainder(phase - twin.cayley_phase(), 2.0 * math.pi)) <= 1e-9
        w = op.eigenvalues  # dstevd
        exact = -2.0 * float(np.sum(np.arctan2(1.0, w)))
        assert abs(lift - exact) <= n * np.finfo(float).eps * np.abs(w).max()
        assert phase == math.remainder(lift, 2.0 * math.pi)

    def test_one_block_per_generator_and_the_dirichlet_point_as_assembled(self):
        gen = robin_generator(64)
        a, b = gen(0.3), gen(2.0)
        assert a.block is b.block and a.bands[1] is b.bands[1]
        dirichlet = gen(math.pi)
        assert type(dirichlet) is HermOp
        np.testing.assert_array_equal(dirichlet.bands[0], np.full(64, 2.0 * 65**2))

    def test_a_step_across_the_dirichlet_point_mixes_the_routes(self):
        # [3pi/4, 5pi/4] bisects onto pi, read by the window route; its neighbours by the block
        path = OperatorPath.sample(robin_generator(64), 0.0, math.pi, 2, closed=True)
        report = spectral_flow(path, window0=1.0)
        assert math.pi in report.partition.tolist() and report.flow == 1
        assert report.to_json_dict() == spectral_flow(banded_twin(path), window0=1.0).to_json_dict()
