import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow import classify
from opflow.classify import (
    SymmetricTuple,
    covering_membership,
    density_surgery,
    split_finite_infinite,
    surgery_bound_trials,
    window_projection,
)
from opflow.errors import (
    BoundaryCollisionError,
    NotInCoveringError,
    SurgeryViolationError,
    ValidationError,
)
from opflow.linalg import HermOp, adjoint, op_norm
from opflow.transforms import cayley, random_hermitian


def herm(diag):
    return HermOp(np.diag(np.asarray(diag, dtype=float)))


class TestSymmetricTuple:
    def test_valid(self):
        tau = SymmetricTuple((-1.0, -0.5, 0.5, 1.0))
        assert tau.hull == (-1.0, 1.0)

    def test_zero_allowed(self):
        SymmetricTuple((-2.0, 0.0, 2.0))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            SymmetricTuple((-1.0, 0.5))

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError, match="ascending"):
            SymmetricTuple((1.0, -1.0))

    def test_repeated_point_rejected(self):
        with pytest.raises(ValidationError, match="strictly ascending"):
            SymmetricTuple((-1.0, -1.0, 1.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            SymmetricTuple(())

    def test_from_positive_and_union(self):
        tau = SymmetricTuple.from_positive([1.0, 2.0])
        sig = SymmetricTuple.from_positive([1.5])
        assert tau.union(sig).points == (-2.0, -1.5, -1.0, 1.0, 1.5, 2.0)

    @pytest.mark.parametrize("positive", [[0.0, 1.0], [1.0, -2.0]])
    def test_from_positive_rejects_a_non_positive_point(self, positive):
        with pytest.raises(ValidationError, match="strictly positive"):
            SymmetricTuple.from_positive(positive)


class TestWindowProjection:
    def test_diagonal_selection(self):
        P = window_projection(herm([-2.0, 0.0, 3.0]), -1.0, 1.0)
        np.testing.assert_allclose(P, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_full_window_is_identity(self):
        rng = np.random.default_rng(0)
        A = random_hermitian(rng, 5, scale=2.0)
        P = window_projection(A, -100.0, 100.0)
        np.testing.assert_allclose(P, np.eye(5), atol=1e-12)

    def test_boundary_collision(self):
        with pytest.raises(BoundaryCollisionError, match="1.0"):
            window_projection(herm([0.0, 1.0]), -1.0, 1.0)

    def test_commutes_with_operand(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = random_hermitian(rng, 6, scale=2.0)
            P = window_projection(A, -0.7, 0.7)
            assert op_norm(P @ A.matrix - A.matrix @ P) < 1e-9

    def test_rank_counts_window_eigenvalues(self):
        A = herm([-3.0, -0.2, 0.1, 0.4, 5.0])
        P = window_projection(A, -1.0, 1.0)
        assert round(float(np.trace(P).real)) == 3

    @pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (-1.0, float("nan")), (2.0, 1.0)])
    def test_nan_or_reversed_edge_rejected(self, lo, hi):
        with pytest.raises(ValidationError, match=r"empty window \[%r, %r\]" % (lo, hi)):
            window_projection(herm([-2.0, 0.0, 3.0]), lo, hi)

    def test_edges_are_measured_from_each_side(self):
        """A point window selects nothing, and an eigenvalue at -lo is no collision."""
        np.testing.assert_array_equal(window_projection(herm([-2.0, 3.0]), 1.0, 1.0), np.zeros((2, 2)))
        np.testing.assert_array_equal(window_projection(herm([0.5, 3.0]), -0.5, 2.0), np.diag([1.0, 0.0]))

    def test_infinite_edges(self):
        A = herm([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(window_projection(A, -np.inf, np.inf), np.eye(3))
        np.testing.assert_array_equal(window_projection(A, -np.inf, 1.0), np.diag([1.0, 1.0, 0.0]))

    def test_robin_zero_window_rank_one(self):
        from opflow.sturm import ProjectivePoint, assemble_robin_operator

        op = assemble_robin_operator(ProjectivePoint(1.0, 1.0), 400)
        P = window_projection(op.matrix, -1.0, 1.0)
        assert round(float(np.trace(P).real)) == 1


class TestCoveringMembership:
    def test_accepts_separated(self):
        tau = SymmetricTuple((-0.5, 0.5))
        assert covering_membership(herm([1.0, -1.0]), tau, gap=0.1)

    def test_rejects_close(self):
        tau = SymmetricTuple((-0.5, 0.5))
        assert not covering_membership(herm([0.5]), tau, gap=0.1)

    def test_distance_equal_to_the_gap_is_enough(self):
        assert covering_membership(herm([2.0]), SymmetricTuple((-1.0, 1.0)), gap=1.0)

    def test_gap_must_be_positive(self):
        with pytest.raises(ValidationError):
            covering_membership(herm([1.0]), SymmetricTuple((-0.5, 0.5)), gap=0.0)

    @pytest.mark.parametrize("gap", [float("nan"), -1e-3])
    def test_gap_nan_or_negative_named(self, gap):
        with pytest.raises(ValidationError, match=f"gap = {gap!r}"):
            covering_membership(herm([1.0]), SymmetricTuple((-0.5, 0.5)), gap=gap)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_conjunction_law(self, seed):
        """Membership in the union set is membership in both sets."""
        rng = np.random.default_rng(seed)
        A = random_hermitian(rng, 5, scale=3.0)
        tau = SymmetricTuple.from_positive(np.sort(rng.uniform(0.1, 3.0, 2)))
        sig = SymmetricTuple.from_positive(np.sort(rng.uniform(0.1, 3.0, 3)))
        both = covering_membership(A, tau) and covering_membership(A, sig)
        assert covering_membership(A, tau.union(sig)) == both


class TestSplit:
    def test_diagonal_example(self):
        sp = split_finite_infinite(herm([-3.0, 0.2, 5.0]), SymmetricTuple((-1.0, 1.0)))
        assert sp.finite_part.dim == 1
        np.testing.assert_allclose(sp.finite_part.matrix, [[0.2]], atol=1e-12)
        np.testing.assert_allclose(np.sort(sp.infinite_part.eigenvalues), [-3.0, 5.0])

    def test_empty_window(self):
        sp = split_finite_infinite(herm([-3.0, 5.0]), SymmetricTuple((-1.0, 1.0)))
        assert sp.finite_part.dim == 0
        assert sp.infinite_part.dim == 2

    def test_reassembly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            A = random_hermitian(rng, 7, scale=3.0)
            tau = SymmetricTuple.from_positive([0.77, 1.31])
            if not covering_membership(A, tau, 1e-9):
                continue
            sp = split_finite_infinite(A, tau)
            assert op_norm(sp.reassemble() - A.matrix) < 1e-9
            if sp.finite_part.dim:
                lo, hi = tau.hull
                assert np.all(sp.finite_part.eigenvalues > lo)
                assert np.all(sp.finite_part.eigenvalues < hi)

    def test_membership_failure(self):
        with pytest.raises(NotInCoveringError):
            split_finite_infinite(herm([1.0, 2.0]), SymmetricTuple((-1.0, 1.0)))


class TestDensitySurgery:
    def test_diagonal_bookkeeping(self):
        A2 = density_surgery(herm([-5.0, 1.0, 7.0]), 2.0, herm([6.0, 6.0]))
        np.testing.assert_allclose(A2.matrix, np.diag([6.0, 1.0, 6.0]), atol=0)

    def test_cayley_deviation_matches_scalar_chord(self):
        A = herm([-5.0, 1.0, 7.0])
        A2 = density_surgery(A, 2.0, herm([6.0, 6.0]))
        dev = op_norm(cayley(A2) - cayley(A))
        k6 = (6 - 1j) / (6 + 1j)
        km5 = (-5 - 1j) / (-5 + 1j)
        assert abs(dev - abs(k6 - km5)) < 1e-12
        assert abs(dev - 0.709) < 1e-3

    def test_noop_surgery_is_exact(self):
        A = herm([-5.0, 1.0, 7.0])
        A2 = density_surgery(A, 2.0, herm([-5.0, 7.0]))
        assert np.array_equal(A2.matrix, A.matrix)

    def test_replacement_inside_window_rejected(self):
        with pytest.raises(SurgeryViolationError):
            density_surgery(herm([-5.0, 1.0, 7.0]), 2.0, herm([1.5, 6.0]))

    def test_replacement_on_the_window_edge_rejected(self):
        with pytest.raises(SurgeryViolationError, match=r"enters \[-2.0, 2.0\]: closest eigenvalue 2.0$"):
            density_surgery(herm([-5.0, 1.0, 7.0]), 2.0, herm([2.0, 6.0]))

    def test_arc_radius_is_the_cayley_chord_to_one(self):
        assert classify.cayley_arc_radius(1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dim"):
            density_surgery(herm([-5.0, 1.0, 7.0]), 2.0, herm([6.0]))

    def test_agrees_with_original_on_window(self):
        rng = np.random.default_rng(3)
        A = random_hermitian(rng, 6, scale=3.0)
        c = 1.0
        w, V = A.eigenvalues, A.eigenvectors
        outside = np.abs(w) >= c
        B = HermOp(np.diag(np.where(w[outside] > 0, 5.0, -5.0)))
        A2 = density_surgery(A, c, B)
        inside = ~outside
        Vin = V[:, inside]
        assert op_norm(adjoint(Vin) @ (A2.matrix - A.matrix) @ Vin) < 1e-10

    @pytest.mark.parametrize("c", [float("nan"), 0.0, -1.0])
    def test_nan_or_non_positive_c_rejected(self, c):
        with pytest.raises(ValidationError, match=f"c = {c!r}"):
            density_surgery(herm([-5.0, 1.0, 7.0]), c, herm([6.0, 6.0]))

    def test_infinite_c_keeps_the_operator(self):
        A = herm([-5.0, 1.0, 7.0])
        A2 = density_surgery(A, float("inf"), HermOp(np.zeros((0, 0))))
        np.testing.assert_array_equal(A2.matrix, A.matrix)

    def test_empty_window_replaces_everything(self):
        A2 = density_surgery(herm([-5.0, 7.0]), 2.0, herm([-3.0, 4.0]))
        np.testing.assert_array_equal(A2.matrix, np.diag([-3.0, 4.0]))

    def test_boundary_guard_builds_no_projection(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("window projection built")

        monkeypatch.setattr(classify, "window_projection", refuse)
        A2 = density_surgery(herm([-5.0, 1.0, 7.0]), 2.0, herm([6.0, 6.0]))
        np.testing.assert_array_equal(A2.matrix, np.diag([6.0, 1.0, 6.0]))
        with pytest.raises(BoundaryCollisionError, match="2.0"):
            density_surgery(herm([-5.0, 2.0, 7.0]), 2.0, herm([6.0, 6.0]))

    def test_bound_holds_on_random_trials(self):
        records = surgery_bound_trials([0.5, 0.1], instances=15, seed=11)
        assert records and all(r["holds"] for r in records)
        assert all(r["arc_radius"] < r["eps"] / 2 for r in records)

    def test_instances_are_drawn_as_documented(self, monkeypatch):
        # c from [1.01, 2) times the c whose arc radius is eps / 2; dim 4..12; window
        # eigenvalues across (-0.9 c, 0.9 c), the others at 1.05 c .. 4 c from 0
        drawn, real = [], classify.density_surgery

        def record(A, c, B):
            drawn.append((A.eigenvalues, c))
            return real(A, c, B)

        monkeypatch.setattr(classify, "density_surgery", record)
        records = surgery_bound_trials([3.9, 0.5], instances=20, seed=5)
        inside = []
        for r, (w, c) in zip(records, drawn):
            assert 1.01 <= c / np.sqrt(16.0 / r["eps"] ** 2 - 1.0) < 2.0 and 4 <= r["dim"] <= 12
            w = w / c
            assert np.all((np.abs(w) <= 0.9 + 1e-9) | ((np.abs(w) >= 1.05 - 1e-9) & (np.abs(w) <= 4.0 + 1e-9)))
            inside += list(w[np.abs(w) < 1.0])
        assert min(inside) < -0.45 and max(inside) > 0.45

    @pytest.mark.parametrize("eps", [4.0, 10.0, float("inf"), float("nan"), 0.0, -0.5,
                                     1e-15, 1e-300])
    def test_eps_outside_the_range_rejected(self, eps):
        with pytest.raises(ValidationError, match=f"eps = {eps!r}"):
            surgery_bound_trials([0.5, eps], instances=1)

    def test_smallest_eps_accepted(self):
        [record] = surgery_bound_trials([classify.EPS_MIN], instances=1)
        assert record["eps"] == 1e-12 and record["holds"]

    def test_every_eps_checked_before_the_first_trial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran before every eps was checked")

        monkeypatch.setattr(classify, "density_surgery", refuse)
        with pytest.raises(ValidationError, match="eps = 4.0"):
            surgery_bound_trials([0.5, 4.0], instances=1)


class TestNegativeCount:
    def test_robin_half(self):
        from opflow.sturm import ProjectivePoint, assemble_robin_operator

        op = assemble_robin_operator(ProjectivePoint(1.0, 0.5), 1000)
        assert int(np.sum(op.matrix.eigenvalues < 0.0)) == 1
