import warnings

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg

from opflow import metrics, transforms
from opflow.errors import NonConvergenceError, ValidationError
from opflow.linalg import HermOp, op_norm
from opflow.metrics import gap_dist, riesz_dist, weyl_gap
from opflow.sturm import ProjectivePoint, assemble_robin_operator
from opflow.transforms import (
    ball_projection,
    bounded_transform,
    graph_projection,
    random_hermitian,
    random_matrix,
)

RNG_PAIRS = [(np.random.default_rng(s), np.random.default_rng(s + 500)) for s in range(8)]


class TestRieszDist:
    def test_self_distance_zero(self):
        A = np.diag([1.0, 2.0]).astype(complex)
        assert riesz_dist(A, A) == 0.0

    def test_scalars(self):
        d = riesz_dist(np.array([[0.0]]), np.array([[1.0]]))
        assert abs(d - 1 / np.sqrt(2)) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A, B = random_matrix(rng, 5, 2.0), random_matrix(rng, 5, 2.0)
            assert abs(riesz_dist(A, B) - riesz_dist(B, A)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            riesz_dist(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("entry, bad", [((0, 0), np.nan), ((1, 0), np.inf)])
    def test_non_finite_entry_named_without_warning(self, entry, bad):
        A = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # not Hermitian: no HermOp check
        A[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entry \(%d, %d\) is not finite" % entry):
                riesz_dist(A, np.eye(2))


class TestGapDist:
    def test_self_distance_zero(self):
        A = np.diag([3.0, -1.0]).astype(complex)
        assert gap_dist(A, A) == 0.0

    def test_zero_vs_unitary(self):
        """The graph of a unitary meets the horizontal at 45 degrees.

        The horizontal-vs-vertical distance 1 is realized by the ball
        projections instead (a unitary is the boundary point of the ball).
        """
        rng = np.random.default_rng(1)
        Q = np.linalg.qr(random_matrix(rng, 4))[0]
        assert abs(gap_dist(np.zeros((4, 4)), Q) - 1 / np.sqrt(2)) < 1e-10
        boundary = op_norm(ball_projection(np.zeros((4, 4))).matrix
                           - ball_projection(Q).matrix)
        assert abs(boundary - 1.0) < 1e-10

    def test_bounded_by_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            A = random_matrix(rng, 3, scale=5.0)
            B = random_matrix(rng, 3, scale=5.0)
            assert gap_dist(A, B) <= 1.0 + 1e-10

    def test_two_computations_agree(self):
        """Direct graph projection equals ball projection of the transform."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = random_matrix(rng, 5, scale=3.0)
            B = random_matrix(rng, 5, scale=3.0)
            direct = op_norm(graph_projection(A).matrix - graph_projection(B).matrix)
            via_ball = op_norm(ball_projection(bounded_transform(A)).matrix
                               - ball_projection(bounded_transform(B)).matrix)
            assert abs(direct - via_ball) < 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            gap_dist(np.eye(2), np.eye(3))

    @staticmethod
    def doubled_space(A, B):
        return op_norm(graph_projection(A).matrix - graph_projection(B).matrix)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1e2, 1e3, 1e4])
    def test_hermitian_pairs_match_the_doubled_space(self, scale):
        rng = np.random.default_rng(int(scale))
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            A, B = random_hermitian(rng, dim, scale), random_hermitian(rng, dim, scale)
            assert abs(gap_dist(A, B) - self.doubled_space(A, B)) < 1e-12

    @pytest.mark.parametrize("x1", [1e-4, 1e-2, 0.3, 1.0, 5.0])
    def test_robin_dirichlet_pairs_match_the_doubled_space(self, x1):
        robin = assemble_robin_operator(ProjectivePoint(1.0, x1), 64).matrix
        dirichlet = assemble_robin_operator(ProjectivePoint(1.0, 0.0), 64).matrix
        assert robin.bands is not None and dirichlet.bands is not None
        assert abs(gap_dist(robin, dirichlet) - self.doubled_space(robin, dirichlet)) < 1e-12

    def test_hermitian_pairs_build_no_graph_projection(self, monkeypatch):
        def refuse(A):
            raise AssertionError("graph projection built")

        monkeypatch.setattr(transforms, "graph_projection", refuse)
        monkeypatch.setattr(metrics, "graph_projection", refuse)
        rng = np.random.default_rng(7)
        A, B = random_hermitian(rng, 6, 3.0), random_hermitian(rng, 6, 3.0)
        assert 0.0 < gap_dist(A, B) <= 1.0


def robin_dirichlet(x1, n):
    robin = assemble_robin_operator(ProjectivePoint(1.0, x1), n).matrix
    dirichlet = assemble_robin_operator(ProjectivePoint(1.0, 0.0), n).matrix
    return robin, dirichlet


def mp_resolvent(op):
    """(T + i)^-1 in mpmath from the exact double bands of T."""
    d, e = op.bands
    n = d.size
    M = mpmath.matrix(n, n)
    for k in range(n):
        M[k, k] = mpmath.mpc(float(d[k]), 1.0)
        if k + 1 < n:
            M[k, k + 1] = M[k + 1, k] = mpmath.mpf(float(e[k]))
    return mpmath.inverse(M)


class TestResolventGap:
    """The matrix-free route for banded pairs: Lanczos on (A + i)^-1 - (B + i)^-1."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("x1", [1e-4, 1e-2, 0.9])
    def test_matches_high_precision_reference(self, n, x1):
        robin, dirichlet = robin_dirichlet(x1, n)
        with mpmath.workdps(30):
            R = mp_resolvent(robin) - mp_resolvent(dirichlet)
            exact = max(mpmath.svd_c(R, compute_uv=False))
            assert abs(gap_dist(robin, dirichlet) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("x1", [1e-4, 1e-2, 0.3, 0.9])
    def test_matches_the_dense_cayley_route(self, x1):
        robin, dirichlet = robin_dirichlet(x1, 400)
        dense = gap_dist(HermOp(robin.matrix), HermOp(dirichlet.matrix))
        assert abs(gap_dist(robin, dirichlet) - dense) < 1e-10

    def test_reproducible_to_the_bit(self):
        robin, dirichlet = robin_dirichlet(0.05, 200)
        first = gap_dist(robin, dirichlet)
        assert gap_dist(*robin_dirichlet(0.05, 200)) == first

    def test_equal_operators_are_at_distance_zero(self):
        robin, _ = robin_dirichlet(0.05, 50)
        assert gap_dist(robin, robin_dirichlet(0.05, 50)[0]) == 0.0

    def test_no_convergence_is_reported(self, monkeypatch):
        def stall(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "svds", stall)
        with pytest.raises(NonConvergenceError, match=r"dim 64 .* 640 restarts"):
            gap_dist(*robin_dirichlet(0.05, 64))

    def test_no_dense_matrix_and_no_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        robin, dirichlet = robin_dirichlet(0.05, 100)
        assert 0.0 < gap_dist(robin, dirichlet) < 1.0
        assert robin._matrix is None and dirichlet._matrix is None
        assert robin._eigvecs is None and dirichlet._eigvecs is None

    def test_small_banded_pairs_take_the_cayley_route(self):
        for n in (1, 2):
            A = HermOp.tridiagonal(np.arange(n, dtype=float), np.ones(n - 1))
            B = HermOp.tridiagonal(np.full(n, 3.0), np.zeros(n - 1))
            dense = gap_dist(HermOp(A.matrix), HermOp(B.matrix))
            assert abs(gap_dist(A, B) - dense) < 1e-15


class TestWeylGap:
    def test_equal_inputs(self):
        A = HermOp(np.diag([1.0, 2.0]))
        assert weyl_gap(A, A) == 0.0

    def test_scalar_shift(self):
        assert abs(weyl_gap(np.zeros((1, 1)), np.eye(1)) - 1.0) < 1e-15

    def test_lower_bounds_operator_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            A = random_hermitian(rng, 4, scale=3.0)
            B = random_hermitian(rng, 4, scale=3.0)
            assert weyl_gap(A, B) <= op_norm(A.matrix - B.matrix) + 1e-10

    def test_lower_bounds_riesz_dist(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            A = random_hermitian(rng, 5, scale=3.0)
            B = random_hermitian(rng, 5, scale=3.0)
            fa = HermOp(bounded_transform(A))
            fb = HermOp(bounded_transform(B))
            assert weyl_gap(fa, fb) <= riesz_dist(A, B) + 1e-10


class TestScalarOperands:
    """A scalar is a 1 x 1 operator, as everywhere else in the package."""

    @pytest.mark.parametrize("metric", [riesz_dist, gap_dist, weyl_gap])
    def test_scalars_equal_their_one_by_one_results(self, metric):
        assert metric(1.0, 2.0) == metric(np.array([[1.0]]), np.array([[2.0]]))

    @pytest.mark.parametrize("metric", [riesz_dist, gap_dist, weyl_gap])
    def test_scalar_against_a_matrix_is_a_dimension_mismatch(self, metric):
        with pytest.raises(ValidationError, match="dimension mismatch: 2 vs 1"):
            metric(np.eye(2), 1.0)


def test_triangle_inequalities():
    rng = np.random.default_rng(6)
    for _ in range(20):
        A, B, C = (random_matrix(rng, 4, scale=3.0) for _ in range(3))
        assert riesz_dist(A, C) <= riesz_dist(A, B) + riesz_dist(B, C) + 1e-9
        assert gap_dist(A, C) <= gap_dist(A, B) + gap_dist(B, C) + 1e-9
