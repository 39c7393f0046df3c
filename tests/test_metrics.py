import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow import metrics, transforms
from opflow.errors import ConditioningError, NonConvergenceError, ValidationError
from opflow.linalg import HermOp, op_norm
from opflow.metrics import gap_dist, riesz_dist, weyl_gap
from opflow.sturm import ProjectivePoint, assemble_robin_operator
from opflow.transforms import (
    ball_projection,
    bounded_transform,
    cayley,
    graph_projection,
    inverse_bounded_transform,
    random_hermitian,
    random_matrix,
)

RNG_PAIRS = [(np.random.default_rng(s), np.random.default_rng(s + 500)) for s in range(8)]
UNIT_ROUNDOFF = np.finfo(float).eps / 2


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

    @pytest.mark.parametrize("wrap", [HermOp, np.asarray])
    def test_eigenvalues_whose_squares_overflow(self, wrap):
        H = np.diag([1e200, -1e160, 2.0])
        assert riesz_dist(wrap(H), wrap(-H)) == pytest.approx(2.0, rel=1e-15)


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


def cayley_gap(A, B):
    """1/2 ||kappa(A) - kappa(B)|| from the eigendecompositions: the reference route.

    Equal to the resolvent gap in exact arithmetic, but the difference of two
    unitaries loses digits when A and B are close.
    """
    return 0.5 * op_norm(cayley(A) - cayley(B))


def mp_resolvent(M):
    """(M + i)^-1 in mpmath from the exact double entries of M."""
    n = M.shape[0]
    R = mpmath.matrix(n, n)
    for j in range(n):
        for k in range(n):
            R[j, k] = mpmath.mpc(M[j, k].real, M[j, k].imag + (1.0 if j == k else 0.0))
    return mpmath.inverse(R)


def mp_gap(A, B, dps):
    with mpmath.workdps(dps):
        return max(mpmath.svd_c(mp_resolvent(A.matrix) - mp_resolvent(B.matrix), compute_uv=False))


def low_rank_gap(A, B, E, S):
    """||(A + i)^-1 E S E* (B + i)^-1|| for B - A = E S E*, through the small core.

    With (A + i)^-1 E = Q_a R_a and (B - i)^-1 E = Q_b R_b the norm is
    ||R_a S R_b*||; for one moved diagonal entry it is
    |delta| ||(A + i)^-1 e_k|| ||(B - i)^-1 e_k||.  Nothing near-equal is
    subtracted, so on well-conditioned bands it is accurate to a few ulps.
    """
    eye = np.eye(A.dim)
    ra = np.linalg.qr(np.linalg.solve(A.matrix + 1j * eye, E), mode="r")
    rb = np.linalg.qr(np.linalg.solve(B.matrix - 1j * eye, E), mode="r")
    return np.linalg.norm(ra @ S @ rb.conj().T, 2)


class TestResolventGap:
    """One identity, (A + i)^-1 - (B + i)^-1 = (A + i)^-1 (B - A) (B + i)^-1, one evaluator.

    Every ``HermOp`` pair takes Lanczos on the solves with one shifted factor
    per operand around B - A (banded pairs on their bands), and forms the
    product below dim 3.  It subtracts nothing nearly equal, so close pairs
    keep their digits.
    """

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("x1", [1e-4, 1e-2, 0.9])
    def test_matches_high_precision_reference(self, n, x1):
        robin, dirichlet = robin_dirichlet(x1, n)
        exact = mp_gap(robin, dirichlet, 30)
        assert abs(gap_dist(robin, dirichlet) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("distance", [1e-4, 1e-8, 1e-12])
    def test_close_dense_pairs_match_high_precision_reference(self, distance):
        rng = np.random.default_rng(12)
        A = random_hermitian(rng, 12, 3.0)
        B = HermOp(A.matrix + random_hermitian(rng, 12, distance).matrix)
        assert 0.5 * distance < op_norm(B.matrix - A.matrix) < 2.0 * distance
        exact = mp_gap(A, B, 40)
        assert abs(gap_dist(A, B) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("delta", [1e-6, 1e-10, 1e-13, "ulp"])
    def test_close_banded_pairs_match_the_low_rank_value(self, offset, delta):
        """One diagonal (offset 0) or off-diagonal (offset 1) entry moved by delta at n = 200."""
        rng = np.random.default_rng(200)
        n, k = 200, 77
        A = HermOp.tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
        bands = [b.copy() for b in A.bands]
        old = bands[offset][k]
        bands[offset][k] = np.nextafter(old, np.inf) if delta == "ulp" else old + delta
        B = HermOp.tridiagonal(*bands)
        step = bands[offset][k] - old  # the stored band difference
        assert step != 0.0
        E = np.eye(n)[:, k:k + 1 + offset]
        S = np.array([[step]]) if offset == 0 else np.array([[0.0, step], [step, 0.0]])
        exact = low_rank_gap(A, B, E, S)
        assert abs(gap_dist(A, B) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("x1", [1e-4, 1e-2, 0.3, 0.9])
    def test_matches_the_dense_cayley_route(self, x1):
        robin, dirichlet = robin_dirichlet(x1, 400)
        assert abs(gap_dist(robin, dirichlet) - cayley_gap(robin, dirichlet)) < 1e-10

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

    @pytest.mark.parametrize("x1, n, dense", [
        (1e-50, 400, False),
        (1e-200, 400, False),
        (1e-200, 16, False),
        (1e-50, 16, True),
        (1e-200, 16, True),
    ])
    def test_far_pairs_fail_loudly(self, x1, n, dense):
        """A far pair whose product reads above 1, or whose Lanczos overflows, raises."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither building nor failing warns
            pair = robin_dirichlet(x1, n)
            if dense:
                pair = [HermOp(op.matrix) for op in pair]
            with pytest.raises(ConditioningError):
                gap_dist(*pair)

    @pytest.mark.xfail(strict=True, reason="far pairs lose digits in proportion to ||B - A|| "
                       "but stay below the bound gap <= 1 (ROADMAP: a gap route for far pairs)")
    @pytest.mark.parametrize("x1, exact", [
        (1e-12, 0.000558519811258173),
        (1e-20, 0.0005585198109519194),
    ])
    def test_far_pairs_match_the_difference_form(self, x1, exact):
        """n = 400; ``exact`` is ||(A + i)^-1 - (B + i)^-1||, the difference form."""
        assert gap_dist(*robin_dirichlet(x1, 400)) == pytest.approx(exact, rel=1e-9)

    def test_no_dense_matrix_and_no_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigh called")

        dense = [HermOp(op.matrix) for op in robin_dirichlet(0.05, 100)]
        rng = np.random.default_rng(8)
        dense_random = [random_hermitian(rng, 6, 3.0) for _ in range(2)]
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        robin, dirichlet = robin_dirichlet(0.05, 100)
        assert 0.0 < gap_dist(robin, dirichlet) < 1.0
        assert robin._matrix is None and dirichlet._matrix is None
        assert robin._eigvecs is None and dirichlet._eigvecs is None
        for pair in (dense, dense_random):
            assert 0.0 < gap_dist(*pair) < 1.0
            assert all(op._eigvecs is None and op._eigvals is None for op in pair)

    def test_small_banded_pairs_take_the_dense_product(self):
        for n in (1, 2):
            A = HermOp.tridiagonal(np.arange(n, dtype=float), np.ones(n - 1))
            B = HermOp.tridiagonal(np.full(n, 3.0), np.zeros(n - 1))
            assert abs(gap_dist(A, B) - cayley_gap(A, B)) < 1e-15


def mp_ball_map(M, g):
    """U diag(g(s)) V* and ||M|| from an SVD of M's exact double entries at mpmath's precision."""
    U, S, V = mpmath.svd_c(mpmath.matrix(np.asarray(M, dtype=complex).tolist()))
    return U * mpmath.diag([g(s) for s in S]) * V, max(S)


def to_complex(M):
    return np.array(M.tolist(), dtype=complex)


def perturbation(rng, dim, shape):
    """A direction of norm about 1: rank one, full, or a single entry."""
    if shape == "rank one":
        x, y = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        return np.outer(x / np.linalg.norm(x), (y / np.linalg.norm(y)).conj())
    if shape == "full":
        return random_matrix(rng, dim)
    D = np.zeros((dim, dim), dtype=complex)
    D[tuple(rng.integers(dim, size=2))] = 1.0
    return D


class TestFiftyDigitOracle:
    """The transform layer against a 50-digit SVD of the same double entries.

    Each bound is 16 dim u times the map's conditioning: F(x) = x/sqrt(1 + x^2)
    has slope at most 1, so F(B) is owed dim u max(1, ||B||); the inverse's
    slope is (1 - ||a||^2)^(-3/2).
    """

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), log_norm=st.floats(-3, 3),
           k=st.integers(-14, 14), shape=st.sampled_from(["rank one", "full", "entry"]))
    def test_bounded_transform_is_backward_stable(self, seed, dim, log_norm, k, shape):
        rng = np.random.default_rng(seed)
        B = random_matrix(rng, dim, 10.0 ** log_norm) + 10.0 ** k * perturbation(rng, dim, shape)
        with mpmath.workdps(50):
            exact, norm = mp_ball_map(B, lambda s: s / mpmath.sqrt(1 + s * s))
        bound = 16 * dim * UNIT_ROUNDOFF * max(1.0, float(norm))
        assert op_norm(bounded_transform(B) - to_complex(exact)) <= bound

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.lists(st.one_of(
        st.floats(-12, math.log10(0.999)).map(lambda e: 10.0 ** e),
        st.floats(-3, 0, exclude_max=True).map(lambda e: 1.0 - 10.0 ** e),
    ), min_size=1, max_size=6))
    def test_inverse_is_stable_to_its_conditioning(self, seed, s):
        rng = np.random.default_rng(seed)
        dim = len(s)
        Q1, Q2 = (np.linalg.qr(random_matrix(rng, dim))[0] for _ in range(2))
        a = (Q1 * np.array(s)) @ Q2  # singular values s, spread over [1e-12, 0.999]
        with mpmath.workdps(50):
            exact, norm = mp_ball_map(a, lambda x: x / mpmath.sqrt(1 - x * x))
        bound = 16 * dim * UNIT_ROUNDOFF * (1.0 - float(norm) ** 2) ** -1.5
        assert op_norm(inverse_bounded_transform(a) - to_complex(exact)) <= bound

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="riesz_dist subtracts two rounded transforms, so close pairs lose "
                              "digits (ROADMAP item 9: the Daleckii-Krein form)")
    def test_close_riesz_pairs_match_the_daleckii_krein_form(self):
        rng = np.random.default_rng(9)
        g = lambda x: x / mpmath.sqrt(1 + x * x)
        for _ in range(8):
            A = random_hermitian(rng, 5, 10.0 ** rng.uniform(-3, 3))
            B = HermOp(A.matrix + 10.0 ** rng.uniform(-14, -3) * random_hermitian(rng, 5).matrix)
            with mpmath.workdps(50):
                difference = mp_ball_map(A.matrix, g)[0] - mp_ball_map(B.matrix, g)[0]
                exact = float(max(mpmath.svd_c(difference, compute_uv=False)))
            assert riesz_dist(A, B) == pytest.approx(exact, rel=1e-9, abs=0.0)


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
            assert weyl_gap(A, B) <= op_norm(A.matrix - B.matrix) + self.slack(A, B)

    @staticmethod
    def slack(A, B):
        """The rounding slack the docstring states: 4 dim u (||A|| + ||B||)."""
        return 4 * A.dim * UNIT_ROUNDOFF * (op_norm(A.matrix) + op_norm(B.matrix))

    @pytest.mark.parametrize("dim", [2, 3, 6, 16])
    def test_close_pairs_stay_within_the_stated_slack(self, dim):
        """B - A is a relative 1e-16 to 1e-10 of ||A||: rounding in the spectra shows."""
        rng = np.random.default_rng(dim)
        excess = 0.0
        for _ in range(200):
            A = random_hermitian(rng, dim, 10.0 ** rng.uniform(-3, 3))
            step = 10.0 ** rng.uniform(-16, -10) * op_norm(A.matrix)
            B = HermOp(A.matrix + random_hermitian(rng, dim, step).matrix)
            gap, distance = weyl_gap(A, B), op_norm(B.matrix - A.matrix)  # the stored difference
            assert gap <= distance + self.slack(A, B)
            excess = max(excess, gap - distance)
        assert excess > 0.0  # the slack is needed: Weyl's bound alone fails on rounded spectra

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
