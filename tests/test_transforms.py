import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow import transforms
from opflow.classify import density_surgery
from opflow.errors import OutOfBallError, ValidationError
from opflow.linalg import HermOp, adjoint, as_matrix, op_norm
from opflow.transforms import (
    GraphProjection,
    ball_projection,
    bounded_transform,
    cayley,
    cayley_ball,
    fredholm_factor_check,
    graph_projection,
    horizontal_projection,
    identity_suite,
    inverse_bounded_transform,
    lagrangian_defect,
    lagrangian_to_unitary,
    odd_embedding,
    odd_unitary_defect,
    proj_to_unitary,
    random_hermitian,
    random_matrix,
    vertical_projection,
)

RNG = np.random.default_rng(42)
# eigenvalues whose squares overflow: the ball maps must not form 1 + w^2
HUGE = np.diag([1e200, -1e160, 2.0])


def spectral_radius(H):
    """max |lambda| of a Hermitian matrix, from its values-only eigensolve."""
    w = np.linalg.eigvalsh(H)
    return float(max(-w[0], w[-1]))


class Symplectics:
    """The fixed block symmetries and conjugators of the doubled space, as dense matrices.

    ``sym_i`` and ``grading`` are the two symmetries; ``v_lag`` conjugates the
    first to the second; ``v_odd`` squares to the grading.  All four are the
    pinned 2x2 block representatives tensored with the identity: the dense
    reference for the transforms, which apply the 2x2 blocks directly.
    """

    def __init__(self, half_dim: int):
        eye = np.eye(half_dim, dtype=complex)
        self.sym_i = np.kron([[0, -1j], [1j, 0]], eye)
        self.grading = np.kron([[1, 0], [0, -1]], eye)
        self.v_lag = np.kron(np.array([[-1, 1j], [1, 1j]]) / np.sqrt(2.0), eye)
        self.v_odd = np.kron([[1, 0], [0, 1j]], eye)


def contraction(rng, n, norm=0.9):
    X = random_matrix(rng, n)
    return norm * X / max(op_norm(X), 1e-12)


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a pass-through that records each call; return the record."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestBoundedTransform:
    def test_zero(self):
        np.testing.assert_allclose(bounded_transform(np.zeros((3, 3))), 0, atol=1e-15)

    def test_scalar_one(self):
        a = bounded_transform(np.array([[1.0]]))
        assert abs(a[0, 0] - 1 / np.sqrt(2)) < 1e-12

    def test_offdiagonal_two(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        expected = (2 / np.sqrt(5)) * np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(bounded_transform(A), expected, atol=1e-12)

    def test_strict_contraction_and_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = random_hermitian(rng, 6, scale=4.0)
            a = bounded_transform(A)
            assert op_norm(a) < 1.0
            assert op_norm(a - adjoint(a)) < 1e-12

    @pytest.mark.parametrize("wrap", [HermOp, np.asarray])
    def test_huge_entries_map_to_the_sphere(self, wrap):
        expected = np.diag([1.0, -1.0, 2.0 / np.sqrt(5.0)])
        np.testing.assert_allclose(bounded_transform(wrap(HUGE)), expected, rtol=0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_always_lands_in_open_ball(self, dim, seed):
        rng = np.random.default_rng(seed)
        assert op_norm(bounded_transform(random_matrix(rng, dim, scale=5.0))) < 1.0


class TestInverseBoundedTransform:
    def test_zero(self):
        np.testing.assert_allclose(inverse_bounded_transform(np.zeros((2, 2))), 0, atol=1e-15)

    def test_scalar(self):
        A = inverse_bounded_transform(np.array([[1 / np.sqrt(2)]]))
        assert abs(A[0, 0] - 1.0) < 1e-12

    def test_round_trip_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = random_hermitian(rng, 5).matrix
            a = 0.9 * X / max(op_norm(X), 1e-12)
            assert op_norm(bounded_transform(inverse_bounded_transform(a)) - a) < 1e-8

    def test_out_of_ball_rejected(self):
        with pytest.raises(OutOfBallError):
            inverse_bounded_transform(np.eye(3))

    def test_round_trips_both_ways(self):
        rng = np.random.default_rng(2)
        A = random_matrix(rng, 6, scale=2.0)
        assert op_norm(inverse_bounded_transform(bounded_transform(A)) - A) < 1e-8
        a = contraction(rng, 6)
        assert op_norm(bounded_transform(inverse_bounded_transform(a)) - a) < 1e-8


class TestGraphProjection:
    def test_odd_dim_is_not_a_doubled_space(self):
        with pytest.raises(ValidationError, match="needs even dim, got 3"):
            GraphProjection(np.eye(3))

    def test_zero_gives_horizontal(self):
        p = graph_projection(np.zeros((4, 4)))
        np.testing.assert_allclose(p.matrix, horizontal_projection(4).matrix, atol=1e-14)

    def test_scalar_one(self):
        p = graph_projection(np.array([[1.0]]))
        np.testing.assert_allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-14)

    def test_idempotent_random(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 8):
            p = graph_projection(random_matrix(rng, n, scale=3.0)).matrix
            assert op_norm(p @ p - p) < 1e-10

    def test_first_block_is_resolvent(self):
        rng = np.random.default_rng(4)
        A = random_matrix(rng, 5)
        p = graph_projection(A).matrix
        expected = np.linalg.inv(np.eye(5) + adjoint(A) @ A)
        np.testing.assert_allclose(p[:5, :5], expected, atol=1e-12)

    def test_hermitian_route_matches_general(self):
        rng = np.random.default_rng(5)
        H = random_hermitian(rng, 6, scale=2.0)
        p1 = graph_projection(H).matrix
        p2 = graph_projection(np.asarray(H.matrix)).matrix
        assert op_norm(p1 - p2) < 1e-11

    def test_rank_is_half(self):
        rng = np.random.default_rng(6)
        assert graph_projection(random_matrix(rng, 7)).rank() == 7

    def test_non_projection_reports_both_exact_norms(self):
        P = np.diag([1.0, 0.5]).astype(complex)
        P[0, 1], P[1, 0] = 1e-12, -1e-12
        idem, herm = op_norm(P @ P - P), op_norm(P - adjoint(P))
        assert herm < transforms.PROJECTION_ATOL < idem
        with pytest.raises(ValidationError) as info:
            GraphProjection(P)
        assert str(info.value) == f"not a projection: ||p^2-p|| = {idem:.3e}, ||p-p*|| = {herm:.3e}"

    def test_huge_eigenvalues_give_vertical_blocks(self):
        f = np.array([0.0, 1e-320, 0.2])  # 1 / (1 + w^2); the middle one is subnormal
        expected = np.block([[np.diag(f), np.diag([1e-200, -1e-160, 0.4])],
                             [np.diag([1e-200, -1e-160, 0.4]), np.diag(1.0 - f)]])
        np.testing.assert_allclose(graph_projection(HermOp(HUGE)).matrix, expected, rtol=0, atol=1e-15)


class TestBallProjection:
    def test_zero_gives_horizontal(self):
        p = ball_projection(np.zeros((3, 3)))
        np.testing.assert_allclose(p.matrix, horizontal_projection(3).matrix, atol=1e-14)

    def test_unitary_gives_vertical(self):
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(random_matrix(rng, 4))[0]
        p = ball_projection(Q)
        np.testing.assert_allclose(p.matrix, vertical_projection(4).matrix, atol=1e-12)

    def test_factors_graph_projection(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]])
        p1 = ball_projection(bounded_transform(A)).matrix
        p2 = graph_projection(A).matrix
        assert op_norm(p1 - p2) < 1e-9

    def test_out_of_ball_rejected(self):
        with pytest.raises(OutOfBallError):
            ball_projection(2.0 * np.eye(2))


class TestCayley:
    def test_zero(self):
        np.testing.assert_allclose(cayley(np.zeros((3, 3))), -np.eye(3), atol=1e-14)

    def test_scalar_one(self):
        u = cayley(np.array([[1.0]]))
        assert abs(u[0, 0] - (-1j)) < 1e-12

    def test_large_scalar_near_one(self):
        u = cayley(np.array([[1e6]]))
        assert abs(u[0, 0] - 1.0) <= 2e-6

    def test_unitary_and_eigenvalue_map(self):
        rng = np.random.default_rng(8)
        H = random_hermitian(rng, 6, scale=3.0)
        u = cayley(H)
        assert op_norm(adjoint(u) @ u - np.eye(6)) < 1e-10
        expected = np.sort_complex((H.eigenvalues - 1j) / (H.eigenvalues + 1j))
        got = np.sort_complex(np.linalg.eigvals(u))
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestCayleyBall:
    def test_zero(self):
        np.testing.assert_allclose(cayley_ball(np.zeros((2, 2))), -np.eye(2), atol=1e-14)

    def test_plus_minus_one(self):
        for s in (1.0, -1.0):
            u = cayley_ball(np.array([[s]]))
            assert abs(u[0, 0] - 1.0) < 1e-12

    def test_matches_cayley_through_transform(self):
        a = bounded_transform(np.array([[1.0]]))
        u = cayley_ball(a)
        assert abs(u[0, 0] - (-1j)) < 1e-12
        assert abs((1 / np.sqrt(2) - 1j / np.sqrt(2)) ** 2 - (-1j)) < 1e-15

    def test_factorization_random(self):
        rng = np.random.default_rng(9)
        H = random_hermitian(rng, 7, scale=2.0)
        assert op_norm(cayley(H) - cayley_ball(HermOp(bounded_transform(H)))) < 1e-9


class TestLagrangian:
    def test_vertical_maps_to_identity(self):
        u = lagrangian_to_unitary(vertical_projection(3))
        np.testing.assert_allclose(u, np.eye(3), atol=1e-12)

    def test_horizontal_maps_to_minus_identity(self):
        u = lagrangian_to_unitary(horizontal_projection(3))
        np.testing.assert_allclose(u, -np.eye(3), atol=1e-12)

    def test_matches_cayley_ball_on_hermitian_contractions(self):
        rng = np.random.default_rng(10)
        X = random_hermitian(rng, 5).matrix
        a = HermOp(0.8 * X / max(op_norm(X), 1e-12))
        u = lagrangian_to_unitary(ball_projection(a))
        assert op_norm(u - cayley_ball(a)) < 1e-9

    def test_non_lagrangian_rejected(self):
        p = GraphProjection(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        with pytest.raises(ValidationError, match="anticommutator"):
            lagrangian_to_unitary(p)

    def test_hermitian_graphs_are_lagrangian(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            H = random_hermitian(rng, 6, scale=3.0)
            assert lagrangian_defect(graph_projection(H)) < 1e-9

    def test_exactly_lagrangian_projections_take_no_norm(self, monkeypatch):
        def refuse(M, floor):
            raise AssertionError("norm taken of a zero residual")

        projections = (vertical_projection(3), horizontal_projection(3),
                       graph_projection(HermOp(np.diag([1.0, -2.0, 0.5]))))
        monkeypatch.setattr(transforms, "op_norm_floor", refuse)
        for p in projections:
            assert lagrangian_defect(p) == 0.0
            assert op_norm(lagrangian_to_unitary(p)) == pytest.approx(1.0, rel=1e-15)


class TestOddEmbedding:
    def test_scalar(self):
        H = odd_embedding(np.array([[1.0]]))
        np.testing.assert_allclose(H.matrix, [[0, 1], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(H.eigenvalues, [-1.0, 1.0])

    def test_zero(self):
        assert op_norm(odd_embedding(np.zeros((3, 3))).matrix) == 0.0

    def test_anticommutes_with_grading_exactly(self):
        rng = np.random.default_rng(12)
        A = random_matrix(rng, 4)
        H = odd_embedding(A)
        J = Symplectics(4).grading
        assert np.array_equal(J @ H.matrix @ J, -H.matrix)

    def test_spectrum_is_plus_minus_singular_values(self):
        rng = np.random.default_rng(13)
        A = random_matrix(rng, 8, scale=2.0)
        s = np.linalg.svd(A, compute_uv=False)
        expected = np.sort(np.concatenate([-s, s]))
        np.testing.assert_allclose(odd_embedding(A).eigenvalues, expected, atol=1e-10)


class TestProjToUnitary:
    def test_vertical_to_identity(self):
        np.testing.assert_allclose(proj_to_unitary(vertical_projection(2)), np.eye(4), atol=1e-14)

    def test_horizontal_to_minus_identity(self):
        np.testing.assert_allclose(proj_to_unitary(horizontal_projection(2)), -np.eye(4), atol=1e-14)

    def test_lands_in_odd_unitaries(self):
        rng = np.random.default_rng(14)
        p = graph_projection(random_matrix(rng, 3, scale=2.0))
        u = proj_to_unitary(p)
        assert op_norm(adjoint(u) @ u - np.eye(6)) < 1e-10
        assert odd_unitary_defect(u) < 1e-10

    def test_commuting_square_with_cayley_ball(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            a = contraction(rng, 4)
            lhs = proj_to_unitary(ball_projection(a))
            rhs = cayley_ball(odd_embedding(a))
            assert op_norm(lhs - rhs) < 1e-9

    def test_non_projection_rejected(self):
        with pytest.raises(ValidationError, match="projection"):
            proj_to_unitary(0.5 * np.eye(4))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_odd_defect_needs_a_doubled_space(self, n):
        with pytest.raises(ValidationError, match=f"got dim {n}$"):
            odd_unitary_defect(np.eye(n))

    @pytest.mark.parametrize("entry, bad", [((0, 0), np.nan), ((1, 0), np.inf)])
    def test_odd_defect_names_a_non_finite_entry(self, entry, bad):
        u = np.eye(2, dtype=complex)
        u[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entry \(%d, %d\) is not finite" % entry):
                odd_unitary_defect(u)


class TestFredholmFactorization:
    def test_zero(self):
        assert fredholm_factor_check(np.zeros((3, 3))) < 1e-10

    def test_unitary(self):
        rng = np.random.default_rng(16)
        Q = np.linalg.qr(random_matrix(rng, 5))[0]
        assert fredholm_factor_check(Q) < 1e-10

    def test_random_contraction(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            assert fredholm_factor_check(contraction(rng, 6)) < 1e-9


class TestOneFactorizationPerOperand:
    """Each ball map factors its operand once and reads the ball check off that factor."""

    @staticmethod
    def fredholm_with_separate_projection(a):
        """The block-factorization deviation with the ball projection built by its own SVD."""
        n, pa = a.shape[0], ball_projection(a)
        U, s, Vh = np.linalg.svd(a)
        s = np.minimum(s, 1.0)
        a = (U * s) @ Vh  # W's blocks come from the operand snapped to the ball
        r = transforms._sqrt_clamped(1.0 - s * s)
        R1 = (adjoint(Vh) * r) @ Vh
        R2 = (U * r) @ adjoint(U)
        W = np.block([[a, -R2], [R1, adjoint(a)]])
        DW = np.vstack([-adjoint(a) @ W[:n], a @ W[n:]])
        p0 = np.zeros((2 * n, 2 * n), dtype=complex)
        p0[:n, :n] = np.eye(n)
        return op_norm((pa.matrix - p0) - DW)

    def test_fredholm_takes_one_svd(self, monkeypatch):
        # an operand factorization returns singular vectors; op_norm's values-only
        # svd of the unitarity defect is not one
        a = contraction(np.random.default_rng(30), 6)
        factorizations = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            if kwargs.get("compute_uv", True):
                factorizations.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        fredholm_factor_check(a)
        assert factorizations == [(6, 6)]

    @pytest.mark.parametrize("f, factorizations", [
        (bounded_transform, (0, 1)),  # the eigh of its Hermitian dilation, in place of an SVD
        (inverse_bounded_transform, (1, 0)),
    ], ids=["bounded_transform", "inverse_bounded_transform"])
    def test_ball_map_takes_one_factorization(self, monkeypatch, f, factorizations):
        a = contraction(np.random.default_rng(36), 6)
        svd = count_calls(monkeypatch, np.linalg, "svd")
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        f(a)
        assert (len(svd), len(eigh)) == factorizations

    def test_fredholm_is_bit_equal_to_the_separate_projection(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 9, 16):
            for a in (contraction(rng, n), bounded_transform(random_matrix(rng, n, scale=2.0)),
                      np.linalg.qr(random_matrix(rng, n))[0]):
                assert fredholm_factor_check(a) == self.fredholm_with_separate_projection(a)

    def test_cayley_ball_runs_one_eigh(self, monkeypatch):
        ah = HermOp(bounded_transform(random_hermitian(np.random.default_rng(32), 7, scale=2.0)))
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        eigvalsh = count_calls(monkeypatch, np.linalg, "eigvalsh")
        cayley_ball(ah)
        assert (len(eigh), len(eigvalsh)) == (1, 0)

    def test_inverse_transform_takes_no_op_norm(self, monkeypatch):
        def refuse(M):
            raise AssertionError("op_norm called")

        monkeypatch.setattr(transforms, "op_norm", refuse)
        a = contraction(np.random.default_rng(33), 5)
        assert np.allclose(bounded_transform(inverse_bounded_transform(a)), a, atol=1e-10)

    def test_valid_checks_take_no_svd(self, monkeypatch):
        H = random_hermitian(np.random.default_rng(37), 6, scale=2.0)
        p = graph_projection(HermOp(np.asarray(H.matrix)))
        svd = count_calls(monkeypatch, np.linalg, "svd")
        graph_projection(H)
        lagrangian_to_unitary(p)
        assert svd == []

    def test_graph_projection_factors_s_once(self, monkeypatch):
        A = random_matrix(np.random.default_rng(34), 6, scale=2.0)
        calls = count_calls(monkeypatch, np.linalg, "solve")
        graph_projection(A)
        assert len(calls) == 2

    @pytest.mark.parametrize("trials", [1, 3])
    def test_identity_suite_builds_one_ball_projection_per_trial(self, monkeypatch, trials):
        # one SVD of the ball operand feeds its projection and the Fredholm residual
        svds = count_calls(monkeypatch, transforms, "_ball_svd")
        projections = count_calls(monkeypatch, transforms, "_ball_projection")
        identity_suite(dim=5, trials=trials, seed=2)
        assert len(svds) == len(projections) == trials

    @pytest.mark.parametrize("trials", [1, 3])
    def test_identity_suite_validates_three_projections_per_trial(self, monkeypatch, trials):
        # ball_projection(a) and the two graph projections; the Fredholm
        # residual reuses the first instead of building a fourth
        calls = count_calls(monkeypatch, GraphProjection, "__post_init__")
        identity_suite(dim=5, trials=trials, seed=2)
        assert len(calls) == 3 * trials

    def test_fredholm_residual_reuses_the_projection_it_is_given(self, monkeypatch):
        a = contraction(np.random.default_rng(38), 5)
        svd = transforms._ball_svd(a)
        assert np.array_equal(transforms._fredholm_residual(svd, ball_projection(a)),
                              transforms._fredholm_residual(svd, transforms._ball_projection(*svd)))
        svds = count_calls(monkeypatch, transforms, "_ball_svd")
        fredholm_factor_check(a)
        assert len(svds) == 1

    @pytest.mark.parametrize("norm, ok", [(1.0 + 1e-11, True), (1.0 + 2e-10, False),
                                          (1.0 + 5e-11, True), (1.0 + 8e-11, True)])
    def test_ball_threshold_unchanged(self, norm, ok):
        Q = np.linalg.qr(random_matrix(np.random.default_rng(35), 4))[0]
        H = np.diag([norm, 0.5, -0.25, 0.0])
        for f, a in [(ball_projection, norm * Q), (cayley_ball, H), (fredholm_factor_check, norm * Q)]:
            if ok:
                f(a)
            else:
                with pytest.raises(OutOfBallError, match=r"operator norm 1\.0000000002 exceeds 1 \(tol 1e-10\)"):
                    f(a)

    @pytest.mark.parametrize("f", [ball_projection, fredholm_factor_check, inverse_bounded_transform])
    def test_non_finite_operand_named(self, f):
        a = np.zeros((2, 2), dtype=complex)
        a[1, 0] = np.nan
        with pytest.raises(ValidationError, match=r"entry \(1, 0\) is not finite"):
            f(a)

    def test_strict_contraction_message_unchanged(self):
        with pytest.raises(OutOfBallError, match="strict contraction; operator norm is 0.99999999995"):
            inverse_bounded_transform(np.diag([1.0 - 5e-11, 0.5]))


class TestSymplectics:
    def test_symmetries(self):
        sp = Symplectics(3)
        for M in (sp.sym_i, sp.grading):
            assert op_norm(M - adjoint(M)) < 1e-12
            assert op_norm(M @ M - np.eye(6)) < 1e-12

    def test_conjugators_unitary(self):
        sp = Symplectics(3)
        for M in (sp.v_lag, sp.v_odd):
            assert op_norm(adjoint(M) @ M - np.eye(6)) < 1e-12

    def test_v_odd_squares_to_grading_exactly(self):
        sp = Symplectics(4)
        assert np.array_equal(sp.v_odd @ sp.v_odd, sp.grading)

    def test_v_lag_conjugates_sym_i_to_grading(self):
        sp = Symplectics(5)
        assert op_norm(sp.v_lag @ sp.sym_i @ adjoint(sp.v_lag) - sp.grading) < 1e-12


class TestBlockForms:
    """The transforms apply the 2x2 blocks; ``Symplectics`` is their dense reference."""

    @pytest.mark.parametrize("h", range(1, 20))
    def test_sign_flips_and_block_swaps_are_bit_equal(self, h):
        rng = np.random.default_rng(100 + h)
        sp = Symplectics(h)
        eye = np.eye(2 * h)
        for _ in range(5):
            u = random_matrix(rng, 2 * h)
            X = sp.grading @ u @ sp.grading - adjoint(u)
            assert odd_unitary_defect(u) == spectral_radius(1j * (sp.grading @ X))
            p = graph_projection(random_matrix(rng, h, scale=2.0))
            dense = sp.v_odd @ (eye - 2.0 * p.matrix) @ sp.v_odd
            assert np.array_equal(proj_to_unitary(p), dense)
            r = 2.0 * p.matrix - eye
            assert lagrangian_defect(p) == op_norm(sp.sym_i @ r + r @ sp.sym_i)

    def test_odd_defect_is_the_svd_norm_to_rounding(self):
        # u is not odd, so ||X|| is O(1); worst seen 3.43 dim u ||X|| at dim 2, 0.54 at dim 64
        rng = np.random.default_rng(300)
        unit = np.finfo(float).eps / 2.0
        for dim in (2, 4, 6, 10, 16, 32, 64):
            g = np.diag(np.repeat([1.0, -1.0], dim // 2))
            for _ in range(40):
                u = random_matrix(rng, dim)
                norm = op_norm(g @ u @ g - adjoint(u))
                assert abs(odd_unitary_defect(u) - norm) <= 8.0 * dim * unit * norm

    @pytest.mark.parametrize("h", range(1, 20))
    def test_lagrangian_unitary_is_the_conjugated_block(self, h):
        rng = np.random.default_rng(200 + h)
        sp = Symplectics(h)
        for _ in range(5):
            p = graph_projection(random_hermitian(rng, h, scale=3.0))
            r = sp.v_lag @ (2.0 * p.matrix - np.eye(2 * h)) @ adjoint(sp.v_lag)
            assert op_norm(lagrangian_to_unitary(p) - r[h:, :h]) <= 1e-15


class TestIdentityInvariants:
    def test_resolvent_identity(self):
        rng = np.random.default_rng(18)
        for n in (2, 9, 16):
            A = random_matrix(rng, n, scale=2.0)
            a = bounded_transform(A)
            lhs = np.linalg.inv(np.eye(n) + adjoint(A) @ A)
            assert op_norm(lhs - (np.eye(n) - adjoint(a) @ a)) < 1e-9

    def test_convexity_witness(self):
        """Convex combinations of strict contractions contract every vector."""
        rng = np.random.default_rng(19)
        a0, a1 = contraction(rng, 6, 0.97), contraction(rng, 6, 0.95)
        for s in (0.25, 0.5, 0.75):
            a_s = (1 - s) * a0 + s * a1
            for _ in range(50):
                xi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                xi /= np.linalg.norm(xi)
                assert np.linalg.norm(a_s @ xi) < 1.0

    def test_suite_below_tolerance(self):
        deviations = identity_suite(dim=10, trials=60, seed=123)
        assert max(deviations.values()) < 1e-9

    def test_suite_deterministic(self):
        assert identity_suite(dim=6, trials=5, seed=7) == identity_suite(dim=6, trials=5, seed=7)

    def test_suite_is_bit_equal_to_the_svd_route(self, monkeypatch):
        shortcut = identity_suite(dim=6, trials=40, seed=8)
        monkeypatch.setattr(transforms, "op_norm_floor", lambda M, floor: max(op_norm(M), floor))
        exact = identity_suite(dim=6, trials=40, seed=8)
        assert {k: v.hex() for k, v in shortcut.items()} == {k: v.hex() for k, v in exact.items()}

    @pytest.mark.parametrize("kwargs, named", [({"dim": 1}, "dim = 1"), ({"dim": -3}, "dim = -3"),
                                               ({"trials": 0}, "trials = 0"),
                                               ({"trials": -1}, "trials = -1")])
    def test_suite_rejects_degenerate_sizes(self, kwargs, named):
        with pytest.raises(ValidationError, match=named):
            identity_suite(**kwargs)

    def test_random_hermitian_is_the_hermitian_part_of_a_draw(self):
        X = random_matrix(np.random.default_rng(5), 4, 3.0)
        assert np.array_equal(random_hermitian(np.random.default_rng(5), 4, 3.0).matrix, (X + adjoint(X)) / 2.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_suite_draws_every_dimension_from_2_to_dim(self, monkeypatch, dim):
        dims, draw = [], transforms.random_matrix

        def recorded(rng, d, *args, **kwargs):
            dims.append(d)
            return draw(rng, d, *args, **kwargs)

        monkeypatch.setattr(transforms, "random_matrix", recorded)
        identity_suite(dim=dim, trials=20, seed=3)
        assert set(dims) == set(range(2, dim + 1))

    def test_an_identity_whose_residuals_are_all_zero_reports_zero(self, monkeypatch):
        monkeypatch.setattr(transforms, "_lagrangian_residual", lambda p: np.zeros((p.dim, p.dim)))
        deviations = identity_suite(dim=4, trials=3, seed=1)
        assert deviations["lagrangian_anticommutator"] == 0.0 and len(deviations) == 11


def _surgery_operands(rng):
    """An operator with no eigenvalue near +-3, c = 3, and a block to replace its outside part."""
    w = np.concatenate([rng.uniform(-2.5, 2.5, 4), rng.choice([-1.0, 1.0], 4) * rng.uniform(4, 9, 4)])
    Q = np.linalg.qr(random_matrix(rng, 8))[0]
    return HermOp((Q * w) @ adjoint(Q)), 3.0, HermOp(np.diag(rng.uniform(4, 9, 4)))


@pytest.mark.parametrize("operands, build", [
    (lambda rng: (random_matrix(rng, 8, 0.5),), ball_projection),
    (lambda rng: (random_hermitian(rng, 8, 3.0),), graph_projection),
    (lambda rng: (random_matrix(rng, 8, 3.0),), graph_projection),
    (_surgery_operands, density_surgery),
], ids=["ball_projection", "graph_projection_hermop", "graph_projection_matrix", "density_surgery"])
def test_constructors_check_the_assembled_matrix(monkeypatch, operands, build):
    """Each assembled projection or operator reaches its constructor unsymmetrized.

    ``GraphProjection`` and ``HermOp`` check hermiticity before they
    symmetrize, so a caller that passed (P + P*)/2 would make that check read
    exactly 0: it could never fail.  A matrix assembled from floating-point
    products is rarely exactly Hermitian, so over a few draws each call site
    must hand over at least one that is not.
    """
    received = []
    hermop_init, projection_check = HermOp.__init__, GraphProjection.__post_init__

    def hermop_spy(self, matrix):
        received.append(as_matrix(matrix))
        hermop_init(self, matrix)

    def projection_spy(self):
        received.append(as_matrix(self.matrix))
        projection_check(self)

    rng = np.random.default_rng(3)
    exact = []
    for _ in range(5):
        args = operands(rng)
        with monkeypatch.context() as patch:
            patch.setattr(HermOp, "__init__", hermop_spy)
            patch.setattr(GraphProjection, "__post_init__", projection_spy)
            build(*args)
        (M,) = received  # the one constructor call the site makes
        exact.append(np.array_equal(M, adjoint(M)))
        received.clear()
    assert not all(exact)
