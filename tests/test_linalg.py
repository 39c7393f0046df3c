import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opflow.errors import DomainError, ValidationError
from opflow.linalg import HermOp, adjoint, as_matrix, func_calc, herm_eig, op_norm


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)


def random_hermitian(rng, n, scale=1.0):
    X = random_complex(rng, n, scale)
    return (X + adjoint(X)) / 2


class TestHermEig:
    def test_diagonal(self):
        w, V = herm_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, _ = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [-1.0, 1.0])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        M = random_hermitian(rng, 8, scale=2.0)
        w, V = herm_eig(M)
        assert op_norm((V * w) @ adjoint(V) - M) < 1e-10 * op_norm(M)
        assert op_norm(adjoint(V) @ V - np.eye(8)) < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="defect"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            HermOp(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_eigenvalues_cached_once(self):
        op = HermOp(np.diag([1.0, 2.0]))
        assert op.eigenvalues is op.eigenvalues
        assert op.eigenvectors is op.eigenvectors

    def test_concurrent_reads_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(3)
        op = HermOp(random_hermitian(rng, 32))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: op.eigenvalues, range(16)))
        assert all(r is results[0] for r in results)


class TestFuncCalc:
    def test_identity_function(self):
        M = HermOp(np.diag([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(func_calc(M, lambda x: x), M.matrix, atol=1e-14)

    def test_constant_one(self):
        rng = np.random.default_rng(1)
        M = HermOp(random_hermitian(rng, 5))
        np.testing.assert_allclose(func_calc(M, lambda x: 1.0), np.eye(5), atol=1e-13)

    def test_square_of_involution(self):
        M = HermOp(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(func_calc(M, lambda x: x * x), np.eye(2), atol=1e-14)

    def test_commutes_with_operand_for_real_f(self):
        rng = np.random.default_rng(2)
        M = HermOp(random_hermitian(rng, 6))
        F = func_calc(M, math.exp)
        assert op_norm(F @ M.matrix - M.matrix @ F) < 1e-10

    def test_undefined_at_eigenvalue(self):
        M = HermOp(np.diag([-1.0, 2.0]))
        with pytest.raises(DomainError, match="-1"):
            func_calc(M, math.log)

    def test_nonfinite_value_rejected(self):
        M = HermOp(np.diag([0.0, 1.0]))
        with pytest.raises(DomainError):
            func_calc(M, lambda x: 1.0 / x if x else float("inf"))

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 10_000))
    def test_matches_explicit_polynomial(self, dim, seed):
        rng = np.random.default_rng(seed)
        M = HermOp(random_hermitian(rng, dim, scale=1.5))
        coeffs = rng.standard_normal(4)
        F = func_calc(M, lambda x: coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3)
        A = M.matrix
        explicit = (coeffs[0] * np.eye(dim) + coeffs[1] * A
                    + coeffs[2] * A @ A + coeffs[3] * A @ A @ A)
        assert op_norm(F - explicit) < 1e-9


class TestOpNorm:
    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(random_complex(rng, 4))[0]
        assert abs(op_norm(Q) - 1.0) < 1e-12

    def test_diagonal(self):
        assert abs(op_norm(np.diag([-3.0, 2.0])) - 3.0) < 1e-14

    def test_submultiplicative_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            A = random_complex(rng, 6)
            B = random_complex(rng, 6)
            assert op_norm(A @ B) <= op_norm(A) * op_norm(B) + 1e-10
            assert op_norm(A + B) <= op_norm(A) + op_norm(B) + 1e-10

    def test_equals_spectral_radius_for_hermitian(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            M = HermOp(random_hermitian(rng, 7, scale=3.0))
            assert abs(op_norm(M.matrix) - np.max(np.abs(M.eigenvalues))) < 1e-10


class TestMatrixBasics:
    def test_adjoint_involution(self):
        rng = np.random.default_rng(7)
        A = random_complex(rng, 9)
        assert np.array_equal(adjoint(adjoint(A)), A)

    def test_scalar_promotes_to_1x1(self):
        assert as_matrix(2.0).shape == (1, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            as_matrix(np.zeros((2, 3)))

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 64), seed=st.integers(0, 10_000))
    def test_matmul_associative(self, dim, seed):
        rng = np.random.default_rng(seed)
        A, B, C = (random_complex(rng, dim) for _ in range(3))
        lhs = (A @ B) @ C
        rhs = A @ (B @ C)
        scale = max(op_norm(lhs), 1e-30)
        assert op_norm(lhs - rhs) / scale < 1e-12


def test_projection_differences_bounded_by_one():
    """Any two projections the system produces are at operator distance <= 1."""
    from opflow.classify import window_projection
    from opflow.transforms import ball_projection, bounded_transform, graph_projection

    rng = np.random.default_rng(8)
    projections = []
    for _ in range(4):
        A = random_complex(rng, 4, scale=2.0)
        projections.append(graph_projection(A).matrix)
        projections.append(ball_projection(bounded_transform(A)).matrix)
    H = HermOp(random_hermitian(rng, 4, scale=2.0))
    W = window_projection(H, -0.5, 0.5)
    Z = np.zeros((4, 4), dtype=complex)
    projections.append(np.block([[W, Z], [Z, W]]))
    for i, p in enumerate(projections):
        for q in projections[i + 1:]:
            assert op_norm(p - q) <= 1.0 + 1e-10
