import math
import warnings

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


def dense_tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@st.composite
def tridiagonal_bands(draw):
    """Real symmetric tridiagonal bands of a few shapes, plus exact edge values.

    ``edges`` are eigenvalues known in closed form: the cosine ladder of the
    Dirichlet matrix, or the diagonal entries of a diagonal matrix.
    """
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["random", "clustered", "repeated", "dirichlet", "diagonal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    e = rng.standard_normal(n - 1)
    edges = np.empty(0)
    if kind == "random":
        d = rng.standard_normal(n)
    elif kind == "clustered":
        d = rng.choice([-1.0, 0.0, 1.0], n) + 1e-9 * rng.standard_normal(n)
        e *= 1e-6
    elif kind == "repeated":
        d = np.full(n, float(rng.standard_normal()))
    elif kind == "dirichlet":
        d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
        edges = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    else:
        d, e = rng.integers(-3, 4, n).astype(float), np.zeros(n - 1)
        edges = d
    return scale * d, scale * e, scale * edges


class TestTridiagonal:
    @settings(max_examples=300, deadline=None)
    @given(bands=tridiagonal_bands(), data=st.data())
    def test_spectrum_matches_masked_dense(self, bands, data):
        d, e, edges = bands
        op = HermOp.tridiagonal(d, e)
        w = np.linalg.eigvalsh(dense_tridiagonal(d, e))
        norm = float(np.max(np.abs(w)))
        tol = 1e-12 * (1.0 + norm)
        window = data.draw(st.sampled_from(
            ["random", "gap", "beyond", "whole", "reversed", "edge"]))
        u = lambda a, b: data.draw(st.floats(a, b))
        if window == "random":
            lo, hi = sorted((u(-1.5 * norm - 1, 1.5 * norm + 1), u(-1.5 * norm - 1, 1.5 * norm + 1)))
        elif window == "gap" and np.any(np.diff(w) > 4 * tol):
            k = int(np.argmax(np.diff(w)))
            mid, width = 0.5 * (w[k] + w[k + 1]), w[k + 1] - w[k]
            lo, hi = mid - width / 4, mid + width / 4
        elif window == "beyond":
            lo, hi = w[-1] + 1.0 + norm, w[-1] + 2.0 + 2 * norm
        elif window == "reversed":
            lo, hi = 0.5, -0.5
        elif window == "edge" and edges.size:
            at = float(edges[data.draw(st.integers(0, edges.size - 1))])
            lo, hi = data.draw(st.sampled_from([(at, at), (at, at + 1.0), (at - 1.0, at)]))
        else:
            lo, hi = w[0] - 1.0, w[-1] + 1.0
        first, values = op.spectrum(lo, hi)
        assert not values.flags.writeable
        # an eigenvalue within rounding of an edge may fall on either side of it,
        # in the dense solve as in the banded one; every other one must agree
        below = lambda x: int(np.searchsorted(w, x, side="left"))
        not_above = lambda x: int(np.searchsorted(w, x, side="right"))
        assert below(lo - tol) <= first <= below(lo + tol)
        end = first + values.size
        if lo <= hi:
            assert not_above(hi - tol) <= end <= not_above(hi + tol)
        else:
            assert values.size == 0
        exact_first, exact_end = below(lo), max(below(lo), not_above(hi))
        lo_clear = below(lo - tol) == below(lo + tol)
        hi_clear = lo > hi or not_above(hi - tol) == not_above(hi + tol)
        if lo_clear:
            assert first == exact_first
        if lo_clear and hi_clear:
            assert values.size == exact_end - exact_first
        shared = slice(max(first, exact_first), min(end, exact_end))
        np.testing.assert_allclose(values[shared.start - first:shared.stop - first],
                                   w[shared], rtol=0.0, atol=tol)

    @pytest.mark.parametrize("lo, hi, first, count", [
        (1.0, 1.0, 2, 2), (1.0, 2.0, 2, 3), (-1.0, 1.0, 0, 4), (0.0, 0.0, 1, 1),
        (2.5, 9.0, 5, 0), (3.0, -3.0, 5, 0),
    ])
    def test_exact_eigenvalues_on_the_edges_are_inside(self, lo, hi, first, count):
        op = HermOp.tridiagonal([1.0, -1.0, 2.0, 0.0, 1.0], [0.0] * 4)
        got_first, values = op.spectrum(lo, hi)
        assert (got_first, values.size) == (first, count)
        w = np.array([-1.0, 0.0, 1.0, 1.0, 2.0])
        assert np.array_equal(values, w[first:first + count])

    def test_dense_storage_slices_its_spectrum(self):
        op = HermOp(np.diag([3.0, -1.0, 0.5, 2.0]))
        first, values = op.spectrum(0.5, 2.0)
        assert first == 1 and np.array_equal(values, [0.5, 2.0])
        assert op.spectrum(5.0, 6.0)[0] == 4 and op.spectrum(5.0, 6.0)[1].size == 0

    @pytest.mark.parametrize("band", ["d", "e"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bands_rejected(self, band, bad):
        d, e = np.ones(4), np.ones(3)
        (d if band == "d" else e)[1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            HermOp.tridiagonal(d, e)

    def test_band_shapes_checked(self):
        with pytest.raises(ValidationError, match="shapes"):
            HermOp.tridiagonal(np.ones(4), np.ones(4))

    def test_nan_window_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            HermOp.tridiagonal(np.ones(3), np.ones(2)).spectrum(math.nan, 1.0)

    def test_matrix_is_lazy_read_only_and_equals_diag_assembly(self):
        n, h, x0, x1 = 64, 1.0 / 64, math.cos(0.4), math.sin(0.4)
        M = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1)) / h**2
        M[n - 1, n - 1] = 2.0 / h**2 - 2.0 * (x0 / x1) / h
        M[n - 1, n - 2] = M[n - 2, n - 1] = -math.sqrt(2.0) / h**2
        op = HermOp.tridiagonal(np.diag(M), np.diag(M, 1))
        assert op.dim == n and op._matrix is None
        assert np.array_equal(op.matrix, HermOp(M).matrix)
        assert op.matrix.dtype == complex and not op.matrix.flags.writeable
        assert op.matrix is op.matrix

    def test_eigenvalues_and_vectors_match_dense(self):
        rng = np.random.default_rng(9)
        d, e = rng.standard_normal(12), rng.standard_normal(11)
        op, dense = HermOp.tridiagonal(d, e), HermOp(dense_tridiagonal(d, e))
        np.testing.assert_allclose(op.eigenvalues, dense.eigenvalues, atol=1e-12)
        V = op.eigenvectors
        assert op_norm((V * op.eigenvalues) @ adjoint(V) - dense.matrix) < 1e-12
