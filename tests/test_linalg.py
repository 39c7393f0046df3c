import importlib.util
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opflow import linalg, sturm
from opflow.errors import DegeneracyError, DomainError, NonConvergenceError, ValidationError
from opflow.linalg import (
    HermOp,
    adjoint,
    as_matrix,
    func_calc,
    herm_eig,
    min_singular_ceiling,
    op_norm,
    op_norm_floor,
)
from oracles import robin_corner_terms


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

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_hermiticity_is_relative_to_the_frobenius_norm(self, ratio):
        # ||M||_F = 4000 against max |entry| = 1000: a defect off by a factor of the
        # scaled norm lands on the wrong side of HERMITICITY_RTOL
        M = np.full((4, 4), 1e3, dtype=complex)
        M[0, 1] += ratio * linalg.HERMITICITY_RTOL * 4e3 / math.sqrt(2.0)
        assert linalg.hermiticity_defect(M) == pytest.approx(ratio * linalg.HERMITICITY_RTOL, rel=1e-3)
        if ratio < 1.0:
            assert HermOp(M).dim == 4
        else:
            with pytest.raises(ValidationError, match="not Hermitian"):
                HermOp(M)

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

    def test_concurrent_factors_are_one_object(self):
        from concurrent.futures import ThreadPoolExecutor

        op = HermOp.tridiagonal(np.arange(40.0), np.ones(39))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: op.resolvent(), range(16)))
        finally:
            sys.setswitchinterval(interval)
        assert all(r is results[0] for r in results)

    @pytest.mark.parametrize("op", [HermOp.tridiagonal(np.arange(8.0), np.ones(7)),  # gttrf
                                    HermOp.tridiagonal([1.0, 2.0], [0.5]),  # getrf on a band of dim 2
                                    HermOp(np.diag([1.0, 2.0, 3.0]))], ids=["banded", "small", "dense"])
    def test_the_resolvent_is_factored_once(self, op):
        assert op.resolvent() is op.resolvent()


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

    def test_fresh_dense_operator_takes_one_eigensolve(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("values-only solve before the full one")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        M = HermOp(random_hermitian(np.random.default_rng(3), 8))
        F = func_calc(M, lambda x: x * x)
        assert op_norm(F - M.matrix @ M.matrix) < 1e-12
        w, V = herm_eig(HermOp(random_hermitian(np.random.default_rng(4), 8)))
        assert w.shape == (8,) and V.shape == (8, 8)

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

    @pytest.mark.parametrize("entry, bad", [((0, 0), np.nan), ((1, 0), np.inf), ((0, 1), -np.inf)])
    def test_non_finite_entry_named_without_warning(self, entry, bad):
        M = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        M[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entry \(%d, %d\) is not finite" % entry):
                op_norm(M)

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

    def test_large_finite_entries_build_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = HermOp(np.diag([1e200, 1.0, 2.0]))
            assert op.norm() == 1e200 and op_norm(op.matrix) == 1e200

    def test_equals_spectral_radius_for_hermitian(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            M = HermOp(random_hermitian(rng, 7, scale=3.0))
            assert abs(op_norm(M.matrix) - np.max(np.abs(M.eigenvalues))) < 1e-10


@st.composite
def floored_matrices(draw):
    """(M, floor): a complex matrix of dim 1-8 and a floor near its two norms or at zero."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = random_complex(rng, n)
    kind = draw(st.sampled_from(["general", "rank one", "zero"]))
    if kind == "rank one":
        X = np.outer(X[:, 0], np.conj(X[0]))
    elif kind == "zero":
        X = np.zeros_like(X)
    M = draw(st.sampled_from([1e-170, 1e-10, 1.0, 1e200])) * X
    scale = np.max(np.abs(M)) or 1.0
    norm, fro = op_norm(M), scale * np.linalg.norm(M / scale)
    floor = draw(st.one_of(
        st.sampled_from([0.0, 1e-300, norm, fro, np.nextafter(fro, np.inf), 2.0 * fro]),
        st.floats(0.0, 4.0).map(lambda r: r * norm),
    ))
    return M, float(floor)


class TestOpNormFloor:
    @settings(max_examples=300, deadline=None)
    @given(floored_matrices())
    def test_equals_the_svd_route(self, case):
        M, floor = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op_norm_floor(M, floor) == max(op_norm(M), floor)

    @pytest.mark.parametrize("magnitude", [1e-135, 1.0, 1e150])
    def test_a_floor_above_the_frobenius_norm_takes_no_svd(self, monkeypatch, magnitude):
        M = magnitude * random_complex(np.random.default_rng(40), 6)
        floor = 2.0 * magnitude * np.linalg.norm(M / magnitude)
        monkeypatch.setattr(np.linalg, "svd", None)
        assert op_norm_floor(M, floor) == floor

    def test_tiny_entries_do_not_underflow_into_the_shortcut(self):
        # unscaled, ||M||_F^2 of entries near 1e-170 underflows to 0, below every positive floor
        M = 1e-170 * random_complex(np.random.default_rng(41), 5)
        floor = (np.max(np.abs(M)) + op_norm(M)) / 2.0
        assert np.linalg.norm(M) < 1e-300
        assert op_norm_floor(M, floor) == op_norm(M) > floor

    def test_rank_one_at_the_floor_takes_the_svd(self):
        # ||M||_F = ||M|| for rank one, and the computed ||M||_F can round below the SVD's
        # (seed 48 does here): only the padding keeps such a floor off the shortcut
        for seed in range(42, 50):
            x = random_complex(np.random.default_rng(seed), 6)[:, 0]
            M = np.outer(x, np.conj(x))
            for floor in (op_norm(M), np.nextafter(op_norm(M), 0.0), np.nextafter(op_norm(M), np.inf)):
                assert op_norm_floor(M, floor) == max(op_norm(M), floor)

    @pytest.mark.parametrize("magnitude", [1e-135, 1e-150, 1e-170, 1.0, 1e150, 1e160])
    def test_floors_at_and_beside_the_padded_bound(self, monkeypatch, magnitude):
        # entries near 1e-135 and 1e150 decide on the unscaled vdot; near 1e-150
        # ||M||_F falls below 1e-140, near 1e-170 the squares underflow and near
        # 1e160 they overflow, so those take the SVD and only their value is checked
        M = magnitude * random_complex(np.random.default_rng(43), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fro = math.sqrt(np.vdot(M, M).real)
            unscaled = math.isfinite(fro) and fro > linalg.FROBENIUS_FLOOR
            assert unscaled == (magnitude in (1e-135, 1.0, 1e150))
            bound = (fro if unscaled else op_norm(M)) * (1.0 + 4.0 * M.size * linalg.FLOAT_EPS)
            for floor in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)):
                assert op_norm_floor(M, floor) == max(op_norm(M), floor)
            if unscaled:
                monkeypatch.setattr(np.linalg, "svd", None)
                assert op_norm_floor(M, bound) == bound

    def test_an_overflowing_vdot_with_an_infinite_floor(self):
        M = 1e160 * random_complex(np.random.default_rng(44), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not math.isfinite(np.vdot(M, M).real)  # inf, or NaN from inf - inf
            assert op_norm_floor(M, np.inf) == np.inf
            assert op_norm_floor(M, 0.0) == op_norm(M)

    @pytest.mark.parametrize("dot", [np.inf, np.nan])
    def test_non_finite_entries_raise_whatever_the_dot_product_reads(self, monkeypatch, dot):
        M = np.eye(3, dtype=complex)
        M[1, 2] = np.inf
        monkeypatch.setattr(np, "vdot", lambda a, b: complex(dot, 0.0))
        with pytest.raises(ValidationError, match=r"entry \(1, 2\) is not finite"):
            op_norm_floor(M, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("floor", [0.0, 1.0, np.inf])
    def test_non_finite_entries_still_raise(self, bad, floor):
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entry \(1, 2\) is not finite"):
                op_norm_floor(M, floor)


def exactly_beyond(A: np.ndarray, c: float) -> bool:
    """Whether every eigenvalue of the Hermitian A exceeds c, or every one is below -c, in exact arithmetic.

    s A - c is positive definite exactly when every pivot of its LDL* without
    pivoting is positive; the pivots are taken over Gaussian rationals built
    from the stored doubles, so no rounding enters.
    """
    if not math.isfinite(c):
        return False
    n = A.shape[0]
    for sign in (1, -1):
        M = [[(Fraction(sign * A[i, j].real) - (Fraction(c) if i == j else 0), Fraction(sign * A[i, j].imag))
              for j in range(n)] for i in range(n)]
        for k in range(n):
            p = M[k][k][0]
            if p <= 0:
                break
            for i in range(k + 1, n):
                a, b = M[i][k]
                for j in range(k + 1, n):
                    x, y = M[k][j]
                    M[i][j] = (M[i][j][0] - (a * x - b * y) / p, M[i][j][1] - (a * y + b * x) / p)
        else:
            return True
    return False


def hermitian_with_spectrum(rng, lam) -> HermOp:
    """A fresh dense HermOp Q diag(lam) Q* with a random unitary Q (its spectrum is not cached)."""
    n = len(lam)
    Q = np.linalg.qr(random_complex(rng, n))[0]
    return HermOp((Q * np.asarray(lam)) @ adjoint(Q))


@st.composite
def ceilinged_hermitians(draw):
    """(H, c): a dense Hermitian of dim 1-5 and a ceiling near, below or beyond its smallest |eigenvalue|.

    H is positive or negative definite, indefinite, zero, or definite with one
    eigenvalue 1e-8 of the rest (there rounding moves the computed factor most),
    at scales 1e-8 to 1e8.
    """
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["positive", "negative", "indefinite", "zero", "ill-conditioned"]))
    lam = rng.uniform(0.1, 10.0, n)
    if kind == "ill-conditioned":
        lam[0] = 1e-8 * lam[-1]
    lam *= {"negative": -1.0, "indefinite": rng.choice([-1.0, 1.0], n), "zero": 0.0}.get(kind, 1.0)
    H = hermitian_with_spectrum(rng, draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])) * lam)
    smin = float(np.min(np.abs(np.linalg.eigvalsh(H.matrix))))
    c = draw(st.one_of(
        st.sampled_from([-1e-13, -1e-14, 0.0, 1e-14, 1e-13, 1e-9, -1e-9]).map(lambda eps: smin * (1.0 + eps)),
        st.floats(0.0, 2.0).map(lambda r: r * smin),
        st.sampled_from([0.0, 1e-300, 1.0, math.inf]),
    ))
    return H, float(c)


class TestMinSingularCeiling:
    @settings(max_examples=400, deadline=None)
    @given(ceilinged_hermitians())
    def test_certified_only_where_exactly_true(self, case):
        """Either the eigensolve's min(sigma_min, c), or c with every |eigenvalue| exactly beyond c."""
        H, c = case
        A = H.matrix
        result = min_singular_ceiling(H, c)
        solved = min(float(np.min(np.abs(np.linalg.eigvalsh(A)))), c)
        if result != solved:
            assert result == c and exactly_beyond(A, c)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_a_definite_operator_clear_of_the_ceiling_takes_no_eigensolve(self, monkeypatch, sign, scale):
        H = hermitian_with_spectrum(np.random.default_rng(60), sign * scale * np.linspace(0.5, 4.0, 40))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert min_singular_ceiling(H, 0.4 * scale) == 0.4 * scale
        assert H._eigvals is None

    def test_a_tight_cluster_just_beyond_the_ceiling_takes_no_eigensolve(self, monkeypatch):
        # delta scales with the trace of H - c (about 2e-8 here), not with that of H (about 40)
        H = hermitian_with_spectrum(np.random.default_rng(63), 1.0 + np.linspace(1e-11, 1e-9, 40))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert min_singular_ceiling(H, 1.0) == 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_eigenvalue_just_inside_the_ceiling_is_solved(self, sign):
        # [[2, b], [b, 2]] has lambda_min = 2 - b = 1 - 5 * 2^-52 exactly, below c = 1;
        # a shift of c - delta would let the factor complete
        b = 1.0 + 5.0 * 2.0**-52
        H = HermOp(sign * np.array([[2.0, b], [b, 2.0]]))
        assert not exactly_beyond(H.matrix, 1.0)
        assert min_singular_ceiling(H, 1.0) == float(np.min(np.abs(np.linalg.eigvalsh(H.matrix)))) < 1.0

    def test_rounding_that_completes_an_unshifted_factor_is_caught(self):
        # one eigenvalue 1e-8 of the others: at c 1e-9 relative above the computed
        # lambda_min, a factor of H - c (rounded up) completes although lambda_min < c exactly
        H = hermitian_with_spectrum(np.random.default_rng(15), [1e-8, 1.2, 2.3, 2.9])
        c = float(np.linalg.eigvalsh(H.matrix)[0]) * (1.0 + 1e-9)
        M = H.matrix.copy()
        M.flat[::5] -= np.nextafter(c, np.inf)
        np.linalg.cholesky(M)
        assert not exactly_beyond(H.matrix, c)
        assert min_singular_ceiling(H, c) == float(np.linalg.eigvalsh(H.matrix)[0]) < c

    def test_the_reported_value_is_the_eigensolve_below_the_ceiling(self):
        H = hermitian_with_spectrum(np.random.default_rng(61), [-3.0, 0.25, 1.0, 2.0])
        assert min_singular_ceiling(H, 1.0) == float(np.min(np.abs(H.eigenvalues)))

    @pytest.mark.parametrize("diagonal", [[2.0, -1.0, 3.0], [1e-150, 2e-150, 3e-150]])
    def test_an_indefinite_or_underflowing_diagonal_takes_no_factor(self, monkeypatch, diagonal):
        monkeypatch.setattr(np.linalg, "cholesky", None)
        H = HermOp(np.diag(diagonal))
        assert min_singular_ceiling(H, 1e-200) == 1e-200
        assert min_singular_ceiling(HermOp(np.diag(diagonal)), 1.0) == min(min(np.abs(diagonal)), 1.0)

    def test_cached_banded_and_array_operands_take_no_factor(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cholesky", None)
        cached = HermOp(np.diag([2.0, 3.0]))
        cached.eigenvalues
        assert min_singular_ceiling(cached, 1.0) == 1.0
        assert min_singular_ceiling(cached, 5.0) == 2.0
        banded = HermOp.tridiagonal([2.0, 2.0, 2.0], [-1.0, -1.0])
        assert min_singular_ceiling(banded, 1.0) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
        A = np.array([[0.0, 3.0], [0.5, 0.0]])
        assert min_singular_ceiling(A, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert min_singular_ceiling(A, 0.1) == 0.1

    def test_an_infinite_ceiling_returns_the_smallest_singular_value(self):
        H = hermitian_with_spectrum(np.random.default_rng(62), [0.5, 1.0, 2.0])
        assert min_singular_ceiling(H, math.inf) == float(np.min(np.abs(np.linalg.eigvalsh(H.matrix))))


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


def assert_dense_pair(d, e, k, value, vector):
    """value and vector are the k-th eigenpair of the dense matrix of (d, e), to 1e-12."""
    T = dense_tridiagonal(d, e)
    w = np.linalg.eigvalsh(T)
    tol = 1e-12 * (1.0 + np.max(np.abs(w)))
    assert abs(value - w[k]) <= tol
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12 and np.linalg.norm(T @ vector - value * vector) <= tol


def assert_solves_match_dense(factor, shifted, rng, atol):
    """factor solves with shifted and its adjoint like np.linalg.solve, in value and shape.

    The right-hand sides: complex and real vectors, a list, a one-column and a three-column block.
    """
    n = shifted.shape[0]
    x = rng.standard_normal(n)
    for rhs in (x + 1j * rng.standard_normal(n), x, x.tolist(), x[:, None],
                rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))):
        for adj, matrix in ((False, shifted), (True, adjoint(shifted))):
            y = factor.solve(rhs, adjoint=adj)
            np.testing.assert_allclose(y, np.linalg.solve(matrix, rhs), atol=atol)
            assert y.shape == np.shape(rhs)


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


def ulp_shift(x, k):
    """x moved k representable floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@st.composite
def split_bands(draw):
    """Bands whose off-diagonals sit on either side of stebz's splitting rule.

    stebz splits the band where e_j^2 <= ulp^2 |d_j d_j-1| + safemin; the
    diagonal entries are a few ulps off round values, so eigenvalues of the
    split-off blocks fall within rounding of window edges drawn near them.
    """
    n = draw(st.integers(1, 6))
    d = [ulp_shift(draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])), draw(st.integers(-2, 2)))
         for _ in range(n)]
    e = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.0, 1e-30, 1e-20, 1e-17, 1e-12, 1.0]))
         for _ in range(n - 1)]
    return np.array(d), np.array(e)


class TestEigenvector:
    @pytest.mark.parametrize("k", [0, 3, 19])
    def test_banded_pair_matches_the_full_solve(self, k):
        rng = np.random.default_rng(k)
        op = HermOp.tridiagonal(rng.standard_normal(20), rng.standard_normal(19))
        v = op.eigenvector(k)
        full = op.eigenvectors[:, k]
        assert abs(abs(np.vdot(full, v)) - 1.0) < 1e-12
        assert np.linalg.norm(op.matrix @ v - op.eigenvalues[k] * v) < 1e-12

    def test_dense_reads_a_column(self):
        op = HermOp(random_hermitian(np.random.default_rng(5), 6))
        assert np.array_equal(op.eigenvector(2), op.eigenvectors[:, 2])

    @pytest.mark.parametrize("k", [-1, 6])
    def test_index_outside_the_spectrum_rejected(self, k):
        op = HermOp.tridiagonal(np.arange(6.0), np.ones(5))
        with pytest.raises(ValidationError, match="index"):
            op.eigenvector(k)


class TestTridiagonalPair:
    """Index-selected banded eigenpairs straight from LAPACK ``stebz`` and ``stein``."""

    @settings(max_examples=120, deadline=None)
    @given(bands=st.one_of(tridiagonal_bands(), split_bands().map(lambda de: (*de, None))))
    def test_bit_identical_to_scipys_wrappers(self, bands):
        """Where scipy raises (an index range that fails on a split band), the dense solve decides."""
        d, e, _ = bands
        op = HermOp.tridiagonal(d, e)
        for k in range(d.size):
            pair = linalg._tridiagonal_pair(d, e, k, vector=True)
            try:
                value = scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(k, k))
                w, V = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(k, k))
            except np.linalg.LinAlgError:
                assert_dense_pair(d, e, k, *pair)
                assert op._eigenvalue(k) == pair[0] and np.array_equal(op.eigenvector(k), pair[1])
                continue
            assert op._eigenvalue(k) == value[0]
            assert pair[0] == w[0] and np.array_equal(pair[1], V[:, 0])
            assert np.array_equal(op.eigenvector(k), V[:, 0])
            assert linalg._tridiagonal_pair(list(d), list(e), k, vector=True)[0] == w[0]  # Lanczos lists

    @pytest.mark.parametrize("d, e", [
        ([-1.0, 0.0, 1.0, -1.0], [-1.0, 0.0, -1.0]),
        ([-1.0, 1.0, -1.0, 0.0, -0.5, 0.0], [-1.0, -0.0, -1e-30, -1e-30, -1.0]),
    ])
    def test_failed_index_range_recomputes_every_eigenvalue(self, d, e):
        """Index-selected stebz returns info = 2 on these split bands, as scipy's wrappers raise."""
        d, e = np.array(d), np.array(e)
        with pytest.raises(np.linalg.LinAlgError, match="info=2"):
            scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(d.size - 1, d.size - 1))
        for k in range(d.size):
            assert_dense_pair(d, e, k, *linalg._tridiagonal_pair(d, e, k, vector=True))
        norm = np.max(np.abs(np.linalg.eigvalsh(dense_tridiagonal(d, e))))  # golden ratio, sqrt(2)
        assert HermOp.tridiagonal(d, e).norm() == pytest.approx(norm, rel=1e-15)

    @pytest.mark.parametrize("routine, read", [
        ("dstebz", lambda op: op.lowest_eigenvalue()),
        ("dstebz", lambda op: op.norm()),
        ("dstein", lambda op: op.eigenvector(3)),
    ])
    def test_failure_names_routine_index_dim_and_info(self, monkeypatch, routine, read):
        lapack = linalg._lapack()
        real = getattr(lapack, routine)
        monkeypatch.setattr(lapack, routine, lambda *args: (*real(*args)[:-1], 2))
        op = HermOp.tridiagonal(np.arange(8.0), np.ones(7))
        with pytest.raises(NonConvergenceError, match=rf"^{routine[1:]} for eigenvalue [03] of dim 8 "
                                                      r"failed: info = 2$"):
            read(op)


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

    def test_split_band_keeps_the_eigenvalue_below_the_edge(self):
        # e[0]^2 is below stebz's splitting threshold, so the first diagonal entry
        # is an eigenvalue of its own, one ulp below the window's lower edge
        below_half = 0.49999999999999994
        first, values = HermOp.tridiagonal([below_half, below_half, 0.5], [-1e-30, 1.0]).spectrum(0.5, 10.0)
        assert first == 2
        np.testing.assert_allclose(values, [1.5], rtol=0.0, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(bands=split_bands(), data=st.data())
    def test_adjacent_windows_tile_the_spectrum(self, bands, data):
        d, e = bands
        op = HermOp.tridiagonal(d, e)
        big = 10.0
        first, values = op.spectrum(-big, big)
        assert (first, values.size) == (0, d.size)
        edge = st.one_of(st.sampled_from(d.tolist()), st.floats(-3.0, 3.0), st.just(-math.inf))
        lo, hi = sorted(ulp_shift(data.draw(edge), data.draw(st.integers(-2, 2))) for _ in range(2))
        first, values = op.spectrum(lo, hi)
        # the next window starts one float above hi; below 1e-250 its lower edge
        # moves by the 2 pivmin guard and may skip an eigenvalue at hi
        if abs(hi) >= 1e-250:
            assert first + values.size == op.spectrum(float(np.nextafter(hi, math.inf)), big)[0]

    def test_infinite_edges(self):
        op = HermOp.tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
        w = op.eigenvalues
        assert op.spectrum(-math.inf, math.inf)[0] == 0
        assert np.allclose(op.spectrum(-math.inf, math.inf)[1], w, rtol=0.0, atol=1e-14)
        assert op.spectrum(2.5, math.inf)[0] == 2 and op.spectrum(math.inf, math.inf)[0] == 3
        first, values = op.spectrum(-math.inf, -math.inf)
        assert first == 0 and values.size == 0

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

    @pytest.mark.parametrize("e, entry", [([1e200, 1.0], r"e\[0\] = 1e\+200"),
                                          ([1.0, -2e154], r"e\[1\] = -2e\+154")],
                             ids=["1e200", "-2e154"])
    def test_off_diagonal_whose_square_overflows_rejected(self, e, entry):
        with pytest.raises(ValidationError, match=entry):
            HermOp.tridiagonal([0.0, 0.0, 0.0], e)

    def test_largest_off_diagonal_with_a_finite_square_accepted(self):
        e = math.sqrt(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, values = HermOp.tridiagonal([0.0, 0.0, 0.0], [e, 1.0]).spectrum(-2 * e, 2 * e)
        assert first == 0 and values.size == 3

    def test_shifted_solves_match_dense(self):
        rng = np.random.default_rng(11)
        d, e = rng.standard_normal(40), rng.standard_normal(39)
        op = HermOp.tridiagonal(d, e)
        assert_solves_match_dense(op.resolvent(), dense_tridiagonal(d, e) + 1j * np.eye(40), rng, atol=1e-10)
        assert op._matrix is None

    @pytest.mark.parametrize("storage", ["banded", "dense"])
    @pytest.mark.parametrize("shape", [(0,), (4, 0), (0, 2)])
    def test_empty_right_hand_side_rejected(self, storage, shape):
        """An empty x stops before LAPACK: f2py passes it on, and gttrs on it can crash the process."""
        op = HermOp.tridiagonal([1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5])
        factor = (op if storage == "banded" else HermOp(op.matrix)).resolvent()
        with pytest.raises(ValidationError, match=rf"non-empty right-hand side, got shape \({shape[0]},"):
            factor.solve(np.zeros(shape))

    @pytest.mark.parametrize("storage, routine", [("banded", "zgttrf"), ("dense", "zgetrf")])
    def test_failed_factor_is_a_degeneracy_error(self, storage, routine, monkeypatch):
        """T + i is never singular for Hermitian T, so a zero pivot is only LAPACK's report; it still raises."""
        lapack = linalg._lapack()
        factor = getattr(lapack, routine)
        monkeypatch.setattr(lapack, routine, lambda *a, **k: (*factor(*a, **k)[:-1], 2))
        op = HermOp.tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
        with pytest.raises(DegeneracyError, match=f"T \\+ i of dim 3 is singular: {routine} info = 2"):
            (op if storage == "banded" else HermOp(op.matrix)).resolvent()

    @pytest.mark.parametrize("storage, n", [("dense", 6), ("dense", 1), ("banded", 1), ("banded", 2)])
    def test_getrf_solves_match_dense(self, storage, n):
        """Dense operators, and bands below the gttrf limit, factor with getrf."""
        rng = np.random.default_rng(n)
        if storage == "dense":
            op = HermOp(random_hermitian(rng, n, 3.0))
        else:
            op = HermOp.tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
        assert_solves_match_dense(op.resolvent(), op.matrix + 1j * np.eye(n), rng, atol=1e-12)

    @pytest.mark.parametrize("storage, n", [("banded", 40), ("banded", 2), ("dense", 7)])
    def test_cayley_phase_is_the_phase_of_the_eigenvalues(self, storage, n):
        """arg det kappa(T) = sum_k arg (lambda_k - i)/(lambda_k + i) = -2 sum_k arg U_kk, modulo 2 pi."""
        rng = np.random.default_rng(n)
        if storage == "dense":
            op = HermOp(random_hermitian(rng, n, 3.0))
        else:
            op = HermOp.tridiagonal(3.0 * rng.standard_normal(n), rng.standard_normal(n - 1))
        phase = op.cayley_phase()
        if storage == "banded" and n >= 3:
            assert op._matrix is None
        via_eigenvalues = float(np.sum(-2.0 * np.arctan2(1.0, op.eigenvalues)))
        via_lu = -2.0 * op.resolvent().diagonal_phase()
        for other in (via_eigenvalues, via_lu):
            assert abs(math.remainder(phase - other, 2.0 * math.pi)) <= 1e-12

    def test_window_terms_stretch_the_window_and_count_an_exact_zero_as_nonnegative(self):
        # radius 2: -3 lies below the window, 10 above it, and 0.0 is an exact eigenvalue
        neg, first, phase, lift = HermOp.tridiagonal([-3.0, 0.0, 0.5, 1.5, 10.0], [0.0] * 4).flow_terms(2.0)
        stretched = [w / (1.0 - (w / 2.0) ** 2) for w in (0.0, 0.5, 1.5)]
        assert (neg, first) == (1, 1)
        assert lift == pytest.approx(-2.0 * sum(math.atan2(1.0, x) for x in stretched) - 2.0 * math.pi,
                                     abs=1e-14)

    def test_norm_is_the_operator_norm(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 40):
            banded = HermOp.tridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
            dense = op_norm(banded.matrix)
            assert abs(banded.norm() - dense) <= 1e-13 * dense
            assert abs(HermOp(banded.matrix).norm() - dense) <= 1e-13 * dense

    def test_difference_stays_banded_and_applies_its_bands(self):
        rng = np.random.default_rng(10)
        A, B = (HermOp.tridiagonal(rng.standard_normal(7), rng.standard_normal(6)) for _ in range(2))
        D = B - A
        assert D._matrix is None and A._matrix is None and B._matrix is None
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        np.testing.assert_allclose(D @ x, (B.matrix - A.matrix) @ x, rtol=0.0, atol=1e-14)
        mixed = HermOp(B.matrix) - A
        assert np.array_equal(mixed.matrix, (B - A).matrix)
        np.testing.assert_allclose(mixed @ x, D @ x, rtol=0.0, atol=1e-14)
        with pytest.raises(ValidationError, match="dimension mismatch: 7 vs 2"):
            A - HermOp(np.eye(2))

    def test_zero_test_runs_no_solve(self, monkeypatch):
        """The largest stored entry, which tells a zero difference and scales ``gap_dist``'s digit test."""
        def refuse(*args, **kwargs):
            raise AssertionError("solved")

        A = HermOp.tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5])
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for routine in ("dstevd", "dstebz", "dstein"):
            monkeypatch.setattr(linalg._lapack(), routine, refuse)
        assert (A - HermOp.tridiagonal([1.0, 2.0, 3.0], [0.5, 0.5]))._max_entry() == 0.0
        assert (A - HermOp.tridiagonal([1.0, 2.0, 3.0], [0.5, 0.25]))._max_entry() == 0.25
        assert (A - HermOp.tridiagonal([1.0, 2.0, -3.0], [0.5, 0.5]))._max_entry() == 6.0
        assert (HermOp(A.matrix) - A)._max_entry() == 0.0
        assert HermOp(np.diag([0.0, -1e-300]))._max_entry() == 1e-300
        assert HermOp.tridiagonal([-2.0], [])._max_entry() == 2.0

    @pytest.mark.parametrize("seed", range(4))
    def test_lowest_eigenvalue_matches_the_full_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        d, e = 100.0 * rng.standard_normal(60), rng.standard_normal(59)
        banded = HermOp.tridiagonal(d, e)
        assert abs(banded.lowest_eigenvalue() - banded.eigenvalues[0]) < 1e-12 * 100.0
        assert HermOp(banded.matrix).lowest_eigenvalue() == HermOp(banded.matrix).eigenvalues[0]

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


LAPACK_ROUTINES = ("dstevd", "dstebz", "dstein", "zgttrf", "zgttrs", "zgetrf", "zgetrs",
                   "dpttrf", "dgtsv")


def dirichlet_block(m: int) -> HermOp:
    """tridiag(-1, 2, -1) m^2 on m nodes: positive definite, with no row swap in its factor."""
    return HermOp.tridiagonal(np.full(m, 2.0 * m * m), np.full(m - 1, -1.0 * m * m))


class TestCornerBlock:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 12),
           radius=st.sampled_from([2.0, 20.0, 2e3]))
    def test_closed_form_terms_match_the_window_route(self, seed, m, radius):
        # a diagonally dominant, so positive definite, block; corners on either side of
        # b^2 g(0) (neg) and of b^2 g(-r) - r (first)
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(m - 1)
        d = np.append(np.abs(e), 0.0) + np.append(0.0, np.abs(e)) + rng.uniform(0.01, 3.0, m)
        block = linalg.CornerBlock(HermOp.tridiagonal(d, e), rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        schur0, schur_r = block.terms(radius)[:2]
        sides = np.array([-1.0, 1.0, -1.0, 1.0])
        corners = np.concatenate([schur0 + sides * rng.exponential(10.0, 4),
                                  schur_r - radius + sides * rng.exponential(10.0, 4)])
        for c in corners:
            op = block.operator(c)
            neg, first, phase, lift = op.flow_terms(radius)
            assert block.flow_terms(c, radius) == (neg, first, phase, lift)
            plain = HermOp.tridiagonal(*op.bands)
            w = plain.eigenvalues
            if np.min(np.abs(w)) > 1e-9 and np.min(np.abs(w + radius)) > 1e-9:
                assert (neg, first) == plain.flow_terms(radius)[:2]
            assert abs(math.remainder(phase - plain.cayley_phase(), 2.0 * math.pi)) <= 1e-10
            assert lift == pytest.approx(-2.0 * float(np.sum(np.arctan2(1.0, w))), abs=1e-10)

    def test_operators_share_the_block_and_keep_full_bands(self, monkeypatch):
        block = linalg.CornerBlock(dirichlet_block(5), -2.0)
        a, b = block.operator(1.0), block.operator(-7.0)
        assert a.block is b.block is block and a.bands[1] is b.bands[1]
        np.testing.assert_array_equal(b.bands[0], [50.0] * 5 + [-7.0])
        np.testing.assert_array_equal(b.bands[1], [-25.0] * 4 + [-2.0])
        assert not b.bands[0].flags.writeable and b.matrix.shape == (6, 6)
        calls = TestBandedKernelCost.record_calls(monkeypatch)
        assert block.terms(2.0) == block.terms(2.0) and calls == ["dpttrf"]  # a new radius: one pttrf
        a.flow_terms(2.0), b.flow_terms(2.0)
        assert calls == ["dpttrf"]  # a repeated radius: none
        block.terms(3.0)
        assert calls == ["dpttrf", "dpttrf"]

    def test_a_robin_flow_reads_two_pttrf_and_one_gttrf_and_no_solve(self, monkeypatch):
        from opflow.specflow import OperatorPath, spectral_flow
        from opflow.sturm import robin_generator

        calls = TestBandedKernelCost.record_calls(monkeypatch)  # zgttrs is recorded too: it must not show
        generator = robin_generator(64)  # the block: the proof pttrf and one gttrf of T' + i
        assert calls == ["dpttrf", "zgttrf"]
        assert spectral_flow(OperatorPath.sample(generator, 0.0, math.pi, 16, closed=True)).flow == 1
        assert calls == ["dpttrf", "zgttrf", "dpttrf"]  # and the radius shift's pttrf

    def test_concurrent_radii_each_read_their_own_term(self):
        # the one-entry memo has no lock: a race may solve again, never answer another radius
        from concurrent.futures import ThreadPoolExecutor

        block = linalg.CornerBlock(dirichlet_block(40), -2.0)
        expected = {r: block.terms(r) for r in (2.0, 3.0)}
        radii = [2.0, 3.0] * 200
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(block.terms, radii))
        finally:
            sys.setswitchinterval(interval)
        assert all(terms == expected[r] for r, terms in zip(radii, results))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(16, 2000), radius=st.sampled_from([2.0, 20.0, 2e5, 2e6]))
    def test_schur_terms_off_pttrf_pivots_are_the_gtsv_solves_bit_for_bit(self, n, radius):
        # on the Robin block gtsv makes no row swap, and then runs pttrf's operations
        h = 1.0 / n
        d, e, b = np.full(n - 1, 2.0 / h**2), np.full(n - 2, -1.0 / h**2), -math.sqrt(2.0) / h**2
        unit = np.zeros(n - 1)
        unit[-1] = 1.0
        schur0, schur_r = linalg.CornerBlock(HermOp.tridiagonal(d, e), b).terms(radius)[:2]
        for sigma, value in ((0.0, schur0), (-radius, schur_r)):
            *_, x, info = scipy.linalg.lapack.dgtsv(e, d - sigma, e, unit)
            assert info == 0 and value == b**2 * float(x[-1])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(16, 5000), radius=st.sampled_from([2.0, 20.0, 2e5, 2e6]))
    @example(n=4136, radius=2.0)  # the worst b^2 ((T' + i)^-1)_ll of the scan below
    @example(n=4473, radius=2.0)  # the worst Psi(T')
    def test_robin_terms_match_the_spectral_sums_made_with_no_lapack_call(self, n, radius):
        # oracles.robin_corner_terms sums T''s closed-form eigenpairs with math.fsum.  A scan
        # of every n in [16, 5000] at these four radii put the worst relative error at 29.8,
        # 22.2 and 39.5 eps for the three Schur terms and at 7.9 n eps for Psi; the bounds
        # give 1.6x and 2x that, for a libm sin or a LAPACK build that rounds otherwise
        *schur, psi = sturm._RobinFamily(n).block.terms(radius)
        *reference, reference_psi = robin_corner_terms(n, radius)
        eps = np.finfo(float).eps
        for term, exact in zip(schur, reference):
            assert abs(term - exact) <= 64 * eps * abs(exact)
        assert abs(psi - reference_psi) <= 16 * n * eps * abs(reference_psi)

    @pytest.mark.parametrize("m", [15, 63, 799, 1599])
    def test_exact_lift_of_the_dirichlet_block_is_its_eigenvalue_sum(self, m):
        factor = dirichlet_block(m).resolvent()
        assert factor.pivots() is not None and np.array_equal(factor._lu[4], np.arange(1, m + 1))
        w = dirichlet_block(m).eigenvalues
        psi = linalg.CornerBlock(dirichlet_block(m), -2.0).terms(2.0)[3]
        assert psi == pytest.approx(-2.0 * float(np.sum(np.arctan2(1.0, w))),
                                    abs=m * np.finfo(float).eps * w.max())

    def test_a_block_whose_shifted_factor_swaps_rows_is_rejected(self):
        inner = HermOp.tridiagonal([0.1, 300.0, 300.0], [5.0, 5.0])  # positive definite, |d_0 + i| < |e_0|
        factor = inner.resolvent()
        assert list(factor._lu[4]) == [2, 2, 3] and factor._lu[1][0] == 5.0  # zgttrf put e_0 on U's diagonal
        assert factor.pivots() is None
        with pytest.raises(ValidationError, match=r"^gttrf swapped rows of T' \+ i of dim 3: a corner block"):
            linalg.CornerBlock(inner, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(16, 5000))
    def test_the_shifted_term_off_gttrf_pivots_is_the_gttrs_solve_bit_for_bit(self, n):
        # on the Robin block gttrf makes no row swap, so L e_l = e_l and the solve of e_l ends in 1 / U_ll
        h = 1.0 / n
        d, e, b = np.full(n - 1, 2.0 / h**2), np.full(n - 2, -1.0 / h**2), -math.sqrt(2.0) / h**2
        inner = HermOp.tridiagonal(d, e)
        factor = inner.resolvent()
        assert factor.pivots() is not None
        unit = np.zeros(n - 1, dtype=complex)
        unit[-1] = 1.0
        expected = b**2 * complex(factor.solve(unit)[-1])
        assert linalg.CornerBlock(inner, b).terms(2.0)[2] == expected

    @pytest.mark.parametrize("d0, e0, info", [
        (0.0, 0.0, 1), (-2.0, 0.0, 1), (-2.0 + 1e-13, 0.0, 1),  # an eigenvalue at or near a shift
        (1.0, 1.5, 2),  # the leading 2 x 2 minor 1 - 1.5^2 is negative
    ])
    def test_a_block_that_is_not_positive_definite_is_rejected(self, d0, e0, info):
        inner = HermOp.tridiagonal([d0, 1.0, 3.0], [e0, 0.0])
        with pytest.raises(ValidationError, match=rf"positive definite T' of dim 3: pttrf info = {info}$"):
            linalg.CornerBlock(inner, 1.0)

    def test_an_eigenvalue_exactly_at_a_shift_is_not_below_it(self):
        # b^2 g(0) = 4 / 4 and b^2 g(-4) = 4 / 8 exactly: A(1) has eigenvalue 0, A(-3.5) has -4
        block = linalg.CornerBlock(HermOp.tridiagonal([2.0, 2.0, 4.0], [0.0, 0.0]), 2.0)
        assert block.terms(4.0)[:2] == (1.0, 0.5)
        assert block.operator(1.0).flow_terms(4.0)[:2] == (0, 0)
        assert block.operator(-3.5).flow_terms(4.0)[:2] == (1, 0)

    def test_an_eigenvalue_of_the_block_near_zero_is_read_in_closed_form(self):
        # T' = diag(1e-13, 1, 3) is positive definite, with an eigenvalue 1e-13 above the shift 0
        block = linalg.CornerBlock(HermOp.tridiagonal([1e-13, 1.0, 3.0], [0.0, 0.0]), 1.0)
        assert block.terms(2.0)[:2] == (1.0 / 3.0, 1.0 / 5.0)
        for c in (-2.5, -0.25, 0.25, 1.0):
            op = block.operator(c)
            plain = HermOp.tridiagonal(*op.bands)
            assert op.flow_terms(2.0)[:2] == plain.flow_terms(2.0)[:2]

    @pytest.mark.parametrize("sigma", [0.0, -2.0])
    def test_a_singular_shifted_solve_names_its_shift(self, monkeypatch, sigma):
        # sigma = 0 is the proof when the block is built, sigma = -2 the radius shift of the flow
        TestBandedKernelCost.fail(monkeypatch, "dpttrf", 2, when=lambda args: args[0][0] == 50.0 - sigma)
        shifted = "T'" if sigma == 0.0 else r"T' \+ 2"
        with pytest.raises(ValidationError, match=rf"positive definite {shifted} of dim 5: pttrf info = 2$"):
            linalg.CornerBlock(dirichlet_block(5), -2.0).operator(3.0).flow_terms(2.0)

    @pytest.mark.parametrize("radius", [math.nan, -100.0, 0.0, math.inf])
    def test_both_routes_refuse_a_radius_that_is_not_finite_and_positive(self, radius):
        op = linalg.CornerBlock(dirichlet_block(5), -2.0).operator(3.0)
        op.flow_terms(2.0)  # the block's memo holds radius 2, so each bad radius misses it
        for route in (op.flow_terms, op.block.terms, HermOp.tridiagonal(*op.bands).flow_terms):
            with pytest.raises(ValidationError, match=rf"^flow radius {radius} is not finite and positive$"):
                route(radius)

    def test_a_dense_factor_has_no_pivots(self):
        assert HermOp(np.diag([1.0, 2.0, 3.0])).resolvent().pivots() is None

    @pytest.mark.parametrize("inner, coupling, corner, match", [
        (HermOp.tridiagonal([1.0, 2.0], [0.5]), 1.0, 0.0, "dim >= 3"),
        (HermOp(np.eye(3)), 1.0, 0.0, "dim >= 3"),
        (dirichlet_block(3), 1e160, 0.0, "squared"),
        (dirichlet_block(3), 1.0, math.inf, "corner entry inf"),
        (dirichlet_block(3), 1.0, math.nan, "corner entry nan"),
    ])
    def test_rejects(self, inner, coupling, corner, match):
        with pytest.raises(ValidationError, match=match):
            linalg.CornerBlock(inner, coupling).operator(corner)

    @pytest.mark.parametrize("corner", [math.inf, -math.inf, math.nan])
    def test_terms_without_an_operator_refuse_a_corner_that_is_not_finite(self, corner):
        with pytest.raises(ValidationError, match=rf"^corner entry {corner} is not finite$"):
            linalg.CornerBlock(dirichlet_block(5), -2.0).flow_terms(corner, 2.0)


class TestBandedKernelCost:
    """Banded work calls LAPACK raw, on the module ``linalg._lapack()`` returns.

    One ``spectrum`` is two ``dstebz`` calls from the same lower edge: the
    count (``abstol = inf``) and the window's bisection (``abstol = 0``).  The
    full solve is one ``dstevd``.  Each call is counted, and each failure
    injected, by patching that module; a nonzero ``info`` raises
    ``NonConvergenceError`` naming the routine, the dim and ``info``.
    """

    @staticmethod
    def record_calls(monkeypatch):
        calls, lapack = [], linalg._lapack()
        for name in LAPACK_ROUTINES:
            def counted(*args, _name=name, _real=getattr(lapack, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(lapack, name, counted)
        return calls

    @staticmethod
    def fail(monkeypatch, routine, info, when=lambda args: True):
        lapack = linalg._lapack()
        real = getattr(lapack, routine)

        def failing(*args, **kwargs):
            out = real(*args, **kwargs)
            return (*out[:-1], info) if when(args) else out

        monkeypatch.setattr(lapack, routine, failing)

    def test_one_count_and_one_window(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        first, w = HermOp.tridiagonal(np.arange(8.0), np.ones(7)).spectrum(1.0, 5.0)
        assert calls == ["dstebz", "dstebz"] and w.size > 0
        assert not hasattr(linalg, "_sturm_count")

    @pytest.mark.parametrize("read", ["eigenvalues", "eigenvectors"])
    def test_full_solve_is_one_stevd(self, monkeypatch, read):
        calls = self.record_calls(monkeypatch)
        op = HermOp.tridiagonal(np.arange(8.0), np.ones(7))
        getattr(op, read)
        op.eigenvalues
        assert calls == ["dstevd"]

    def test_failed_count_raises(self, monkeypatch):
        self.fail(monkeypatch, "dstebz", 1)
        with pytest.raises(NonConvergenceError, match=r"above 1\.0 failed on dim 8: info = 1"):
            HermOp.tridiagonal(np.arange(8.0), np.ones(7)).spectrum(1.0, 5.0)

    def test_failed_window_raises(self, monkeypatch):
        self.fail(monkeypatch, "dstebz", 3, when=lambda args: args[7] == 0.0)  # abstol 0: the window
        with pytest.raises(NonConvergenceError,
                           match=r"^stebz window \[1\.0, 5\.0\] failed on dim 8: info = 3$"):
            HermOp.tridiagonal(np.arange(8.0), np.ones(7)).spectrum(1.0, 5.0)

    @pytest.mark.parametrize("read", ["eigenvalues", "eigenvectors"])
    @pytest.mark.parametrize("n", [1, 8])
    def test_failed_full_solve_raises(self, monkeypatch, read, n):
        self.fail(monkeypatch, "dstevd", 2)
        op = HermOp.tridiagonal(np.arange(float(n)), np.ones(n - 1))
        with pytest.raises(NonConvergenceError,
                           match=rf"^stevd for every eigenvalue of dim {n} failed: info = 2$"):
            getattr(op, read)
        assert op._eigvals is None and op._eigvecs is None


def scipy_window(d, e, lo, hi):
    """The window [lo, hi] as ``spectrum`` read it through scipy's wrapper: (below, hi] from stebz."""
    if hi < lo or hi == -math.inf:
        return np.empty(0)
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e * e, initial=0.0)))
    with np.errstate(over="ignore"):
        below = float(np.nextafter(lo - 2.0 * pivmin, -np.inf))
    return scipy.linalg.eigvalsh_tridiagonal(d, e, select="v", select_range=(below, hi))


class TestRawRoutesAreScipys:
    """The raw ``dstevd`` and ``dstebz`` routes return scipy's wrappers' arrays, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 59), log_scale=st.floats(-3.0, 3.0), split=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_full_solve_and_windows(self, n, log_scale, split, seed, data):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
        if split:
            e[rng.random(n - 1) < 0.3] = 0.0
        values = HermOp.tridiagonal(d, e).eigenvalues
        assert np.array_equal(values, scipy.linalg.eigvalsh_tridiagonal(d, e))
        op = HermOp.tridiagonal(d, e)
        w, V = scipy.linalg.eigh_tridiagonal(d, e)
        assert np.array_equal(op.eigenvectors, V) and np.array_equal(op.eigenvalues, w)
        span = float(np.max(np.abs(values))) + scale
        u = lambda: data.draw(st.floats(-1.5 * span, 1.5 * span))
        k = data.draw(st.integers(0, n - 1))
        gap = int(np.argmax(np.diff(values))) if n > 1 else 0
        windows = [
            tuple(sorted((u(), u()))),
            (values[k], values[k]),  # an eigenvalue on both edges
            (values[k], u()),  # possibly reversed
            (-math.inf, u()),
            (u(), -math.inf),
            (-math.inf, -math.inf),
            (u(), math.inf),
        ]
        if n > 1:  # inside the widest gap: empty
            windows.append((values[gap] + (values[gap + 1] - values[gap]) / 4,
                            values[gap + 1] - (values[gap + 1] - values[gap]) / 4))
        for lo, hi in windows:
            expected = scipy_window(d, e, lo, hi)
            assert np.array_equal(op.spectrum(lo, hi)[1], expected), (lo, hi)

    @pytest.mark.parametrize("lo, hi", [
        (2.5, 2.5), (2.0, 2.5), (2.5, 3.0), (-math.inf, 2.5), (2.5, math.inf),
        (float(np.nextafter(2.5, 3.0)), 3.0), (2.0, float(np.nextafter(2.5, 2.0))),
        (3.0, 2.0), (2.0, -math.inf),
    ])
    def test_one_by_one_window_edges(self, lo, hi):
        """At dim 1 the window holds d_0 exactly when lo <= d_0 <= hi, as scipy's special case gives."""
        d, e = np.array([2.5]), np.empty(0)
        first, w = HermOp.tridiagonal(d, e).spectrum(lo, hi)
        assert np.array_equal(w, scipy_window(d, e, lo, hi))
        assert w.tolist() == ([2.5] if lo <= 2.5 <= hi else [])
        assert first == (0 if lo <= 2.5 else 1)


def test_dstebz_patched_before_first_use_is_the_one_called():
    """scipy loads on first use (in a fresh interpreter), and a routine patched on ``_lapack()`` is called."""
    code = "\n".join([
        "import sys",
        "from opflow import linalg",
        "assert 'scipy' not in sys.modules",
        "lapack = linalg._lapack()",
        "calls, real = [], lapack.dstebz",
        "def spy(*args):",
        "    calls.append(args)",
        "    return real(*args)",
        "lapack.dstebz = spy",
        "first, w = linalg.HermOp.tridiagonal([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0]).spectrum(0.5, 2.5)",
        "print(len(calls), linalg._lapack().dstebz is spy, first, w.tolist())",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["2", "True", "1", "[1.0,", "2.0]"]


def test_lapack_loads_only_its_extension_and_the_package_reuses_it():
    """In a fresh interpreter ``_lapack()`` imports no scipy package, and a later ``import scipy.linalg`` shares its module."""
    code = "\n".join([
        "import sys",
        "from opflow import linalg",
        "lapack = linalg._lapack()",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        "import scipy.linalg, scipy.linalg.lapack",
        "print(scipy.linalg.lapack.dstebz is lapack.dstebz, linalg._lapack() is lapack)",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["['scipy.linalg._flapack']", "True", "True"]


class TestLapackLoader:
    """``_lapack()`` on a process where scipy's LAPACK extension is not yet loaded (each test restores it)."""

    def test_loads_the_extension_by_file_once(self, monkeypatch):
        loaded = sys.modules["scipy.linalg._flapack"]
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        lapack = linalg._lapack()
        assert lapack is not loaded and lapack.__file__ == loaded.__file__
        assert linalg._lapack() is lapack is sys.modules["scipy.linalg._flapack"]
        first, w = HermOp.tridiagonal([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0]).spectrum(0.5, 2.5)
        assert (first, w.tolist()) == (1, [1.0, 2.0])

    def test_falls_back_to_the_package_import_without_the_file(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)  # no scipy files
        lapack = linalg._lapack()
        assert lapack is sys.modules["scipy.linalg._flapack"] and hasattr(lapack, "dstebz")
