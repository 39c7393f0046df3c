import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from opflow import homotopy
from opflow.errors import BranchCutError, DegeneracyError, ValidationError
from opflow.homotopy import (
    GridSpace,
    compact_injective_sample,
    compactify_homotopy,
    completeness_defect,
    default_compact_factor,
    discretization_tolerance,
    inversion_consistency,
    isometry_defect,
    log_path,
    odd_retraction_defect,
    rk_contraction,
    shrink_isometry,
    smooth_band,
    stretch_isometry,
    unitary_log_retraction,
    zk_contraction,
    zk_injectivity_margin,
    zk_path,
)
from opflow.linalg import HermOp, adjoint, func_calc, op_norm
from opflow.transforms import cayley, odd_embedding

T_SAMPLES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def smooth_spd(n, strength=0.5):
    x = (np.arange(n) + 0.5) / n
    K = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2 * 0.2**2))
    return HermOp(np.eye(n) + strength * K / np.linalg.norm(K, 2))


class TestGridSpace:
    def test_weights_sum_to_one(self):
        g = GridSpace.make(128)
        assert abs(float(g.weights.sum()) - 1.0) < 1e-12
        assert np.all(g.weights > 0)

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            GridSpace(4, np.linspace(0, 1, 4), np.array([0.5, 0.5, 0.5, 0.5]))


class TestIsometries:
    def test_shrink_identity_at_one(self):
        g = GridSpace.make(64)
        assert np.array_equal(shrink_isometry(1.0, g), np.eye(64))

    def test_stretch_identity_at_zero(self):
        g = GridSpace.make(64)
        assert np.array_equal(stretch_isometry(0.0, g), np.eye(64))

    def test_parameter_ranges(self):
        g = GridSpace.make(32)
        with pytest.raises(ValidationError):
            shrink_isometry(0.0, g)
        with pytest.raises(ValidationError):
            stretch_isometry(1.0, g)

    def test_band_defect_small_at_half(self):
        g = GridSpace.make(512)
        assert isometry_defect(shrink_isometry(0.5, g), g) < 0.05

    def test_defect_scales_like_c_over_n(self):
        defects = {n: isometry_defect(shrink_isometry(0.5, GridSpace.make(n)),
                                      GridSpace.make(n)) for n in (128, 256, 512)}
        assert defects[128] > defects[256] > defects[512]
        cs = [n * d for n, d in defects.items()]
        assert max(cs) / min(cs) < 1.3  # measured C is stable across n

    def test_range_projection_trace_aligned(self):
        g = GridSpace.make(512)
        for t in (0.25, 0.5):
            U = shrink_isometry(t, g)
            assert abs(np.trace(U @ adjoint(U)).real - t * 512) < 1e-8
        for t in (0.5, 0.75):
            V = stretch_isometry(t, g)
            assert abs(np.trace(V @ adjoint(V)).real - (1 - t) * 512) < 1e-8

    def test_range_projection_trace_generic(self):
        g = GridSpace.make(512)
        for t in (0.3, 0.7):
            U = shrink_isometry(t, g)
            assert abs(np.trace(U @ adjoint(U)).real - t * 512) <= 0.35 * t * 512

    def test_ranges_complementary(self):
        g = GridSpace.make(512)
        for t in (0.3, 0.5, 0.7):
            assert completeness_defect(t, g) < 0.1

    def test_block_double_preserves_oddness(self):
        g = GridSpace.make(16)
        rng = np.random.default_rng(0)
        C = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        H = odd_embedding(C)
        U = shrink_isometry(0.5, g)
        W = scipy.linalg.block_diag(U, U)
        J = np.kron(np.diag([1.0, -1.0]), np.eye(16))
        M = W @ H.matrix @ adjoint(W)
        assert op_norm(J @ M + M @ J) < 1e-12


class TestZkContraction:
    def test_endpoints_bit_exact(self):
        g = GridSpace.make(32)
        rng = np.random.default_rng(1)
        a = compact_injective_sample(rng, 32)
        b = compact_injective_sample(rng, 32)
        assert np.array_equal(zk_contraction(0.0, a, b, g), a)
        assert np.array_equal(zk_contraction(1.0, a, b, g), b)

    def test_injectivity_preserved_positive_profile(self):
        assert zk_injectivity_margin(128, seed=0) > 1e-8

    def test_injectivity_preserved_mixed_signs(self):
        rng = np.random.default_rng(100)
        g = GridSpace.make(128)
        a = compact_injective_sample(rng, 128, mixed_signs=True)
        b = compact_injective_sample(rng, 128, mixed_signs=True)
        mins = [np.linalg.svd(zk_contraction(t, a, b, g), compute_uv=False)[-1]
                for t in T_SAMPLES]
        assert min(mins) > 1e-8

    def test_operands_checked_once_per_path(self, monkeypatch):
        calls = []
        min_singular = homotopy._min_singular

        def counting(M):
            calls.append(type(M))
            return min_singular(M)

        monkeypatch.setattr(homotopy, "_min_singular", counting)
        margin = zk_injectivity_margin(32, seed=0, ts=T_SAMPLES)
        assert len(calls) == 2 + len(T_SAMPLES)
        assert set(calls) == {HermOp}  # Hermitian samples: margins from eigenvalues, no SVD
        monkeypatch.undo()
        assert margin == zk_injectivity_margin(32, seed=0, ts=T_SAMPLES)

    def test_hermop_operands_get_eigenvalue_margins(self, monkeypatch):
        calls = []
        min_singular = homotopy._min_singular

        def recording(M):
            calls.append(type(M))
            return min_singular(M)

        monkeypatch.setattr(homotopy, "_min_singular", recording)
        rng = np.random.default_rng(6)
        a = HermOp(compact_injective_sample(rng, 32))
        b = HermOp(compact_injective_sample(rng, 32))
        assert isinstance(zk_contraction(0.5, a, b, GridSpace.make(32)), np.ndarray)
        assert calls == [HermOp, HermOp]

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_t_outside_unit_interval_rejected(self, t):
        g = GridSpace.make(16)
        a = compact_injective_sample(np.random.default_rng(3), 16)
        with pytest.raises(ValidationError, match="t must be"):
            zk_contraction(t, a, a, g)

    def test_operand_off_the_grid_rejected(self):
        a = compact_injective_sample(np.random.default_rng(4), 16)
        with pytest.raises(ValidationError, match="grid space"):
            zk_contraction(0.5, a, a, GridSpace.make(32))

    def test_degenerate_input_rejected(self):
        g = GridSpace.make(32)
        rng = np.random.default_rng(2)
        a = compact_injective_sample(rng, 32)
        singular = np.zeros((32, 32), dtype=complex)
        with pytest.raises(DegeneracyError):
            zk_contraction(0.5, singular, a, g)

    def test_band_limited_continuity(self):
        """Adjacent steps differ by at most L dt + delta(n) on the smooth band."""
        L = 2.0
        for n in (128, 256, 512):
            rng = np.random.default_rng(5)
            g = GridSpace.make(n)
            a = compact_injective_sample(rng, n)
            b = compact_injective_sample(rng, n)
            ts = np.linspace(0.0, 1.0, 33)
            delta = discretization_tolerance(n)
            V = smooth_band(g)
            path = zk_path(a, b, g)
            prev = path(ts[0])
            for t in ts[1:]:
                cur = path(t)
                step = float(np.max(np.linalg.norm((cur - prev) @ V, axis=0)))
                assert step <= L * (ts[1] - ts[0]) + delta
                prev = cur


class TestRkContraction:
    def test_endpoint_conventions(self):
        g = GridSpace.make(32)
        A, B = smooth_spd(32), smooth_spd(32, 0.3)
        assert rk_contraction(0.0, A, B, g) is A
        assert rk_contraction(1.0, A, B, g) is B

    def test_hermitian_output(self):
        g = GridSpace.make(64)
        H = rk_contraction(0.37, smooth_spd(64), smooth_spd(64, 0.3), g)
        assert op_norm(H.matrix - adjoint(H.matrix)) < 1e-12

    def test_singular_input_rejected(self):
        g = GridSpace.make(32)
        A = smooth_spd(32)
        S = HermOp(np.diag([0.0] + [1.0] * 31))
        with pytest.raises(DegeneracyError):
            rk_contraction(0.5, S, A, g)

    def test_inversion_consistency_at_half(self):
        g = GridSpace.make(512)
        A = smooth_spd(512)
        B = HermOp(smooth_spd(512, 0.3).matrix + 0.5 * np.eye(512))
        assert inversion_consistency(0.5, A, B, g) < 0.1


class TestCompactify:
    def test_identity_at_zero(self):
        A = HermOp(np.diag([2.0, -3.0]))
        assert compactify_homotopy(0.0, A, default_compact_factor(2)) is A

    def test_scalar_example(self):
        A = HermOp(np.diag([2.0, -3.0]))
        k = HermOp(np.diag([0.5, 0.5]))
        H1 = compactify_homotopy(1.0, A, k)
        np.testing.assert_allclose(H1.matrix, np.diag([8.0, -12.0]), atol=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_result_is_the_symmetrized_product(self, n):
        A = HermOp(compact_injective_sample(np.random.default_rng(n), n, mixed_signs=True))
        k = default_compact_factor(n)
        t = 0.7
        C = func_calc(k, lambda lam: 1.0 / ((1.0 - t) + t * lam))
        H = C @ A.matrix @ C
        assert np.array_equal(compactify_homotopy(t, A, k).matrix, (H + adjoint(H)) / 2.0)

    def test_parameter_validation(self):
        A = HermOp(np.diag([1.0, 2.0]))
        with pytest.raises(ValidationError, match="positive"):
            compactify_homotopy(0.5, A, HermOp(np.diag([0.5, -0.1])))
        with pytest.raises(ValidationError, match="norm"):
            compactify_homotopy(0.5, A, HermOp(np.diag([0.5, 1.0])))

    def test_gap_preservation(self):
        """Spectral gaps around zero survive: ||H_t^{-1}|| <= ||A^{-1}|| < 1/lambda."""
        rng = np.random.default_rng(3)
        lam = 0.5
        for _ in range(100):
            d = int(rng.integers(2, 10))
            signs = rng.choice([-1.0, 1.0], size=d)
            Q = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
            A = HermOp(Q @ np.diag(signs * rng.uniform(0.55, 3.0, d)) @ adjoint(Q))
            k = default_compact_factor(d)
            for t in (0.3, 0.7, 1.0):
                H = compactify_homotopy(t, A, k)
                assert np.min(np.abs(H.eigenvalues)) > lam


class TestLogRetraction:
    @pytest.mark.parametrize("entry, bad", [((0, 0), np.nan), ((1, 0), np.inf)])
    def test_non_finite_entry_named(self, entry, bad):
        u = np.eye(2, dtype=complex)
        u[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"entry \(%d, %d\) is not finite" % entry):
                unitary_log_retraction(0.5, u)

    def test_endpoints(self):
        u = cayley(HermOp(np.diag([1.0, -2.0])))
        assert np.array_equal(unitary_log_retraction(0.0, u), np.eye(2, dtype=complex))
        assert np.array_equal(unitary_log_retraction(1.0, u), u)

    def test_scalar_angle_halving(self):
        u = np.array([[np.exp(1j * np.pi / 2)]])
        h = unitary_log_retraction(0.5, u)
        assert abs(h[0, 0] - np.exp(1j * np.pi / 4)) < 1e-12

    def test_argument_linearity(self):
        rng = np.random.default_rng(4)
        H = HermOp(np.diag(rng.uniform(-2.5, 2.5, 6)))
        u = func_calc(H, lambda x: np.exp(1j * x))
        for t in (0.25, 0.5, 0.75):
            h = unitary_log_retraction(t, u)
            got = np.sort(np.angle(np.linalg.eigvals(h)))
            expected = np.sort(t * np.angle(np.linalg.eigvals(u)))
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_branch_cut_rejected(self):
        with pytest.raises(BranchCutError):
            unitary_log_retraction(0.5, np.diag([-1.0, 1.0]).astype(complex))

    def test_endpoints_exact_on_the_branch_cut(self):
        u = np.diag([-1.0, 1.0]).astype(complex)
        assert np.array_equal(unitary_log_retraction(0.0, u), np.eye(2, dtype=complex))
        assert np.array_equal(unitary_log_retraction(1.0, u), u)
        with pytest.raises(BranchCutError):
            unitary_log_retraction(0.5, u)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError, match="unitary"):
            unitary_log_retraction(0.5, 2.0 * np.eye(2))

    def test_stays_unitary(self):
        rng = np.random.default_rng(5)
        H = HermOp(np.diag(rng.uniform(-2.0, 2.0, 8)))
        u = func_calc(H, lambda x: np.exp(1j * x))
        for t in (0.1, 0.6, 0.9):
            h = unitary_log_retraction(t, u)
            assert op_norm(adjoint(h) @ h - np.eye(8)) < 1e-12

    def test_preserves_odd_unitaries(self):
        assert odd_retraction_defect(32, seed=0) <= 1e-9

    def test_log_path_factors_the_unitary_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        u = func_calc(HermOp(np.diag(rng.uniform(-2.5, 2.5, 16))), lambda x: np.exp(1j * x))
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def no_schur(*args, **kwargs):
            raise AssertionError("the log path runs no Schur factorization")

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(scipy.linalg, "schur", no_schur)
        path = log_path(u)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            path(t)
        assert len(calls) == 1

    def test_lipschitz_in_t(self):
        u = cayley(HermOp(np.diag(np.linspace(-3.0, 3.0, 8))))
        ts = np.linspace(0.0, 1.0, 33)
        hs = [unitary_log_retraction(t, u) for t in ts]
        L = np.pi + 0.1  # ||log u|| is at most pi off the branch point
        for h1, h2 in zip(hs, hs[1:]):
            assert op_norm(h2 - h1) <= L * (ts[1] - ts[0])


def _near_cut_unitary(delta, n=128, seed=0):
    """Q diag(e^(i phi)) Q* with a conjugate pair of eigenvalues at distance delta from -1."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    phi = rng.uniform(-2.5, 2.5, n)
    phi[0] = np.pi - 2.0 * np.arcsin(delta / 2.0)  # |e^(i phi) + 1| = delta
    phi[1] = -phi[0]
    return Q, phi, (Q * np.exp(1j * phi)) @ adjoint(Q)


class TestCayleyPreimage:
    """The log retraction reads u's spectrum off K = i(1 - u)(1 + u)^-1."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-7])
    def test_tracks_schur_near_the_cut(self, delta):
        t = 0.5
        Q, phi, u = _near_cut_unitary(delta)
        exact = (Q * np.exp(1j * t * phi)) @ adjoint(Q)
        T, Z = scipy.linalg.schur(u, output="complex")
        schur_ref = (Z * np.exp(1j * t * np.angle(np.diag(T)))) @ adjoint(Z)
        err = op_norm(unitary_log_retraction(t, u) - exact)
        assert err <= 1e-14 / delta
        assert err <= 10.0 * op_norm(schur_ref - exact)

    def test_exact_minus_one_in_a_rotated_basis(self):
        Q, phi, _ = _near_cut_unitary(1e-2, n=16, seed=1)
        phi[0] = np.pi
        u = (Q * np.exp(1j * phi)) @ adjoint(Q)
        assert np.array_equal(unitary_log_retraction(0.0, u), np.eye(16, dtype=complex))
        assert np.array_equal(unitary_log_retraction(1.0, u), u)
        for t in (0.25, 0.5):
            with pytest.raises(BranchCutError):
                unitary_log_retraction(t, u)


def _loop_isometry(start, length, n):
    """The cell-average dilation built one entry at a time: the reference for the builder."""
    h = 1.0 / n
    M = np.zeros((n, n))
    for i in range(n):
        lo, hi = (i * h - start) / length, ((i + 1) * h - start) / length
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi <= lo:
            continue
        j0 = max(int(np.floor(lo / h)), 0)
        j1 = min(int(np.ceil(hi / h)), n)
        for j in range(j0, j1):
            a, b = max(lo, j * h), min(hi, (j + 1) * h)
            if b > a:
                M[i, j] = b - a
    return (np.sqrt(length) / h) * M


class TestIsometryBuilder:
    @pytest.mark.parametrize("n", [8, 16, 128, 512, 513])
    def test_bit_equal_to_the_loop(self, n):
        g = GridSpace.make(n)
        for t in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert np.array_equal(shrink_isometry(t, g), _loop_isometry(0.0, t, n))
            assert np.array_equal(stretch_isometry(t, g), _loop_isometry(t, 1.0 - t, n))

    @pytest.mark.parametrize("t", [0.01, 0.3, 0.7, 0.99])
    def test_csr_map_is_the_loop_isometry(self, t):
        n = 128
        for start, length in ((0.0, t), (t, 1.0 - t)):
            S = homotopy._isometry(start, length, n)
            assert np.array_equal(S.toarray(), _loop_isometry(start, length, n))
            assert np.max(np.diff(S.indptr)) <= math.ceil(1.0 / length) + 1

    @pytest.mark.parametrize("n", [128, 512])
    def test_reassociated_defects_match_the_dense_formulas(self, n):
        g = GridSpace.make(n)
        V = smooth_band(g)
        eye = np.eye(n)
        for t in (0.3, 0.5, 0.7):
            U, W = shrink_isometry(t, g), stretch_isometry(t, g)
            dense = np.max(np.linalg.norm((U.T @ U - eye) @ V, axis=0))
            assert abs(isometry_defect(U, g) - dense) <= 1e-15
            dense = np.max(np.linalg.norm((U @ U.T + W @ W.T - eye) @ V, axis=0))
            assert abs(completeness_defect(t, g) - dense) <= 1e-15

    def test_sparse_interpolant_matches_the_dense_products(self):
        n, t = 64, 0.37
        g = GridSpace.make(n)
        rng = np.random.default_rng(7)
        a = compact_injective_sample(rng, n)
        b = compact_injective_sample(rng, n)
        U, W = shrink_isometry(t, g), stretch_isometry(t, g)
        dense = t * (U @ a @ U.T) + (1.0 - t) * (W @ b @ W.T)
        assert op_norm(zk_contraction(t, a, b, g) - dense) <= 1e-15
        H = zk_path(HermOp(a), HermOp(b), g)(t)
        assert isinstance(H, np.ndarray)
        assert op_norm(H - dense) <= 1e-15


def test_discretization_tolerance_monotone():
    deltas = [discretization_tolerance(n) for n in (128, 256, 512)]
    assert deltas[0] > deltas[1] > deltas[2]
