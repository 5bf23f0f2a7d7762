"""Tests for the two-stage learner and the direct baseline."""

import numpy as np
import pytest

from mtil import mtil_learn
from mtil.data_gen import StackedData
from mtil.errors import DegenerateRank, RankDeficient
from mtil.mtil_learn import _orthonormalize, _phi_step_normal


def synthetic_tasks(rng, H=3, n=10, k=2, n_u=2, rows=100, noise=0.0):
    """Rank-k expert regression data U = X (F Phi)' + noise."""
    phi_star = np.linalg.qr(rng.standard_normal((n, k)))[0].T
    f_stars = [rng.standard_normal((n_u, k)) for _ in range(H)]
    tasks = []
    for F in f_stars:
        X = rng.standard_normal((rows, n))
        U = X @ (F @ phi_star).T + noise * rng.standard_normal((rows, n_u))
        tasks.append(StackedData(X=X, U=U))
    return tasks, phi_star, f_stars


class TestPretrainAlternating:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        tasks, phi_star, _ = synthetic_tasks(rng, H=3)
        result = mtil_learn.pretrain_alternating(
            tasks, k=2, rng=np.random.default_rng(1)
        )
        total_u = sum(np.sum(d.U**2) for d in tasks)
        assert result.objective_trace[-1] <= 1e-16 * total_u
        assert mtil_learn.subspace_distance(result.phi_hat, phi_star) <= 1e-6

    def test_full_dimension_matches_ols(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        U = X @ rng.standard_normal((4, 2)) + 0.1 * rng.standard_normal((40, 2))
        data = StackedData(X=X, U=U)
        result = mtil_learn.pretrain_alternating(
            [data], k=4, rng=np.random.default_rng(3)
        )
        K_als = result.f_hats[0] @ result.phi_hat
        K_ols, _ = mtil_learn.direct_ols(data)
        np.testing.assert_allclose(K_als, K_ols, atol=1e-8)

    def test_zero_targets(self):
        rng = np.random.default_rng(4)
        data = StackedData(X=rng.standard_normal((30, 5)), U=np.zeros((30, 2)))
        result = mtil_learn.pretrain_alternating(
            [data], k=2, rng=np.random.default_rng(5)
        )
        assert result.objective_trace[-1] == 0.0
        np.testing.assert_allclose(result.f_hats[0], 0.0, atol=1e-14)

    def test_monotone_objective(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            tasks, _, _ = synthetic_tasks(rng, H=4, noise=0.3)
            result = mtil_learn.pretrain_alternating(
                tasks, k=2, rng=np.random.default_rng(seed + 100)
            )
            trace = result.objective_trace
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))
            assert trace[-1] <= trace[0]

    def test_finalized_phi_orthonormal(self):
        rng = np.random.default_rng(6)
        tasks, _, _ = synthetic_tasks(rng, noise=0.1)
        result = mtil_learn.pretrain_alternating(
            tasks, k=2, rng=np.random.default_rng(7)
        )
        np.testing.assert_allclose(
            result.phi_hat @ result.phi_hat.T, np.eye(2), atol=1e-10
        )

    def test_refinalization_is_gauge_stable(self):
        rng = np.random.default_rng(8)
        tasks, _, _ = synthetic_tasks(rng, noise=0.2)
        result = mtil_learn.pretrain_alternating(
            tasks, k=2, rng=np.random.default_rng(9)
        )
        phi2, f2 = _orthonormalize(result.phi_hat, result.f_hats)
        for F_old, F_new in zip(result.f_hats, f2):
            gain_old = F_old @ result.phi_hat
            gain_new = F_new @ phi2
            assert np.abs(gain_old - gain_new).max() <= 1e-12

    def test_degenerate_rank(self):
        X = np.ones((20, 5))
        data = StackedData(X=X, U=np.ones((20, 1)))
        with pytest.raises(DegenerateRank):
            mtil_learn.pretrain_alternating([data], k=3)

    def test_restarts_not_worse(self):
        rng = np.random.default_rng(10)
        tasks, _, _ = synthetic_tasks(rng, noise=0.5)
        single = mtil_learn.pretrain_alternating(
            tasks, k=2, rng=np.random.default_rng(11), restarts=1
        )
        multi = mtil_learn.pretrain_alternating(
            tasks, k=2, rng=np.random.default_rng(11), restarts=4
        )
        assert multi.objective_trace[-1] <= single.objective_trace[-1] + 1e-12


class TestPhiStepNormal:
    @pytest.mark.parametrize("n, k, H", [(1, 1, 1), (5, 2, 3), (50, 4, 9), (7, 7, 2)])
    def test_bit_identical_to_kron_sum(self, n, k, H):
        # One GEMM over tasks adds in another order than the kron sum, so the
        # match is to rounding; the matrix stays exactly symmetric.
        rng = np.random.default_rng(n * 100 + k * 10 + H)
        Gx, f_hats = [], []
        for _ in range(H):
            X = rng.standard_normal((3 * n, n))
            Gx.append(X.T @ X)
            f_hats.append(rng.standard_normal((2, k)))
        expected = np.zeros((k * n, k * n))
        for G, F in zip(Gx, f_hats):
            expected += np.kron(G, F.T @ F)
        normal = _phi_step_normal(np.stack(Gx), np.stack(f_hats))
        assert np.allclose(normal, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(normal, normal.T)


class TestFinetuneTarget:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(12)
        tasks, phi_star, f_stars = synthetic_tasks(rng, H=1)
        F = mtil_learn.finetune_target(phi_star, tasks[0])
        np.testing.assert_allclose(F, f_stars[0], atol=1e-8)

    def test_zero_targets(self):
        rng = np.random.default_rng(13)
        phi = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
        data = StackedData(X=rng.standard_normal((30, 6)), U=np.zeros((30, 2)))
        np.testing.assert_allclose(mtil_learn.finetune_target(phi, data), 0.0)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(14)
        tasks, phi_star, _ = synthetic_tasks(rng, H=1, noise=0.5)
        data = tasks[0]
        F = mtil_learn.finetune_target(phi_star, data)
        Z = data.X @ phi_star.T
        resid = data.U - Z @ F.T
        assert np.abs(Z.T @ resid).max() <= 1e-8 * max(
            1.0, np.abs(data.U).max() * np.abs(Z).max() * Z.shape[0]
        )

    def test_error_halves_when_samples_quadruple(self):
        rng = np.random.default_rng(15)
        n, k, n_u = 10, 2, 2
        phi_star = np.linalg.qr(rng.standard_normal((n, k)))[0].T
        f_star = rng.standard_normal((n_u, k))
        errs = {rows: [] for rows in (40, 160)}
        for seed in range(50):
            local = np.random.default_rng(1000 + seed)
            for rows in (40, 160):
                X = local.standard_normal((rows, n))
                U = X @ (f_star @ phi_star).T + local.standard_normal((rows, n_u))
                F = mtil_learn.finetune_target(phi_star, StackedData(X=X, U=U))
                errs[rows].append(np.linalg.norm(F - f_star))
        ratio = np.median(errs[160]) / np.median(errs[40])
        assert 0.35 <= ratio <= 0.65


class TestDirectOls:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(16)
        K = rng.standard_normal((2, 5))
        X = rng.standard_normal((50, 5))
        gain, underdetermined = mtil_learn.direct_ols(StackedData(X=X, U=X @ K.T))
        np.testing.assert_allclose(gain, K, atol=1e-8)
        assert not underdetermined

    def test_zero_targets(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((20, 4))
        gain, _ = mtil_learn.direct_ols(StackedData(X=X, U=np.zeros((20, 1))))
        np.testing.assert_allclose(gain, 0.0)

    def test_underdetermined_flag_and_min_norm(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((3, 10))
        U = rng.standard_normal((3, 2))
        gain, underdetermined = mtil_learn.direct_ols(StackedData(X=X, U=U))
        assert underdetermined
        # Minimum-norm solution interpolates the data.
        np.testing.assert_allclose(X @ gain.T, U, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((60, 5))
        U = rng.standard_normal((60, 2))
        gain, _ = mtil_learn.direct_ols(StackedData(X=X, U=U))
        resid = U - X @ gain.T
        assert np.abs(X.T @ resid).max() <= 1e-8 * X.shape[0]


class TestSubspaceDistance:
    def test_equal_inputs(self):
        phi = np.linalg.qr(np.random.default_rng(20).standard_normal((5, 2)))[0].T
        assert mtil_learn.subspace_distance(phi, phi) == pytest.approx(0.0)

    def test_orthogonal_spaces(self):
        a = np.eye(4)[:2]
        b = np.eye(4)[2:]
        assert mtil_learn.subspace_distance(a, b) == pytest.approx(1.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)
        phi = rng.standard_normal((2, 6))
        rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        assert mtil_learn.subspace_distance(phi, rot @ phi) <= 1e-7

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            mtil_learn.subspace_distance(np.zeros((2, 4)), np.eye(4)[:2])
