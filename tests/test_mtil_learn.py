"""Tests for the two-stage learner and the direct baseline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtil import exp_harness, mtil_learn
from mtil.data_gen import SeedTree, StackedData, rollout_expert
from mtil.errors import NonFiniteData, RankDeficient
from mtil.mtil_learn import _orthonormalize, _phi_step_normal, _solve


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


def pretrain(tasks, k, rng):
    """pretrain_alternating on the Grams of source tasks of equal length."""
    (rows,) = {d.X.shape[0] for d in tasks}
    return mtil_learn.pretrain_alternating(
        mtil_learn.stacked_grams(tasks), rows, k, rng
    )


def whole(data):
    """The prefix Grams of one prefix that holds every row of data."""
    return mtil_learn.prefix_grams(data, data.X.shape[0], [1])


class TestPretrainAlternating:
    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(0)
        tasks, phi_star, _ = synthetic_tasks(rng, H=3)
        result = pretrain(tasks, k=2, rng=np.random.default_rng(1))
        total_u = sum(np.sum(d.U**2) for d in tasks)
        assert result.objective_trace[-1] <= 1e-16 * total_u
        cosines = mtil_learn.principal_cosines(result.phi_hat, phi_star)
        assert np.sqrt(1.0 - cosines[-1] ** 2) <= 1e-6

    def test_full_dimension_matches_ols(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 4))
        U = X @ rng.standard_normal((4, 2)) + 0.1 * rng.standard_normal((40, 2))
        data = StackedData(X=X, U=U)
        result = pretrain([data], k=4, rng=np.random.default_rng(3))
        K_als = result.f_hats[0] @ result.phi_hat
        (K_ols,), _ = mtil_learn.direct_ols(whole(data))
        np.testing.assert_allclose(K_als, K_ols, atol=1e-8)
        assert result.newton_steps == 0

    def test_zero_targets(self):
        rng = np.random.default_rng(4)
        data = StackedData(X=rng.standard_normal((30, 5)), U=np.zeros((30, 2)))
        result = pretrain([data], k=2, rng=np.random.default_rng(5))
        assert result.objective_trace[-1] == 0.0
        np.testing.assert_allclose(result.f_hats[0], 0.0, atol=1e-14)

    def test_monotone_objective(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            tasks, _, _ = synthetic_tasks(rng, H=4, noise=0.3)
            result = pretrain(tasks, k=2, rng=np.random.default_rng(seed + 100))
            trace = result.objective_trace
            assert np.all(np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0))
            assert trace[-1] <= trace[0]

    def test_finalized_phi_orthonormal(self):
        rng = np.random.default_rng(6)
        tasks, _, _ = synthetic_tasks(rng, noise=0.1)
        result = pretrain(tasks, k=2, rng=np.random.default_rng(7))
        np.testing.assert_allclose(
            result.phi_hat @ result.phi_hat.T, np.eye(2), atol=1e-10
        )

    def test_refinalization_is_gauge_stable(self):
        rng = np.random.default_rng(8)
        tasks, _, _ = synthetic_tasks(rng, noise=0.2)
        result = pretrain(tasks, k=2, rng=np.random.default_rng(9))
        phi2, f2 = _orthonormalize(result.phi_hat, result.f_hats)
        for F_old, F_new in zip(result.f_hats, f2):
            gain_old = F_old @ result.phi_hat
            gain_new = F_new @ phi2
            assert np.abs(gain_old - gain_new).max() <= 1e-12

    def test_never_keeps_an_iterate_above_the_best(self):
        # Sweep 1 fits exactly (the objective reads -6.0e-10 in rounding).
        # Sweep 2's Phi-step normal matrix is singular; its minimum-norm
        # solution lowers nothing, so the run stops after 2 sweeps. A ridge
        # retry took 4 sweeps here, to a trace ending at -9.7e-10, and once
        # a later sweep rose to 2.2% of ||U||^2 and was returned.
        rng = np.random.default_rng(152971)
        tasks, _, _ = synthetic_tasks(
            rng, H=1, n=2, k=2, n_u=1, rows=2, noise=0.2632965
        )
        result = pretrain(tasks, k=2, rng=np.random.default_rng(152971))
        trace = result.objective_trace
        assert_trace_non_increasing(trace)
        assert trace[-1] == trace.min()
        data = tasks[0]
        residual = data.U - data.X @ result.phi_hat.T @ result.f_hats[0].T
        assert np.sum(residual**2) <= 1e-9 * trace[0]

    def test_degenerate_rank(self):
        X = np.ones((20, 5))
        data = StackedData(X=X, U=np.ones((20, 1)))
        with pytest.raises(RankDeficient, match="rank below k"):
            pretrain([data], k=3, rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "rows, k, match",
        [(3, 4, "at least k data rows"), (10, 6, "must not exceed the state")],
    )
    def test_refuses_k_above_rows_or_n(self, rows, k, match):
        rng = np.random.default_rng(10)
        tasks = [StackedData(X=rng.standard_normal((rows, 5)), U=np.ones((rows, 1)))]
        with pytest.raises(ValueError, match=match):
            pretrain(tasks, k, rng)

    @pytest.mark.parametrize("above_band", [True, False])
    def test_rank_guard_outside_its_band(self, above_band):
        # The guard reads the summed Gram, which squares the condition number
        # of the stacked states X (rows x n): it and matrix_rank(X) differ
        # only for s_k between ~rows eps s_1 (matrix_rank's cutoff) and
        # ~sqrt(n eps) s_1 (the guard's). Above that band both see rank k,
        # below it both see rank k - 1.
        rows, n, k = 20, 6, 3
        eps = np.finfo(float).eps
        s_k = 10.0 * np.sqrt(n * eps) if above_band else 0.1 * rows * eps
        rng = np.random.default_rng(7)
        U_x = np.linalg.qr(rng.standard_normal((rows, n)))[0]
        V_x = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U_x @ np.diag([1.0, 0.5, s_k, 0.0, 0.0, 0.0]) @ V_x.T
        assert (np.linalg.matrix_rank(X) >= k) == above_band
        U = rng.standard_normal((rows, 1))
        source = [StackedData(X=X[:10], U=U[:10]), StackedData(X=X[10:], U=U[10:])]
        if above_band:
            pretrain(source, k=k, rng=np.random.default_rng(0))
        else:
            with pytest.raises(RankDeficient, match="rank below k"):
                pretrain(source, k=k, rng=np.random.default_rng(0))


@st.composite
def als_problems(draw):
    """(tasks, k, seed): synthetic_tasks over random H, n, k, rows and noise.

    Each task has rows >= n and the stacked F (2H x k) can have rank k, so
    both block updates are unique minimizers: the Phi-step normal matrix is
    nonsingular.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    H = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(n, 2 * H)))
    rows = draw(st.integers(n, 4 * n))
    noise = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    tasks, _, _ = synthetic_tasks(rng, H=H, n=n, k=k, rows=rows, noise=noise)
    return tasks, k, seed


@st.composite
def als_problems_few_rows(draw):
    """(tasks, k, seed) as als_problems, but each task has k <= rows < n.

    Every X^h'X^h is then singular, and so can be the Phi-step normal matrix.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    H = draw(st.integers(1, 6))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(n - 1, 2 * H)))
    rows = draw(st.integers(k, n - 1))
    noise = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    tasks, _, _ = synthetic_tasks(rng, H=H, n=n, k=k, rows=rows, noise=noise)
    return tasks, k, seed


@st.composite
def als_problems_few_outputs(draw):
    """(tasks, k, seed) as als_problems, but with H n_u < k <= n.

    The stacked F (H n_u x k) then has rank below k, so the Phi-step normal
    matrix sum_h kron(X^h'X^h, F^h'F^h) is singular, while every task has
    rows >= n, which keeps the Phi-step on `_solve`: LU, then pinv.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_u = draw(st.integers(1, 2))
    H = draw(st.integers(1, 3))
    n = draw(st.integers(H * n_u + 1, 12))
    k = draw(st.integers(H * n_u + 1, n))
    rows = draw(st.integers(n, 4 * n))
    noise = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    tasks, _, _ = synthetic_tasks(rng, H=H, n=n, k=k, n_u=n_u, rows=rows, noise=noise)
    return tasks, k, seed


def assert_trace_non_increasing(trace):
    """Each sweep's rise is at most 1e-9 trace[0], as in
    test_objective_non_increasing."""
    assert np.all(np.diff(trace) <= 1e-9 * trace[0])


class TestAlsProperties:
    @given(als_problems())
    def test_objective_non_increasing(self, problem):
        tasks, k, seed = problem
        result = pretrain(tasks, k, rng=np.random.default_rng(seed))
        trace = result.objective_trace
        # The trace holds every ALS sweep and every Newton step.
        assert trace.size == 1 + result.sweeps_used + result.newton_steps
        # The expanded-form objective cancels terms of the size of the data,
        # so its rounding is judged against trace[0] = sum_h ||U^h||^2.
        assert np.all(np.diff(trace) <= 1e-9 * trace[0])

    # About 1% of such problems broke monotonicity with an LU Phi-step, so
    # this draws more examples than the profile's 100.
    @settings(max_examples=400)
    @given(als_problems_few_rows())
    def test_objective_non_increasing_with_fewer_rows_than_n(self, problem):
        tasks, k, seed = problem
        result = pretrain(tasks, k, rng=np.random.default_rng(seed))
        assert_trace_non_increasing(result.objective_trace)
        assert np.all(np.isfinite(result.f_hats))
        # The minimum-norm Phi-step path takes ALS sweeps only.
        assert result.newton_steps == 0

    @given(als_problems_few_outputs())
    def test_singular_normal_matrix_from_few_outputs(self, problem):
        # The min-norm solve is the only lstsq in pretraining; it must not run.
        tasks, k, seed = problem
        with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError):
            result = pretrain(tasks, k, rng=np.random.default_rng(seed))
        assert_trace_non_increasing(result.objective_trace)
        assert np.all(np.isfinite(result.f_hats))
        Gx = mtil_learn.stacked_grams(tasks)[0]
        normal = _phi_step_normal(Gx, result.f_hats)
        assert np.linalg.matrix_rank(normal) < normal.shape[0]

    @pytest.mark.parametrize("seed", [13, 91, 111])
    def test_two_rows_per_task_stay_bounded(self, seed):
        # n=10, k=1, H=3 with 2 rows per task: an LU Phi-step put components
        # of order 1e16 into Phi's null space and raised the objective by
        # 1e16 times trace[0] (seeds 91 and 111), and with extrapolated
        # sweeps gave |F| of 2.7e4 (seed 13).
        rng = np.random.default_rng(seed)
        tasks, _, _ = synthetic_tasks(rng, H=3, n=10, k=1, rows=2, noise=0.5)
        result = pretrain(tasks, 1, rng=np.random.default_rng(seed))
        assert_trace_non_increasing(result.objective_trace)
        u_scale = max(np.linalg.norm(d.U) for d in tasks)
        assert np.all(np.isfinite(result.f_hats))
        assert np.abs(result.f_hats).max() <= 1e3 * u_scale

    @given(als_problems(), st.integers(0, 2**32 - 1))
    def test_orthonormalize_keeps_products(self, problem, gauge_seed):
        # A random change of basis M leaves every F Phi as it is; so must
        # _orthonormalize.
        tasks, k, seed = problem
        result = pretrain(tasks, k, rng=np.random.default_rng(seed))
        M = np.random.default_rng(gauge_seed).standard_normal((k, k)) + 2 * np.eye(k)
        phi = M @ result.phi_hat
        f_hats = result.f_hats @ np.linalg.inv(M)
        phi_new, f_new = _orthonormalize(phi, f_hats)
        scale = np.linalg.norm(f_hats, axis=(1, 2)) * np.linalg.norm(phi)
        err = np.abs(f_new @ phi_new - f_hats @ phi).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * np.maximum(scale, 1e-300))
        np.testing.assert_allclose(phi_new @ phi_new.T, np.eye(k), atol=1e-10)


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
    # Fine-tuning is `direct_ols` on the Grams projected onto Phi; the fits
    # themselves are checked in TestDirectOls and TestPrefixGrams.
    def test_zero_states_give_a_zero_flagged_fit(self):
        # All-zero states leave X Phi' of rank 0: the minimum-norm fit is 0.
        data = StackedData(X=np.zeros((20, 5)), U=np.ones((20, 1)))
        grams = mtil_learn.prefix_grams(data, 10, [1, 2]).project(np.eye(5)[:2])
        F, underdetermined = mtil_learn.direct_ols(grams)
        np.testing.assert_array_equal(F, 0.0)
        assert underdetermined.tolist() == [True, True]

    def test_rank_deficient_features_with_enough_rows_are_flagged(self):
        # 20 rows for k = 2, but every state is orthogonal to Phi's second
        # row, so X Phi' has rank 1: the fit is the minimum-norm lstsq fit
        # and is flagged, although rows >= k.
        rng = np.random.default_rng(21)
        X = rng.standard_normal((20, 5))
        X[:, 4] = 0.0
        U = rng.standard_normal((20, 2))
        phi = np.eye(5)[[0, 4]]
        grams = whole(StackedData(X=X, U=U)).project(phi)
        (F,), (underdetermined,) = mtil_learn.direct_ols(grams)
        assert underdetermined
        ref = np.linalg.lstsq(X @ phi.T, U, rcond=None)[0].T
        np.testing.assert_array_equal(F, ref)
        np.testing.assert_array_equal(F[:, 1], 0.0)

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
                data = whole(StackedData(X=X, U=U)).project(phi_star)
                (F,), _ = mtil_learn.direct_ols(data)
                errs[rows].append(np.linalg.norm(F - f_star))
        ratio = np.median(errs[160]) / np.median(errs[40])
        assert 0.35 <= ratio <= 0.65


def assert_min_norm(sol, M, C):
    """sol is lstsq's minimum-norm solution of M X = C to 1e-12 relative."""
    ref = np.linalg.lstsq(M, C, rcond=None)[0]
    assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)


@st.composite
def singular_psd_systems(draw):
    """(M, C): M = P diag(d) P' with P a permutation and some d exactly 0,
    so that LU meets an exact zero pivot; C = M Y + R with an arbitrary R."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(1, 8))
    m = draw(st.integers(1, 3))
    zeros = draw(st.integers(1, dim))
    rng = np.random.default_rng(seed)
    d = np.concatenate([np.zeros(zeros), rng.uniform(0.01, 100.0, dim - zeros)])
    P = np.eye(dim)[rng.permutation(dim)]
    M = P @ np.diag(d) @ P.T
    C = M @ rng.standard_normal((dim, m)) + rng.standard_normal((dim, m))
    return M, C


class TestSolve:
    def test_regular_matrix_gets_the_lu_bits(self):
        rng = np.random.default_rng(20)
        A = rng.standard_normal((3, 4, 4))
        M = A @ A.transpose(0, 2, 1) + np.eye(4)
        C = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(_solve(M[0], C[0]), np.linalg.solve(M[0], C[0]))
        np.testing.assert_array_equal(_solve(M, C), np.linalg.solve(M, C))

    def test_zero_matrix_gives_zero(self):
        np.testing.assert_array_equal(
            _solve(np.zeros((3, 3)), np.ones((3, 1))), np.zeros((3, 1))
        )

    def test_singular_psd_matrix_gets_the_min_norm_solution(self):
        # An exact zero pivot fails the LU solve; lstsq gives [1, 0].
        M = np.diag([1.0, 0.0])
        C = np.ones((2, 1))
        sol = _solve(M, C)
        np.testing.assert_array_equal(sol, [[1.0], [0.0]])
        np.testing.assert_array_equal(sol, np.linalg.lstsq(M, C, rcond=None)[0])

    def test_stack_with_one_singular_block_gets_min_norm_everywhere(self):
        M = np.stack([2.0 * np.eye(2), np.diag([1.0, 0.0]), np.diag([3.0, 5.0])])
        C = np.arange(1.0, 7.0).reshape(3, 2, 1)
        sol = _solve(M, C)
        for Mh, Ch, sol_h in zip(M, C, sol):
            assert_min_norm(sol_h, Mh, Ch)

    @given(singular_psd_systems())
    def test_singular_fallback_is_min_norm_least_squares(self, system):
        M, C = system
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, C)
        assert_min_norm(_solve(M, C), M, C)


class TestDirectOls:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(16)
        K = rng.standard_normal((2, 5))
        X = rng.standard_normal((50, 5))
        (gain,), (underdetermined,) = mtil_learn.direct_ols(
            whole(StackedData(X=X, U=X @ K.T))
        )
        np.testing.assert_allclose(gain, K, atol=1e-8)
        assert not underdetermined

    def test_zero_targets(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((20, 4))
        data = whole(StackedData(X=X, U=np.zeros((20, 1))))
        (gain,), _ = mtil_learn.direct_ols(data)
        np.testing.assert_allclose(gain, 0.0)

    def test_underdetermined_flag_and_min_norm(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((3, 10))
        U = rng.standard_normal((3, 2))
        data = whole(StackedData(X=X, U=U))
        (gain,), (underdetermined,) = mtil_learn.direct_ols(data)
        assert underdetermined
        # Minimum-norm solution interpolates the data.
        np.testing.assert_allclose(X @ gain.T, U, atol=1e-10)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((60, 5))
        U = rng.standard_normal((60, 2))
        (gain,), _ = mtil_learn.direct_ols(whole(StackedData(X=X, U=U)))
        resid = U - X @ gain.T
        assert np.abs(X.T @ resid).max() <= 1e-8 * X.shape[0]


class TestPrincipalCosines:
    def test_equal_inputs(self):
        phi = np.linalg.qr(np.random.default_rng(20).standard_normal((5, 2)))[0].T
        np.testing.assert_allclose(mtil_learn.principal_cosines(phi, phi), 1.0)

    def test_orthogonal_spaces(self):
        a = np.eye(4)[:2]
        b = np.eye(4)[2:]
        np.testing.assert_allclose(mtil_learn.principal_cosines(a, b), 0.0)

    def test_known_angles_all_returned_descending(self):
        a = np.eye(4)[:2]
        b = np.array([[np.cos(0.3), 0.0, np.sin(0.3), 0.0],
                      [0.0, np.cos(1.1), 0.0, np.sin(1.1)]])
        cosines = mtil_learn.principal_cosines(a, 3.0 * b)
        np.testing.assert_allclose(cosines, [np.cos(0.3), np.cos(1.1)])

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)
        phi = rng.standard_normal((2, 6))
        rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        cosines = mtil_learn.principal_cosines(phi, rot @ phi)
        assert np.sqrt(1.0 - cosines.min() ** 2) <= 1e-7

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            mtil_learn.principal_cosines(np.zeros((2, 4)), np.eye(4)[:2])


def reduced_gradient(tasks, phi):
    """Gradient in Phi of sum_h min_F ||U^h - X^h Phi' F'||^2, from data rows."""
    grad = np.zeros_like(phi)
    for d in tasks:
        Z = d.X @ phi.T
        F = np.linalg.lstsq(Z, d.U, rcond=None)[0].T
        grad -= 2.0 * F.T @ (d.U - Z @ F.T).T @ d.X
    return grad


def reference_cells(system_trials):
    """Source data of reference-config cells (seed 0, noise trial 0)."""
    cfg = exp_harness.ExperimentConfig()
    family, _ = exp_harness.expert_family(cfg)
    for s in system_trials:
        ensemble = exp_harness.lift_trial(cfg, family, s)
        tree = SeedTree(root=cfg.seed).child("source", s).child("noise", 0)
        stacks = [
            rollout_expert(
                ensemble.system, task, cfg.T, cfg.N1, tree.child("task", h).stream()
            )
            for h, task in enumerate(ensemble.sources)
        ]
        yield stacks, cfg.k, tree.child("init").stream()


class TestNewtonFinisher:
    def test_hessian_vector_product_matches_gradient_difference(self):
        rng = np.random.default_rng(22)
        tasks, _, _ = synthetic_tasks(rng, H=3, n=7, k=2, rows=30, noise=0.5)
        grams = mtil_learn.stacked_grams(tasks)
        phi = rng.standard_normal((2, 7))
        Q, grad, hess = mtil_learn._chart_newton(
            grams, phi, mtil_learn._f_step(grams, phi)
        )
        # Both are halves of the gradient and Hessian in the chart Phi + Y Q'.
        np.testing.assert_allclose(
            2.0 * grad, reduced_gradient(tasks, phi) @ Q, rtol=0, atol=1e-10
        )
        Y = rng.standard_normal(grad.shape)
        step = 1e-6
        diff = (
            reduced_gradient(tasks, phi + step * Y @ Q.T)
            - reduced_gradient(tasks, phi - step * Y @ Q.T)
        ) @ Q / (2.0 * step)
        hv = 2.0 * (hess @ Y.ravel(order="F")).reshape(Y.shape, order="F")
        assert np.linalg.norm(diff - hv) <= 1e-7 * np.linalg.norm(hv)

    def test_horizontal_gradient_vanishes_on_reference_cells(self):
        # Extrapolated ALS alone stopped with this ratio at 3e-7 to 6e-7.
        for stacks, k, rng in reference_cells([0, 1, 2]):
            result = pretrain(stacks, k, rng=rng)
            assert result.newton_steps > 0
            phi = result.phi_hat
            grad = reduced_gradient(stacks, phi)
            horizontal = grad - grad @ phi.T @ phi
            scale = sum(
                2.0 * np.linalg.norm(F.T @ d.U.T @ d.X)
                for d, F in zip(stacks, result.f_hats)
            )
            assert np.linalg.norm(horizontal) <= 1e-8 * scale

    @pytest.mark.parametrize("n, k, rows", [(4, 4, 12), (10, 2, 6)])
    def test_full_rank_and_few_rows_take_no_newton_step(self, n, k, rows):
        rng = np.random.default_rng(23)
        tasks, _, _ = synthetic_tasks(rng, H=2, n=n, k=k, rows=rows, noise=0.5)
        with mock.patch.object(
            mtil_learn, "_newton_step", side_effect=AssertionError
        ):
            result = pretrain(tasks, k, rng=np.random.default_rng(24))
        assert result.newton_steps == 0

    def test_indefinite_chart_hessian_resumes_als(self):
        # ALS slows down where the chart Hessian is indefinite: the refused
        # step hands back to ALS, and the run ends at a minimizer no higher
        # than ALS alone reaches.
        tasks, _, _ = synthetic_tasks(
            np.random.default_rng(215), H=4, n=10, k=3, rows=20, noise=3.0
        )
        events = []
        newton_step, als_sweep = mtil_learn._newton_step, mtil_learn._als_sweep

        def logged_newton(*args):
            phi = newton_step(*args)
            events.append("refused" if phi is None else "newton")
            return phi

        def logged_sweep(*args):
            events.append("sweep")
            return als_sweep(*args)

        with mock.patch.object(mtil_learn, "_newton_step", logged_newton), \
                mock.patch.object(mtil_learn, "_als_sweep", logged_sweep):
            result = pretrain(tasks, 3, rng=np.random.default_rng(215))
        refused = [i for i, e in enumerate(events) if e == "refused"]
        assert refused
        retry = mtil_learn.NEWTON_RETRY_SWEEPS
        for i in refused:
            after = events[i + 1 : i + 1 + retry]
            assert after == ["sweep"] * len(after)
        assert events[-1] == "newton"
        assert_trace_non_increasing(result.objective_trace)
        grams = mtil_learn.stacked_grams(tasks)
        phi = result.phi_hat
        _, _, hess = mtil_learn._chart_newton(
            grams, phi, mtil_learn._f_step(grams, phi)
        )
        np.linalg.cholesky(hess)
        with mock.patch.object(mtil_learn, "NEWTON_START_REL", 0.0):
            als_only = pretrain(tasks, 3, rng=np.random.default_rng(215))
        assert als_only.newton_steps == 0
        assert result.objective_trace[-1] <= als_only.objective_trace[-1]


@st.composite
def nested_pools(draw):
    """(pool, T, counts, phi): a pool of N trajectories of T rows in n
    dimensions, grid counts of nested prefixes, and an orthonormal k x n Phi.

    n is m T or m T + 1, so the prefix of m trajectories holds n or n - 1
    rows, and the grid always takes it. With `flat` the first p
    trajectories lie in a hyperplane (n >= 2), so prefixes of up to p
    trajectories are rank-deficient although p T >= n.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    T = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    n = m * T + draw(st.integers(0, 1))
    N = m + draw(st.integers(0, 4))
    counts = draw(st.sets(st.integers(1, N), max_size=N).map(sorted))
    counts = draw(st.permutations(sorted(set(counts) | {m})))
    k = draw(st.integers(1, n))
    n_u = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N * T, n))
    if n >= 2 and draw(st.booleans()):
        p = draw(st.integers(-(-n // T), max(N, -(-n // T))))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        X[: p * T] -= np.outer(X[: p * T] @ v, v)
    U = X @ rng.standard_normal((n, n_u)) + 0.1 * rng.standard_normal((N * T, n_u))
    phi = np.linalg.qr(rng.standard_normal((n, k)))[0].T
    return StackedData(X=X, U=U), T, list(counts), phi


def relative_gap(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestPrefixGrams:
    @given(nested_pools())
    def test_direct_fits_match_per_prefix_lstsq(self, problem):
        # Regressors x (Phi = I, the direct fit) and Phi x (fine-tuning).
        pool, T, counts, phi = problem
        grams = mtil_learn.prefix_grams(pool, T, counts)
        eye = np.eye(pool.X.shape[1])
        for fit_grams, phi in ((grams, eye), (grams.project(phi), phi)):
            K, underdetermined = mtil_learn.direct_ols(fit_grams)
            Z = pool.X @ phi.T
            for j, c in enumerate(counts):
                sol, _, rank, _ = np.linalg.lstsq(
                    Z[: c * T], pool.U[: c * T], rcond=None
                )
                assert underdetermined[j] == (rank < phi.shape[0])
                assert relative_gap(K[j], sol.T) <= 1e-9

    def test_near_singular_full_rank_prefix_keeps_lstsq(self):
        # lstsq ranks the first two rows full (cond ~2e15), but their Gram is
        # singular to rounding: that prefix, and the next, whose condition
        # the first cannot certify, are fitted by lstsq.
        X = np.array([[1.0, 1.0], [1.0, 1.0 + 2e-15], [0.0, 1.0]])
        U = np.array([[1.0], [2.0], [3.0]])
        counts = [3, 2]
        K, underdetermined = mtil_learn.direct_ols(
            mtil_learn.prefix_grams(StackedData(X=X, U=U), 1, counts)
        )
        assert underdetermined.tolist() == [False, False]
        for j, c in enumerate(counts):
            sol = np.linalg.lstsq(X[:c], U[:c], rcond=None)[0]
            np.testing.assert_array_equal(K[j], sol.T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [1e160, np.nan])
    def test_nonfinite_grams_refused(self, bad):
        # Rows near 1e160 overflow X'X; a NaN row makes it NaN. Each fit
        # names the Grams instead of solving with them, and warns of nothing.
        X = np.eye(4, 2)
        X[3, 0] = bad
        data = StackedData(X=X, U=np.ones((4, 1)))
        grams = mtil_learn.prefix_grams(data, 2, [1, 2])
        with pytest.raises(NonFiniteData, match="target Grams"):
            mtil_learn.direct_ols(grams)
        with pytest.raises(NonFiniteData, match="target Grams"):
            mtil_learn.direct_ols(grams.project(np.array([[1.0, 0.0]])))
        with pytest.raises(NonFiniteData, match="source Grams"):
            pretrain([data], 1, np.random.default_rng(0))

    def test_counts_outside_the_pool_are_refused(self):
        pool = StackedData(X=np.zeros((6, 2)), U=np.zeros((6, 1)))
        with pytest.raises(ValueError):
            mtil_learn.prefix_grams(pool, 3, [3])
        with pytest.raises(ValueError):
            mtil_learn.prefix_grams(pool, 4, [1])
