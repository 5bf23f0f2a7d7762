"""Tests for evaluation metrics and diversity constants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtil import control_math as cm
from mtil import eval_metrics, lti_env
from mtil.data_gen import SeedTree, coupled_rollout
from mtil.errors import RankDeficient
from mtil.lti_env import ExpertTask, LinearSystem, TaskEnsemble
from test_data_gen import full_space_rollout, trial_noise


def scalar_setup(sigma_z=0.0):
    system = LinearSystem(A=np.array([[0.8]]), B=np.array([[1.0]]), sigma_z=sigma_z)
    task = lti_env.make_task(system, np.array([[-0.3]]))
    return system, task


def evaluate_one(system, task, K_hat, T_test, rng):
    """The record of one gain, scored as a (1, 1, n_u, n_x) stack on [rng]."""
    (record,) = eval_metrics.evaluate_controller(
        system, task, K_hat[None, None], T_test, [rng]
    )
    return record


def manual_ensemble(sigmas_x, f_stars, phi_star):
    """Hand-built ensemble for diversity-constant tests (last task = target)."""
    system = LinearSystem(A=np.zeros((phi_star.shape[1], phi_star.shape[1])),
                          B=np.zeros((phi_star.shape[1], f_stars[0].shape[0])))
    tasks = [
        ExpertTask(K=F @ phi_star, sigma_x=S.copy())
        for F, S in zip(f_stars, sigmas_x)
    ]
    truth = lti_env.GroundTruthFactors(phi_star=phi_star, f_stars=list(f_stars))
    return TaskEnsemble(
        system=system, sources=tasks[:-1], target=tasks[-1], truth=truth
    )


class TestExcessRisk:
    def test_zero_for_equal_gains(self):
        K = np.array([[0.3, -0.1]])
        assert eval_metrics.excess_risk(K, K, np.eye(2)) == 0.0

    def test_identity_covariance(self):
        K1 = np.array([[1.0, 0.0]])
        K2 = np.array([[0.0, 2.0]])
        assert eval_metrics.excess_risk(K1, K2, np.eye(2)) == pytest.approx(2.5)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(0)
        delta = rng.standard_normal((2, 3))
        M = rng.standard_normal((3, 3))
        sigma = M @ M.T + 0.5 * np.eye(3)
        closed = eval_metrics.excess_risk(delta, np.zeros_like(delta), sigma)
        x = rng.multivariate_normal(np.zeros(3), sigma, size=100_000)
        mc = 0.5 * np.mean(np.sum((x @ delta.T) ** 2, axis=1))
        assert closed == pytest.approx(mc, rel=0.02)

    def test_factorization_invariance(self):
        rng = np.random.default_rng(1)
        F = rng.standard_normal((2, 3))
        phi = rng.standard_normal((3, 5))
        K_star = rng.standard_normal((2, 5))
        sigma = np.eye(5)
        direct = eval_metrics.excess_risk(F @ phi, K_star, sigma)
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        refactored = (F @ rot.T) @ (rot @ phi)
        assert eval_metrics.excess_risk(refactored, K_star, sigma) == pytest.approx(
            direct, rel=1e-10
        )


class TestEvaluateController:
    def test_perfect_controller(self):
        system, task = scalar_setup(sigma_z=0.5)
        rng = SeedTree(root=1).child("e").stream()
        for _ in range(5):
            r = evaluate_one(system, task, task.K, 20, rng)
            assert r.tracking_err == 0.0
            assert r.param_err == 0.0
            assert r.stable
            assert r.excess_risk == 0.0

    def test_scalar_zero_noise_closed_form(self):
        system, task = scalar_setup()
        eps = 0.05
        noise = np.ones((1, 1, 1)), np.zeros((1, 1, 50, 1)), np.zeros((1, 1, 50, 1))
        K_hat = (task.K + eps)[None, None]
        _, devs, _ = coupled_rollout(system, task.K, K_hat, *noise)
        tracking = np.max(np.sum(devs[0, 0] ** 2, axis=1))
        ts = np.arange(1, 51)
        expected = np.max((0.5**ts - 0.55**ts) ** 2)
        assert tracking == pytest.approx(expected, rel=1e-12)

    def test_seeded_determinism(self):
        system, task = scalar_setup(sigma_z=0.3)
        K_hat = task.K + 0.05
        tree = SeedTree(root=2)
        r1 = evaluate_one(system, task, K_hat, 30, tree.child("e").stream())
        r2 = evaluate_one(system, task, K_hat, 30, tree.child("e").stream())
        assert r1.tracking_err == r2.tracking_err

    def test_batch_equals_successive_single_trials(self):
        # One batched draw and deviation-form rollout of five trials gives,
        # bit for bit, the tracking errors of five successive evaluations on
        # the same stream; the full-space trajectories agree to rounding.
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, [1.0, 2.0])
        task = lti_env.make_task(base, gains[0])
        rng = SeedTree(root=4).child("e").stream()
        noise = trial_noise(base, task, 30, rng, trials=5)
        K_hats = np.broadcast_to(gains[1], (5, 1, *gains[1].shape))
        _, devs, steps = coupled_rollout(base, task.K, K_hats, *noise)
        assert steps.ravel().tolist() == [30] * 5
        batch = np.sum(devs * devs, axis=3).max(axis=2).ravel()
        rng = SeedTree(root=4).child("e").stream()
        singles = [evaluate_one(base, task, gains[1], 30, rng) for _ in range(5)]
        assert [r.tracking_err for r in singles] == batch.tolist()
        assert not any(r.nonfinite for r in singles)
        xs, xh, _ = full_space_rollout(base, task.K, gains[1], *noise)
        diff = xh[:, 1:] - xs[:, 1:]
        full = np.max(np.sum(diff * diff, axis=2), axis=1)
        np.testing.assert_allclose(batch, full, rtol=1e-9, atol=0.0)

    def test_batched_pass_equals_one_gain_calls(self):
        # A cell scores c gains per draw in one pass; each record must be the
        # bits of a one-gain call on its draw's stream, a diverging gain too.
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, [0.5, 1.0, 2.0])
        task = lti_env.make_task(base, gains[0])
        diverging = gains[0] + 1e8  # overflows within the 60 steps
        K_hats = np.array(
            [[gains[1], gains[2]], [gains[2], diverging], [task.K, gains[1]]]
        )
        tree = SeedTree(root=6)
        streams = [tree.child("n2", d).stream() for d in range(3)]
        batched = eval_metrics.evaluate_controller(base, task, K_hats, 60, streams)
        singles = [
            evaluate_one(base, task, K_hats[d, c], 60, tree.child("n2", d).stream())
            for d in range(3)
            for c in range(2)
        ]
        assert batched == singles
        assert [r.nonfinite for r in batched] == [False] * 3 + [True] + [False] * 2
        assert batched[3].tracking_err == np.inf and not batched[3].stable
        assert batched[4].tracking_err == 0.0

    def test_per_trial_tracking_bound(self):
        # Deterministic consequence of the incremental-stability display.
        system, task = scalar_setup(sigma_z=0.2)
        K_hat = task.K + 0.02
        j_gain = cm.stability_profile(system.A + system.B @ task.K, system.basis)
        jb = j_gain * np.linalg.norm(system.B, 2)
        rng = SeedTree(root=3).child("b").stream()
        for _ in range(50):
            noise = trial_noise(system, task, 40, rng)
            xs, devs, _ = coupled_rollout(system, task.K, K_hat[None, None], *noise)
            tracking = np.max(np.sum(devs[0, 0] ** 2, axis=1))
            delta_max = np.max(
                np.linalg.norm(xs[0, :-1] @ (K_hat - task.K).T, axis=1)
            )
            assert tracking <= 4 * jb * jb * delta_max**2 * (1 + 1e-9)


@st.composite
def lifted_gain_stacks(draw):
    """(system, gains): a random stable plant (n <= 6 states) lifted through
    a Gaussian m x n map (m in [n, 50]), and c random m-D gains whose scales
    spread over two decades, so that many closed loops are unstable."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 50))
    n_u = draw(st.integers(1, 3))
    c = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((n, n))
    A0 *= 0.9 / max(cm.spectral_radius(A0), 1e-9)
    base = LinearSystem(A=A0, B=rng.standard_normal((n, n_u)))
    G = lti_env.sample_lift_map(n, m, rng)
    system = lti_env.lift_ensemble(base, [np.zeros((n_u, n))] * 2, G).system
    scales = 10.0 ** rng.uniform(-1.0, 1.0, (c, 1, 1)) / np.sqrt(m)
    return system, scales * rng.standard_normal((c, n_u, m))


class TestClosedLoopRadii:
    @given(lifted_gain_stacks())
    def test_matches_full_space_eigvals(self, problem):
        # evaluate_controller's stable verdicts read rho off the r x r block.
        system, gains = problem
        on_range = system.closed_loop_on_range(gains)
        rho = np.abs(np.linalg.eigvals(on_range)).max(axis=1)
        closed = [system.A + system.B @ K for K in gains]
        full = np.array([np.abs(np.linalg.eigvals(M)).max() for M in closed])
        # Full-space eigvals is accurate to rounding of ||A + BK||, not of
        # rho: a rank-1 closed loop with a small eigenvalue is off by more
        # than 1e-10 of rho there, while the basis form is exact.
        scale = np.array([np.linalg.norm(M, 2) for M in closed])
        assert np.all(np.abs(rho - full) <= 1e-10 * scale)

    def test_stable_verdicts_on_a_lifted_plant(self):
        base = lti_env.get_preset("hong2021")
        ens = lti_env.lift_ensemble(
            base,
            lti_env.synthesize_expert_family(base, [0.1, 10.0]),
            SeedTree(root=3).child("lift").stream().standard_normal((50, 4)),
        )
        K = ens.target.K
        K_hat = np.stack([K, 3.0 * K, K + 0.5, -K])[None]
        records = eval_metrics.evaluate_controller(
            ens.system, ens.target, K_hat, 5, [np.random.default_rng(0)]
        )
        full = [
            np.abs(np.linalg.eigvals(ens.system.A + ens.system.B @ G)).max()
            for G in K_hat[0]
        ]
        assert [r.stable for r in records] == [bool(f < 1.0) for f in full]
        assert any(r.stable for r in records) and not all(r.stable for r in records)


class TestLqrCostGap:
    def test_zero_gap_for_expert(self):
        system, task = scalar_setup(sigma_z=0.3)
        bound = eval_metrics.lqr_cost_gap_bound(
            system, task, task.K, np.eye(1), np.eye(1), 50
        )
        assert bound == 0.0

    def test_degenerate_costs(self):
        system, task = scalar_setup(sigma_z=0.3)
        bound = eval_metrics.lqr_cost_gap_bound(
            system, task, task.K + 0.05, np.zeros((1, 1)), np.zeros((1, 1)), 50
        )
        assert bound == 0.0

    def test_scalar_closed_form(self):
        # a + b k = 0.5 gives J = sum_t 0.5^t = 2 and sigma_x = 1 / (1 - 0.25);
        # with Q = 2, R = 3: C = sqrt(2) J + sqrt(3) (|k| + 1).
        system, task = scalar_setup()
        eps, T = 0.02, 100
        bound = eval_metrics.lqr_cost_gap_bound(
            system, task, task.K + eps, 2.0 * np.eye(1), 3.0 * np.eye(1), T
        )
        const = np.sqrt(2.0) * 2.0 + np.sqrt(3.0) * (0.3 + 1.0)
        er = 0.5 * eps**2 / 0.75
        assert bound == pytest.approx(const * np.sqrt(np.log(T) * er), rel=1e-9)


class TestTaskDiversity:
    def test_equal_covariances(self):
        phi = np.eye(2, 4)
        f = [np.eye(2) for _ in range(4)]
        ens = manual_ensemble([np.eye(4)] * 4, f, phi)
        report = eval_metrics.task_diversity_constants(ens)
        assert report.c == pytest.approx(1.0)

    def test_identical_full_row_rank_weights(self):
        H = 5
        phi = np.eye(2, 4)
        F = np.array([[1.0, 2.0], [0.0, 1.0]])
        f = [F.copy() for _ in range(H + 1)]
        ens = manual_ensemble([np.eye(4)] * (H + 1), f, phi)
        report = eval_metrics.task_diversity_constants(ens)
        assert report.nu == pytest.approx(1.0 / H, rel=1e-10)
        assert report.nu * H == pytest.approx(1.0, rel=1e-10)

    def test_dominating_source(self):
        phi = np.eye(2, 4)
        f = [np.eye(2) for _ in range(3)]
        sigmas = [2.0 * np.eye(4), np.eye(4), np.eye(4)]
        ens = manual_ensemble(sigmas, f, phi)
        report = eval_metrics.task_diversity_constants(ens)
        assert report.c == pytest.approx(1.0)

    def test_scaling_invariance_of_c(self):
        rng = np.random.default_rng(7)
        phi = np.eye(2, 4)
        f = [rng.standard_normal((2, 2)) for _ in range(4)]
        mats = []
        for _ in range(4):
            M = rng.standard_normal((4, 4))
            mats.append(M @ M.T + np.eye(4))
        ens1 = manual_ensemble(mats, f, phi)
        ens2 = manual_ensemble([7.0 * S for S in mats], f, phi)
        c1 = eval_metrics.task_diversity_constants(ens1).c
        c2 = eval_metrics.task_diversity_constants(ens2).c
        assert c1 == pytest.approx(c2, rel=1e-9)

    def test_nu_gauge_invariance(self):
        rng = np.random.default_rng(8)
        phi = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        f = [rng.standard_normal((2, 2)) for _ in range(4)]
        ens1 = manual_ensemble([np.eye(4)] * 4, f, phi)
        M = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        f2 = [F @ M for F in f]
        phi2 = np.linalg.solve(M, phi)
        ens2 = manual_ensemble([np.eye(4)] * 4, f2, phi2)
        nu1 = eval_metrics.task_diversity_constants(ens1).nu
        nu2 = eval_metrics.task_diversity_constants(ens2).nu
        assert nu1 == pytest.approx(nu2, rel=1e-8)

    def test_rank_deficient_stack(self):
        phi = np.eye(2, 4)
        f = [np.array([[1.0, 0.0], [2.0, 0.0]]) for _ in range(3)]
        ens = manual_ensemble([np.eye(4)] * 3, f, phi)
        with pytest.raises(RankDeficient):
            eval_metrics.task_diversity_constants(ens)

    def test_lambda_range_over_sources(self):
        phi = np.eye(2, 4)
        f = [np.eye(2) for _ in range(3)]
        sigmas = [3.0 * np.eye(4), 0.5 * np.eye(4), np.eye(4)]
        ens = manual_ensemble(sigmas, f, phi)
        report = eval_metrics.task_diversity_constants(ens)
        assert report.lambda_bar == pytest.approx(3.0)
        assert report.lambda_under == pytest.approx(0.5)


class TestQuantiles:
    def test_median_exact(self):
        assert eval_metrics.summarize_quantiles([1, 2, 3], [0.5]) == [2.0]

    def test_median_interpolated(self):
        assert eval_metrics.summarize_quantiles([1, 3], [0.5]) == [2.0]

    def test_linear_interpolation(self):
        vals = list(range(100))
        assert eval_metrics.summarize_quantiles(vals, [0.2])[0] == pytest.approx(
            19.8
        )

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            eval_metrics.summarize_quantiles([], [0.5])

    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([-1.0, 0.0, 1.0, 2.5, np.inf, -np.inf, np.nan]),
                    st.floats(-1e6, 1e6),
                ),
                min_size=1,
                max_size=9,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_matches_numpy_quantile(self, rows, qs):
        # Ties, infinities, NaNs and one-value slices included: the values
        # are np.quantile's, and so are the bits when no zero is signed.
        values = np.array(rows)
        got = eval_metrics.summarize_quantiles(values, qs)
        with np.errstate(invalid="ignore"):
            want = np.moveaxis(np.quantile(values, qs, axis=-1), 0, -1)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        if not np.any(values == 0.0):
            kept = ~np.isnan(want)
            assert np.array_equal(got[kept].view(np.int64), want[kept].view(np.int64))
