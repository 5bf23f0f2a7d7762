"""Tests for the Monte-Carlo bound probes at reduced desk scale."""

import csv
import hashlib
import json
import statistics
import tracemalloc

import numpy as np
import pytest

from mtil import cli, lti_env, theory_probe
from mtil.data_gen import SeedTree, rollout_expert
from mtil.errors import UnstablePair
from mtil.lti_env import ExpertTask, LinearSystem
from mtil.theory_probe import MartingaleSetup


def scalar_task(a_cl=0.5):
    system = LinearSystem(
        A=np.array([[a_cl + 0.3]]), B=np.array([[1.0]]), sigma_z=0.0
    )
    task = lti_env.make_task(system, np.array([[-0.3]]))
    return system, task


class TestVerdictRules:
    def test_rate_at_three_se_passes_one_more_failure_fails(self):
        # p (1 - p) / n = 2^-8, so se = 1/16 and p + 3 se = 0.6875 = 44/64,
        # all exact.
        assert theory_probe._rate_holds(44, 64, 0.5) is True
        assert theory_probe._rate_holds(45, 64, 0.5) is False

    def test_mean_at_three_se_passes_just_beyond_fails(self):
        # Mean 1 and se = sqrt(2) / sqrt(2) = 1, exactly.
        stats = np.array([0.0, 2.0])
        assert theory_probe._mean_verdict(stats, -np.inf, -2.0) == (1.0, 1.0, True)
        assert theory_probe._mean_verdict(stats, 4.0, np.inf) == (1.0, 1.0, True)
        _, _, passed = theory_probe._mean_verdict(
            stats, -np.inf, np.nextafter(-2.0, -np.inf)
        )
        assert passed is False
        _, _, passed = theory_probe._mean_verdict(
            stats, np.nextafter(4.0, np.inf), np.inf
        )
        assert passed is False

    def test_one_sample_has_no_slack(self):
        assert theory_probe._mean_verdict(np.array([3.0]), 0.0, 2.0) == (
            3.0, 0.0, False
        )

    @pytest.mark.parametrize(
        "stat, bound, margin",
        [
            (0.0, 0.0, 0.0),
            (2.0, 0.0, np.inf),
            (2.0, -1.0, np.inf),
            (3.0, 2.0, 1.5),
            (np.array([0.0, 1.0, 0.0]), np.array([0.0, 4.0, 1.0]), 0.25),
            (np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.inf),
        ],
    )
    def test_margin(self, stat, bound, margin):
        value = theory_probe._margin(stat, bound)
        assert type(value) is float and value == margin


class TestCovarianceConcentration:
    def test_scalar_small(self):
        system, task = scalar_task()
        report = theory_probe.verify_covariance_concentration(
            system, task, N=100, T=50, trials=50,
            rng=SeedTree(root=1).child("c").stream(),
        )
        assert report.failures / report.trials <= 0.1
        assert report.passed

    def test_single_sample_fails_rank(self):
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, [1.0, 2.0])
        task = lti_env.make_task(base, gains[0])
        report = theory_probe.verify_covariance_concentration(
            base, task, N=1, T=1, trials=20,
            rng=SeedTree(root=2).child("c").stream(),
        )
        assert report.failures == 20

    @staticmethod
    def planar_task():
        # Two states, one input and sigma_z > 0, so that every block also
        # draws actuator noise.
        system = LinearSystem(
            A=np.array([[0.6, 0.2], [-0.1, 0.4]]), B=np.array([[1.0], [0.5]]),
            sigma_z=0.7,
        )
        return system, lti_env.make_task(system, np.array([[-0.2, 0.1]]))

    @pytest.mark.parametrize("budget", [2**16, 500, 1])
    def test_blocks_match_successive_rollouts(self, budget, monkeypatch):
        # Each trial's covariance has the bits of its own `rollout_expert`
        # call, whatever number of trials a block rolls at once.
        system, task = self.planar_task()
        N, T, trials = 7, 5, 30
        monkeypatch.setattr(theory_probe, "BLOCK_DOUBLES", budget)
        covs = theory_probe._empirical_covariances(
            system, task, N, T, trials, np.random.default_rng(4)
        )
        rng = np.random.default_rng(4)
        for cov in covs:
            X = rollout_expert(system, task, T, N, rng).X
            assert np.array_equal(cov, (X.T @ X) / X.shape[0])

    def test_report_does_not_depend_on_the_budget(self, monkeypatch):
        system, task = self.planar_task()

        def report():
            return theory_probe.verify_covariance_concentration(
                system, task, N=7, T=5, trials=30, rng=np.random.default_rng(5)
            )

        default = report()
        monkeypatch.setattr(theory_probe, "BLOCK_DOUBLES", 200)
        assert report() == default


class TestHansonWright:
    def test_padded_rank_one(self):
        R = np.zeros((3, 3))
        R[0, 0] = 1.0
        report = theory_probe.verify_hanson_wright(
            R, [1.0], trials=50_000, rng=SeedTree(root=5).child("h").stream()
        )
        freq, bound = report.details["per_eps"][1.0]
        assert bound == pytest.approx(np.exp(-1.0 / 16.0))
        # chi-square(1) upper tail at 2, from the numerical-integration oracle.
        from math import erfc, sqrt

        assert freq == pytest.approx(erfc(sqrt(2.0) / sqrt(2.0)), abs=0.01)
        assert report.passed

    def test_large_eps_zero_frequency(self):
        report = theory_probe.verify_hanson_wright(
            np.eye(4), [50.0], trials=10_000,
            rng=SeedTree(root=6).child("h").stream(),
        )
        freq, _ = report.details["per_eps"][50.0]
        assert freq == 0.0
        assert report.passed

    def test_zero_bound_zero_frequency_margin(self):
        # exp(-2500 eps) underflows to 0 and no draw reaches the threshold:
        # the margin is 0 at 0/0 (inf before the shared margin rule).
        report = theory_probe.verify_hanson_wright(
            np.eye(2), [1e4], trials=100, rng=np.random.default_rng(0)
        )
        assert report.details["per_eps"][1e4] == (0.0, 0.0)
        assert report.margin == 0.0
        assert report.passed

    def test_identity_grid(self):
        report = theory_probe.verify_hanson_wright(
            np.eye(10), [0.5], trials=20_000,
            rng=SeedTree(root=7).child("h").stream(),
        )
        assert report.passed
        assert report.margin < 1.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            theory_probe.verify_hanson_wright(
                np.zeros((2, 2)), [1.0], 10, np.random.default_rng(0)
            )


class TestSelfNormalized:
    def test_degenerate_noise(self):
        # sigma = 0: every statistic and every bound is 0, so no trial fails
        # and each margin takes the zero-statistic branch.
        setup = MartingaleSetup(H=2, T=50, dim_x=2, dim_eta=1, sigma=0.0)
        report = theory_probe.verify_self_normalized(
            setup, delta=0.05, trials=200,
            rng=SeedTree(root=8).child("m").stream(),
            regressor_kind="gaussian-iid",
        )
        assert report.details["mean_statistic"] == 0.0
        assert report.details["mean_bound_joint"] == 0.0
        assert report.failures == 0
        assert report.margin == 0.0

    def test_joint_bound_beats_union(self):
        setup = MartingaleSetup(H=4, T=100, dim_x=2, dim_eta=2, sigma=1.0)
        report = theory_probe.verify_self_normalized(
            setup, delta=0.05, trials=500,
            rng=SeedTree(root=10).child("m").stream(),
            regressor_kind="gaussian-iid",
        )
        assert report.details["mean_bound_joint"] < report.details["mean_bound_union"]

    def test_state_feedback_small(self):
        setup = MartingaleSetup(H=1, T=100, dim_x=1, dim_eta=1, sigma=1.0)
        report = theory_probe.verify_self_normalized(
            setup, delta=0.05, trials=2_000,
            rng=SeedTree(root=11).child("m").stream(),
            regressor_kind="state-feedback",
        )
        assert report.passed

    def test_unknown_kind(self):
        setup = MartingaleSetup(H=1, T=10, dim_x=1, dim_eta=1, sigma=1.0)
        with pytest.raises(ValueError):
            theory_probe.verify_self_normalized(
                setup, 0.05, 10, np.random.default_rng(0), regressor_kind="bogus"
            )


    @pytest.mark.parametrize("kind", ["gaussian-iid", "state-feedback"])
    def test_matches_einsum_reference(self, kind):
        setup = MartingaleSetup(H=3, T=40, dim_x=2, dim_eta=2, sigma=1.0)
        report = theory_probe.verify_self_normalized(
            setup, delta=0.05, trials=2_000,
            rng=SeedTree(root=21).child("m").stream(), regressor_kind=kind,
        )
        # Same draws, statistic and bounds summed with einsum.
        rng = SeedTree(root=21).child("m").stream()
        if kind == "gaussian-iid":
            # The Bartlett factor R of the regressors (2 x 2 here) and Z = Q'E,
            # drawn in the documented order; V = R'R and S = R'Z.
            chi = rng.chisquare([40, 39], size=(2_000, 3, 2))
            R = np.zeros((2_000, 3, 2, 2))
            R[..., 0, 0] = np.sqrt(chi[..., 0])
            R[..., 1, 1] = np.sqrt(chi[..., 1])
            R[..., 0, 1] = rng.standard_normal((2_000, 3, 1))[..., 0]
            Z = rng.standard_normal((2_000, 3, 2, 2))
            Vbar = np.eye(2) + np.einsum("bhki,bhkj->bhij", R, R)
            S = np.einsum("bhki,bhkj->bhij", R, Z)
        else:
            # Step-major draws: eta_t of every trial, then eta_{t+1}.
            eta = np.moveaxis(rng.standard_normal((40, 2_000, 3, 2)), 0, 2)
            x = np.empty(eta.shape)
            x[:, :, 0, :] = 1.0
            for t in range(39):
                x[:, :, t + 1, :] = 0.5 * x[:, :, t, :] + eta[:, :, t, :]
            Vbar = np.eye(2) + np.einsum("bhti,bhtj->bhij", x, x)
            S = np.einsum("bhti,bhtj->bhij", x, eta)
        stat = np.einsum("bhim,bhim->b", S, np.linalg.solve(Vbar, S))
        logdet = np.linalg.slogdet(Vbar)[1].sum(axis=1)
        bound = 2.0 * (logdet + np.log(1.0 / 0.05))
        union = 2.0 * (logdet + 3 * np.log(3 / 0.05))
        details = report.details
        assert details["mean_statistic"] == pytest.approx(np.mean(stat), rel=1e-9)
        assert details["mean_bound_joint"] == pytest.approx(np.mean(bound), rel=1e-9)
        assert details["mean_bound_union"] == pytest.approx(np.mean(union), rel=1e-9)
        assert report.margin == pytest.approx(np.max(stat / bound), rel=1e-9)
        assert report.failures == np.count_nonzero(stat > bound)

    def test_state_feedback_sums_match_paths(self):
        # The streamed sums against the path formula, x_t' x and x_t' eta of
        # whole paths, on the same step-major draws.
        setup = MartingaleSetup(H=3, T=40, dim_x=2, dim_eta=2, sigma=0.7)
        Vbar, S = theory_probe._state_feedback_sums(
            setup, 500, np.random.default_rng(31)
        )
        draws = np.random.default_rng(31).standard_normal((40, 500, 3, 2))
        eta = 0.7 * np.moveaxis(draws, 0, 2)  # (trials, H, T, m)
        x = np.empty(eta.shape)
        x[:, :, 0] = 1.0
        for t in range(39):
            x[:, :, t + 1] = 0.5 * x[:, :, t] + eta[:, :, t]
        x_t = np.swapaxes(x, -1, -2)
        ref_V, ref_S = np.eye(2) + x_t @ x, x_t @ eta
        assert np.abs(Vbar - ref_V).max() <= 1e-12 * np.abs(ref_V).max()
        assert np.abs(S - ref_S).max() <= 1e-12 * np.abs(ref_S).max()
        stat, logdet = theory_probe._reduce_statistic(Vbar, S, 2)
        ref_stat, ref_logdet = theory_probe._reduce_statistic(ref_V, ref_S, 2)
        np.testing.assert_allclose(stat, ref_stat, rtol=1e-12)
        np.testing.assert_allclose(logdet, ref_logdet, rtol=1e-12)

    @staticmethod
    def path_reference(setup, delta, trials, rng):
        """Per-trial statistic and joint bound from fully simulated
        gaussian-iid regressor and noise paths, in blocks of 5000 trials."""
        H, T, d, m = setup.H, setup.T, setup.dim_x, setup.dim_eta
        stat = np.empty(trials)
        bound = np.empty(trials)
        for start in range(0, trials, 5_000):
            n = min(5_000, trials - start)
            x = rng.standard_normal((n, H, T, d))
            eta = setup.sigma * rng.standard_normal((n, H, T, m))
            x_t = np.swapaxes(x, -1, -2)
            Vbar = np.eye(d) + x_t @ x
            S = x_t @ eta
            stat[start:start + n] = np.einsum(
                "bhim,bhim->b", S, np.linalg.solve(Vbar, S)
            )
            logdet = np.linalg.slogdet(Vbar)[1].sum(axis=1)
            bound[start:start + n] = (
                2.0 * setup.sigma**2 * (0.5 * m * logdet + np.log(1.0 / delta))
            )
        return stat, bound

    @pytest.mark.parametrize(
        "H, T, d, m, sigma",
        [(1, 5, 3, 2, 0.7), (2, 2, 3, 1, 1.3), (3, 40, 2, 2, 1.0)],
    )
    def test_gaussian_iid_law_matches_paths(self, H, T, d, m, sigma):
        # The (V, S) sampler and the path simulation agree in law: their
        # means and failure counts differ by at most 4 Monte-Carlo SEs.
        setup = MartingaleSetup(H=H, T=T, dim_x=d, dim_eta=m, sigma=sigma)
        trials, delta = 200_000, 0.3
        tree = SeedTree(root=23).child("law", H * T)
        report = theory_probe.verify_self_normalized(
            setup, delta, trials, tree.child("exact").stream(), "gaussian-iid"
        )
        stat, bound = self.path_reference(
            setup, delta, trials, tree.child("paths").stream()
        )
        # Both sides share one law, so the SE of a difference of means is
        # sqrt(2) times that of one mean.
        for value, ref in (
            (report.details["mean_statistic"], stat),
            (report.details["mean_bound_joint"], bound),
        ):
            se = np.std(ref, ddof=1) * np.sqrt(2.0 / trials)
            assert abs(value - np.mean(ref)) <= 4.0 * se
        ref_failures = int(np.count_nonzero(stat > bound))
        p = (report.failures + ref_failures) / (2 * trials)
        assert abs(report.failures - ref_failures) <= 4.0 * np.sqrt(
            2 * trials * p * (1 - p)
        )


class TestMaximalInequality:
    def test_single_step(self):
        D = np.zeros((1, 4))
        D[0, 0] = 2.0
        report = theory_probe.verify_maximal_inequality(
            D, np.eye(4), T=1, trials=20_000,
            rng=SeedTree(root=12).child("x").stream(),
        )
        # With T = 1 the estimate is just E||Dx||^2 = trace, a third of the bound.
        assert report.details["estimate"] == pytest.approx(4.0, rel=0.05)
        assert report.passed

    def test_rank_one_t10(self):
        D = np.zeros((1, 10))
        D[0, 0] = 1.0
        report = theory_probe.verify_maximal_inequality(
            D, np.eye(10), T=10, trials=20_000,
            rng=SeedTree(root=13).child("x").stream(),
        )
        assert report.margin < 1.0
        assert report.passed

    def test_zero_gain(self):
        report = theory_probe.verify_maximal_inequality(
            np.zeros((1, 3)), np.eye(3), T=5, trials=100,
            rng=SeedTree(root=14).child("x").stream(),
        )
        assert report.details["estimate"] == 0.0
        assert report.margin == 0.0
        assert report.passed


    @staticmethod
    def x_space_reference(D, sigma, T, trials, rng):
        """max_t ||D x_t||^2 with every x_t ~ N(0, sigma) drawn in full."""
        L = np.linalg.cholesky(sigma)
        x = rng.standard_normal((trials, T, sigma.shape[0])) @ L.T
        stats = np.sum((x @ D.T) ** 2, axis=2).max(axis=1)
        return stats.mean(), stats.std(ddof=1) / np.sqrt(trials)

    @staticmethod
    def gains(name):
        if name == "random":
            return np.random.default_rng(22).standard_normal((1, 6))
        return np.zeros((1, 6))

    @pytest.mark.parametrize("name", ["random", "zero"])
    @pytest.mark.parametrize("T", [1, 10])
    def test_matches_x_space_sampler(self, name, T):
        M = np.random.default_rng(23).standard_normal((6, 6))
        sigma = M @ M.T + 0.5 * np.eye(6)
        D = self.gains(name)
        report = theory_probe.verify_maximal_inequality(
            D, sigma, T=T, trials=20_000,
            rng=SeedTree(root=24).child("x", T).stream(),
        )
        ref, ref_se = self.x_space_reference(
            D, sigma, T, 20_000, np.random.default_rng(25)
        )
        gap = abs(report.details["estimate"] - ref)
        assert gap <= 4.0 * np.hypot(report.details["se"], ref_se)
        trace = float(np.trace(D @ sigma @ D.T))
        assert report.details["bound"] == pytest.approx(
            3.0 * (1.0 + np.log(T)) * trace, rel=1e-12
        )
        if T == 1:
            # With one step the estimate is E||Dx||^2 = tr(D sigma D').
            assert report.details["estimate"] == pytest.approx(
                trace, rel=4.0 * report.details["se"] / max(trace, 1e-300)
            )
        assert report.passed

    def test_upper_quantile_matches_stdlib(self):
        # The AS241 port against statistics.NormalDist, which evaluates the
        # same rational functions: Phi-bar^{-1}(q) = -inv_cdf(q).
        inv_cdf = statistics.NormalDist().inv_cdf
        q = np.concatenate(
            [
                np.logspace(-300, np.log10(0.5), 3000),
                np.random.default_rng(32).uniform(0.0, 0.5, 3000),
                [0.075, 0.5],
            ]
        )
        z = theory_probe._normal_upper_quantile(q)
        ref = np.array([-inv_cdf(p) for p in q])
        assert np.all(np.abs(z - ref) <= 4.0 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("T", [1, 10, 100])
    def test_one_row_law_matches_paths(self, T):
        # With one row in D the probe inverts the CDF of F^2 max_t h_t^2;
        # paths that draw every h_t agree with it in the mean within 4
        # combined standard errors.
        M = np.random.default_rng(33).standard_normal((4, 4))
        sigma = M @ M.T + 0.5 * np.eye(4)
        D = np.array([[0.6, -1.3, 0.4, 0.0]])
        trials = 40_000
        report = theory_probe.verify_maximal_inequality(
            D, sigma, T=T, trials=trials,
            rng=SeedTree(root=34).child("x", T).stream(),
        )
        f_sq = (D @ sigma @ D.T).item()
        rng = np.random.default_rng(35)
        ref = np.concatenate(
            [
                f_sq * np.square(rng.standard_normal((2_000, T))).max(axis=1)
                for _ in range(trials // 2_000)
            ]
        )
        ref_se = ref.std(ddof=1) / np.sqrt(trials)
        gap = abs(report.details["estimate"] - ref.mean())
        assert gap <= 4.0 * np.hypot(report.details["se"], ref_se)
        assert report.name == f"maximal_inequality[T={T}]"
        assert report.passed

    def test_blocks_draw_as_one_fresh_draw(self):
        # Two full blocks and a short last one, all drawn into the same
        # buffer; the quantile takes eight doubles a trial.
        D = np.array([[2.0, 0.0, 0.0]])
        T, trials = 100, 20_000
        size = theory_probe._block_size(8)
        assert 2 * size < trials < 3 * size
        report = theory_probe.verify_maximal_inequality(
            D, np.eye(3), T=T, trials=trials, rng=np.random.default_rng(27)
        )
        u = np.random.default_rng(27).random(trials)
        with np.errstate(divide="ignore"):
            z = theory_probe._normal_upper_quantile(-0.5 * np.expm1(np.log(u) / T))
        stats = 4.0 * (z * z)
        assert report.details["estimate"] == float(stats.mean())
        assert report.details["se"] == float(stats.std(ddof=1) / np.sqrt(trials))

    @pytest.mark.parametrize("rows", [0, 2])
    def test_refuses_a_d_without_exactly_one_row(self, rows):
        with pytest.raises(ValueError, match="one-row D"):
            theory_probe.verify_maximal_inequality(
                np.ones((rows, 3)), np.eye(3), T=5, trials=10,
                rng=np.random.default_rng(0),
            )


class TestBlockBudget:
    @pytest.mark.parametrize("probe", cli.PROBE_NAMES)
    def test_reference_scale_peak_memory(self, probe):
        # Buffers that grow with the trial count are cut into blocks of
        # BLOCK_DOUBLES, so each probe peaks at a few MiB at its reference
        # scale; maximal took 24 MiB with blocks of a million normals.
        tracemalloc.start()
        try:
            cli.run_probe_battery((probe,), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    @pytest.mark.parametrize("probe", cli.PROBE_NAMES)
    def test_reports_do_not_depend_on_the_budget(self, probe, monkeypatch):
        # 7000 doubles leave a short last block in every blocked loop at the
        # reference scales; block cuts only decide where a reduction starts.
        default = cli.run_probe_battery((probe,), 0)
        monkeypatch.setattr(theory_probe, "BLOCK_DOUBLES", 7000)
        assert cli.run_probe_battery((probe,), 0) == default


class TestTrackingSiss:
    def test_perfect_gain(self):
        system, task = scalar_task()
        report = theory_probe.verify_tracking_and_siss(
            system, task, task.K, T=50, delta_prime=0.05, trials=100,
            rng=SeedTree(root=15).child("t").stream(),
        )
        assert report.failures == 0
        assert report.details["det_violations"] == 0
        assert report.passed

    def test_deterministic_display_every_trial(self):
        system, task = scalar_task()
        report = theory_probe.verify_tracking_and_siss(
            system, task, task.K + 0.02, T=50, delta_prime=0.05, trials=500,
            rng=SeedTree(root=16).child("t").stream(),
        )
        assert report.details["det_violations"] == 0
        assert report.passed

    def test_zero_bound_margin_is_inf(self):
        # delta' = T e^(1/4) makes 1 + 4 log(T / delta') exactly 0, so the
        # bound is 0 under a positive statistic: margin inf (0.0 before the
        # shared margin rule).
        system, task = scalar_task()
        report = theory_probe.verify_tracking_and_siss(
            system, task, task.K + 0.02, T=50, delta_prime=50 * np.exp(0.25),
            trials=10, rng=SeedTree(root=16).child("t").stream(),
        )
        assert report.details["bound_hp"] == 0.0
        assert report.margin == np.inf

    def test_perfect_gain_margin_is_zero(self):
        # K_hat = K_star: no deviation and a zero bound, 0/0.
        system, task = scalar_task()
        report = theory_probe.verify_tracking_and_siss(
            system, task, task.K, T=20, delta_prime=0.05, trials=10,
            rng=SeedTree(root=15).child("t").stream(),
        )
        assert report.details["bound_hp"] == 0.0
        assert report.margin == 0.0

    def test_precondition_not_met(self):
        system, task = scalar_task()
        report = theory_probe.verify_tracking_and_siss(
            system, task, task.K + 0.45, T=50, delta_prime=0.05, trials=10,
            rng=SeedTree(root=17).child("t").stream(),
        )
        assert report.trials == 0
        assert not report.details["precondition_met"]
        assert not report.passed


class TestScalarSandwich:
    def test_reference_values(self):
        report = theory_probe.verify_scalar_sandwich(
            a=0.8, k_star=-0.3, eps=0.05, T=200, trials=5_000,
            rng=SeedTree(root=18).child("s").stream(),
        )
        assert report.details["er_appendix"] == pytest.approx(1.0 / 300.0)
        assert report.details["lower"] == pytest.approx(1.0 / 150.0)
        assert report.passed

    def test_zero_eps(self):
        report = theory_probe.verify_scalar_sandwich(
            a=0.8, k_star=-0.3, eps=0.0, T=100, trials=1_000,
            rng=SeedTree(root=19).child("s").stream(),
        )
        assert report.details["estimate"] == 0.0
        assert report.details["upper"] == 0.0
        assert report.margin == 0.0  # 0/0
        assert report.passed

    def test_unstable_pair(self):
        with pytest.raises(UnstablePair):
            theory_probe.verify_scalar_sandwich(
                a=0.8, k_star=0.3, eps=0.05, T=10, trials=10,
                rng=np.random.default_rng(0),
            )


class TestProbeCsv:
    def test_round_trip(self, tmp_path):
        report = theory_probe.verify_scalar_sandwich(
            a=0.8, k_star=-0.3, eps=0.0, T=10, trials=100,
            rng=SeedTree(root=20).child("s").stream(),
        )
        path = tmp_path / "verify.csv"
        theory_probe.write_probe_csv([report], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "name,trials,failures,delta_target,margin,pass"
        assert lines[1].startswith("scalar_sandwich,100,0,")
        assert lines[1].endswith("true")


class TestProbeDetails:
    def test_json_safe(self):
        value = {0.5: (1, np.float64(2.0)), "flag": True,
                 "bad": np.float64("nan"), "big": -np.inf}
        assert theory_probe._json_safe(value) == {
            "0.5": [1, 2.0], "flag": True, "bad": "nan", "big": "-inf"
        }

    def test_one_entry_per_csv_row(self, tmp_path):
        # verify_details.json lists the reports of verify.csv in its row
        # order, and is the same bytes at one seed.
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(
                ["verify", "--probe", "hanson_wright", "--out", str(out)]
            ) == 0
            with open(out / "verify.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            entries = json.loads((out / "verify_details.json").read_text())
            assert [e["name"] for e in entries] == [r["name"] for r in rows]
            assert list(entries[0]) == [
                "name", "trials", "failures", "delta_target", "margin",
                "passed", "details",
            ]
            assert entries[0]["trials"] == int(rows[0]["trials"])
            assert entries[0]["margin"] == float(rows[0]["margin"])
            assert list(entries[0]["details"]["per_eps"]) == ["0.5", "1.0", "2.0"]
            digests.append(hashlib.sha256(
                (out / "verify_details.json").read_bytes()
            ).hexdigest())
        assert digests[0] == digests[1]

    def test_all_probes_write_strict_json(self, tmp_path):
        # Every probe's details, a precondition-not-met tracking report
        # (margin nan) included, load back under strict JSON.
        system, task = scalar_task()
        reports = cli.run_probe_battery(
            ("covariance", "self_normalized", "maximal", "sandwich"), 0
        ) + [theory_probe.verify_tracking_and_siss(
            system, task, K_hat=np.array([[5.0]]), T=10, delta_prime=0.05,
            trials=10, rng=np.random.default_rng(0),
        )]
        path = tmp_path / "verify_details.json"
        theory_probe.write_probe_details(reports, str(path))

        def refuse(constant):
            raise ValueError(constant)

        entries = json.loads(path.read_text(), parse_constant=refuse)
        assert [e["name"] for e in entries] == [r.name for r in reports]
        assert entries[-1]["margin"] == "nan"


class TestVerifyGolden:
    # verify.csv at seed 0 for the probes whose draws and arithmetic are
    # pinned; the tracking row also pins the batched deviation-form
    # `coupled_rollout`, which the sweep's scoring shares.
    @pytest.mark.parametrize(
        "probe, digest",
        [
            ("tracking",
             "cac47e59ccd5d0c31d21f6bb2cb77a82faafa6b2f2bd8a8b7a7a7946e5453cef"),
            ("sandwich",
             "ce7f0a8cfb044972a87d05410c99121ba1eb7dd9ff4b5ccd68e1ac1c7ce2b424"),
            ("covariance",
             "dc974d5e4e88d670f9055deba71f99e83108deb51668efc605336473f5cea4bf"),
            ("hanson_wright",
             "7d8491d43650ebb36741b954ca1b786cf00075ad2837d4b9884dc6cc7acd8de1"),
            ("self_normalized",
             "0696c2cd7fa9501ad029ca1098cabf1ee11553118ff0c8524e2997c7c5636b3e"),
            ("maximal",
             "653fc016f0dca4b40188c50d8dc2c64aa6cea7b9517f3f9a24a884067ad3f595"),
        ],
    )
    def test_verify_csv_digest(self, tmp_path, probe, digest):
        assert self.verify_csv_digest(tmp_path, probe, 0) == digest

    # The same at seed 3, where every probe draws other numbers.
    @pytest.mark.parametrize(
        "probe, digest",
        [
            ("tracking",
             "2d6a0ab8c969617cceba95a8c6467e05a107ef611edd491addbfa7b0a41d9c01"),
            ("sandwich",
             "a702b875877f2b1cb32ca12220201ee58678da33c88aa8a0b2d61385a309b2ba"),
            ("covariance",
             "3aafbfd531fe31fad5f39999db8b5496556115cb4b379ef33ca92e0e2f22debf"),
            ("hanson_wright",
             "d04f0491770114c5f762d81c58fcacf020f52df53830a7380fef724903b6eaab"),
            ("self_normalized",
             "960a7f31cd83e0a8a05dc1e613927ce6f57d435d464be1837336bd74f1729a8e"),
            ("maximal",
             "d7e1587f1d9539ca50c9142cb3b2598257e0ca76bdef517bed06c12ebf7e5d7c"),
        ],
    )
    def test_verify_csv_digest_seed_3(self, tmp_path, probe, digest):
        assert self.verify_csv_digest(tmp_path, probe, 3) == digest

    @staticmethod
    def verify_csv_digest(tmp_path, probe, seed):
        path = tmp_path / "verify.csv"
        theory_probe.write_probe_csv(
            cli.run_probe_battery((probe,), seed), str(path)
        )
        return hashlib.sha256(path.read_bytes()).hexdigest()

    # verify_details.json of `mtil verify --probe all`: every report's
    # fields and details, so a change to a decision rule, a margin or a
    # detail key or its order shows here even where verify.csv keeps.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "692fbfb5214587c2881614258b3b06ccd9c0bbd91413cd6fa89d50bc62110a36"),
            (3, "09585bdeebc643d1f4fb218226b11a5cb5101bc9bd13f1b2c9b8a1b9f984a352"),
        ],
    )
    def test_verify_details_digest(self, tmp_path, seed, digest):
        cli.main(["verify", "--probe", "all", "--out", str(tmp_path),
                  "--seed", str(seed)])
        path = tmp_path / "verify_details.json"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_state_feedback_rows(self, tmp_path):
        # The state-feedback rows stream their sums along the paths and keep
        # their bits whatever the gaussian-iid sampler does; pinned row by row
        # so that a change to one regressor kind cannot hide a drift in the
        # other.
        path = tmp_path / "verify.csv"
        theory_probe.write_probe_csv(
            cli.run_probe_battery(("self_normalized",), 0), str(path)
        )
        rows = [r for r in path.read_text().splitlines() if "state-feedback" in r]
        assert rows == [
            '"self_normalized[state-feedback,H=1]",10000,7,0.05,1.5440081108052015,true',
            '"self_normalized[state-feedback,H=4]",10000,1,0.05,1.024504017664607,true',
        ]
