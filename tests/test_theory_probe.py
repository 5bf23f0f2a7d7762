"""Tests for the Monte-Carlo bound probes at reduced desk scale."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mtil import cli, lti_env, theory_probe
from mtil.data_gen import SeedTree
from mtil.errors import UnstablePair
from mtil.lti_env import ExpertTask, LinearSystem
from mtil.theory_probe import MartingaleSetup


def scalar_task(a_cl=0.5):
    system = LinearSystem(A=np.array([[a_cl + 0.3]]), B=np.array([[1.0]]))
    task = lti_env.make_task(system, np.array([[-0.3]]), sigma_z=0.0)
    return system, task


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
        task = lti_env.make_task(base, gains[0], sigma_z=1.0)
        report = theory_probe.verify_covariance_concentration(
            base, task, N=1, T=1, trials=20,
            rng=SeedTree(root=2).child("c").stream(),
        )
        assert report.failures == 20


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
            shape = (2_000, 3, 40, 2)
            eta = rng.standard_normal(shape)
            x = np.empty(shape)
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
            setup, delta, trials, tree.child("exact").stream()
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
            np.zeros((2, 3)), np.eye(3), T=5, trials=100,
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
        rng = np.random.default_rng(22)
        if name == "random":
            return rng.standard_normal((2, 6))
        if name == "repeated-row":
            row = rng.standard_normal(6)
            return np.vstack([row, row])
        if name == "tall":
            return rng.standard_normal((8, 6))
        return np.zeros((2, 6))

    @pytest.mark.parametrize("name", ["random", "repeated-row", "tall", "zero"])
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

    def test_blocks_draw_as_one_fresh_draw(self):
        # Two full blocks and a short last one, all drawn into the same
        # buffers; each trial takes T doubles per row of D.
        D = np.random.default_rng(26).standard_normal((2, 3))
        T, trials = 100, 700
        size = theory_probe._block_size(T * 2)
        assert 2 * size < trials < 3 * size
        report = theory_probe.verify_maximal_inequality(
            D, np.eye(3), T=T, trials=trials, rng=np.random.default_rng(27)
        )
        F = np.linalg.qr(D.T, mode="r")
        h = np.random.default_rng(27).standard_normal((trials, T, 2))
        stats = np.sum((h @ F) ** 2, axis=2).max(axis=1)
        assert report.details["estimate"] == float(stats.mean())
        assert report.details["se"] == float(stats.std(ddof=1) / np.sqrt(trials))


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


class TestVerifyGolden:
    # verify.csv at seed 0 for the probes whose draws and arithmetic are
    # pinned; the tracking row also pins the batched deviation-form
    # `coupled_rollout`, which the sweep's scoring shares.
    @pytest.mark.parametrize(
        "probe, digest",
        [
            ("tracking",
             "57cf6e9da59382c93eddc44c7a67b4d966156f6ee2df37e4796473c71ba891ff"),
            ("sandwich",
             "ce7f0a8cfb044972a87d05410c99121ba1eb7dd9ff4b5ccd68e1ac1c7ce2b424"),
            ("covariance",
             "c9a977a21c98d0675e7915cb9c9a5baac4c47cb7b72ca709741919c6bdca79a6"),
            ("hanson_wright",
             "7d8491d43650ebb36741b954ca1b786cf00075ad2837d4b9884dc6cc7acd8de1"),
            ("self_normalized",
             "4b10d5473b50623dcc28910a9c598102b3e929979761c824394b4d136f1f9a29"),
            ("maximal",
             "020195db82789a6e90740e3bf93f41ac36c25da8487f4ce6d4b2f3e48e5c0a54"),
        ],
    )
    def test_verify_csv_digest(self, tmp_path, probe, digest):
        assert self.verify_csv_digest(tmp_path, probe, 0) == digest

    # The same at seed 3, where every probe draws other numbers.
    @pytest.mark.parametrize(
        "probe, digest",
        [
            ("tracking",
             "e8e5c4c562f9c2ef81f75cf0daaafb2950b10df336b407c8c41f7dcf8bb8c5dd"),
            ("sandwich",
             "a702b875877f2b1cb32ca12220201ee58678da33c88aa8a0b2d61385a309b2ba"),
            ("covariance",
             "3d7c1a4a3c657e127d143ad2490c5d507713fca17ee85a2a230172cf3c67c938"),
            ("hanson_wright",
             "d04f0491770114c5f762d81c58fcacf020f52df53830a7380fef724903b6eaab"),
            ("self_normalized",
             "7918b16c2f184c9d2cecb51afc48d0d78363b8a7aacbd255b5cc7b704e42296b"),
            ("maximal",
             "e54549e548c1bbc499d3731c1504da46e4368423d94b61f2275ff7383aea0894"),
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

    def test_state_feedback_rows(self, tmp_path):
        # The state-feedback rows simulate full paths and keep their bits
        # whatever the gaussian-iid sampler does; pinned row by row so that a
        # change to one regressor kind cannot hide a drift in the other.
        path = tmp_path / "verify.csv"
        theory_probe.write_probe_csv(
            cli.run_probe_battery(("self_normalized",), 0), str(path)
        )
        rows = [r for r in path.read_text().splitlines() if "state-feedback" in r]
        assert rows == [
            '"self_normalized[state-feedback,H=1]",10000,7,0.05,1.22064335977944,true',
            '"self_normalized[state-feedback,H=4]",10000,2,0.05,1.0403961484238198,true',
        ]
