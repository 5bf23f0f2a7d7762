"""Tests for seeded streams, trajectory sampling, and the coupled rollout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtil import lti_env
from mtil.control_math import cholesky_factor
from mtil.data_gen import (
    SeedTree,
    coupled_rollout,
    expert_recurrence,
    rollout_expert,
    sample_noise,
)
from mtil.errors import CholeskyFailure, NonFiniteData
from mtil.eval_metrics import evaluate_controller


def scalar_setup(a=0.8, k=-0.3, sigma_z=0.0):
    system = lti_env.LinearSystem(
        A=np.array([[a]]), B=np.array([[1.0]]), sigma_z=sigma_z
    )
    task = lti_env.make_task(system, np.array([[k]]))
    return system, task


class TestSeedTree:
    def test_same_path_identical(self):
        tree = SeedTree(root=123)
        a = tree.child("traj", 0).stream().standard_normal(100)
        b = tree.child("traj", 0).stream().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        tree = SeedTree(root=123)
        a = tree.child("traj", 0).stream().standard_normal(1)
        b = tree.child("traj", 1).stream().standard_normal(1)
        assert a[0] != b[0]

    def test_clt_mean(self):
        draws = SeedTree(root=9).child("x").stream().standard_normal(1_000_000)
        assert abs(draws.mean()) < 4 / np.sqrt(1_000_000)

    def test_cross_correlation_smoke(self):
        tree = SeedTree(root=77)
        a = tree.child("s", 0).stream().standard_normal(100_000)
        b = tree.child("s", 1).stream().standard_normal(100_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01

    def test_nested_children(self):
        tree = SeedTree(root=1)
        a = tree.child("a", 0).child("b", 1).stream().standard_normal(3)
        b = tree.child("a", 0).child("b", 1).stream().standard_normal(3)
        c = tree.child("a", 1).child("b", 1).stream().standard_normal(3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCholeskyFactor:
    def test_zero_matrix(self):
        np.testing.assert_allclose(cholesky_factor(np.zeros((3, 3))), 0.0)

    def test_near_singular_jitter(self):
        S = np.diag([1.0, 0.0])
        L = cholesky_factor(S)
        np.testing.assert_allclose(L @ L.T, S, atol=1e-9)

    def test_indefinite_fails(self):
        with pytest.raises(CholeskyFailure):
            cholesky_factor(np.diag([1.0, -1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trace_factors(self):
        # The trace overflows, but S factors without jitter; the jitter
        # scale used to turn S into NaN (0 * inf).
        L = cholesky_factor(np.diag([1e308, 1e308]))
        assert np.array_equal(L, np.diag([1e154, 1e154]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_with_overflowing_trace_fails(self):
        # Jitter would be scaled by an infinite mean diagonal.
        with pytest.raises(CholeskyFailure, match="trace overflows"):
            cholesky_factor(np.full((2, 2), 1e308))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_refused(self):
        with pytest.raises(NonFiniteData, match="covariance is not finite"):
            cholesky_factor(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestSampleNoise:
    def test_repeatable(self):
        system, task = scalar_setup(sigma_z=0.5)
        tree = SeedTree(root=4)
        n1 = sample_noise(system, task, 10, 2, tree.child("n").stream())
        n2 = sample_noise(system, task, 10, 2, tree.child("n").stream())
        for a, b in zip(n1, n2):
            assert np.array_equal(a, b)

    def test_process_noise_is_its_slice_of_the_standard_normals(self):
        # Each trial's block is x0 (N x n_x), then w (N x T x n_x), then z
        # (N x T x n_u); x0 is its slice times the factor of sigma_x, w ~ N(0, I)
        # its slice as drawn, z its slice times sigma_z.
        system = lti_env.LinearSystem(
            A=0.5 * np.eye(3), B=np.ones((3, 2)), sigma_z=0.7
        )
        task = lti_env.make_task(system, np.zeros((2, 3)))
        T, trials = 6, 4
        for N in (1, 3):
            rng = np.random.default_rng(9)
            x0, W, Z = sample_noise(system, task, T, N, rng, trials)
            g = np.random.default_rng(9).standard_normal((trials, N * (3 + T * 5)))
            x0_ref = g[:, : 3 * N].reshape(trials, N, 3) @ task.chol_x.T
            assert np.array_equal(x0, x0_ref)
            w = g[:, 3 * N : 3 * N + 3 * N * T]
            assert np.array_equal(W, w.reshape(trials, N, T, 3))
            z = 0.7 * g[:, 3 * N + 3 * N * T :]
            assert np.array_equal(Z, z.reshape(trials, N, T, 2))

    def test_actuator_noise_covariance(self):
        system, task = scalar_setup(sigma_z=0.7)
        z = sample_noise(system, task, 100_000, 1, np.random.default_rng(1))[2][0, 0]
        emp = z.T @ z / z.shape[0]
        target = 0.49 * np.eye(1)
        assert np.linalg.norm(emp - target, "fro") <= 0.05 * np.linalg.norm(
            target, "fro"
        )

    @pytest.mark.parametrize("trials", [1, 3])
    def test_zero_sigma_z_draws_no_actuator_noise(self, trials):
        # Z is zeros, and the generator moves on by x0 and w alone: each
        # trial's block is x0 (N x n_x), then w (N x T x n_x).
        system = lti_env.LinearSystem(
            A=0.5 * np.eye(3), B=np.ones((3, 2)), sigma_z=0.0
        )
        task = lti_env.make_task(system, np.zeros((2, 3)))
        T = 6
        for N in (1, 3):
            rng = np.random.default_rng(10)
            x0, W, Z = sample_noise(system, task, T, N, rng, trials)
            ref = np.random.default_rng(10)
            g = ref.standard_normal((trials, N * (3 + 3 * T)))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(W, g[:, 3 * N :].reshape(trials, N, T, 3))
            assert np.array_equal(Z, np.zeros((trials, N, T, 2)))
            # Still the same numbers as `trials` successive calls.
            rng = np.random.default_rng(10)
            singles = [sample_noise(system, task, T, N, rng) for _ in range(trials)]
            assert np.array_equal(x0, np.concatenate([one[0] for one in singles]))
            assert np.array_equal(W, np.concatenate([one[1] for one in singles]))

    @pytest.mark.parametrize("n_x", [1, 4])
    def test_batched_draws_match_successive_calls(self, n_x):
        system = lti_env.LinearSystem(
            A=0.5 * np.eye(n_x), B=np.ones((n_x, 2)), sigma_z=0.7
        )
        task = lti_env.make_task(system, np.zeros((2, n_x)))
        for N in (1, 3):
            rng = np.random.default_rng(7)
            batch = sample_noise(system, task, 12, N, rng, trials=3)
            rng = np.random.default_rng(7)
            singles = [sample_noise(system, task, 12, N, rng) for _ in range(3)]
            shapes = [(3, N, n_x), (3, N, 12, n_x), (3, N, 12, 2)]
            assert [a.shape for a in batch] == shapes
            for i, one in enumerate(singles):
                for a, b in zip(batch, one):
                    assert np.array_equal(a[i : i + 1], b)


class TestRangeCheck:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s, t, g: sample_noise(s, t, 0, 1, g),
            lambda s, t, g: sample_noise(s, t, 1, 0, g),
            lambda s, t, g: sample_noise(s, t, 1, 1, g, trials=0),
            lambda s, t, g: rollout_expert(s, t, 0, 1, g),
            lambda s, t, g: rollout_expert(s, t, 1, 0, g),
            lambda s, t, g: evaluate_controller(s, t, t.K[None, None], 0, [g]),
        ],
        ids=["sample_T", "sample_N", "sample_trials", "rollout_T", "rollout_N",
             "eval_T"],
    )
    def test_counts_below_one_raise_before_any_draw(self, call):
        system, task = scalar_setup(sigma_z=0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="T, N and trials must be >= 1"):
            call(system, task, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def replayed_draws(system, task, T, N, seed):
    """rollout_expert's draws (x0, w, z) replayed from a fresh generator in
    the documented order; w ~ N(0, I) is the standard normals as drawn."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((N, system.n_x)) @ cholesky_factor(task.sigma_x).T
    w = rng.standard_normal((N, T, system.n_x))
    z = system.sigma_z * rng.standard_normal((N, T, system.n_u))
    return x0, w, z


def replayed_rollout(system, task, T, N, seed):
    """The rows that the replayed draws give when each trajectory is stepped
    on its own by matrix-vector products, as
    x[t+1] = (A + B K) x[t] + (B z[t] + w[t]) and u[t] = K x[t] + z[t]: in
    1-D, scalar arithmetic."""
    x0, w, z = replayed_draws(system, task, T, N, seed)
    closed = system.A + system.B @ task.K
    X, U = [], []
    for i in range(N):
        x = x0[i]
        for t in range(T):
            X.append(x)
            U.append(task.K @ x + z[i, t])
            x = closed @ x + (system.B @ z[i, t] + w[i, t])
    return np.array(X), np.array(U)


class TestRolloutExpert:
    def test_closed_loop_recurrence_replays_the_draws(self):
        # Each block of T rows follows x[t+1] = (A + B K) x[t] + (B z[t] +
        # w[t]) from its drawn x[0], on the replayed draws; the batched
        # products round differently from one trajectory's in 4-D.
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, [1.0, 2.0])
        task = lti_env.make_task(base, gains[0])
        T, N = 6, 3
        data = rollout_expert(base, task, T, N, np.random.default_rng(0))
        X, U = replayed_rollout(base, task, T, N, seed=0)
        np.testing.assert_allclose(data.X, X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(data.U, U, rtol=1e-12, atol=1e-12)

    def test_zero_sigma_z_draws_no_actuator_noise(self):
        # The generator moves on by the initial states and the process noise
        # alone, and the inputs are K x exactly.
        system, task = scalar_setup(sigma_z=0.0)
        T, N = 7, 4
        rng = np.random.default_rng(12)
        data = rollout_expert(system, task, T, N, rng)
        ref = np.random.default_rng(12)
        ref.standard_normal((N, system.n_x))
        ref.standard_normal((N, T, system.n_x))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(data.U, data.X @ task.K.T)

    def test_replay_bit_identical(self):
        system, task = scalar_setup(sigma_z=0.5)
        tree = SeedTree(root=11)
        d1 = rollout_expert(system, task, 7, 4, tree.child("r").stream())
        d2 = rollout_expert(system, task, 7, 4, tree.child("r").stream())
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.U, d2.U)

    def test_plant_recurrence_exact_with_replayed_process_noise(self):
        # x[t+1] = (A + B K) x[t] + (B z[t] + w[t]) exactly within a block,
        # w and z the replayed noise draws.
        system, task = scalar_setup(a=0.5, k=-0.2, sigma_z=1.0)
        T = 8
        data = rollout_expert(system, task, T, 2, np.random.default_rng(5))
        _, w, z = replayed_draws(system, task, T, 2, seed=5)
        closed = system.A + system.B @ task.K
        for i in range(2):
            for t in range(T - 1):
                row = i * T + t
                lhs = data.X[row + 1]
                rhs = closed @ data.X[row] + (system.B @ z[i, t] + w[i, t])
                assert np.array_equal(lhs, rhs)

    def test_expert_recurrence_is_the_closed_loop_recurrence(self):
        # States x[0..T] of every trajectory of a (2, 3) batch, each stepped
        # in scalar arithmetic as x[t+1] = (a + b k) x[t] + (b z[t] + w[t]).
        a, b, k = 0.9, 0.7, -0.4
        system = lti_env.LinearSystem(A=np.array([[a]]), B=np.array([[b]]))
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((2, 3, 1))
        W = rng.standard_normal((2, 3, 9, 1))
        Z = rng.standard_normal((2, 3, 9, 1))
        states = expert_recurrence(system, np.array([[k]]), x0, W, Z)
        assert states.shape == (2, 3, 10, 1)
        for i in np.ndindex(2, 3):
            x = float(x0[i][0])
            path = [x]
            for t in range(9):
                x = (a + b * k) * x + (b * float(Z[i][t, 0]) + float(W[i][t, 0]))
                path.append(x)
            assert states[i][:, 0].tolist() == path

    def test_controller_recurrence_exact_without_actuator_noise(self):
        # With sigma_z = 0, u[t] = K x[t] exactly.
        system, task = scalar_setup(sigma_z=0.0)
        data = rollout_expert(system, task, 8, 2, np.random.default_rng(6))
        np.testing.assert_array_equal(data.U, data.X @ task.K.T)


class TestStacking:
    def test_row_order_single_trajectory(self):
        # Row t is (x[t], u[t]) of the one trajectory, bit for bit the draws
        # replayed in the documented order: x0, then w, then z.
        system, task = scalar_setup(sigma_z=0.5)
        data = rollout_expert(system, task, 5, 1, np.random.default_rng(0))
        X, U = replayed_rollout(system, task, 5, 1, seed=0)
        np.testing.assert_array_equal(data.X, X)
        np.testing.assert_array_equal(data.U, U)

    def test_row_order_two_trajectories(self):
        # Row i*T + t is (x_i[t], u_i[t]); x_i[0] is the i-th initial draw.
        system, task = scalar_setup(sigma_z=0.5)
        T, N = 4, 3
        data = rollout_expert(system, task, T, N, np.random.default_rng(1))
        X, U = replayed_rollout(system, task, T, N, seed=1)
        np.testing.assert_array_equal(data.X, X)
        np.testing.assert_array_equal(data.U, U)

    def test_first_row_of_each_block_is_its_initial_draw(self):
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, [1.0, 2.0])
        task = lti_env.make_task(base, gains[0])
        T, N = 5, 4
        data = rollout_expert(base, task, T, N, np.random.default_rng(3))
        Lx = cholesky_factor(task.sigma_x)
        x0 = np.random.default_rng(3).standard_normal((N, base.n_x)) @ Lx.T
        assert data.X.shape == (N * T, base.n_x) and data.U.shape == (N * T, 2)
        for i in range(N):
            assert np.array_equal(data.X[i * T], x0[i])


def scalar_noise(x0, T, w=None):
    """One trial of scalar noise (x0, W, Z), shaped as `sample_noise` with
    N = 1 shapes it: initial state x0, zero actuator noise."""
    w = np.zeros((T, 1)) if w is None else w
    return np.array([[[x0]]]), w[None, None], np.zeros((1, 1, T, 1))


def trial_noise(system, task, T, rng, trials=1):
    """(x0, W, Z) of `trials` single trajectories, as `evaluate_controller`
    draws them: `sample_noise` with N = 1."""
    return sample_noise(system, task, T, 1, rng, trials)


def full_space_rollout(system, K_star, K_hat, x0, W, Z):
    """Reference for `coupled_rollout`: x* and x_hat of one gain K_hat per
    trial, each stepped on its own in full space as
    x[t+1] = (A + B K) x[t] + B z[t] + w[t] from x[0] = x0.

    Returns (xs, xh, steps): both trajectories, of shape (trials, T + 1,
    n_x), and per trial the number of steps before either first goes
    non-finite. The noise is `coupled_rollout`'s, one trajectory a trial."""

    x0, W, Z = x0[:, 0], W[:, 0], Z[:, 0]
    T = W.shape[1]

    def states(K):
        A_cl = system.A + system.B @ K
        x = np.empty((x0.shape[0], T + 1, system.n_x))
        x[:, 0] = x0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                x[:, t + 1] = x[:, t] @ A_cl.T + Z[:, t] @ system.B.T + W[:, t]
        return x

    xs, xh = states(K_star), states(K_hat)
    finite = np.isfinite(xs[:, 1:]).all(axis=2) & np.isfinite(xh[:, 1:]).all(axis=2)
    return xs, xh, np.logical_and.accumulate(finite, axis=1).sum(axis=1)


def one_gain(K):
    """K as the (1, 1, n_u, n_x) stack of one trial's one gain."""
    return np.asarray(K)[None, None]


class TestCoupledRollout:
    def test_identical_gains_identical_paths(self):
        system, task = scalar_setup(sigma_z=0.5)
        noise = trial_noise(system, task, 30, np.random.default_rng(2))
        xs, devs, steps = coupled_rollout(system, task.K, one_gain(task.K), *noise)
        assert steps.tolist() == [[30]]
        assert xs.shape == (1, 31, 1) and devs.shape == (1, 1, 30, 1)
        assert np.array_equal(xs[:, 0], noise[0][:, 0])
        assert np.all(devs == 0.0)

    def test_scalar_closed_form(self):
        system, task = scalar_setup()
        eps = 0.1
        xs, devs, _ = coupled_rollout(
            system, task.K, one_gain(task.K + eps), *scalar_noise(1.0, 10)
        )
        for t in range(11):
            assert xs[0, t, 0] == pytest.approx(0.5**t, abs=1e-12)
        for t in range(1, 11):
            expected = (0.5 + eps) ** t - 0.5**t
            assert devs[0, 0, t - 1, 0] == pytest.approx(expected, abs=1e-12)

    def test_noise_cancels_for_equal_gains(self):
        system, task = scalar_setup(sigma_z=1.0)
        noise = trial_noise(system, task, 50, np.random.default_rng(3))
        _, devs, _ = coupled_rollout(system, task.K, one_gain(task.K), *noise)
        assert np.all(devs == 0.0)

    def test_divergent_rollout_flags_nonfinite(self):
        system, task = scalar_setup()
        xs, devs, steps = coupled_rollout(
            system, task.K, one_gain([[10.0]]), *scalar_noise(1.0, 5000)
        )
        k = steps[0, 0]
        assert k < 5000
        assert xs.shape == (1, 5001, 1) and devs.shape == (1, 1, 5000, 1)
        assert np.all(np.isfinite(xs[0, : k + 1]))
        assert np.all(np.isfinite(devs[0, 0, :k]))
        assert not np.isfinite(devs[0, 0, k, 0])

    def test_overflow_truncates_before_first_nonfinite_row(self):
        # Closed loop 1e200: x_hat[1] = 1e200 is finite, x_hat[2] overflows.
        system, task = scalar_setup()
        xs, devs, steps = coupled_rollout(
            system, task.K, one_gain([[1e200 - 0.8]]), *scalar_noise(1.0, 50)
        )
        assert steps.tolist() == [[1]]
        assert np.all(np.isfinite(xs[0, :2])) and np.isfinite(devs[0, 0, 0, 0])
        assert xs[0, 1, 0] + devs[0, 0, 0, 0] == pytest.approx(1e200)
        assert not np.isfinite(devs[0, 0, 1, 0])

    def test_nonfinite_noise_truncates_at_its_step(self):
        system, task = scalar_setup()
        w = np.zeros((20, 1))
        w[3, 0] = np.nan  # drives x[4]
        xs, devs, steps = coupled_rollout(
            system, task.K, one_gain(task.K), *scalar_noise(1.0, 20, w)
        )
        assert steps.tolist() == [[3]]
        assert np.all(np.isfinite(xs[0, :4])) and np.all(np.isfinite(devs[0, 0, :3]))
        assert np.isnan(xs[0, 4, 0])

    def test_nonfinite_x0_keeps_only_row_0(self):
        system, task = scalar_setup()
        xs, _, steps = coupled_rollout(
            system, task.K, one_gain(task.K), *scalar_noise(np.inf, 10)
        )
        assert steps.tolist() == [[0]]
        assert xs[0, 0, 0] == np.inf

    @staticmethod
    def trial(noise, i):
        return tuple(a[i : i + 1] for a in noise)

    @staticmethod
    def plant(lifted):
        """(system, task, K_hat): the hong2021 plant with two family gains, or
        a scalar one with actuator noise and K_hat = K* + 0.1."""
        if lifted:
            system = lti_env.get_preset("hong2021")
            gains = lti_env.synthesize_expert_family(system, [1.0, 2.0])
            return system, lti_env.make_task(system, gains[0]), gains[1]
        system, task = scalar_setup(sigma_z=0.5)
        return system, task, task.K + 0.1

    @pytest.mark.parametrize("lifted", [False, True])
    def test_expert_path_is_expert_recurrence(self, lifted):
        # x* of each trial is its own `expert_recurrence` call, bit for bit:
        # the training data and the scoring step one recurrence.
        system, task, K_hat = self.plant(lifted)
        x0, W, Z = trial_noise(system, task, 40, np.random.default_rng(8), trials=6)
        stack = np.broadcast_to(K_hat, (6, 1, *K_hat.shape))
        xs, _, _ = coupled_rollout(system, task.K, stack, x0, W, Z)
        ref = expert_recurrence(system, task.K, x0, W, Z)
        assert np.array_equal(xs, ref[:, 0])

    @pytest.mark.parametrize("lifted", [False, True])
    def test_batch_rows_match_batch_of_one(self, lifted):
        system, task, K_hat = self.plant(lifted)
        noise = trial_noise(system, task, 40, np.random.default_rng(8), trials=6)
        stack = np.broadcast_to(K_hat, (6, 1, *K_hat.shape))
        xs, devs, steps = coupled_rollout(system, task.K, stack, *noise)
        assert xs.shape == (6, 41, system.n_x)
        assert devs.shape == (6, 1, 40, system.n_x)
        assert np.array_equal(steps, np.full((6, 1), 40))
        for i in range(6):
            xs1, devs1, steps1 = coupled_rollout(
                system, task.K, one_gain(K_hat), *self.trial(noise, i)
            )
            assert steps1.tolist() == [[40]]
            assert np.array_equal(xs[i], xs1[0])
            assert np.array_equal(devs[i], devs1[0])

    def test_one_diverging_trial_flagged_alone(self):
        system, task = scalar_setup()
        noise = trial_noise(system, task, 20, np.random.default_rng(9), trials=3)
        noise[1][1, 0, 3, 0] = np.nan  # drives x[4] of trial 1 only
        stack = np.broadcast_to(task.K + 0.1, (3, 1, 1, 1))
        xs, devs, steps = coupled_rollout(system, task.K, stack, *noise)
        assert steps.tolist() == [[20], [3], [20]]
        for i in range(3):
            xs1, devs1, steps1 = coupled_rollout(
                system, task.K, stack[:1], *self.trial(noise, i)
            )
            assert steps1[0, 0] == steps[i, 0]
            keep = steps[i, 0]
            assert np.array_equal(xs[i, : keep + 1], xs1[0, : keep + 1])
            assert np.array_equal(devs[i, :, :keep], devs1[0, :, :keep])


@st.composite
def peak_rollout_problems(draw):
    """A plant, an expert gain, per-trial noise and a (trials, c) stack of
    learned gains, some pushed so far off that their rollouts overflow.

    Half the plants carry an n x r basis (r < n when drawn so) that A and B
    map into, as a lifted plant's does; the others have none."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    with_basis = draw(st.booleans())
    n_u = draw(st.integers(1, 3))
    trials = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    T = draw(st.integers(1, 30))
    # Offsets of size 10**100 overflow within a few steps.
    exponents = draw(
        st.lists(
            st.sampled_from([-2, 0, 1, 100]), min_size=trials * c, max_size=trials * c
        )
    )
    rng = np.random.default_rng(seed)
    if with_basis:
        Q = np.linalg.qr(rng.standard_normal((n, r)))[0]
        system = lti_env.LinearSystem(
            A=Q @ (0.5 * rng.standard_normal((r, n))),
            B=Q @ rng.standard_normal((r, n_u)),
            basis=Q,
        )
    else:
        system = lti_env.LinearSystem(
            A=0.5 * rng.standard_normal((n, n)), B=rng.standard_normal((n, n_u))
        )
    K_star = 0.1 * rng.standard_normal((n_u, n))
    scale = 10.0 ** np.reshape(exponents, (trials, c, 1, 1))
    K_hat = K_star + scale * rng.standard_normal((trials, c, n_u, n))
    noise = (
        rng.standard_normal((trials, 1, n)),
        rng.standard_normal((trials, 1, T, n)),
        rng.standard_normal((trials, 1, T, n_u)),
    )
    return system, K_star, K_hat, noise


class TestPeakRolloutProperty:
    @given(peak_rollout_problems())
    def test_peak_form_matches_one_trial_trajectories(self, problem):
        # The deviation form rounds otherwise than the difference of two
        # full-space trajectories, so the peaks match to 1e-9 relative; the
        # steps before an overflow match exactly.
        system, K_star, K_hat, noise = problem
        _, devs, steps = coupled_rollout(system, K_star, K_hat, *noise)
        trials, c = K_hat.shape[:2]
        T = noise[1].shape[-2]
        assert steps.shape == (trials, c)
        assert devs.shape == (trials, c, T, system.basis.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sum(devs * devs, axis=3)
        peak = np.where(np.arange(T) < steps[..., None], sq, -np.inf).max(axis=2)
        for i in range(trials):
            one = TestCoupledRollout.trial(noise, i)
            for j in range(c):
                xs, xh, steps1 = full_space_rollout(system, K_star, K_hat[i, j], *one)
                assert steps[i, j] == steps1[0]
                kept = slice(1, steps1[0] + 1)
                with np.errstate(over="ignore", invalid="ignore"):
                    sq = np.sum((xh[0, kept] - xs[0, kept]) ** 2, axis=1)
                full = sq.max() if sq.size else -np.inf
                same = peak[i, j] == full  # -inf with no finite step, or inf
                assert same or abs(peak[i, j] - full) <= 1e-9 * abs(full)

    def test_expert_overflow_ends_the_steps(self):
        # x*[t] = (2 + 1e100)^t overflows at t = 4, while e stays 0 for the
        # expert's own gain until the step after: steps end at x*'s overflow.
        system = lti_env.LinearSystem(A=np.array([[2.0]]), B=np.array([[1.0]]))
        K_star = np.array([[1e100]])
        noise = np.ones((1, 1, 1)), np.zeros((1, 1, 6, 1)), np.zeros((1, 1, 6, 1))
        _, devs, steps = coupled_rollout(system, K_star, one_gain(K_star), *noise)
        _, _, steps_full = full_space_rollout(system, K_star, K_star, *noise)
        assert steps.tolist() == [[3]] and steps_full.tolist() == [3]
        assert devs[0, 0, :4].tolist() == [[0.0]] * 4

    @given(peak_rollout_problems())
    def test_batch_entries_are_one_gain_calls(self, problem):
        system, K_star, K_hat, noise = problem
        xs, devs, steps = coupled_rollout(system, K_star, K_hat, *noise)
        for i in range(K_hat.shape[0]):
            one = TestCoupledRollout.trial(noise, i)
            for j in range(K_hat.shape[1]):
                xs1, devs1, steps1 = coupled_rollout(
                    system, K_star, one_gain(K_hat[i, j]), *one
                )
                assert steps1[0, 0] == steps[i, j]
                assert np.array_equal(xs1[0], xs[i], equal_nan=True)
                assert np.array_equal(devs1[0, 0], devs[i, j], equal_nan=True)


labels = st.text(alphabet="abcxyz", min_size=1, max_size=3)
nodes = st.tuples(labels, st.integers(0, 2**32 - 1))
roots = st.integers(0, 2**63 - 1)


def tree_at(root, path):
    tree = SeedTree(root=root)
    for label, index in path:
        tree = tree.child(label, index)
    return tree


class TestSeedTreeProperties:
    @given(
        roots,
        st.lists(st.lists(nodes, max_size=3), min_size=1, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_streams_do_not_depend_on_scheduling(self, root, paths, random):
        in_order = [tree_at(root, p).stream().standard_normal(4) for p in paths]
        # Build the streams in a shuffled order, then draw one number at a
        # time from them in an interleaved order.
        order = random.sample(range(len(paths)), len(paths))
        streams = {i: tree_at(root, paths[i]).stream() for i in order}
        turns = [i for i in order for _ in range(4)]
        random.shuffle(turns)
        draws = {i: [] for i in order}
        for i in turns:
            draws[i].append(streams[i].standard_normal())
        for i, expected in enumerate(in_order):
            assert np.array_equal(draws[i], expected)

    @given(
        roots,
        st.lists(nodes, max_size=3),
        st.lists(nodes, min_size=2, max_size=6, unique=True),
    )
    def test_siblings_differ_in_first_draw(self, root, parent, children):
        tree = tree_at(root, parent)
        firsts = [tree.child(*node).stream().standard_normal() for node in children]
        assert len(set(firsts)) == len(firsts)

    @given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**32)))
    def test_child_refuses_index_outside_32_bits(self, index):
        with pytest.raises(ValueError):
            SeedTree(root=0).child("x", index)
