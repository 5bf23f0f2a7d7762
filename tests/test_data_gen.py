"""Tests for seeded streams, trajectory sampling, and the coupled rollout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtil import lti_env
from mtil.control_math import cholesky_factor
from mtil.data_gen import (
    NoiseRealization,
    SeedTree,
    coupled_rollout,
    rollout_expert,
    sample_noise,
)
from mtil.errors import CholeskyFailure, NonFiniteData


def scalar_setup(a=0.8, k=-0.3, sigma_z=0.0):
    system = lti_env.LinearSystem(A=np.array([[a]]), B=np.array([[1.0]]))
    task = lti_env.make_task(system, np.array([[k]]), sigma_z=sigma_z)
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
        n1 = sample_noise(system, task, 10, tree.child("n").stream())
        n2 = sample_noise(system, task, 10, tree.child("n").stream())
        assert np.array_equal(n1.x0, n2.x0)
        assert np.array_equal(n1.w, n2.w)
        assert np.array_equal(n1.z, n2.z)

    def test_process_noise_is_its_slice_of_the_standard_normals(self):
        # Each trial's block is x0 (n_x), then w (T x n_x), then z (T x n_u);
        # w ~ N(0, I) is its slice as drawn, z its slice times sigma_z.
        system = lti_env.LinearSystem(A=0.5 * np.eye(3), B=np.ones((3, 2)))
        task = lti_env.make_task(system, np.zeros((2, 3)), sigma_z=0.7)
        T, trials = 6, 4
        noise = sample_noise(system, task, T, np.random.default_rng(9), trials)
        g = np.random.default_rng(9).standard_normal((trials, 3 + T * 5))
        assert np.array_equal(noise.w, g[:, 3 : 3 + 3 * T].reshape(trials, T, 3))
        assert np.array_equal(noise.z, 0.7 * g[:, 3 + 3 * T :].reshape(trials, T, 2))

    def test_actuator_noise_covariance(self):
        system, task = scalar_setup(sigma_z=0.7)
        noise = sample_noise(system, task, 100_000, np.random.default_rng(1))
        z = noise.z[0]
        emp = z.T @ z / z.shape[0]
        target = 0.49 * np.eye(1)
        assert np.linalg.norm(emp - target, "fro") <= 0.05 * np.linalg.norm(
            target, "fro"
        )

    @pytest.mark.parametrize("n_x", [1, 4])
    def test_batched_draws_match_successive_calls(self, n_x):
        system = lti_env.LinearSystem(A=0.5 * np.eye(n_x), B=np.ones((n_x, 2)))
        task = lti_env.make_task(system, np.zeros((2, n_x)), sigma_z=0.7)
        batch = sample_noise(system, task, 12, np.random.default_rng(7), trials=3)
        rng = np.random.default_rng(7)
        singles = [sample_noise(system, task, 12, rng) for _ in range(3)]
        assert batch.x0.shape == (3, n_x)
        assert batch.w.shape == (3, 12, n_x)
        assert batch.z.shape == (3, 12, 2)
        for i, one in enumerate(singles):
            assert np.array_equal(batch.x0[i : i + 1], one.x0)
            assert np.array_equal(batch.w[i : i + 1], one.w)
            assert np.array_equal(batch.z[i : i + 1], one.z)


def replayed_draws(system, task, T, N, seed):
    """rollout_expert's draws (x0, w, z) replayed from a fresh generator in
    the documented order; w ~ N(0, I) is the standard normals as drawn."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((N, system.n_x)) @ cholesky_factor(task.sigma_x).T
    w = rng.standard_normal((N, T, system.n_x))
    z = task.sigma_z * rng.standard_normal((N, T, system.n_u))
    return x0, w, z


def replayed_rollout(system, task, T, N, seed):
    """The rows that the replayed draws give when each trajectory is stepped
    on its own by matrix-vector products: in 1-D, scalar arithmetic."""
    x0, w, z = replayed_draws(system, task, T, N, seed)
    X, U = [], []
    for i in range(N):
        x = x0[i]
        for t in range(T):
            u = task.K @ x + z[i, t]
            X.append(x)
            U.append(u)
            x = system.A @ x + system.B @ u + w[i, t]
    return np.array(X), np.array(U)


class TestRolloutExpert:
    def test_closed_loop_recurrence_replays_the_draws(self):
        # Each block of T rows follows x[t+1] = A x[t] + B (K x[t] + z[t]) +
        # w[t] from its drawn x[0], on the replayed draws; the batched
        # products round differently from one trajectory's in 4-D.
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, [1.0, 2.0])
        task = lti_env.make_task(base, gains[0], sigma_z=1.0)
        T, N = 6, 3
        data = rollout_expert(base, task, T, N, np.random.default_rng(0))
        X, U = replayed_rollout(base, task, T, N, seed=0)
        np.testing.assert_allclose(data.X, X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(data.U, U, rtol=1e-12, atol=1e-12)

    def test_replay_bit_identical(self):
        system, task = scalar_setup(sigma_z=0.5)
        tree = SeedTree(root=11)
        d1 = rollout_expert(system, task, 7, 4, tree.child("r").stream())
        d2 = rollout_expert(system, task, 7, 4, tree.child("r").stream())
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.U, d2.U)

    def test_plant_recurrence_exact_with_replayed_process_noise(self):
        # x[t+1] = A x[t] + B u[t] + w[t] exactly within a block, w the
        # replayed process-noise draws.
        system, task = scalar_setup(a=0.5, k=-0.2, sigma_z=1.0)
        T = 8
        data = rollout_expert(system, task, T, 2, np.random.default_rng(5))
        _, w, _ = replayed_draws(system, task, T, 2, seed=5)
        for i in range(2):
            for t in range(T - 1):
                row = i * T + t
                lhs = data.X[row + 1]
                rhs = system.A @ data.X[row] + system.B @ data.U[row] + w[i, t]
                assert np.array_equal(lhs, rhs)

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
        task = lti_env.make_task(base, gains[0], sigma_z=1.0)
        T, N = 5, 4
        data = rollout_expert(base, task, T, N, np.random.default_rng(3))
        Lx = cholesky_factor(task.sigma_x)
        x0 = np.random.default_rng(3).standard_normal((N, base.n_x)) @ Lx.T
        assert data.X.shape == (N * T, base.n_x) and data.U.shape == (N * T, 2)
        for i in range(N):
            assert np.array_equal(data.X[i * T], x0[i])


def scalar_noise(x0, T, w=None):
    """One trial of scalar noise: initial state x0, zero actuator noise."""
    w = np.zeros((T, 1)) if w is None else w
    return NoiseRealization(
        x0=np.array([[x0]]), w=w[None], z=np.zeros((1, T, 1))
    )


def full_space_rollout(system, K_star, K_hat, noise, T):
    """Reference for `coupled_rollout`: x* and x_hat of one gain K_hat per
    trial, each stepped on its own in full space as
    x[t+1] = (A + B K) x[t] + B z[t] + w[t] from x[0] = noise.x0.

    Returns (xs, xh, steps): both trajectories, of shape (trials, T + 1,
    n_x), and per trial the number of steps before either first goes
    non-finite."""

    def states(K):
        A_cl = system.A + system.B @ K
        x = np.empty((noise.x0.shape[0], T + 1, system.n_x))
        x[:, 0] = noise.x0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                x[:, t + 1] = (
                    x[:, t] @ A_cl.T + noise.z[:, t] @ system.B.T + noise.w[:, t]
                )
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
        noise = sample_noise(system, task, 30, np.random.default_rng(2))
        xs, devs, steps = coupled_rollout(system, task.K, one_gain(task.K), noise, 30)
        assert steps.tolist() == [[30]]
        assert xs.shape == (1, 31, 1) and devs.shape == (1, 1, 30, 1)
        assert np.array_equal(xs[:, 0], noise.x0)
        assert np.all(devs == 0.0)

    def test_scalar_closed_form(self):
        system, task = scalar_setup()
        eps = 0.1
        xs, devs, _ = coupled_rollout(
            system, task.K, one_gain(task.K + eps), scalar_noise(1.0, 10), 10
        )
        for t in range(11):
            assert xs[0, t, 0] == pytest.approx(0.5**t, abs=1e-12)
        for t in range(1, 11):
            expected = (0.5 + eps) ** t - 0.5**t
            assert devs[0, 0, t - 1, 0] == pytest.approx(expected, abs=1e-12)

    def test_noise_cancels_for_equal_gains(self):
        system, task = scalar_setup(sigma_z=1.0)
        noise = sample_noise(system, task, 50, np.random.default_rng(3))
        _, devs, _ = coupled_rollout(system, task.K, one_gain(task.K), noise, 50)
        assert np.all(devs == 0.0)

    def test_divergent_rollout_flags_nonfinite(self):
        system, task = scalar_setup()
        xs, devs, steps = coupled_rollout(
            system, task.K, one_gain([[10.0]]), scalar_noise(1.0, 5000), 5000
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
            system, task.K, one_gain([[1e200 - 0.8]]), scalar_noise(1.0, 50), 50
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
            system, task.K, one_gain(task.K), scalar_noise(1.0, 20, w), 20
        )
        assert steps.tolist() == [[3]]
        assert np.all(np.isfinite(xs[0, :4])) and np.all(np.isfinite(devs[0, 0, :3]))
        assert np.isnan(xs[0, 4, 0])

    def test_nonfinite_x0_keeps_only_row_0(self):
        system, task = scalar_setup()
        xs, _, steps = coupled_rollout(
            system, task.K, one_gain(task.K), scalar_noise(np.inf, 10), 10
        )
        assert steps.tolist() == [[0]]
        assert xs[0, 0, 0] == np.inf

    @staticmethod
    def trial(noise, i):
        return NoiseRealization(
            x0=noise.x0[i : i + 1], w=noise.w[i : i + 1], z=noise.z[i : i + 1]
        )

    @pytest.mark.parametrize("lifted", [False, True])
    def test_batch_rows_match_batch_of_one(self, lifted):
        if lifted:
            base = lti_env.get_preset("hong2021")
            gains = lti_env.synthesize_expert_family(base, [1.0, 2.0])
            system = base
            task = lti_env.make_task(base, gains[0], sigma_z=1.0)
            K_hat = gains[1]
        else:
            system, task = scalar_setup(sigma_z=0.5)
            K_hat = task.K + 0.1
        noise = sample_noise(system, task, 40, np.random.default_rng(8), trials=6)
        stack = np.broadcast_to(K_hat, (6, 1, *K_hat.shape))
        xs, devs, steps = coupled_rollout(system, task.K, stack, noise, 40)
        assert xs.shape == (6, 41, system.n_x)
        assert devs.shape == (6, 1, 40, system.n_x)
        assert np.array_equal(steps, np.full((6, 1), 40))
        for i in range(6):
            xs1, devs1, steps1 = coupled_rollout(
                system, task.K, one_gain(K_hat), self.trial(noise, i), 40
            )
            assert steps1.tolist() == [[40]]
            assert np.array_equal(xs[i], xs1[0])
            assert np.array_equal(devs[i], devs1[0])

    def test_one_diverging_trial_flagged_alone(self):
        system, task = scalar_setup()
        noise = sample_noise(system, task, 20, np.random.default_rng(9), trials=3)
        noise.w[1, 3, 0] = np.nan  # drives x[4] of trial 1 only
        stack = np.broadcast_to(task.K + 0.1, (3, 1, 1, 1))
        xs, devs, steps = coupled_rollout(system, task.K, stack, noise, 20)
        assert steps.tolist() == [[20], [3], [20]]
        for i in range(3):
            xs1, devs1, steps1 = coupled_rollout(
                system, task.K, stack[:1], self.trial(noise, i), 20
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
    noise = NoiseRealization(
        x0=rng.standard_normal((trials, n)),
        w=rng.standard_normal((trials, T, n)),
        z=rng.standard_normal((trials, T, n_u)),
    )
    return system, K_star, K_hat, noise, T


class TestPeakRolloutProperty:
    @given(peak_rollout_problems())
    def test_peak_form_matches_one_trial_trajectories(self, problem):
        # The deviation form rounds otherwise than the difference of two
        # full-space trajectories, so the peaks match to 1e-9 relative; the
        # steps before an overflow match exactly.
        system, K_star, K_hat, noise, T = problem
        _, devs, steps = coupled_rollout(system, K_star, K_hat, noise, T)
        trials, c = K_hat.shape[:2]
        assert steps.shape == (trials, c)
        assert devs.shape == (trials, c, T, system.basis.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.sum(devs * devs, axis=3)
        peak = np.where(np.arange(T) < steps[..., None], sq, -np.inf).max(axis=2)
        for i in range(trials):
            one = TestCoupledRollout.trial(noise, i)
            for j in range(c):
                xs, xh, steps1 = full_space_rollout(system, K_star, K_hat[i, j], one, T)
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
        noise = NoiseRealization(
            x0=np.ones((1, 1)), w=np.zeros((1, 6, 1)), z=np.zeros((1, 6, 1))
        )
        _, devs, steps = coupled_rollout(system, K_star, one_gain(K_star), noise, 6)
        _, _, steps_full = full_space_rollout(system, K_star, K_star, noise, 6)
        assert steps.tolist() == [[3]] and steps_full.tolist() == [3]
        assert devs[0, 0, :4].tolist() == [[0.0]] * 4

    @given(peak_rollout_problems())
    def test_batch_entries_are_one_gain_calls(self, problem):
        system, K_star, K_hat, noise, T = problem
        xs, devs, steps = coupled_rollout(system, K_star, K_hat, noise, T)
        for i in range(K_hat.shape[0]):
            one = TestCoupledRollout.trial(noise, i)
            for j in range(K_hat.shape[1]):
                xs1, devs1, steps1 = coupled_rollout(
                    system, K_star, one_gain(K_hat[i, j]), one, T
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
