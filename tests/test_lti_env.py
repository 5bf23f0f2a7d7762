"""Tests for plants, expert synthesis, ensembles, and lifting."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mtil import control_math as cm
from mtil import lti_env
from mtil.data_gen import SeedTree
from mtil.errors import (
    CholeskyFailure,
    MtilError,
    RankDeficient,
    UnstableMatrix,
)


def small_family(H=3):
    """(plant, gains): hong2021 and H + 1 LQR gains, no covariance solved."""
    base = lti_env.get_preset("hong2021")
    alphas = np.logspace(-1, 1, H + 1)
    return base, lti_env.synthesize_expert_family(base, alphas)


class TestStationaryCovariance:
    def test_scalar_geometric(self):
        system = lti_env.LinearSystem(
            A=np.array([[0.8]]), B=np.array([[1.0]]), sigma_z=0.0
        )
        task = lti_env.make_task(system, np.array([[-0.3]]))
        assert task.sigma_x[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_pure_noise(self):
        system = lti_env.LinearSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)))
        task = lti_env.make_task(system, np.zeros((1, 2)))
        np.testing.assert_allclose(task.sigma_x, np.eye(2), atol=1e-12)

    def test_rejects_unstable_closed_loop(self):
        system = lti_env.LinearSystem(A=np.array([[1.5]]), B=np.array([[0.0]]))
        with pytest.raises(UnstableMatrix):
            lti_env.make_task(system, np.zeros((1, 1)))

    def test_lifted_preset_residual(self):
        rng = SeedTree(root=3).child("lift").stream()
        lifted = lti_env.lift_ensemble(
            *small_family(), lti_env.sample_lift_map(4, 50, rng)
        )
        for task in lifted.tasks:
            A_cl = lifted.system.A + lifted.system.B @ task.K
            rhs = (
                A_cl @ task.sigma_x @ A_cl.T
                + lifted.system.sigma_z**2 * lifted.system.B @ lifted.system.B.T
                + np.eye(lifted.system.n_x)
            )
            resid = np.linalg.norm(task.sigma_x - rhs, "fro")
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(task.sigma_x, "fro"))


class TestTaskFactors:
    def test_factors_are_cholesky_of_covariances(self):
        base, gains = small_family()
        ens = lti_env.build_ensemble(base, gains)
        rng = SeedTree(root=4).child("lift").stream()
        lifted = lti_env.lift_ensemble(base, gains, lti_env.sample_lift_map(4, 50, rng))
        for task in ens.tasks + lifted.tasks:
            assert np.array_equal(task.chol_x, cm.cholesky_factor(task.sigma_x))

    def test_hand_built_task_gets_factors(self):
        sigma_x = np.array([[2.0, 0.5], [0.5, 1.0]])
        task = lti_env.ExpertTask(K=np.zeros((1, 2)), sigma_x=sigma_x)
        assert np.array_equal(task.chol_x, cm.cholesky_factor(sigma_x))

    def test_indefinite_sigma_x_refused_at_build(self):
        with pytest.raises(CholeskyFailure):
            lti_env.ExpertTask(K=np.zeros((1, 2)), sigma_x=np.diag([1.0, -1.0]))


class TestSynthesizeFamily:
    def test_preset_family_all_stabilizing(self):
        base = lti_env.get_preset("hong2021")
        gains = lti_env.synthesize_expert_family(base, np.logspace(-2, 2, 10))
        assert len(gains) == 10
        for K in gains:
            assert cm.spectral_radius(base.A + base.B @ K) < 1.0

    def test_scalar_gain_matches_oracle(self):
        system = lti_env.LinearSystem(A=np.array([[0.5]]), B=np.array([[1.0]]))
        gains = lti_env.synthesize_expert_family(system, [1.0])
        assert len(gains) == 1
        assert gains[0][0, 0] == pytest.approx(-0.265565, abs=1e-5)

    def test_deterministic(self):
        base = lti_env.get_preset("hong2021")
        g1 = lti_env.synthesize_expert_family(base, [0.5, 2.0])
        g2 = lti_env.synthesize_expert_family(base, [0.5, 2.0])
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)


class TestLiftEnsemble:
    def test_identity_lift_unchanged(self):
        base, gains = small_family()
        lifted = lti_env.lift_ensemble(base, gains, np.eye(4))
        np.testing.assert_allclose(lifted.system.A, base.A, atol=1e-12)
        np.testing.assert_allclose(lifted.system.B, base.B, atol=1e-12)
        np.testing.assert_allclose(lifted.truth.phi_star, np.eye(4), atol=1e-12)
        for la, K in zip(lifted.tasks, gains):
            np.testing.assert_allclose(la.K, K, atol=1e-12)

    def test_square_invertible_is_similarity(self):
        base, gains = small_family()
        G = np.random.default_rng(1).standard_normal((4, 4)) + 2 * np.eye(4)
        lifted = lti_env.lift_ensemble(base, gains, G)
        for la, K in zip(lifted.tasks, gains):
            rho_lift = cm.spectral_radius(lifted.system.A + lifted.system.B @ la.K)
            rho_base = cm.spectral_radius(base.A + base.B @ K)
            assert rho_lift == pytest.approx(rho_base, abs=1e-10)

    def test_tall_lift_structure(self):
        base, gains = small_family()
        G = SeedTree(root=5).child("lift").stream().standard_normal((50, 4))
        lifted = lti_env.lift_ensemble(base, gains, G)
        np.testing.assert_allclose(lifted.system.A @ G, G @ base.A, atol=1e-8)
        truth = lifted.truth
        for F, task in zip(truth.f_stars, lifted.tasks):
            np.testing.assert_allclose(F @ truth.phi_star, task.K, atol=1e-10)

    def test_lift_preserves_inputs_on_range(self):
        base, gains = small_family()
        G = SeedTree(root=6).child("lift").stream().standard_normal((50, 4))
        lifted = lti_env.lift_ensemble(base, gains, G)
        rng = np.random.default_rng(2)
        for lt, K in zip(lifted.tasks, gains):
            for _ in range(5):
                x = rng.standard_normal(4)
                np.testing.assert_allclose(lt.K @ (G @ x), K @ x, atol=1e-8)

    def test_rejects_rank_deficient(self):
        G = np.ones((50, 4))
        with pytest.raises(RankDeficient):
            lti_env.lift_ensemble(*small_family(), G)

    @pytest.mark.parametrize("m", [3, 1, 0])
    def test_rejects_wide_map(self, m):
        # A wide map has a null space even when its m singular values are
        # well separated from zero.
        G = np.eye(4)[:m]
        with pytest.raises(RankDeficient, match=f"lift dimension {m}"):
            lti_env.lift_ensemble(*small_family(), G)

    @pytest.mark.parametrize("m", [2, 0, -1])
    def test_sample_rejects_wide_map(self, m):
        with pytest.raises(RankDeficient, match=f"lift dimension {m}"):
            lti_env.sample_lift_map(4, m, np.random.default_rng(0))


class TestSystemBasis:
    def test_lift_records_range_of_map(self):
        G = SeedTree(root=5).child("lift").stream().standard_normal((50, 4))
        Q = lti_env.lift_ensemble(*small_family(), G).system.basis
        assert Q.shape == (50, 4)
        np.testing.assert_allclose(Q.T @ Q, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(Q @ (Q.T @ G), G, atol=1e-12)

    def test_unlifted_system_basis_is_identity(self):
        assert np.array_equal(lti_env.get_preset("hong2021").basis, np.eye(4))

    @pytest.mark.parametrize(
        "A, B, basis, message",
        [
            (np.eye(2), np.ones((2, 1)), 2.0 * np.eye(2), "orthonormal"),
            (np.eye(2), np.ones((2, 1)), np.ones((2, 1)), "orthonormal"),
            (np.eye(2), np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]),
             "range\\(A\\)"),
            (np.diag([1.0, 0.0]), np.array([[0.0], [1.0]]),
             np.array([[1.0], [0.0]]), "range\\(B\\)"),
            (np.eye(2), np.ones((2, 1)), np.eye(3), "n_x x r"),
        ],
    )
    def test_rejects_bad_basis(self, A, B, basis, message):
        with pytest.raises(ValueError, match=message):
            lti_env.LinearSystem(A=A, B=B, basis=basis)


@st.composite
def plants_and_gains(draw):
    """(system, K): a random stable plant (n <= 6 states), either unlifted
    or lifted through a Gaussian m x n map (m in [n, 50]), with a random
    actuator-noise level, and a random gain that keeps the closed loop
    stable."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    n_u = draw(st.integers(1, 3))
    rho = draw(st.floats(0.1, 0.98))
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((n, n))
    A0 *= rho / max(cm.spectral_radius(A0), 1e-9)
    system = lti_env.LinearSystem(A=A0, B=rng.standard_normal((n, n_u)))
    if draw(st.booleans()):
        m = draw(st.integers(n, 50))
        G = lti_env.sample_lift_map(n, m, rng)
        system = lti_env.lift_ensemble(system, [np.zeros((n_u, n))] * 2, G).system
    K = 0.1 * rng.standard_normal((n_u, system.n_x)) / np.sqrt(system.n_x)
    assume(cm.spectral_radius(system.closed_loop_on_range(K)) < 0.99)
    return replace(system, sigma_z=draw(st.floats(0.0, 2.0))), K


class TestTaskOnRange:
    @given(plants_and_gains())
    def test_range_and_full_space_covariances_agree(self, problem):
        # The r x r equation on the plant's basis and the full n_x x n_x one
        # give the same stationary covariance, up to rounding: 1e-12
        # relative, scaled by ||A + BK||^2 as the Lyapunov solver's own
        # residual check is (an ill-conditioned square G gives ~100).
        system, K = problem
        on_range = lti_env.make_task(system, K).sigma_x
        A_cl = system.A + system.B @ K
        full_space = cm.solve_discrete_lyapunov(
            A_cl, system.sigma_z**2 * (system.B @ system.B.T) + np.eye(system.n_x)
        )
        gap = np.linalg.norm(on_range - full_space)
        scale = max(1.0, np.linalg.norm(A_cl, 2) ** 2)
        assert gap <= 1e-12 * scale * np.linalg.norm(full_space)
        assert np.array_equal(on_range, on_range.T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_forcing_refused(self):
        # sigma_z^2 overflows; make_task names it, with no RuntimeWarning.
        system = replace(lti_env.get_preset("hong2021"), sigma_z=1e200)
        with pytest.raises(MtilError, match="Lyapunov forcing"):
            lti_env.make_task(system, np.zeros((2, 4)))

    def test_unstable_closed_loop_on_range_refused(self):
        Q = np.linalg.qr(np.random.default_rng(8).standard_normal((5, 2)))[0]
        system = lti_env.LinearSystem(
            A=Q @ np.diag([1.5, 0.5]) @ Q.T, B=Q[:, :1], basis=Q
        )
        with pytest.raises(UnstableMatrix):
            lti_env.make_task(system, np.zeros((1, 5)))


class TestGroundTruth:
    def test_lifted_factors(self):
        G = SeedTree(root=7).child("lift").stream().standard_normal((50, 4))
        lifted = lti_env.lift_ensemble(*small_family(), G)
        truth = lifted.truth
        assert truth.k == 4
        np.testing.assert_allclose(truth.phi_star, np.linalg.pinv(G), atol=1e-12)
        # The recorded factors compose to each lifted gain: F_h Phi* = K_h.
        for F, task in zip(truth.f_stars, lifted.tasks):
            resid = np.linalg.norm(F @ truth.phi_star - task.K)
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(task.K))

    def test_raw_ensemble_has_no_factors(self):
        assert lti_env.build_ensemble(*small_family()).truth is None

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            lti_env.get_preset("nonexistent")
