"""Tests for solvers and matrix utilities, oracle values first."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtil import control_math as cm
from mtil import lti_env
from mtil.errors import NotConverged, UnstableMatrix


def scalar_dare_oracle(a, b, q, r, tol=1e-14):
    """Independent scalar fixed-point oracle p <- a^2 p - a^2 p^2/(p + r) + q."""
    p = q
    for _ in range(100_000):
        p_new = a * a * p - (a * b * p) ** 2 / (b * b * p + r) + q
        if abs(p_new - p) < tol:
            return p_new
        p = p_new
    raise AssertionError("oracle did not converge")


class TestSpectralBasics:
    def test_spectral_radius_diag(self):
        assert cm.spectral_radius(np.diag([0.3, -0.8])) == pytest.approx(0.8)


class TestStabilityProfile:
    def test_zero_matrix(self):
        assert cm.stability_profile(np.zeros((2, 2)), np.eye(2)) == pytest.approx(1.0)

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert cm.stability_profile(A, np.eye(2)) == pytest.approx(2.0)

    def test_diagonal_geometric_sum(self):
        # Direct summation oracle: ||A^t|| = 0.9^t, sum = 1 / (1 - 0.9) = 10.
        j_gain = cm.stability_profile(np.diag([0.5, -0.9]), np.eye(2))
        assert j_gain == pytest.approx(10.0, abs=1e-8)

    def test_rejects_unstable(self):
        with pytest.raises(UnstableMatrix):
            cm.stability_profile(np.diag([1.0, 0.5]), np.eye(2))
        with pytest.raises(UnstableMatrix):  # (1 + rho) / 2 rounds to 1
            cm.stability_profile(np.diag([1.0 - 2.0**-53, 0.5]), np.eye(2))

    def test_tail_within_tolerance(self):
        # Direct-sum oracle: 5000 terms of ||A^t||, past which the terms
        # (~0.9^t) are negligible.
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            A *= 0.9 / cm.spectral_radius(A)
            direct, M = 0.0, np.eye(4)
            for _ in range(5000):
                direct += np.linalg.norm(M, 2)
                M = M @ A
            j_gain = cm.stability_profile(A, np.eye(4))
            assert abs(direct - j_gain) <= cm.PROFILE_TAIL_TOL

    def test_range_basis_matches_full_space(self):
        # A = Q C maps into span(Q), so ||A^t|| = ||Q'A^t||: J on the range
        # agrees with J in the full space (basis I) to rounding, and a basis
        # with a column outside range(A) changes nothing either.
        rng = np.random.default_rng(12)
        for r, n in ((1, 3), (2, 6), (4, 50)):
            Q = np.linalg.qr(rng.standard_normal((n, r)))[0]
            A = Q @ rng.standard_normal((r, n))
            A *= 0.95 / cm.spectral_radius(A)
            full = cm.stability_profile(A, np.eye(n))
            assert cm.stability_profile(A, Q) == pytest.approx(full, rel=1e-13)
            wider = np.linalg.qr(np.hstack([Q, rng.standard_normal((n, 1))]))[0]
            assert cm.stability_profile(A, wider) == pytest.approx(full, rel=1e-13)


class TestLyapunov:
    def test_scalar_geometric(self):
        S = cm.solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert S[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_zero_dynamics(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        S = cm.solve_discrete_lyapunov(np.zeros((2, 2)), Q)
        np.testing.assert_allclose(S, Q, atol=1e-14)

    def test_fixed_point_oracle(self):
        A = np.array([[0.5, 0.1], [0.0, 0.3]])
        # Independent oracle: plain fixed-point iteration to a tight tail.
        S_ref = np.zeros((2, 2))
        for _ in range(10_000):
            S_next = A @ S_ref @ A.T + np.eye(2)
            if np.linalg.norm(S_next - S_ref, "fro") < 1e-14:
                break
            S_ref = S_next
        S = cm.solve_discrete_lyapunov(A, np.eye(2))
        np.testing.assert_allclose(S, S_ref, atol=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(UnstableMatrix):
            cm.solve_discrete_lyapunov(np.diag([1.1, 0.2]), np.eye(2))

    def test_random_residuals_and_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, n))
            rho = cm.spectral_radius(A)
            if rho > 0:
                A *= rng.uniform(0.1, 0.95) / rho
            M = rng.standard_normal((n, n))
            Q = M @ M.T
            S = cm.solve_discrete_lyapunov(A, Q)
            resid = np.linalg.norm(S - (A @ S @ A.T + Q), "fro")
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(S, "fro"))
            assert np.abs(S - S.T).max() <= 1e-12 * max(1.0, np.abs(S).max())

    @pytest.mark.parametrize(
        "solve, message",
        [
            (
                lambda A: cm.solve_discrete_lyapunov(A, np.eye(1)),
                "Lyapunov residual .* above tolerance",
            ),
            (
                lambda A: cm.solve_dare(A.T, np.zeros((1, 1)), np.eye(1), np.eye(1)),
                "DARE doubling hit the iteration cap",
            ),
        ],
        ids=["lyapunov", "dare"],
    )
    def test_truncated_solve_raises(self, monkeypatch, solve, message):
        # One doubling step from a slowly decaying A is far from the fixed
        # point: the Lyapunov backward-error check and the DARE's iteration
        # cap must each still catch it.
        monkeypatch.setattr(cm, "DOUBLING_MAX_ITER", 1)
        with pytest.raises(NotConverged, match=message):
            solve(np.array([[0.999]]))

    @pytest.mark.parametrize("forcing", [np.inf, np.nan])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_forcing_raises(self, forcing):
        # A non-finite forcing makes the first doubling iterate non-finite.
        with pytest.raises(NotConverged):
            cm.solve_discrete_lyapunov(np.array([[0.5]]), np.array([[forcing]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_solution_converges(self):
        # S near 1e200 has a squared Frobenius norm that overflows; the
        # doubling must still run to convergence, not stop at its first step.
        A = np.array([[0.9, 0.5], [0.0, 0.8]])
        Q = 1e200 * np.eye(2)
        S = cm.solve_discrete_lyapunov(A, Q)
        resid = np.abs(S - (A @ S @ A.T + Q)).max()
        assert resid <= 1e-12 * np.abs(S).max()

    def test_ill_conditioned_similarity_accepted(self):
        # A = G diag(lam) G^-1 with cond(G) = 1e3 has ||A|| ~ 670. Rounding in
        # A S A' scales with ||A||^2 ||S||, so the residual is far above
        # 1e-10 ||S|| yet tiny on the backward-error scale.
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        G = U @ np.diag([1.0, 1e-1, 1e-2, 1e-3]) @ V.T
        A = G @ np.diag([0.95, 0.9, -0.8, 0.5]) @ np.linalg.inv(G)
        S = cm.solve_discrete_lyapunov(A, np.eye(4))
        resid = np.linalg.norm(S - (A @ S @ A.T + np.eye(4)), "fro")
        scale = np.linalg.norm(A, 2) ** 2 * np.linalg.norm(S, "fro") + 2.0
        assert resid > 1e-10 * np.linalg.norm(S, "fro")
        assert resid <= 1e-12 * scale

@st.composite
def stable_lyapunov_problems(draw):
    """(A, Q) in the lifted regime: n up to 50, rho(A) up to 0.999.

    A is either Gaussian scaled to the drawn spectral radius, or a lift
    G A0 G+ of a smaller such A0 through a Gaussian n x m map G, the form
    of the lifted plants. Q is PSD.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 50))
    m = draw(st.integers(1, n))
    # Log-uniform distance from the unit circle, 1 down to 1e-3.
    rho = 1.0 - 10.0 ** -draw(st.floats(0.0, 3.0))
    lifted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m) if lifted else (n, n))
    A *= rho / max(cm.spectral_radius(A), 1e-9)
    if lifted:
        G = rng.standard_normal((n, m))
        A = G @ A @ np.linalg.pinv(G)
    M = rng.standard_normal((n, n))
    return A, M @ M.T / n


class TestLyapunovProperties:
    @given(stable_lyapunov_problems())
    def test_backward_error_and_symmetry(self, problem):
        A, Q = problem
        S = cm.solve_discrete_lyapunov(A, Q)
        resid = np.linalg.norm(S - (A @ S @ A.T + Q), "fro")
        # The solver's own acceptance bound: the backward-error scale.
        scale = np.linalg.norm(A, 2) ** 2 * np.linalg.norm(S, "fro") + np.linalg.norm(
            Q, "fro"
        )
        assert resid <= 1e-10 * scale
        assert np.array_equal(S, S.T)


def fixed_point_dare_gain(A, B, Q, R, rel_tol=1e-13, max_iter=1_000_000):
    """LQR gain from the Riccati fixed point P <- A'PA - A'PB (B'PB + R)^{-1}
    B'PA + Q from P = Q: the recurrence solve_dare iterated before it used
    doubling, here with a tighter tolerance."""
    P = Q
    for _ in range(max_iter):
        BtP = B.T @ P
        P_new = A.T @ P @ A - (BtP @ A).T @ np.linalg.solve(BtP @ B + R, BtP @ A) + Q
        P_new = 0.5 * (P_new + P_new.T)
        delta = np.linalg.norm(P_new - P, "fro")
        P = P_new
        if delta <= rel_tol * max(1.0, np.linalg.norm(P, "fro")):
            return -np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A)
    raise AssertionError("fixed point did not converge")


@st.composite
def stabilizable_problems(draw):
    """(A, B, Q, R): Gaussian A scaled to a drawn spectral radius in
    [0.2, 1.5], Gaussian B (controllable almost surely), Q and R SPD."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    rho = draw(st.floats(0.2, 1.5))
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho / max(cm.spectral_radius(A), 1e-9)
    B = rng.standard_normal((n, m))
    Mq = rng.standard_normal((n, n))
    Mr = rng.standard_normal((m, m))
    return A, B, Mq @ Mq.T / n + 0.1 * np.eye(n), Mr @ Mr.T / m + 0.1 * np.eye(m)


class TestDareProperties:
    @settings(max_examples=60)
    @given(stabilizable_problems())
    def test_backward_residual_and_stable_closed_loop(self, problem):
        A, B, Q, R = problem
        sol = cm.solve_dare(A, B, Q, R)
        P = sol.P
        BtPA = B.T @ P @ A
        riccati = A.T @ P @ A - BtPA.T @ np.linalg.solve(B.T @ P @ B + R, BtPA) + Q
        resid = np.linalg.norm(P - riccati, "fro")
        # Rounding in A'PA scales with ||A||^2 ||P||: the backward-error scale.
        scale = np.linalg.norm(A, 2) ** 2 * np.linalg.norm(P, "fro") + np.linalg.norm(
            Q, "fro"
        )
        assert resid <= 1e-10 * scale
        assert cm.spectral_radius(A + B @ sol.K) < 1.0

    @settings(max_examples=60)
    @given(stabilizable_problems())
    def test_gain_matches_fixed_point(self, problem):
        A, B, Q, R = problem
        K = cm.solve_dare(A, B, Q, R).K
        K_ref = fixed_point_dare_gain(A, B, Q, R)
        assert np.linalg.norm(K - K_ref) <= 1e-8 * np.linalg.norm(K_ref)

    @settings(max_examples=60)
    @given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.7))
    def test_input_cost_scale_is_a_state_cost_scale(self, log_alpha, log_r):
        # K(alpha I, r I) = K((alpha / r) I, I): the sweep's alphas already
        # reach every R = r I, so its R is I.
        base = lti_env.get_preset("hong2021")
        alpha, r = 10.0**log_alpha, 10.0**log_r
        eye_x, eye_u = np.eye(base.n_x), np.eye(base.n_u)
        K = cm.solve_dare(base.A, base.B, alpha * eye_x, r * eye_u).K
        K_ref = cm.solve_dare(base.A, base.B, (alpha / r) * eye_x, eye_u).K
        assert np.linalg.norm(K - K_ref) <= 1e-10 * np.linalg.norm(K_ref)

    def test_infinite_cost_fails_fast(self):
        base_A = np.array([[1.1, 0.3], [0.0, 0.7]])
        start = time.perf_counter()
        with np.errstate(invalid="ignore"):
            Q = np.inf * np.eye(2)
        with pytest.raises((NotConverged, UnstableMatrix)):
            cm.solve_dare(base_A, np.eye(2)[:, :1], Q, np.eye(1))
        assert time.perf_counter() - start < 1.0


class TestDare:
    def test_scalar_oracle(self):
        sol = cm.solve_dare(
            np.array([[0.5]]), np.array([[1.0]]), np.eye(1), np.eye(1)
        )
        p_ref = scalar_dare_oracle(0.5, 1.0, 1.0, 1.0)
        assert sol.P[0, 0] == pytest.approx(p_ref, abs=1e-9)
        assert sol.P[0, 0] == pytest.approx(1.132782, abs=1e-5)
        assert sol.K[0, 0] == pytest.approx(-0.265565, abs=1e-5)
        rho = cm.spectral_radius(np.array([[0.5]]) + sol.K)
        assert rho == pytest.approx(0.234435, abs=1e-5)

    def test_zero_cost(self):
        sol = cm.solve_dare(
            np.diag([0.5, 0.2]), np.eye(2), np.zeros((2, 2)), np.eye(2)
        )
        np.testing.assert_allclose(sol.P, 0.0, atol=1e-12)
        np.testing.assert_allclose(sol.K, 0.0, atol=1e-12)

    def test_no_actuation_reduces_to_lyapunov(self):
        sol = cm.solve_dare(
            np.array([[0.5]]), np.array([[0.0]]), np.eye(1), np.eye(1)
        )
        assert sol.P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert sol.K[0, 0] == 0.0
        # With B = 0 the DARE of A is the Lyapunov equation of A', and both
        # solvers run the one doubling loop: the same bits, not just close.
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            for _ in range(5):
                A = rng.standard_normal((n, n))
                A *= rng.uniform(0.1, 0.99) / cm.spectral_radius(A)
                M = rng.standard_normal((n, n))
                Q = M @ M.T + np.eye(n)
                P = cm.solve_dare(A, np.zeros((n, 1)), Q, np.eye(1)).P
                assert np.array_equal(P, cm.solve_discrete_lyapunov(A.T, Q))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_cost_converges(self):
        # P(cQ, cR) = c P(Q, R). At c = 1e160 the Frobenius norm of P
        # overflows; the doubling must still run to convergence (P/c near
        # 50), not stop at its first step (P/c near 2).
        A, B = np.array([[0.99]]), np.array([[1.0]])
        Q, R = np.eye(1), 1e10 * np.eye(1)
        P = cm.solve_dare(A, B, Q, R).P
        P_big = cm.solve_dare(A, B, 1e160 * Q, 1e160 * R).P
        np.testing.assert_allclose(P_big / 1e160, P, rtol=1e-12)

    def test_random_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            A *= rng.uniform(0.3, 1.2) / max(cm.spectral_radius(A), 1e-9)
            B = rng.standard_normal((n, m))
            sol = cm.solve_dare(A, B, np.eye(n), np.eye(m))
            inner = np.linalg.solve(B.T @ sol.P @ B + np.eye(m), B.T @ sol.P @ A)
            resid = np.linalg.norm(
                sol.P - (A.T @ sol.P @ A - (B.T @ sol.P @ A).T @ inner + np.eye(n)),
                "fro",
            )
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(sol.P, "fro"))
            assert cm.spectral_radius(A + B @ sol.K) < 1.0
