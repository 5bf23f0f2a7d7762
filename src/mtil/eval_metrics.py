"""Scalar evaluation quantities for learned controllers.

Excess risk (closed form on the stationary distribution), closed-loop
tracking error against coupled expert rollouts, parameter error, stability,
an LQR cost-gap probe, task-diversity constants, and quantile summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import control_math
from .data_gen import NoiseRealization, coupled_rollout, sample_noise
from .errors import EmptyInput, RankDeficient
from .lti_env import ExpertTask, GroundTruthFactors, LinearSystem, TaskEnsemble


@dataclass(frozen=True)
class MetricsRecord:
    """Evaluation of one learned controller on one noise realization."""

    tracking_err: float
    param_err: float
    stable: bool
    excess_risk: float
    nonfinite: bool


@dataclass(frozen=True)
class DiversityReport:
    """Task-diversity constants of an ensemble.

    c: minimum over source tasks h of the smallest eigenvalue of the
    target-whitened source covariance. nu: squared spectral norm of
    F_target times the pseudo-inverse of the vertical stack of source F.
    lambda_bar / lambda_under: extreme stationary-covariance eigenvalues
    over source tasks.
    """

    c: float
    nu: float
    nu_times_H: float
    lambda_bar: float
    lambda_under: float


def excess_risk(K_hat: np.ndarray, K_star: np.ndarray, sigma_x: np.ndarray) -> float:
    """Half the expected squared input error on the stationary distribution.

    Closed form (1/2) trace((K_hat - K_star) sigma_x (K_hat - K_star)').
    """
    delta = np.asarray(K_hat, dtype=float) - np.asarray(K_star, dtype=float)
    return 0.5 * float(np.sum((delta @ sigma_x) * delta))


def evaluate_controller(
    system: LinearSystem,
    target_task: ExpertTask,
    K_hat: np.ndarray,
    T_test: int,
    rng: np.random.Generator | list,
) -> MetricsRecord | list:
    """Coupled closed-loop evaluation of learned gains against the target expert.

    One gain K_hat (n_u, n_x) is scored on one noise realization drawn from
    the Generator rng, giving one MetricsRecord. A stack K_hat of shape
    (draws, c, n_u, n_x) is scored in one pass: rng then holds one Generator
    per draw, each draw's noise is sampled once and shared by its c gains,
    and the expert is rolled out once per draw. That gives the records of
    draw 0's gains, then draw 1's, and so on; each is, bit for bit, the
    record of a one-gain call on its draw's Generator.

    A record holds the max squared state deviation over t = 1..T_test along
    with parameter error, stability of A + B K_hat, and the closed-form
    excess risk. An overflowing rollout carries tracking_err = inf and the
    nonfinite flag.
    """
    if T_test < 1:
        raise ValueError("T_test must be >= 1")
    one_gain = np.ndim(K_hat) == 2
    if one_gain:
        K_hat, rng = K_hat[None, None], [rng]
    draws = [sample_noise(system, target_task, T_test, g) for g in rng]
    noise = NoiseRealization(
        x0=np.concatenate([d.x0 for d in draws]),
        w=np.concatenate([d.w for d in draws]),
        z=np.concatenate([d.z for d in draws]),
    )
    peak, steps = coupled_rollout(
        system, target_task.K, K_hat, noise, T_test, peak=True
    )
    gains = K_hat.reshape(-1, *K_hat.shape[2:])
    closed = system.B @ gains
    closed += system.A
    rho = np.abs(np.linalg.eigvals(closed)).max(axis=1)
    records = [
        MetricsRecord(
            tracking_err=float(np.inf if n_steps < T_test else sq),
            param_err=float(np.linalg.norm(K - target_task.K)),
            stable=bool(r < 1.0),
            excess_risk=excess_risk(K, target_task.K, target_task.sigma_x),
            nonfinite=bool(n_steps < T_test),
        )
        for K, sq, n_steps, r in zip(gains, peak.ravel(), steps.ravel(), rho)
    ]
    return records[0] if one_gain else records


def lqr_cost_gap(
    system: LinearSystem,
    target_task: ExpertTask,
    K_hat: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> tuple:
    """Gap in the max-over-horizon root LQR stage cost, and its bound.

    gap_estimate = |E h(x_hat, K_hat) - E h(x_star, K_star)| estimated over
    coupled trials, with h = max_t sqrt(x[t]'(Q + K'RK)x[t]). bound_value =
    C * sqrt(log T * ER) with C = sqrt(lmax(Q)) J ||B|| +
    sqrt(lmax(R)) (||K_star|| + sqrt(tr sigma_x / lmin sigma_x)).
    """
    K_star = target_task.K
    W_hat = Q + K_hat.T @ R @ K_hat
    W_star = Q + K_star.T @ R @ K_star
    noise = sample_noise(system, target_task, T, rng, trials=trials)
    xs, xh, steps = coupled_rollout(system, K_star, K_hat, noise, T)
    # Rows past a trial's last finite step are left out of its maximum.
    kept = np.arange(T + 1) <= steps[:, None]

    def peak_cost(x, W):
        with np.errstate(over="ignore", invalid="ignore"):
            cost = np.sqrt(np.maximum(np.sum((x @ W) * x, axis=2), 0.0))
        return np.where(kept, cost, 0.0).max(axis=1)

    h_star = peak_cost(xs, W_star)
    h_hat = peak_cost(xh, W_hat)
    gap_estimate = float(abs(h_hat.mean() - h_star.mean()))

    profile = control_math.stability_profile(system.A + system.B @ K_star)
    b_norm = np.linalg.norm(system.B, 2)
    eig_x = np.linalg.eigvalsh(target_task.sigma_x)
    const = float(
        np.sqrt(max(np.linalg.eigvalsh(Q).max(), 0.0)) * profile.j_gain * b_norm
        + np.sqrt(max(np.linalg.eigvalsh(R).max(), 0.0))
        * (np.linalg.norm(K_star, 2) + np.sqrt(eig_x.sum() / eig_x.min()))
    )
    er = excess_risk(K_hat, K_star, target_task.sigma_x)
    bound_value = const * float(np.sqrt(max(np.log(T), 0.0) * er))
    return gap_estimate, bound_value


def task_diversity_constants(
    ensemble: TaskEnsemble, truth: GroundTruthFactors
) -> DiversityReport:
    """Diversity constants of the ensemble under a known factorization.

    Raises:
        RankDeficient: if the stacked source F matrices have column rank < k.
    """
    target = ensemble.target
    eig_t, V = np.linalg.eigh(target.sigma_x)
    if eig_t.min() <= 0.0:
        raise ValueError("target stationary covariance must be PD")
    whiten = V @ np.diag(eig_t**-0.5) @ V.T
    c = min(
        float(np.linalg.eigvalsh(whiten @ task.sigma_x @ whiten).min())
        for task in ensemble.sources
    )
    f_sources = truth.f_stars[:-1]
    f_target = truth.f_stars[-1]
    stack = np.vstack(f_sources)
    if np.linalg.matrix_rank(stack) < truth.k:
        raise RankDeficient("stacked source F matrices have column rank below k")
    nu = np.linalg.norm(f_target @ np.linalg.pinv(stack), 2) ** 2
    lambdas = [np.linalg.eigvalsh(task.sigma_x) for task in ensemble.sources]
    return DiversityReport(
        c=c,
        nu=float(nu),
        nu_times_H=float(nu) * ensemble.H,
        lambda_bar=float(max(e.max() for e in lambdas)),
        lambda_under=float(min(e.min() for e in lambdas)),
    )


def summarize_quantiles(values, qs) -> list:
    """Linear-interpolation quantiles of a nonempty list."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise EmptyInput("cannot summarize an empty list")
    return [float(np.quantile(values, q)) for q in qs]
