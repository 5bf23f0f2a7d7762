"""Scalar evaluation quantities for learned controllers.

Excess risk (closed form on the stationary distribution), closed-loop
tracking error against coupled expert rollouts, parameter error, stability,
an LQR cost-gap bound, task-diversity constants, and quantile summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import control_math
from .data_gen import coupled_rollout, sample_noise
from .errors import EmptyInput, RankDeficient
from .lti_env import ExpertTask, LinearSystem, TaskEnsemble


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads inf or nan
        return 0.5 * float(np.sum((delta @ sigma_x) * delta))


def evaluate_controller(
    system: LinearSystem,
    target_task: ExpertTask,
    K_hat: np.ndarray,
    T_test: int,
    rngs: list,
) -> list:
    """Coupled closed-loop evaluation of learned gains against the target expert.

    The stack K_hat of shape (draws, c, n_u, n_x) is scored in one pass:
    rngs holds one Generator per draw, each draw's noise is sampled once and
    shared by its c gains, and the expert is rolled out once per draw. That
    gives the MetricsRecords of draw 0's gains, then draw 1's, and so on;
    each is, bit for bit, the record of its gain scored alone on its draw's
    Generator.

    A record holds the max squared state deviation over t = 1..T_test,
    taken in deviation form on the plant's range (`coupled_rollout`), along
    with parameter error, stability of A + B K_hat, and the closed-form
    excess risk. An overflowing rollout carries tracking_err = inf and the
    nonfinite flag.
    """
    draws = [sample_noise(system, target_task, T_test, 1, g) for g in rngs]
    x0, W, Z = (np.concatenate(parts)[:, 0] for parts in zip(*draws))
    _, devs, steps = coupled_rollout(system, target_task.K, K_hat, x0, W, Z)
    # A gain with fewer than T_test finite steps scores inf below, so the
    # rows past its steps need no mask.
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.sum(devs * devs, axis=3).max(axis=2)
    gains = K_hat.reshape(-1, *K_hat.shape[2:])
    # rho(A + B K) from the r x r block on the plant's range: A + B K maps
    # into span(Q), so its other eigenvalues are zero.
    rho = np.abs(np.linalg.eigvals(system.closed_loop_on_range(gains))).max(axis=1)
    return [
        MetricsRecord(
            tracking_err=float(np.inf if n_steps < T_test else sq),
            param_err=float(np.linalg.norm(K - target_task.K)),
            stable=bool(r < 1.0),
            excess_risk=excess_risk(K, target_task.K, target_task.sigma_x),
            nonfinite=bool(n_steps < T_test),
        )
        for K, sq, n_steps, r in zip(gains, peak.ravel(), steps.ravel(), rho)
    ]


def lqr_cost_gap_bound(
    system: LinearSystem,
    target_task: ExpertTask,
    K_hat: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    T: int,
) -> float:
    """Bound on the gap |E h(x_hat, K_hat) - E h(x_star, K_star)| in the
    max-over-horizon root LQR stage cost h = max_t sqrt(x[t]'(Q + K'RK)x[t]).

    The bound is C * sqrt(log T * ER) with C = sqrt(lmax(Q)) J ||B|| +
    sqrt(lmax(R)) (||K_star|| + sqrt(tr sigma_x / lmin sigma_x)).
    """
    K_star = target_task.K
    j_gain = control_math.stability_profile(system.A + system.B @ K_star, system.basis)
    b_norm = np.linalg.norm(system.B, 2)
    eig_x = np.linalg.eigvalsh(target_task.sigma_x)
    const = float(
        np.sqrt(max(np.linalg.eigvalsh(Q).max(), 0.0)) * j_gain * b_norm
        + np.sqrt(max(np.linalg.eigvalsh(R).max(), 0.0))
        * (np.linalg.norm(K_star, 2) + np.sqrt(eig_x.sum() / eig_x.min()))
    )
    er = excess_risk(K_hat, K_star, target_task.sigma_x)
    return const * float(np.sqrt(max(np.log(T), 0.0) * er))


def task_diversity_constants(ensemble: TaskEnsemble) -> DiversityReport:
    """Diversity constants of the ensemble under its known factorization,
    ensemble.truth.

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
    truth = ensemble.truth
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


def summarize_quantiles(values, qs) -> np.ndarray:
    """Linear-interpolation quantiles along the last axis of a nonempty array:
    values of shape (..., n) give shape (..., len(qs)), in one pass.

    numpy's linear rule, computed as `np.quantile` computes it: q sits at
    index i = (n - 1) q of the sorted values, between a = s[floor(i)] and
    the next value b, with g = i - floor(i); it is a + (b - a) g, or
    b - (b - a)(1 - g) when g >= 0.5. At i >= n - 1 both a and b are the
    last value and g counts from index -1, as numpy's does. A slice that
    holds a NaN gives NaN. The bits are `np.quantile`'s, but for the sign of
    a zero where +0.0 and -0.0 tie. Sorting here, not calling `np.quantile`,
    keeps its `numpy.ma` import out of a run.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise EmptyInput("cannot summarize an empty list")
    n = values.shape[-1]
    ordered = np.sort(values, axis=-1)
    index = (n - 1) * np.asarray(qs, dtype=float)
    lower = np.floor(index)
    last = index >= n - 1
    lower[last] = -1
    gamma = index - lower
    lower = lower.astype(np.intp)
    a = ordered[..., lower]
    b = ordered[..., np.where(last, -1, lower + 1)]
    with np.errstate(invalid="ignore"):
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    out[np.isnan(ordered[..., -1])] = np.nan
    return out
