"""Monte-Carlo falsification probes for the concentration and tracking bounds.

Each probe samples either the exact setting of one probabilistic statement
or the exact joint law of the quantities its statistic reads, and evaluates
the displayed bound with no hidden constants. A probe failure therefore
localizes either a transcription error or a genuinely violated statement.

Every verdict is one of two rules. The rate rule (`_rate_holds`): a failure
rate passes up to 3 binomial standard errors above its target. The mean rule
(`_mean_verdict`): a Monte-Carlo mean passes up to 3 of its standard errors
outside [lower, upper]. Every margin is the largest statistic / bound
(`_margin`): 0 at 0/0, inf where only the bound is 0 or below.

A probe draws only what its statistic reads: the 'gaussian-iid'
self-normalized probe draws (V, S) rather than paths, and the maximal probe
draws one uniform per trial and inverts the CDF of the maximum.

Memory follows one budget, BLOCK_DOUBLES: a probe draws and reduces its
trials in blocks whose buffers hold at most that many doubles each; only a
few doubles per trial are kept whole. Block cuts only decide where a
reduction starts, so the draws, their order and every report are the same
for any budget. Two probes keep other state and say in their docstrings
what: the scalar sandwich and the 'state-feedback' self-normalized probe,
which draw step by step across all trials and so keep O(trials) state.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import control_math
from .data_gen import coupled_rollout, expert_recurrence, sample_noise
from .errors import UnstablePair
from .eval_metrics import excess_risk
from .lti_env import ExpertTask, LinearSystem


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one Monte-Carlo probe."""

    name: str
    trials: int
    failures: int
    delta_target: float
    margin: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MartingaleSetup:
    """Dimensions for the self-normalized martingale probe.

    H independent processes of horizon T with d-dimensional regressors and
    m-dimensional sigma-sub-Gaussian noise; every regularizer V^h is the
    d x d identity.
    """

    H: int
    T: int
    dim_x: int
    dim_eta: int
    sigma: float


def _rate_holds(failures: int, trials: int, p: float) -> bool:
    """The rate rule: failures / trials <= p + 3 sqrt(p (1 - p) / trials)."""
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / max(trials, 1)))
    return bool(failures / trials <= p + 3.0 * se)


def _mean_verdict(stats: np.ndarray, lower: float, upper: float) -> tuple:
    """The mean rule: (estimate, se, passed) for the mean of stats, which
    fails only more than 3 se (0 for one sample) outside [lower, upper]."""
    estimate = float(stats.mean())
    se = float(stats.std(ddof=1) / np.sqrt(stats.size)) if stats.size > 1 else 0.0
    failed = (estimate < lower - 3.0 * se) or (estimate > upper + 3.0 * se)
    return estimate, se, not failed


def _margin(stat, bound) -> float:
    """The largest stat / bound, elementwise: where the bound is not
    positive, inf for a positive statistic and 0 otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(stat, bound)
    return float(np.max(np.where(bound > 0, ratio, np.where(stat > 0, np.inf, 0.0))))


# The one block budget: the probes stream their draws and reductions in
# blocks of trials, and no buffer of a block holds more than this many
# doubles (512 KiB), so the buffers of a block fit in a 2 MiB L2 cache. At
# the reference scales 2**16 ran as fast as 1e5 and 1.3e5 (within run-to-run
# spread; the maximal probe ~15% faster than with its former 1e6-normal
# blocks), and it keeps each probe's traced peak at or under 3.6 MiB,
# against 4.9 MiB at 1e5.
BLOCK_DOUBLES = 2**16


def _block_size(per_trial: int) -> int:
    """Trials per block when the largest buffer takes `per_trial` doubles a
    trial: at least one, else as many as BLOCK_DOUBLES holds."""
    return max(1, BLOCK_DOUBLES // max(per_trial, 1))


def _blocks(n: int, size: int):
    """Consecutive slices of at most `size` items that cover range(n)."""
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


def _empirical_covariances(
    system: LinearSystem,
    task: ExpertTask,
    N: int,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(1/NT) X'X of each trial's fresh batch of N trajectories of length T,
    a stack of shape (trials, n_x, n_x).

    Each block of trials is drawn by one `sample_noise` call, whose
    buffer is its largest and follows BLOCK_DOUBLES, and rolled by one
    `expert_recurrence`: trial i gets the numbers and the bits of the i-th
    of `trials` successive `rollout_expert` calls.
    """
    n_x = system.n_x
    n_u = system.n_u if system.sigma_z else 0
    covs = np.empty((trials, n_x, n_x))
    for block in _blocks(trials, _block_size(N * n_x + N * T * (n_x + n_u))):
        n = block.stop - block.start
        x0, W, Z = sample_noise(system, task, T, N, rng, trials=n)
        X = expert_recurrence(system, task, x0, W, Z)[0].reshape(n, N * T, n_x)
        covs[block] = (np.swapaxes(X, 1, 2) @ X) / (N * T)
    return covs


def verify_covariance_concentration(
    system: LinearSystem,
    task: ExpertTask,
    N: int,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> ProbeReport:
    """Check the 0.9/1.1 PSD sandwich on the empirical state covariance.

    Per trial draws a fresh batch of N trajectories of length T and tests
    0.9 S <= (1/NT) X'X <= 1.1 S in the PSD order, where S is the task's
    stationary covariance sigma_x, via the eigenvalues of the whitened
    empirical matrix. The probe passes when at most a 0.1 fraction of trials
    fails, by the rate rule. Trials run in blocks of BLOCK_DOUBLES
    (`_empirical_covariances`), with the draws of one `rollout_expert` call
    per trial.
    """
    delta_target = 0.1
    eig_s, V = np.linalg.eigh(task.sigma_x)
    whiten = V @ np.diag(eig_s**-0.5) @ V.T
    eigs = np.linalg.eigvalsh(
        whiten @ _empirical_covariances(system, task, N, T, trials, rng) @ whiten
    )
    devs = np.max(np.abs(eigs - 1.0), axis=1)
    failures = int(np.count_nonzero(devs > 0.1))
    return ProbeReport(
        name="covariance_concentration", trials=trials, failures=failures,
        delta_target=delta_target, margin=_margin(devs, 0.1),
        passed=_rate_holds(failures, trials, delta_target), details={"N": N, "T": T},
    )


def verify_hanson_wright(
    R: np.ndarray,
    eps_grid,
    trials: int,
    rng: np.random.Generator,
) -> ProbeReport:
    """Upper-tail check for the Gaussian quadratic form ||Rz||^2.

    For each eps, compares the empirical frequency of
    ||Rz||^2 >= (1 + eps) ||R||_F^2 over z ~ N(0, I) against
    exp(-(1/4) min(eps^2/4, eps) ||R||_F^2 / ||R||^2). A grid point fails
    when its frequency fails the rate rule with the bound as target. The
    two-sided variant of the statement carries a prefactor 2;
    the one-sided form probed here is recorded in details.
    """
    R = np.asarray(R, dtype=float)
    fro_sq = float(np.sum(R * R))
    if fro_sq == 0.0:
        raise ValueError("R must be nonzero")
    op_sq = np.linalg.norm(R, 2) ** 2
    eps_grid = [float(e) for e in eps_grid]
    stats = np.empty(trials)
    for block in _blocks(trials, _block_size(max(R.shape))):
        z = rng.standard_normal((block.stop - block.start, R.shape[1]))
        stats[block] = np.sum((z @ R.T) ** 2, axis=1)
    failures = 0
    margin = 0.0
    per_eps = {}
    for eps in eps_grid:
        exceeded = int(np.count_nonzero(stats >= (1.0 + eps) * fro_sq))
        bound = float(np.exp(-0.25 * min(eps * eps / 4.0, eps) * fro_sq / op_sq))
        failures += not _rate_holds(exceeded, trials, bound)
        margin = max(margin, _margin(exceeded / trials, bound))
        per_eps[eps] = (exceeded / trials, bound)
    return ProbeReport(
        name="hanson_wright", trials=trials, failures=failures, delta_target=0.05,
        margin=margin, passed=failures == 0,
        details={"per_eps": per_eps, "form": "one-sided upper tail"},
    )


def _state_feedback_sums(
    setup: MartingaleSetup, trials: int, rng: np.random.Generator
):
    """Vbar = I + sum_t x_t x_t' and S = sum_t x_t eta_t', stacks of shape
    (trials, H, d, d) and (trials, H, d, m), for 'state-feedback' regressors
    x_{t+1} = 0.5 x_t + eta_t from x_0 = all-ones, so each regressor is
    causally dependent on past noise.

    Streams the T steps across all trials, as the paths run: step t draws
    eta_t ~ N(0, sigma^2 I) of shape (trials, H, m), adds x_t x_t' and
    x_t eta_t', then moves x on in place. No path is stored.
    """
    H, T, d, m = setup.H, setup.T, setup.dim_x, setup.dim_eta
    Vbar = np.tile(np.eye(d), (trials, H, 1, 1))
    S = np.zeros((trials, H, d, m))
    x = np.ones((trials, H, d))
    eta = np.empty((trials, H, m))
    for _ in range(T):
        rng.standard_normal(out=eta)
        eta *= setup.sigma
        Vbar += x[..., :, None] * x[..., None, :]
        S += x[..., :, None] * eta[..., None, :]
        x *= 0.5
        x += eta
    return Vbar, S


def _reduce_statistic(Vbar: np.ndarray, S: np.ndarray, m: int):
    """Per trial, sum_h S'Vbar^{-1}S and sum_h (m/2) logdet Vbar of stacks
    (trials, H, d, d) and (trials, H, d, m); logdet V^h = 0, so the latter is
    the bound's log-determinant ratio."""
    stat = np.sum(S * np.linalg.solve(Vbar, S), axis=(1, 2, 3))
    return stat, (0.5 * m * np.linalg.slogdet(Vbar)[1]).sum(axis=1)


def verify_self_normalized(
    setup: MartingaleSetup,
    delta: float,
    trials: int,
    rng: np.random.Generator,
    regressor_kind: str,
) -> ProbeReport:
    """Probe the generalized self-normalized martingale inequality.

    Per trial simulates H independent processes, forms S_T^h = sum_t x_t
    eta_t' and Vbar_T^h = V^h + sum_t x_t x_t' with V^h = I, and checks
        sum_h ||(Vbar_T^h)^{-1/2} S_T^h||_F^2
        <= 2 sigma^2 [ sum_h (m/2) logdet(Vbar_T^h (V^h)^{-1}) + log(1/delta) ].
    The statement is a fixed-T bound (no stopping times). details carries the
    mean joint bound and the mean union-bounded H-fold single-process bound
    (each process at delta/H), whose comparison motivates paying log(1/delta)
    once.

    The 'gaussian-iid' statistic reads only V = X'X and S = X'E of the T x d
    regressors X and T x m noise E, so it draws their exact joint law rather
    than the paths. With X = QR a thin QR, r = min(T, d) and R r x d upper
    trapezoidal (Bartlett), R_ii = sqrt(chi^2_{T-i}) and R_ij ~ N(0, 1) for
    j > i, all independent; Q is independent of R, so Z = Q'E is r x m
    i.i.d. N(0, sigma^2) and independent of R. Then V = R'R and S = R'Z.
    Draw order: every chi-square diagonal (trials, H, r), then the strictly
    upper normals (trials, H, row by row), then Z (trials, H, r, m). Those
    first two are held for all trials; Z is drawn and reduced in blocks of
    trials; blocks follow BLOCK_DOUBLES and only decide where a reduction
    starts, so the report is the same for any budget. 'state-feedback',
    which needs dim_x == dim_eta, streams its sums step by step across all
    trials (`_state_feedback_sums`, draw order eta_0 of every trial, then
    eta_1, and so on), so it keeps H (d^2 + d m + d + m) doubles a trial and
    no path. Any other kind is a ValueError.
    """
    H, T, d, m, sigma = setup.H, setup.T, setup.dim_x, setup.dim_eta, setup.sigma
    if regressor_kind not in ("gaussian-iid", "state-feedback"):
        raise ValueError(f"unknown regressor kind {regressor_kind!r}")
    if regressor_kind == "state-feedback" and d != m:
        raise ValueError("state-feedback regressors require dim_x == dim_eta")
    if regressor_kind == "gaussian-iid":
        stat = np.empty(trials)
        logdet_sum = np.empty(trials)
        r = min(T, d)
        rows, cols = np.triu_indices(r, 1, d)
        diag = np.sqrt(rng.chisquare(T - np.arange(r), size=(trials, H, r)))
        upper = rng.standard_normal((trials, H, rows.size))
        for block in _blocks(trials, _block_size(H * d * max(d, m))):
            n = block.stop - block.start
            R = np.zeros((n, H, r, d))
            R[..., np.arange(r), np.arange(r)] = diag[block]
            R[..., rows, cols] = upper[block]
            Z = sigma * rng.standard_normal((n, H, r, m))
            R_t = np.swapaxes(R, -1, -2)  # (trials, H, d, r)
            stat[block], logdet_sum[block] = _reduce_statistic(
                np.eye(d) + R_t @ R, R_t @ Z, m
            )
    else:
        Vbar, S = _state_feedback_sums(setup, trials, rng)
        stat, logdet_sum = _reduce_statistic(Vbar, S, m)
    two_sigma_sq = 2.0 * sigma**2
    bound = two_sigma_sq * (logdet_sum + np.log(1.0 / delta))
    union_bound = two_sigma_sq * (logdet_sum + H * np.log(H / delta))
    failures = int(np.count_nonzero(stat > bound))
    return ProbeReport(
        name=f"self_normalized[{regressor_kind},H={H}]", trials=trials,
        failures=failures, delta_target=delta, margin=_margin(stat, bound),
        passed=_rate_holds(failures, trials, delta),
        details={
            "mean_bound_joint": float(np.mean(bound)),
            "mean_bound_union": float(np.mean(union_bound)),
            "mean_statistic": float(np.mean(stat)),
        },
    )


# Wichura's AS241 (PPND16) rational approximations of the standard normal
# quantile, as `statistics.NormalDist.inv_cdf` evaluates them; numerator and
# denominator coefficients, highest power first for np.polyval.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR_TAIL = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
     4.6303378461565452959e0, 1.4234371107496835773e0),
    (1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
     2.0531916266377588219e0, 1.0),
)
_AS241_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _normal_upper_quantile(q: np.ndarray) -> np.ndarray:
    """Phi-bar^{-1}(q) = -Phi^{-1}(q), the upper-tail standard normal
    quantile, for q in (0, 0.5]: AS241 (Wichura, Applied Statistics 37(3),
    1988) with the operation order of `statistics.NormalDist().inv_cdf`,
    whose value it negates."""
    z = np.empty_like(q)
    c = q - 0.5
    central = np.abs(c) <= 0.425
    c = c[central]
    r = 0.180625 - c * c
    num, den = _AS241_CENTRAL
    z[central] = -(np.polyval(num, r) * c) / np.polyval(den, r)
    s = np.sqrt(-np.log(q[~central]))
    tail = np.empty_like(s)
    for region, shift, (num, den) in (
        (s <= 5.0, 1.6, _AS241_NEAR_TAIL),
        (s > 5.0, 5.0, _AS241_FAR_TAIL),
    ):
        r = s[region] - shift
        tail[region] = np.polyval(num, r) / np.polyval(den, r)
    z[~central] = tail
    return z


def verify_maximal_inequality(
    delta_gain: np.ndarray,
    sigma_x: np.ndarray,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> ProbeReport:
    """Check E[max_{t<T} ||D x_t||^2] <= 3 (1 + log T) tr(D sigma_x D').

    x_t are i.i.d. N(0, sigma_x) and D has one row. Fails when the
    Monte-Carlo estimate fails the mean rule with no lower bound.

    Only D x_t enters the statistic, and D x_t ~ N(0, f^2) with
    f^2 = D sigma_x D', so the statistic f^2 max_t h_t^2 (h_t ~ N(0, 1)) has
    the CDF P(|h| <= sqrt(s) / |f|)^T. The probe draws it exactly by
    inversion: one uniform V per trial, z = Phi-bar^{-1}(q) with
    q = (1 - V^(1/T)) / 2, and the statistic f^2 z^2. It works in blocks of
    BLOCK_DOUBLES / 8 trials, each drawn into the same buffer (a leading
    slice for the last one), where a draw into a slice gives the numbers of
    a fresh draw.

    Raises:
        ValueError: if D does not have exactly one row.
    """
    D = np.asarray(delta_gain, dtype=float)
    if D.shape[0] != 1:
        raise ValueError("the maximal probe takes a one-row D")
    L = control_math.cholesky_factor(np.asarray(sigma_x, dtype=float))
    DL = D @ L
    f_sq = float(np.sum(DL * DL))
    bound = 3.0 * (1.0 + np.log(T)) * f_sq
    stats = np.empty(trials)
    # The quantile holds up to eight temporaries of a block's length, so
    # all of them together stay within BLOCK_DOUBLES.
    v = np.empty(min(_block_size(8), trials))
    for block in _blocks(trials, v.size):
        u = v[: block.stop - block.start]
        rng.random(out=u)
        with np.errstate(divide="ignore"):  # V = 0 gives q = 1/2, z = 0
            q = -0.5 * np.expm1(np.log(u) / T)
        z = _normal_upper_quantile(q)
        stats[block] = f_sq * (z * z)
    estimate, se, passed = _mean_verdict(stats, -np.inf, bound)
    return ProbeReport(
        name=f"maximal_inequality[T={T}]", trials=trials, failures=int(not passed),
        delta_target=0.05, margin=_margin(estimate, bound), passed=passed,
        details={"estimate": estimate, "bound": bound, "se": se, "T": T},
    )


def verify_tracking_and_siss(
    system: LinearSystem,
    target_task: ExpertTask,
    K_hat: np.ndarray,
    T: int,
    delta_prime: float,
    trials: int,
    rng: np.random.Generator,
) -> ProbeReport:
    """Probe the deterministic and high-probability tracking displays.

    Requires the burn-in precondition ||K_hat - K_star|| <= 1/(2 J ||B||)
    with J the transient gain of the expert closed loop; otherwise returns
    an informational PreconditionNotMet report.

    Per coupled trial:
      (a) for every t, ||x_star[t] - x_hat[t]|| <= 2 J ||B|| max_{k<t}
          ||(K_hat - K_star) x_star[k]|| must hold deterministically (the
          incremental-stability display with zero initial offset; the factor
          2 absorbs the self-referencing term under the precondition);
      (b) max_t ||x_hat - x_star||^2 <= 4 J^2 ||B||^2 (1 + 4 log(T/delta'))
          * ER may fail on at most a delta' fraction of trials, by the rate
          rule.
    """
    K_star = target_task.K
    j_gain = control_math.stability_profile(system.A + system.B @ K_star, system.basis)
    b_norm = np.linalg.norm(system.B, 2)
    gain_dev = float(np.linalg.norm(K_hat - K_star, 2))
    if gain_dev > 1.0 / (2.0 * j_gain * b_norm):
        return ProbeReport(
            name="tracking_siss", trials=0, failures=0, delta_target=delta_prime,
            margin=float("nan"), passed=False,
            details={"precondition_met": False, "gain_dev": gain_dev},
        )
    er = excess_risk(K_hat, K_star, target_task.sigma_x)
    jb = j_gain * b_norm
    bound_hp = 4.0 * jb * jb * (1.0 + 4.0 * np.log(T / delta_prime)) * er
    max_sq = np.empty(trials)
    det_violations = 0
    # The draws are the same as those of one block of all trials. The
    # noise of `sample_noise` is a block's largest buffer.
    per_trial = system.n_x + T * (system.n_x + system.n_u)
    for block in _blocks(trials, _block_size(per_trial)):
        n = block.stop - block.start
        x0, W, Z = sample_noise(system, target_task, T, 1, rng, trials=n)
        gains = np.broadcast_to(K_hat, (n, 1, *K_hat.shape))
        xs, devs, steps = coupled_rollout(
            system, K_star, gains, x0[:, 0], W[:, 0], Z[:, 0]
        )
        # Per trial, only the steps before its first non-finite state count.
        kept = np.arange(T) < steps
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = np.linalg.norm(devs[:, 0], axis=2)
            deltas = np.linalg.norm(xs[:, :-1] @ (K_hat - K_star).T, axis=2)
        det_rhs = 2.0 * jb * np.maximum.accumulate(deltas, axis=1)
        slack = 1e-9 * np.maximum(1.0, np.where(kept, det_rhs, 0.0).max(axis=1))
        violated = kept & (diffs > det_rhs + slack[:, None])
        det_violations += int(np.count_nonzero(violated.any(axis=1)))
        # A trial with no finite step has max_sq = inf and counts as a failure.
        max_sq[block] = np.where(kept, diffs, -np.inf).max(axis=1) ** 2
    hp_failures = int(np.count_nonzero(max_sq > bound_hp))
    return ProbeReport(
        name="tracking_siss", trials=trials, failures=hp_failures,
        delta_target=delta_prime, margin=_margin(max_sq, bound_hp),
        passed=det_violations == 0 and _rate_holds(hp_failures, trials, delta_prime),
        details={
            "precondition_met": True,
            "det_violations": det_violations,
            "j_gain": j_gain,
            "bound_hp": bound_hp,
            "excess_risk": er,
        },
    )


def verify_scalar_sandwich(
    a: float,
    k_star: float,
    eps: float,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> ProbeReport:
    """Two-sided scalar tracking-error sandwich in the closed-loop radius.

    Couples x_star (rate a_cl = a + k_star) and x_hat (rate a_cl + eps) on a
    shared stationary initial state and unit-variance process noise, and
    checks that the Monte-Carlo estimate of E[max_{1<=t<=T} |x_star -
    x_hat|^2] lies in
        [0.5/(1-a_cl)^2 * ER_app, 12 (1 + log T)/(1-a_cl)^2 * ER_app]
    by the mean rule, where ER_app = eps^2/(1-a_cl^2) (the
    appendix's excess-risk convention, without the 1/2 factor; it equals
    twice the canonical excess risk).

    Its draws go step by step across all trials (x0 for every trial, then
    the noise of step 1 for every trial, and so on), so it keeps O(trials)
    state, five vectors, rather than blocks of BLOCK_DOUBLES.

    Raises:
        UnstablePair: unless 0 < a_cl and a_cl + eps < 1.
    """
    a_cl = a + k_star
    a_hat = a_cl + eps
    if not (0.0 < a_cl < 1.0 and a_hat < 1.0):
        raise UnstablePair(f"need 0 < {a_cl} and {a_hat} < 1")
    sd0 = 1.0 / np.sqrt(1.0 - a_cl * a_cl)
    xs = sd0 * rng.standard_normal(trials)
    xh = xs.copy()
    max_sq = np.zeros(trials)
    w = np.empty(trials)
    sq = np.empty(trials)
    # In place, with the draws and the operation order of fresh arrays.
    for _ in range(T):
        rng.standard_normal(out=w)
        np.multiply(a_cl, xs, out=xs)
        xs += w
        np.multiply(a_hat, xh, out=xh)
        xh += w
        np.subtract(xs, xh, out=sq)
        np.square(sq, out=sq)
        np.maximum(max_sq, sq, out=max_sq)
    er_app = eps * eps / (1.0 - a_cl * a_cl)
    lower = 0.5 / (1.0 - a_cl) ** 2 * er_app
    upper = 12.0 * (1.0 + np.log(T)) / (1.0 - a_cl) ** 2 * er_app
    estimate, se, passed = _mean_verdict(max_sq, lower, upper)
    return ProbeReport(
        name="scalar_sandwich", trials=trials, failures=int(not passed),
        delta_target=0.05, margin=_margin(estimate, upper), passed=passed,
        details={
            "estimate": estimate,
            "lower": lower,
            "upper": upper,
            "se": se,
            "er_appendix": er_app,
        },
    )


PROBE_CSV_HEADER = ["name", "trials", "failures", "delta_target", "margin", "pass"]


def write_probe_csv(reports: list, path: str) -> None:
    """Serialize probe reports, one row per report."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROBE_CSV_HEADER)
        for r in reports:
            writer.writerow(
                [
                    r.name,
                    r.trials,
                    r.failures,
                    repr(float(r.delta_target)),
                    repr(float(r.margin)),
                    str(bool(r.passed)).lower(),
                ]
            )


def _json_safe(value):
    """value with float dict keys as their repr, tuples as lists and
    non-finite floats as their repr ('nan', 'inf'), so that strict JSON can
    hold it."""
    if isinstance(value, dict):
        return {
            repr(k) if isinstance(k, float) else k: _json_safe(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def write_probe_details(reports: list, path: str) -> None:
    """Serialize probe reports as a JSON list, one object per report in the
    order of `write_probe_csv`'s rows: every ProbeReport field, `details`
    included, made JSON-safe by `_json_safe`."""
    entries = _json_safe([asdict(r) for r in reports])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, allow_nan=False)
        fh.write("\n")
