"""Monte-Carlo falsification probes for the concentration and tracking bounds.

Each probe samples either the exact setting of one probabilistic statement
or the exact joint law of the quantities its statistic reads, evaluates the
displayed bound with no hidden constants, and reports the empirical failure
rate with a 3-binomial-standard-error slack. A probe failure therefore
localizes either a transcription error or a genuinely violated statement.

Memory follows one budget, BLOCK_DOUBLES: a probe draws and reduces its
trials in blocks whose buffers hold at most that many doubles each; only a
few doubles per trial are kept whole. Block cuts only decide where a
reduction starts, so the draws, their order and every report are the same
for any budget. The covariance probe (one N x T batch per trial) and the
scalar sandwich (step-major draws) say in their docstrings what they keep.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import control_math
from .data_gen import coupled_rollout, rollout_expert, sample_noise
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


def _binomial_se(p: float, n: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / max(n, 1)))


# The one block budget: the probes stream their draws and reductions in
# blocks of trials, and no buffer of a block holds more than this many
# doubles (512 KiB). The three buffers of a maximal-probe block (1.5 MiB)
# fit in a 2 MiB L2 cache. At the reference scales 2**16 ran as fast as
# 1e5 and 1.3e5 (within run-to-run spread; the maximal probe ~15% faster
# than with its former 1e6-normal blocks), and it keeps each probe's traced
# peak at or under 3.6 MiB, against 4.9 MiB at 1e5.
BLOCK_DOUBLES = 2**16


def _block_size(per_trial: int) -> int:
    """Trials per block when the largest buffer takes `per_trial` doubles a
    trial: at least one, else as many as BLOCK_DOUBLES holds."""
    return max(1, BLOCK_DOUBLES // max(per_trial, 1))


def _blocks(n: int, size: int):
    """Consecutive slices of at most `size` items that cover range(n)."""
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


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
    fails, within 3 SE. Trials run one at a time, each on its own batch of
    N x T states, so its memory follows N T rather than BLOCK_DOUBLES.
    """
    delta_target = 0.1
    eig_s, V = np.linalg.eigh(task.sigma_x)
    whiten = V @ np.diag(eig_s**-0.5) @ V.T
    failures = 0
    margin = 0.0
    for _ in range(trials):
        X = rollout_expert(system, task, T, N, rng).X
        E = (X.T @ X) / X.shape[0]
        eigs = np.linalg.eigvalsh(whiten @ E @ whiten)
        dev = float(np.max(np.abs(eigs - 1.0)))
        margin = max(margin, dev / 0.1)
        if dev > 0.1:
            failures += 1
    rate = failures / trials
    passed = rate <= delta_target + 3.0 * _binomial_se(delta_target, trials)
    return ProbeReport(
        name="covariance_concentration",
        trials=trials,
        failures=failures,
        delta_target=delta_target,
        margin=margin,
        passed=passed,
        details={"N": N, "T": T},
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
    when the frequency exceeds the bound by more than 3 binomial standard
    errors. The two-sided variant of the statement carries a prefactor 2;
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
        freq = float(np.mean(stats >= (1.0 + eps) * fro_sq))
        bound = float(np.exp(-0.25 * min(eps * eps / 4.0, eps) * fro_sq / op_sq))
        se = _binomial_se(bound, trials)
        if freq > bound + 3.0 * se:
            failures += 1
        margin = max(margin, freq / bound if bound > 0 else float("inf"))
        per_eps[eps] = (freq, bound)
    return ProbeReport(
        name="hanson_wright",
        trials=trials,
        failures=failures,
        delta_target=0.05,
        margin=margin,
        passed=failures == 0,
        details={"per_eps": per_eps, "form": "one-sided upper tail"},
    )


def _state_feedback_regressors(eta: np.ndarray) -> np.ndarray:
    """'state-feedback' regressors (trials, H, T, d) driven by the noise eta
    (trials, H, T, d): x_{t+1} = 0.5 x_t + eta_t from x_0 = all-ones, so
    each regressor is causally dependent on past noise.
    """
    trials, H, T, d = eta.shape
    # Time-major, so each step is two in-place operations on a contiguous
    # slice, with the bits of 0.5 x_t + eta_t; then copied to
    # (trials, H, T, d), the layout the statistic's products read.
    x = np.empty((T, trials, H, d))
    x[0] = 1.0
    eta_steps = np.moveaxis(eta, 2, 0)
    for t in range(T - 1):
        np.multiply(x[t], 0.5, out=x[t + 1])
        x[t + 1] += eta_steps[t]
    return np.ascontiguousarray(np.moveaxis(x, 0, 2))


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
    regressor_kind: str = "gaussian-iid",
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
    trials. 'state-feedback', which needs dim_x == dim_eta, draws the noise,
    turns it into regressors and reduces it in blocks of trials. Any other
    kind is a ValueError. Blocks follow BLOCK_DOUBLES and only decide where
    a reduction starts: the report is the same for any budget.
    """
    H, T, d, m, sigma = setup.H, setup.T, setup.dim_x, setup.dim_eta, setup.sigma
    if regressor_kind not in ("gaussian-iid", "state-feedback"):
        raise ValueError(f"unknown regressor kind {regressor_kind!r}")
    if regressor_kind == "state-feedback" and d != m:
        raise ValueError("state-feedback regressors require dim_x == dim_eta")
    stat = np.empty(trials)
    logdet_sum = np.empty(trials)
    if regressor_kind == "gaussian-iid":
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
        for block in _blocks(trials, _block_size(H * T * d)):
            eta = sigma * rng.standard_normal((block.stop - block.start, H, T, m))
            x = _state_feedback_regressors(eta)
            x_t = np.swapaxes(x, -1, -2)  # (trials, H, d, T)
            stat[block], logdet_sum[block] = _reduce_statistic(
                np.eye(d) + x_t @ x, x_t @ eta, m
            )
    two_sigma_sq = 2.0 * sigma**2
    bound = two_sigma_sq * (logdet_sum + np.log(1.0 / delta))
    union_bound = two_sigma_sq * (logdet_sum + H * np.log(H / delta))
    fail_mask = stat > bound
    failures = int(np.count_nonzero(fail_mask))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, stat / bound, np.where(stat > 0, np.inf, 0.0))
    rate = failures / trials
    passed = rate <= delta + 3.0 * _binomial_se(delta, trials)
    return ProbeReport(
        name=f"self_normalized[{regressor_kind},H={H}]",
        trials=trials,
        failures=failures,
        delta_target=delta,
        margin=float(np.max(ratios)),
        passed=passed,
        details={
            "mean_bound_joint": float(np.mean(bound)),
            "mean_bound_union": float(np.mean(union_bound)),
            "mean_statistic": float(np.mean(stat)),
        },
    )


def verify_maximal_inequality(
    delta_gain: np.ndarray,
    sigma_x: np.ndarray,
    T: int,
    trials: int,
    rng: np.random.Generator,
) -> ProbeReport:
    """Check E[max_{t<T} ||D x_t||^2] <= 3 (1 + log T) tr(D sigma_x D').

    x_t are i.i.d. N(0, sigma_x). Fails when the Monte-Carlo estimate
    exceeds the bound by more than 3 standard errors of the estimate.

    Only D x_t enters the statistic, and D x_t ~ N(0, D sigma_x D'), so the
    probe draws y_t = F' h_t with h_t ~ N(0, I_r) and F'F = D sigma_x D':
    F is the triangular factor of a thin QR of (D L)' (L the Cholesky factor
    of sigma_x), so r = min(rows of D, dim x). QR, unlike a Cholesky factor
    of D sigma_x D', also serves a rank-deficient D.
    """
    D = np.asarray(delta_gain, dtype=float)
    L = control_math.cholesky_factor(np.asarray(sigma_x, dtype=float))
    DL = D @ L
    bound = 3.0 * (1.0 + np.log(T)) * float(np.sum(DL * DL))
    F = np.linalg.qr(DL.T, mode="r")
    stats = np.empty(trials)
    # Every block reuses the same three buffers (a leading slice for the
    # last one), and a draw into a slice gives the numbers of a fresh draw.
    size = min(_block_size(T * F.shape[1]), trials)
    h = np.empty((size, T, F.shape[0]))
    y = np.empty((size, T, F.shape[1]))
    sq_norms = np.empty((size, T))
    for block in _blocks(trials, size):
        n = block.stop - block.start
        rng.standard_normal(out=h[:n])
        np.matmul(h[:n], F, out=y[:n])
        np.square(y[:n], out=y[:n])
        np.sum(y[:n], axis=2, out=sq_norms[:n])
        sq_norms[:n].max(axis=1, out=stats[block])
    estimate = float(stats.mean())
    se = float(stats.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    failed = estimate > bound + 3.0 * se
    if bound > 0:
        margin = estimate / bound
    else:
        margin = 0.0 if estimate == 0.0 else float("inf")
    return ProbeReport(
        name="maximal_inequality",
        trials=trials,
        failures=int(failed),
        delta_target=0.05,
        margin=margin,
        passed=not failed,
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
          * ER may fail on at most a delta' fraction of trials.
    """
    K_star = target_task.K
    j_gain = control_math.stability_profile(system.A + system.B @ K_star)
    b_norm = np.linalg.norm(system.B, 2)
    gain_dev = float(np.linalg.norm(K_hat - K_star, 2))
    if gain_dev > 1.0 / (2.0 * j_gain * b_norm):
        return ProbeReport(
            name="tracking_siss",
            trials=0,
            failures=0,
            delta_target=delta_prime,
            margin=float("nan"),
            passed=False,
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
        noise = sample_noise(system, target_task, T, rng, trials=n)
        xs, devs, steps = coupled_rollout(
            system, K_star, np.broadcast_to(K_hat, (n, 1, *K_hat.shape)), noise, T
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
    margin = float(np.max(max_sq / bound_hp)) if bound_hp > 0 else 0.0
    hp_failures = int(np.count_nonzero(max_sq > bound_hp))
    rate = hp_failures / trials
    passed = det_violations == 0 and rate <= delta_prime + 3.0 * _binomial_se(
        delta_prime, trials
    )
    return ProbeReport(
        name="tracking_siss",
        trials=trials,
        failures=hp_failures,
        delta_target=delta_prime,
        margin=margin,
        passed=passed,
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
    within 3 standard errors, where ER_app = eps^2/(1-a_cl^2) (the
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
    estimate = float(max_sq.mean())
    se = float(max_sq.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    er_app = eps * eps / (1.0 - a_cl * a_cl)
    lower = 0.5 / (1.0 - a_cl) ** 2 * er_app
    upper = 12.0 * (1.0 + np.log(T)) / (1.0 - a_cl) ** 2 * er_app
    failed = (estimate < lower - 3.0 * se) or (estimate > upper + 3.0 * se)
    margin = estimate / upper if upper > 0 else 0.0
    return ProbeReport(
        name="scalar_sandwich",
        trials=trials,
        failures=int(failed),
        delta_target=0.05,
        margin=margin,
        passed=not failed,
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
