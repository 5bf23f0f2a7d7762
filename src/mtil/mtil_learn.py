"""Two-stage learner: shared-representation pre-training and fine-tuning.

Pre-training minimizes sum_h ||U^h - X^h Phi' F^h'||_F^2 over a shared
k x n_x representation Phi and per-task weights F^h by exact alternating
least squares, each sweep extrapolated along its Phi move when that fits
better (Bro 1998): each block update is the closed-form minimizer, so the
objective is non-increasing sweep by sweep. Fine-tuning solves the target
ordinary least squares on the frozen representation. A direct OLS baseline
that ignores the source data is included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_gen import StackedData
from .errors import DegenerateRank, RankDeficient, SingularBlock

ALS_MAX_SWEEPS = 500
ALS_REL_TOL = 1e-10
# `direct_ols` solves a prefix's normal equations only where cond(X)^2 is
# certified below this; they lose about eps cond(X)^2, at most ~2e-8.
GRAM_COND_LIMIT = 1e8


@dataclass(frozen=True)
class PretrainResult:
    """Output of the alternating least-squares pre-training stage.

    f_hats stacks the per-task weights, shape (H, n_u, k).
    objective_trace[0] is the objective at initialization (all F^h = 0,
    i.e. sum_h ||U^h||_F^2); entry s is the objective after sweep s.
    """

    phi_hat: np.ndarray
    f_hats: np.ndarray
    objective_trace: np.ndarray
    sweeps_used: int


def _solve_with_ridge_repair(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve M X = C; on singularity retry with lambda = 1e-12 tr(M)/dim.

    M may stack matrices, shape (H, d, d) with C (H, d, m): all are solved
    at once, and only when that fails is each repaired on its own.
    """
    try:
        sol = np.linalg.solve(M, C)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
    if M.ndim == 3:
        return np.stack([_solve_with_ridge_repair(Mh, Ch) for Mh, Ch in zip(M, C)])
    lam = 1e-12 * np.trace(M) / M.shape[0]
    if lam <= 0.0:
        raise SingularBlock("normal matrix singular with zero trace")
    try:
        sol = np.linalg.solve(M + lam * np.eye(M.shape[0]), C)
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("normal matrix singular beyond ridge repair") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularBlock("normal matrix singular beyond ridge repair")
    return sol


def _orthonormalize(phi: np.ndarray, f_hats: np.ndarray) -> tuple:
    """Canonicalize: orthonormal rows of Phi, change of basis absorbed into F.

    Thin QR of Phi' gives Phi = R' Q', so replacing Phi by Q' and each F by
    F R' leaves every product F Phi unchanged. Rows are sign-fixed so the
    first entry of each row with magnitude above 1e-12 of the row norm is
    positive.
    """
    Q, R = np.linalg.qr(phi.T)
    phi_new = Q.T.copy()
    f_new = f_hats @ R.T
    for j in range(phi_new.shape[0]):
        row = phi_new[j]
        row_scale = np.linalg.norm(row)
        if row_scale == 0.0:
            continue
        idx = np.flatnonzero(np.abs(row) > 1e-12 * row_scale)
        if idx.size and row[idx[0]] < 0.0:
            phi_new[j] = -row
            f_new[:, :, j] = -f_new[:, :, j]
    return phi_new, f_new


def _objective(grams: tuple, phi: np.ndarray, f_hats: np.ndarray) -> float:
    Gx, Cxu, u_sq = grams
    FP = f_hats @ phi
    # Task by task the three terms cancel down to that task's residual.
    fit = np.sum((FP @ Gx) * FP, axis=(1, 2))
    cross = np.sum(FP * Cxu.transpose(0, 2, 1), axis=(1, 2))
    return float(np.sum(fit - 2.0 * cross + u_sq))


def _phi_step_normal(Gx: np.ndarray, f_hats: np.ndarray) -> np.ndarray:
    """sum_h kron(Gx^h, F^h' F^h), the Phi-step normal matrix in vec(Phi).

    One GEMM over h of the stacked F'F (H, k k) and Gx (H, n n) gives all the
    outer products summed, and one reorder lays them out as the Kronecker sum.
    """
    H, n, _ = Gx.shape
    k = f_hats.shape[2]
    ftf = f_hats.transpose(0, 2, 1) @ f_hats
    outer = ftf.reshape(H, k * k).T @ Gx.reshape(H, n * n)
    return outer.reshape(k, k, n, n).transpose(2, 0, 3, 1).reshape(k * n, k * n)


def _f_step(grams: tuple, phi: np.ndarray) -> np.ndarray:
    """Per-task exact least squares for F given Phi, all tasks at once."""
    Gx, Cxu, _ = grams
    M = phi @ Gx @ phi.T
    return _solve_with_ridge_repair(M, phi @ Cxu).transpose(0, 2, 1)


def _phi_step(
    grams: tuple, phi: np.ndarray, f_hats: np.ndarray, min_norm: bool
) -> np.ndarray:
    """Joint least squares in vec(Phi) given all F; Phi as it is when b = 0.

    With min_norm the normal equations are solved in the minimum-norm least
    squares sense: a source task with fewer rows than n leaves the normal
    matrix singular, and an LU solve would then put arbitrarily large
    null-space components into Phi.
    """
    Gx, Cxu, _ = grams
    b = np.einsum("hua,hiu->ai", f_hats, Cxu).ravel(order="F")
    if not np.any(b):
        return phi
    N = _phi_step_normal(Gx, f_hats)
    if min_norm:
        sol = np.linalg.lstsq(N, b, rcond=None)[0]
    else:
        sol = _solve_with_ridge_repair(N, b)
    return sol.reshape(phi.shape, order="F")


def _als_once(
    grams: tuple, k: int, rng: np.random.Generator, min_norm: bool
) -> tuple:
    """One ALS run from a random orthonormal start; returns raw factors.

    A sweep takes the exact Phi-step for the current F and the exact F for
    that Phi. From sweep 2 on it also tries Bro's extrapolation
    Phi + sweep**(1/3) (Phi_als - Phi) with its own exact F, and keeps the
    pair with the lower objective; each sweep therefore still lowers the
    objective at least as far as the plain ALS sweep.
    """
    H, n, n_u = grams[1].shape
    phi0 = rng.standard_normal((k, n))
    phi = np.linalg.qr(phi0.T)[0].T
    trace = [_objective(grams, phi, np.zeros((H, n_u, k)))]
    f_hats = _f_step(grams, phi)
    sweeps = 0
    for sweep in range(1, ALS_MAX_SWEEPS + 1):
        phi_new = _phi_step(grams, phi, f_hats, min_norm)
        f_new = _f_step(grams, phi_new)
        obj = _objective(grams, phi_new, f_new)
        if sweep >= 2:
            phi_x = phi + sweep ** (1.0 / 3.0) * (phi_new - phi)
            f_x = _f_step(grams, phi_x)
            obj_x = _objective(grams, phi_x, f_x)
            if obj_x < obj:
                phi_new, f_new, obj = phi_x, f_x, obj_x
        phi, f_hats = phi_new, f_new
        trace.append(obj)
        sweeps = sweep
        prev = trace[-2]
        if prev - obj <= ALS_REL_TOL * max(prev, 1e-300):
            break
    return phi, f_hats, np.array(trace), sweeps


def pretrain_alternating(
    source: list,
    k: int,
    rng: np.random.Generator,
    restarts: int = 1,
) -> PretrainResult:
    """Fit a shared representation to the source tasks by exact ALS.

    Alternates (a) the per-task closed form F^h' = (Phi X'X Phi')^{-1}
    Phi X'U and (b) the joint linear least squares for vec(Phi), minimum
    norm when a source task has fewer rows than n_x, in the extrapolated
    sweeps of `_als_once`, stopping when the relative objective decrease
    falls below ALS_REL_TOL. The returned Phi has orthonormal,
    sign-canonicalized rows with the change of basis absorbed into each F^h.
    With restarts > 1 the best of several random starts is kept.

    Raises:
        DegenerateRank: if k exceeds the rank of the stacked source states.
        SingularBlock: if a block solve is singular beyond ridge repair.
    """
    if not source:
        raise ValueError("need at least one source task")
    n = source[0].X.shape[1]
    if k > n:
        raise ValueError("k must not exceed the state dimension")
    for data in source:
        if data.X.shape[0] < k:
            raise ValueError("each task needs at least k data rows")
    if np.linalg.matrix_rank(np.vstack([d.X for d in source])) < k:
        raise DegenerateRank("stacked source states have rank below k")
    # Per-task Gram matrices stacked over tasks: X'X (H, n, n), X'U
    # (H, n, n_u) and ||U||^2 (H,).
    grams = (
        np.stack([d.X.T @ d.X for d in source]),
        np.stack([d.X.T @ d.U for d in source]),
        np.array([np.sum(d.U**2) for d in source]),
    )
    min_norm = any(d.X.shape[0] < n for d in source)
    best = None
    for _ in range(max(1, restarts)):
        phi, f_hats, trace, sweeps = _als_once(grams, k, rng, min_norm)
        if best is None or trace[-1] < best[2][-1]:
            best = (phi, f_hats, trace, sweeps)
    phi, f_hats, trace, sweeps = best
    phi, f_hats = _orthonormalize(phi, f_hats)
    return PretrainResult(
        phi_hat=phi, f_hats=f_hats, objective_trace=trace, sweeps_used=sweeps
    )


@dataclass(frozen=True)
class PrefixGrams:
    """Normal-equation blocks of nested prefixes of one row-stacked pool.

    Prefix j holds the first rows[j] rows of data; XX[j] = X'X and
    XU[j] = X'U over those rows.
    """

    data: StackedData
    rows: np.ndarray
    XX: np.ndarray
    XU: np.ndarray


def prefix_grams(data: StackedData, T: int, counts) -> PrefixGrams:
    """The Grams of the first counts[j] trajectories of a pool, for each j.

    data stacks N trajectories of T rows each. Each trajectory's X'X and X'U
    are formed once and summed cumulatively, so every prefix costs one add.
    """
    N = data.X.shape[0] // T
    if N * T != data.X.shape[0]:
        raise ValueError("the pool must stack whole trajectories of T rows")
    counts = np.asarray(counts, dtype=int)
    if counts.min() < 1 or counts.max() > N:
        raise ValueError(f"prefix trajectory counts must lie in [1, {N}]")
    X = data.X.reshape(N, T, -1)
    XT = X.transpose(0, 2, 1)
    XX = np.cumsum(XT @ X, axis=0)
    XU = np.cumsum(XT @ data.U.reshape(N, T, -1), axis=0)
    return PrefixGrams(
        data=data, rows=counts * T, XX=XX[counts - 1], XU=XU[counts - 1]
    )


def finetune_target(phi_hat: np.ndarray, grams: PrefixGrams) -> np.ndarray:
    """Target-task least squares on the frozen representation, per prefix.

    Returns the stack of F minimizing ||U - X Phi' F'||_F^2 over each
    prefix, i.e. F' = (Phi X'X Phi')^{-1} Phi X'U from the k x k projected
    Grams, with ridge repair on singular normal matrices.
    """
    return _f_step((grams.XX, grams.XU, None), phi_hat)


def direct_ols(grams: PrefixGrams) -> tuple:
    """Direct behavioral cloning baseline ignoring the source data, per prefix.

    Returns (K, underdetermined), stacked over the prefixes: the
    least-squares gain K' = (X'X)^{-1} X'U where X has full column rank,
    otherwise the minimum-norm solution with underdetermined = True, as
    `lstsq` ranks X.

    Prefixes are taken in order of size. A prefix nests every smaller one,
    so its smallest singular value is at least s_min, that of the largest
    full-rank prefix fitted so far, and cond(X)^2 <= tr(X'X) / s_min^2.
    Where that bound is below GRAM_COND_LIMIT the prefix has full rank and
    its normal equations lose little; all such prefixes are solved from
    their Grams in one stacked solve. Every other prefix is fitted by
    `lstsq`, which also ranks it.
    """
    data, rows = grams.data, grams.rows
    n_u, n_x = data.U.shape[1], data.X.shape[1]
    K = np.empty((rows.size, n_u, n_x))
    underdetermined = np.zeros(rows.size, dtype=bool)
    by_gram = np.zeros(rows.size, dtype=bool)
    traces = np.einsum("jii->j", grams.XX)
    s_min = 0.0
    for j in np.argsort(rows):
        if traces[j] < GRAM_COND_LIMIT * s_min**2:
            by_gram[j] = True
            continue
        sol, _, rank, s = np.linalg.lstsq(
            data.X[: rows[j]], data.U[: rows[j]], rcond=None
        )
        K[j] = sol.T
        underdetermined[j] = rank < n_x
        if not underdetermined[j]:
            s_min = s[-1]
    if by_gram.any():
        sol = np.linalg.solve(grams.XX[by_gram], grams.XU[by_gram])
        K[by_gram] = sol.transpose(0, 2, 1)
    return K, underdetermined


def subspace_distance(phi_a: np.ndarray, phi_b: np.ndarray) -> float:
    """Sine of the largest principal angle between two row spaces.

    Raises:
        RankDeficient: if either input lacks full row rank.
    """
    bases = []
    for phi in (phi_a, phi_b):
        phi = np.asarray(phi, dtype=float)
        if phi.shape[0] > phi.shape[1]:
            raise RankDeficient("more rows than columns")
        _, s, Vt = np.linalg.svd(phi, full_matrices=False)
        if s.size == 0 or s[-1] <= 1e-10 * s[0] or s[0] == 0.0:
            raise RankDeficient("input is not full row rank")
        bases.append(Vt)
    cosines = np.linalg.svd(bases[0] @ bases[1].T, compute_uv=False)
    smin = float(np.clip(cosines.min(), 0.0, 1.0))
    return float(np.sqrt(max(0.0, 1.0 - smin * smin)))
