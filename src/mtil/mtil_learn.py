"""Two-stage learner: shared-representation pre-training and fine-tuning.

Pre-training minimizes sum_h ||U^h - X^h Phi' F^h'||_F^2 over a shared
k x n_x representation Phi and per-task weights F^h by exact alternating
least squares, each sweep extrapolated along its Phi move when that fits
better (Bro 1998), and finishes with Newton steps on Phi once the sweeps
slow down. No iterate above the best objective so far is kept, so the
objective is non-increasing step by step. Fine-tuning solves the target
ordinary least squares on the frozen representation. A direct OLS baseline
that ignores the source data is included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_gen import StackedData
from .errors import DegenerateRank, NonFiniteData, RankDeficient, SingularBlock

ALS_MAX_SWEEPS = 500
ALS_REL_TOL = 1e-10
# ALS hands over to Newton steps once a sweep lowers the objective by less
# than NEWTON_START_REL relative; after a refused Newton step it runs at
# least NEWTON_RETRY_SWEEPS more sweeps before trying again.
NEWTON_START_REL = 1e-5
NEWTON_RETRY_SWEEPS = 10
# `direct_ols` solves a prefix's normal equations only where cond(X)^2 is
# certified below this; they lose about eps cond(X)^2, at most ~2e-8.
GRAM_COND_LIMIT = 1e8


@dataclass(frozen=True)
class PretrainResult:
    """Output of the alternating least-squares pre-training stage.

    f_hats stacks the per-task weights, shape (H, n_u, k).
    objective_trace[0] is the objective at initialization (all F^h = 0,
    i.e. sum_h ||U^h||_F^2); entry s is the objective after step s, an ALS
    sweep or a Newton step. sweeps_used counts the ALS sweeps and
    newton_steps the accepted Newton steps.
    """

    phi_hat: np.ndarray
    f_hats: np.ndarray
    objective_trace: np.ndarray
    sweeps_used: int
    newton_steps: int


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


def _require_finite(what: str, *grams) -> None:
    """Refuse Grams with a non-finite entry before any solve reads them."""
    if not all(np.all(np.isfinite(g)) for g in grams):
        raise NonFiniteData(
            f"{what} Grams are not finite: the data or its squares overflow"
        )


def _orthonormalize(phi: np.ndarray, f_hats: np.ndarray) -> tuple:
    """Orthonormal rows of Phi, the change of basis absorbed into F.

    Thin QR of Phi' gives Phi = R' Q', so replacing Phi by Q' and each F by
    F R' leaves every product F Phi unchanged.
    """
    Q, R = np.linalg.qr(phi.T)
    # A C-ordered copy, not the view Q.T: BLAS rounds the later products
    # of a Fortran-ordered Phi otherwise, and results.csv would move.
    return Q.T.copy(), f_hats @ R.T


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
    """Per-task exact least squares for F given Phi, all tasks at once.

    Raises:
        NonFiniteData: if a projected Gram Phi X'X Phi' overflows.
    """
    Gx, Cxu, _ = grams
    with np.errstate(over="ignore", invalid="ignore"):
        M = phi @ Gx @ phi.T
    if not np.all(np.isfinite(M)):
        raise NonFiniteData("projected Grams Phi X'X Phi' overflow")
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


def _als_sweep(
    grams: tuple, phi: np.ndarray, f_hats: np.ndarray, sweep: int, min_norm: bool
) -> tuple:
    """ALS sweep number `sweep` from (Phi, F); returns (Phi, F, objective).

    A sweep takes the exact Phi-step for the current F and the exact F for
    that Phi. From sweep 2 on it also tries Bro's extrapolation
    Phi + sweep**(1/3) (Phi_als - Phi) with its own exact F, and keeps the
    pair with the lower objective.
    """
    phi_new = _phi_step(grams, phi, f_hats, min_norm)
    f_new = _f_step(grams, phi_new)
    obj = _objective(grams, phi_new, f_new)
    if sweep >= 2:
        phi_x = phi + sweep ** (1.0 / 3.0) * (phi_new - phi)
        f_x = _f_step(grams, phi_x)
        obj_x = _objective(grams, phi_x, f_x)
        if obj_x < obj:
            return phi_x, f_x, obj_x
    return phi_new, f_new, obj


def _chart_newton(grams: tuple, phi: np.ndarray, f_hats: np.ndarray) -> tuple:
    """Half the gradient and Hessian of the reduced objective in a chart.

    With F^h eliminated in closed form (f_hats must be the exact F for phi),
    f(Phi) = sum_h ||U^h||^2 - tr(P_h' M_h^{-1} P_h), M_h = Phi G_h Phi' and
    P_h = Phi C_h. f is constant along Phi's own row space, so the chart
    Phi + Y Q' moves Phi only along Q (n x p, p = n - k), an orthonormal
    basis of the complement of that row space. Returns (Q, g, S): g (k x p)
    is half the gradient in Y and S (k p x k p) half the Hessian, both in
    vec(Y) column-major order.

    Half the gradient is -sum_h F_h' R_h Q with R_h = C_h' - F_h Phi G_h.
    Half the Hessian is the Phi-step normal matrix sum_h kron(Q'G_h Q,
    F_h'F_h) minus sum_h X_h kron(I, M_h^{-1}) X_h', where
    X_h[(m, b), (u, a)] = (Phi G_h Q)[a, m] F_h[u, b] - delta_ab (R_h Q)[u, m]
    is the Phi-F cross term; all of it comes from the stacked Grams.
    """
    Gx, Cxu, _ = grams
    k = phi.shape[0]
    Q = np.linalg.qr(phi.T, mode="complete")[0][:, k:]
    GQ = Gx @ Q
    A = phi @ GQ
    RQ = Cxu.transpose(0, 2, 1) @ Q - f_hats @ A
    grad = -np.einsum("hua,hum->am", f_hats, RQ)
    # The Cholesky factor L_h of M_h splits X_h kron(I, M_h^{-1}) X_h' into
    # Z_h Z_h' with Z_h = X_h kron(I, L_h^{-T}).
    L_inv = np.linalg.inv(np.linalg.cholesky(phi @ Gx @ phi.T))
    cross = np.einsum("ham,hub->hmbua", A, f_hats)
    cross -= np.einsum("ab,hum->hmbua", np.eye(k), RQ)
    Z = np.einsum("hmbua,hca->mbhuc", cross, L_inv).reshape(k * Q.shape[1], -1)
    hess = _phi_step_normal(Q.T @ GQ, f_hats) - Z @ Z.T
    return Q, grad, hess


def _newton_step(grams: tuple, phi: np.ndarray, f_hats: np.ndarray):
    """Phi after one Newton step on the reduced objective, or None.

    None when the chart Hessian is not positive definite, where a Newton
    step would head for a saddle or a maximum.
    """
    try:
        Q, grad, hess = _chart_newton(grams, phi, f_hats)
        np.linalg.cholesky(hess)
        y = np.linalg.solve(hess, -grad.ravel(order="F"))
    except np.linalg.LinAlgError:
        return None
    return phi + y.reshape(grad.shape, order="F") @ Q.T


def pretrain_alternating(
    source: list,
    k: int,
    rng: np.random.Generator,
) -> PretrainResult:
    """Fit a shared representation to the source tasks by exact ALS.

    Alternates (a) the per-task closed form F^h' = (Phi X'X Phi')^{-1}
    Phi X'U and (b) the joint linear least squares for vec(Phi), minimum
    norm when a source task has fewer rows than n_x, from one random
    orthonormal Phi drawn from rng. Extrapolated ALS sweeps (`_als_sweep`)
    run until one lowers the objective by less than NEWTON_START_REL
    relative; Newton steps on the reduced objective (`_chart_newton`) then
    take over while each has a positive definite chart Hessian and lowers
    the objective. A refused step hands back to ALS for at least
    NEWTON_RETRY_SWEEPS sweeps. Problems on the minimum-norm Phi-step path,
    and k == n, take ALS sweeps only. An iterate above the best objective so
    far is never kept, so the trace is non-increasing; the run stops once a
    step lowers it by at most ALS_REL_TOL relative. The returned Phi has
    orthonormal rows with the change of basis absorbed into each F^h.

    Raises:
        DegenerateRank: if fewer than k eigenvalues of X'X = sum_h X_h'X_h
            (X: the stacked source states) exceed n * eps times the largest,
            i.e. fewer than k singular values of X exceed sqrt(n * eps) s_1.
        NonFiniteData: if a source Gram, or one projected on an iterate Phi,
            has a non-finite entry.
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
    # Per-task Gram matrices stacked over tasks: X'X (H, n, n), X'U
    # (H, n, n_u) and ||U||^2 (H,).
    with np.errstate(over="ignore", invalid="ignore"):
        grams = (
            np.stack([d.X.T @ d.X for d in source]),
            np.stack([d.X.T @ d.U for d in source]),
            np.array([np.sum(d.U**2) for d in source]),
        )
    _require_finite("source", *grams)
    eig = np.linalg.eigvalsh(grams[0].sum(axis=0))
    if np.count_nonzero(eig > n * np.finfo(float).eps * eig[-1]) < k:
        raise DegenerateRank("stacked source states have rank below k")
    min_norm = any(d.X.shape[0] < n for d in source)
    phi = np.linalg.qr(rng.standard_normal((k, n)).T)[0].T
    f_zero = np.zeros((len(source), source[0].U.shape[1], k))
    trace = [_objective(grams, phi, f_zero)]
    f_hats = _f_step(grams, phi)
    finisher = not min_norm and k < n
    newton = False
    sweeps = newton_steps = retry_at = 0
    while sweeps < ALS_MAX_SWEEPS and newton_steps < ALS_MAX_SWEEPS:
        if newton:
            phi_new = _newton_step(grams, phi, f_hats)
            if phi_new is not None:
                f_new = _f_step(grams, phi_new)
                obj = _objective(grams, phi_new, f_new)
            if phi_new is None or not obj < trace[-1]:
                newton = False
                retry_at = sweeps + NEWTON_RETRY_SWEEPS
                continue
            newton_steps += 1
        else:
            sweeps += 1
            phi_new, f_new, obj = _als_sweep(grams, phi, f_hats, sweeps, min_norm)
        prev = trace[-1]
        if obj <= prev:
            phi, f_hats = phi_new, f_new
        else:
            obj = prev
        trace.append(obj)
        drop = (prev - obj) / max(prev, 1e-300)
        if drop <= ALS_REL_TOL:
            break
        newton = newton or (
            finisher and sweeps >= retry_at and drop < NEWTON_START_REL
        )
    phi, f_hats = _orthonormalize(phi, f_hats)
    return PretrainResult(
        phi_hat=phi,
        f_hats=f_hats,
        objective_trace=np.array(trace),
        sweeps_used=sweeps,
        newton_steps=newton_steps,
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
    with np.errstate(over="ignore", invalid="ignore"):  # the fits refuse it
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

    Raises:
        NonFiniteData: if a prefix Gram, or one projected on phi_hat, has a
            non-finite entry.
    """
    _require_finite("target", grams.XX, grams.XU)
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

    Raises:
        NonFiniteData: if a prefix Gram has a non-finite entry.
    """
    _require_finite("target", grams.XX, grams.XU)
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


def principal_cosines(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between two row spaces, descending.

    One cosine per row of the smaller input; sqrt(1 - cos^2) of the last is
    the sine of the largest angle.

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
    return np.clip(cosines, 0.0, 1.0)
