"""Two-stage learner: shared-representation pre-training and fine-tuning.

Pre-training minimizes sum_h ||U^h - X^h Phi' F^h'||_F^2 over a shared
k x n_x representation Phi and per-task weights F^h by exact alternating
least squares: each block update is the closed-form minimizer, so the
objective is non-increasing sweep by sweep. Fine-tuning solves the target
ordinary least squares on the frozen representation. A direct OLS baseline
that ignores the source data is included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_gen import StackedData
from .errors import DegenerateRank, RankDeficient, SingularBlock


@dataclass(frozen=True)
class PretrainResult:
    """Output of the alternating least-squares pre-training stage.

    objective_trace[0] is the objective at initialization (all F^h = 0,
    i.e. sum_h ||U^h||_F^2); entry s is the objective after sweep s.
    """

    phi_hat: np.ndarray
    f_hats: list
    objective_trace: np.ndarray
    sweeps_used: int


def _solve_with_ridge_repair(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Solve M X = C; on singularity retry with lambda = 1e-12 tr(M)/dim."""
    try:
        sol = np.linalg.solve(M, C)
        if np.all(np.isfinite(sol)):
            return sol
    except np.linalg.LinAlgError:
        pass
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


def _orthonormalize(phi: np.ndarray, f_hats: list) -> tuple:
    """Canonicalize: orthonormal rows of Phi, change of basis absorbed into F.

    Thin QR of Phi' gives Phi = R' Q', so replacing Phi by Q' and each F by
    F R' leaves every product F Phi unchanged. Rows are sign-fixed so the
    first entry of each row with magnitude above 1e-12 of the row norm is
    positive.
    """
    Q, R = np.linalg.qr(phi.T)
    phi_new = Q.T.copy()
    f_new = [F @ R.T for F in f_hats]
    for j in range(phi_new.shape[0]):
        row = phi_new[j]
        row_scale = np.linalg.norm(row)
        if row_scale == 0.0:
            continue
        idx = np.flatnonzero(np.abs(row) > 1e-12 * row_scale)
        if idx.size and row[idx[0]] < 0.0:
            phi_new[j] = -row
            for F in f_new:
                F[:, j] = -F[:, j]
    return phi_new, f_new


def _objective(grams: list, phi: np.ndarray, f_hats: list) -> float:
    total = 0.0
    for (Gx, Cxu, u_sq), F in zip(grams, f_hats):
        FP = F @ phi
        total += float(np.sum((FP @ Gx) * FP) - 2.0 * np.sum(FP * Cxu.T) + u_sq)
    return total


def _phi_step_normal(grams: list, f_hats: list) -> np.ndarray:
    """sum_h kron(Gx^h, F^h' F^h), the Phi-step normal matrix in vec(Phi).

    Summed as outer products and reordered once: the same products added in
    the same order as with np.kron, so bit-identical. A GEMM or einsum over h
    would add in another order and change results.csv.
    """
    k = f_hats[0].shape[1]
    n = grams[0][0].shape[0]
    outer = np.zeros((k, k, n, n))
    for (Gx, _, _), F in zip(grams, f_hats):
        outer += np.multiply.outer(F.T @ F, Gx)
    return outer.transpose(2, 0, 3, 1).reshape(k * n, k * n)


def _als_once(
    grams: list,
    k: int,
    n: int,
    max_sweeps: int,
    rel_tol: float,
    rng: np.random.Generator,
) -> tuple:
    """One ALS run from a random orthonormal start; returns raw factors."""
    phi0 = rng.standard_normal((k, n))
    phi = np.linalg.qr(phi0.T)[0].T
    f_hats = [np.zeros((Cxu.shape[1], k)) for (_, Cxu, _) in grams]
    trace = [_objective(grams, phi, f_hats)]
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        # F-step: per-task exact least squares given Phi.
        f_hats = []
        for Gx, Cxu, _ in grams:
            M = phi @ Gx @ phi.T
            C = phi @ Cxu
            f_hats.append(_solve_with_ridge_repair(M, C).T)
        # Phi-step: joint least squares in vec(Phi) given all F.
        rhs = np.zeros((k, n))
        for (_, Cxu, _), F in zip(grams, f_hats):
            rhs += F.T @ Cxu.T
        b = rhs.ravel(order="F")
        if np.any(b):
            sol = _solve_with_ridge_repair(_phi_step_normal(grams, f_hats), b)
            phi = sol.reshape((k, n), order="F")
        obj = _objective(grams, phi, f_hats)
        trace.append(obj)
        sweeps = sweep
        prev = trace[-2]
        if prev - obj <= rel_tol * max(prev, 1e-300):
            break
    return phi, f_hats, np.array(trace), sweeps


def pretrain_alternating(
    source: list,
    k: int,
    max_sweeps: int = 500,
    rel_tol: float = 1e-10,
    rng: np.random.Generator | None = None,
    restarts: int = 1,
) -> PretrainResult:
    """Fit a shared representation to the source tasks by exact ALS.

    Alternates (a) the per-task closed form F^h' = (Phi X'X Phi')^{-1}
    Phi X'U and (b) the joint linear least squares for vec(Phi), stopping
    when the relative objective decrease falls below rel_tol. The returned
    Phi has orthonormal, sign-canonicalized rows with the change of basis
    absorbed into each F^h. With restarts > 1 the best of several random
    starts is kept.

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
    if rng is None:
        rng = np.random.default_rng(0)
    grams = [
        (d.X.T @ d.X, d.X.T @ d.U, float(np.sum(d.U**2))) for d in source
    ]
    best = None
    for _ in range(max(1, restarts)):
        phi, f_hats, trace, sweeps = _als_once(grams, k, n, max_sweeps, rel_tol, rng)
        if best is None or trace[-1] < best[2][-1]:
            best = (phi, f_hats, trace, sweeps)
    phi, f_hats, trace, sweeps = best
    phi, f_hats = _orthonormalize(phi, f_hats)
    return PretrainResult(
        phi_hat=phi, f_hats=f_hats, objective_trace=trace, sweeps_used=sweeps
    )


def finetune_target(phi_hat: np.ndarray, target: StackedData) -> np.ndarray:
    """Target-task least squares on the frozen representation.

    Returns F minimizing ||U - X Phi' F'||_F^2, i.e. F' = (Phi X'X Phi')^{-1}
    Phi X'U, with ridge repair on singular normal matrices.
    """
    Z = target.X @ phi_hat.T
    M = Z.T @ Z
    C = Z.T @ target.U
    return _solve_with_ridge_repair(M, C).T


def direct_ols(target: StackedData) -> tuple:
    """Direct behavioral cloning baseline ignoring the source data.

    Returns (K, underdetermined): the least-squares gain K' = (X'X)^{-1} X'U
    when X has full column rank, otherwise the minimum-norm solution with
    underdetermined = True.
    """
    sol, _, rank, _ = np.linalg.lstsq(target.X, target.U, rcond=None)
    return sol.T, bool(rank < target.X.shape[1])


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
