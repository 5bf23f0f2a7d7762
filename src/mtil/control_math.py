"""Core matrix and control-theoretic computations.

Spectral radius, the transient gain J(A) = sum_t ||A^t||, discrete
Lyapunov and Riccati solvers, and the Cholesky factor of a covariance. All
of these are pure and operate on float64 NumPy arrays. The module also pins
numpy's bundled OpenBLAS to BLAS_THREADS for sweeps.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import CholeskyFailure, NonFiniteData, NotConverged, UnstableMatrix

PROFILE_MAX_TERMS = 1_000_000
PROFILE_TAIL_TOL = 1e-10
LYAPUNOV_MAX_ITER = 200
DARE_REL_TOL = 1e-10
DARE_MAX_ITER = 100

# OpenBLAS threads inside `mtil run` sweeps: the LU of the ALS Phi-step
# gives other bits on more than one thread, and the cells are too small to
# gain by them.
BLAS_THREADS = 1


@dataclass(frozen=True)
class RiccatiSolution:
    """Solution of a discrete algebraic Riccati equation.

    Attributes:
        P: symmetric PSD value matrix (n_x x n_x).
        K: state-feedback gain (n_u x n_x), K = -(B'PB + R)^{-1} B'PA.
    """

    P: np.ndarray
    K: np.ndarray


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError("spectral_radius requires a square matrix")
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def stability_profile(A: np.ndarray, basis: np.ndarray) -> float:
    """The transient gain J(A) = sum_t ||A^t|| (spectral norm), truncated.

    `basis` Q has orthonormal columns whose span contains range(A), as a
    plant's basis does for its closed loops A + BK. Then ||A^t|| = ||Q'A^t||
    for every t, so the powers run as r x n products R_t = R_{t-1} A from
    R_0 = Q'. With Q = I they are the full powers, with the same bits.

    With nu = (1 + rho(A)) / 2 and tau the largest ||A^t|| / nu^t so far,
    ||A^t|| <= tau nu^t holds for every computed t. The series stops once
    the tail bound tau * nu^(k+1) / (1 - nu) falls below PROFILE_TAIL_TOL,
    so the truncation error is at most PROFILE_TAIL_TOL.

    Raises:
        UnstableMatrix: if rho(A) >= 1, or so near 1 that nu rounds to 1.
        NotConverged: if PROFILE_MAX_TERMS terms do not reach the tail bound.
    """
    A = np.asarray(A, dtype=float)
    rho = spectral_radius(A)
    nu = (1.0 + rho) / 2.0  # 1.0 also for rho = 1 - 2**-53, by rounding
    if nu >= 1.0:
        raise UnstableMatrix(f"spectral radius {rho} leaves no rate in (rho, 1)")

    j_gain = 0.0
    tau = 0.0
    M = np.asarray(basis, dtype=float).T
    nu_k = 1.0
    for _ in range(PROFILE_MAX_TERMS):
        nrm = float(np.linalg.norm(M, 2))
        j_gain += nrm
        tau = max(tau, nrm / nu_k)
        if nrm == 0.0 or tau * nu_k * nu / (1.0 - nu) < PROFILE_TAIL_TOL:
            return j_gain
        M = M @ A
        nu_k *= nu
    raise NotConverged("stability_profile hit the term cap before the tail bound")


def cholesky_factor(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with diagonal jitter escalation (0, 1e-12, 1e-10).

    Jitter is relative to the mean diagonal, which is read only when S
    itself does not factor, so a finite S whose trace overflows factors as
    it is. An all-zero covariance returns the zero factor.

    Raises:
        NonFiniteData: if S has a non-finite entry.
        CholeskyFailure: if the matrix stays numerically indefinite, or
            needs jitter and its trace overflows.
    """
    S = np.asarray(S, dtype=float)
    if not np.all(np.isfinite(S)):
        raise NonFiniteData("covariance is not finite")
    if not np.any(S):
        return np.zeros_like(S)
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        pass
    with np.errstate(over="ignore"):  # an overflowing trace is refused below
        scale = np.trace(S) / S.shape[0]
    if not np.isfinite(scale):
        raise CholeskyFailure("covariance does not factor, and its trace overflows")
    for jitter in (1e-12, 1e-10):
        try:
            return np.linalg.cholesky(S + jitter * scale * np.eye(S.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise CholeskyFailure("covariance is numerically indefinite")


def _frobenius(M: np.ndarray) -> float:
    """np.linalg.norm(M, "fro"), under the caller's errstate; where its sum
    of squares overflows, a finite M is scaled by a power of two first, so
    its norm is not taken as inf."""
    norm = np.linalg.norm(M, "fro")
    if norm == np.inf and np.all(np.isfinite(M)):
        scale = np.ldexp(1.0, -np.frexp(np.abs(M).max())[1])
        norm = np.linalg.norm(scale * M, "fro") / scale
    return norm


def solve_discrete_lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve S = A S A' + Q for Schur-stable A via the doubling iteration.

    Each step maps (S, M) -> (S + M S M', M^2), which squares the effective
    power of A and converges in O(log(1/tol)) steps. S is symmetrized every
    step. Norms are taken without overflow (`_frobenius`), so a large but
    finite S converges as a small one does.

    Raises:
        UnstableMatrix: if rho(A) >= 1.
        NotConverged: if the residual exceeds 1e-10 (||A||^2 ||S|| + ||Q||)
            (Frobenius norms, spectral for A) within LYAPUNOV_MAX_ITER steps,
            or is not finite.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if spectral_radius(A) >= 1.0:
        raise UnstableMatrix("Lyapunov equation requires rho(A) < 1")
    M = A.copy()
    # An S that overflows ends in a non-finite residual, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        S = 0.5 * (Q + Q.T)
        for _ in range(LYAPUNOV_MAX_ITER):
            update = M @ S @ M.T
            S_new = S + update
            S_new = 0.5 * (S_new + S_new.T)
            if _frobenius(update) <= 1e-16 * max(1.0, _frobenius(S_new)):
                S = S_new
                break
            S = S_new
            M = M @ M
        # Rounding in A S A' scales with ||A||^2 ||S||, so the residual is
        # judged against that backward-error scale rather than ||S|| alone.
        residual = _frobenius(S - (A @ S @ A.T + Q))
        scale = np.linalg.norm(A, 2) ** 2 * _frobenius(S) + _frobenius(Q)
    # Written so that a non-finite residual (from a non-finite S) is refused.
    if not (np.isfinite(residual) and residual <= 1e-10 * scale):
        raise NotConverged(f"Lyapunov residual {residual} above tolerance")
    return S


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
) -> RiccatiSolution:
    """Solve the discrete algebraic Riccati equation by structure-preserving doubling.

    P = A'PA - A'PB (B'PB + R)^{-1} B'PA + Q is solved by the doubling
    iteration of Chu et al. (2004) (Anderson 1978) from A_0 = A,
    G_0 = B R^{-1} B', H_0 = Q:
        A_{j+1} = A_j (I + G_j H_j)^{-1} A_j
        G_{j+1} = G_j + A_j (I + G_j H_j)^{-1} G_j A_j'
        H_{j+1} = H_j + A_j' H_j (I + G_j H_j)^{-1} A_j,
    where H_j is the fixed-point iterate after 2^j Riccati steps, so it
    converges quadratically to P. It stops once the relative change of H
    falls below DARE_REL_TOL, then forms the LQR gain K = -(B'PB + R)^{-1} B'PA.

    Raises:
        NotConverged: DARE_MAX_ITER steps reached before tolerance, or an iterate
            went non-finite (an unstabilizable pair or an infinite cost).
        UnstableMatrix: the resulting closed loop A + BK has rho >= 1.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n = A.shape[0]
    Ak = A
    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    P = 0.5 * (Q + Q.T)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_ITER):
            # W^{-1} A_j and W^{-1} G_j, W = I + G_j H_j, from one solve.
            try:
                sol = np.linalg.solve(np.eye(n) + G @ P, np.hstack([Ak, G]))
            except np.linalg.LinAlgError as exc:
                raise NotConverged("DARE doubling met a singular I + GH") from exc
            WA, WG = sol[:, :n], sol[:, n:]
            P_new = P + Ak.T @ P @ WA
            P_new = 0.5 * (P_new + P_new.T)
            G = G + Ak @ WG @ Ak.T
            G = 0.5 * (G + G.T)
            Ak = Ak @ WA
            if not np.all(np.isfinite(P_new)):
                raise NotConverged("DARE doubling produced non-finite iterates")
            delta = np.linalg.norm(P_new - P, "fro")
            P = P_new
            if delta <= DARE_REL_TOL * max(1.0, np.linalg.norm(P, "fro")):
                break
        else:
            raise NotConverged("DARE doubling hit the iteration cap")
    BtP = B.T @ P
    K = -np.linalg.solve(BtP @ B + R, BtP @ A)
    rho_closed = spectral_radius(A + B @ K)
    if rho_closed >= 1.0:
        raise UnstableMatrix(f"closed-loop spectral radius {rho_closed} >= 1")
    return RiccatiSolution(P=P, K=K)


def blas_threads():
    """The thread-count `get` and `set` of numpy's bundled OpenBLAS, or None.

    Looked up through ctypes on numpy's own extension module, whose
    dependencies include the library, so nothing new is loaded. None when
    numpy was built against a BLAS without these symbols.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return SimpleNamespace(get=get, set=set_)


def pin_blas_threads() -> None:
    """Pin OpenBLAS to BLAS_THREADS, if the symbols exist.

    The process-pool initializer of a sweep, so the pin holds in the workers
    under any start method.
    """
    blas = blas_threads()
    if blas is not None:
        blas.set(BLAS_THREADS)


@contextlib.contextmanager
def pinned_blas_threads():
    """Pin OpenBLAS to BLAS_THREADS for the body, then restore the caller's
    count: the bits do not follow the caller's thread count."""
    blas = blas_threads()
    if blas is None:
        yield
        return
    previous = blas.get()
    blas.set(BLAS_THREADS)
    try:
        yield
    finally:
        blas.set(previous)
