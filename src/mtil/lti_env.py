"""Plant definitions, expert task ensembles, LQR synthesis, and lifting.

A task ensemble bundles one linear plant, which carries the process noise
w ~ N(0, I) and the experts' actuator-noise level, with H source expert
controllers and one target, each carrying the stationary state covariance
of its closed loop with its Cholesky factor. A plant's gains can be lifted
into a higher-dimensional observation space through an injective linear map,
in which case the ground-truth factorization K = F Phi is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import control_math
from .errors import NonFiniteData, NotConverged, RankDeficient, UnstableMatrix


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time plant x[t+1] = A x[t] + B u[t] + w[t], w[t] ~ N(0, I),
    driven by experts u[t] = K x[t] + z[t] with z[t] ~ N(0, sigma_z^2 I).

    basis has orthonormal columns whose span contains range(A) and range(B):
    a lifted plant gives its range, any other plant gets the n_x x n_x
    identity.

    Raises:
        ValueError: on mismatched shapes, or a basis whose columns are not
            orthonormal or whose span misses range(A) or range(B).
    """

    A: np.ndarray
    B: np.ndarray
    basis: np.ndarray | None = None
    sigma_z: float = 1.0

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.ndim != 2 or B.shape[1] == 0:
            raise ValueError(f"B must be n_x x n_u with n_u >= 1, got shape {B.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError("B must have the same row count as A")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if self.basis is not None:
            object.__setattr__(self, "basis", _check_basis(self.basis, A, B))
        else:
            object.__setattr__(self, "basis", np.eye(A.shape[0]))

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    def closed_loop_on_range(self, gains: np.ndarray) -> np.ndarray:
        """Q'(A + B K)Q as Q'AQ + (Q'B)(K Q) for each gain of a (..., n_u, n_x)
        stack, Q the basis.

        A + B K maps into span(Q), so this r x r matrix carries all of its
        nonzero eigenvalues, and it maps Q'e to Q'(A + B K)e for e in span(Q).
        """
        Q = self.basis
        closed = (Q.T @ self.B) @ (gains @ Q)
        closed += Q.T @ self.A @ Q
        return closed


def _check_basis(basis, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """basis as a float array, if its columns are orthonormal and span
    range(A) and range(B) up to 1e-10 relative residuals."""
    Q = np.asarray(basis, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != A.shape[0] or not 1 <= Q.shape[1] <= Q.shape[0]:
        raise ValueError("basis must be n_x x r with 1 <= r <= n_x")
    if np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() > 1e-10:
        raise ValueError("basis columns must be orthonormal")
    for name, M in (("A", A), ("B", B)):
        if np.linalg.norm(M - Q @ (Q.T @ M)) > 1e-10 * np.linalg.norm(M):
            raise ValueError(f"basis span misses range({name})")
    return Q


@dataclass(frozen=True)
class ExpertTask:
    """One expert controller, without its noise: the plant carries that.

    Attributes:
        K: stabilizing state-feedback gain (n_u x n_x).
        sigma_x: stationary state covariance of the closed loop.
        chol_x: lower Cholesky factor of sigma_x, set from it when the task
            is built.

    Raises:
        CholeskyFailure: if sigma_x is numerically indefinite.
    """

    K: np.ndarray
    sigma_x: np.ndarray
    chol_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "chol_x", control_math.cholesky_factor(self.sigma_x))


@dataclass(frozen=True)
class GroundTruthFactors:
    """Known factorization K^(h) = F^(h) Phi shared by all tasks.

    phi_star has shape k x n_x; f_stars holds H + 1 matrices of shape
    n_u x k (sources first, target last).
    """

    phi_star: np.ndarray
    f_stars: list

    @property
    def k(self) -> int:
        return self.phi_star.shape[0]


@dataclass(frozen=True)
class TaskEnsemble:
    """A plant with H source expert tasks and one target expert task."""

    system: LinearSystem
    sources: list
    target: ExpertTask
    truth: GroundTruthFactors | None = field(default=None)

    @property
    def H(self) -> int:
        return len(self.sources)

    @property
    def tasks(self) -> list:
        return list(self.sources) + [self.target]


def make_task(system: LinearSystem, K: np.ndarray) -> ExpertTask:
    """Build an ExpertTask for process noise w ~ N(0, I) and the plant's
    actuator noise z ~ N(0, sigma_z^2 I); its stationary covariance solves the
    Lyapunov equation Sigma = (A+BK) Sigma (A+BK)' + sigma_z^2 B B' + I.

    The closed loop maps into the span of the plant's basis Q, so
    Sigma = I + Q S Q', where S solves the r x r equation
    S = Abar S Abar' + Q'((A+BK)(A+BK)' + sigma_z^2 B B')Q with
    Abar = Q'(A+BK)Q; the stability check is r x r too.

    Raises:
        NonFiniteData: if that forcing is not finite.
        UnstableMatrix: if rho(A + BK) >= 1.
    """
    K = np.asarray(K, dtype=float)
    sigma_z = system.sigma_z
    basis = system.basis
    QB = basis.T @ system.B
    M = basis.T @ system.A + QB @ K  # Q'(A+BK)
    with np.errstate(over="ignore", invalid="ignore"):
        # Not M @ M.T: numpy runs that as SYRK, which rounds differently.
        forcing = M.copy() @ M.T + np.float64(sigma_z) ** 2 * (QB @ QB.T)
    if not np.all(np.isfinite(forcing)):
        raise NonFiniteData(f"Lyapunov forcing at sigma_z = {sigma_z} is not finite")
    S = control_math.solve_discrete_lyapunov(M @ basis, forcing)
    P = basis @ S @ basis.T
    sigma_x = np.eye(system.n_x) + 0.5 * (P + P.T)
    return ExpertTask(K=K, sigma_x=sigma_x)


def synthesize_expert_family(system: LinearSystem, alphas: np.ndarray) -> list:
    """One LQR gain per alpha, from the DARE with Q = alpha * I and R = I;
    a `solve_dare` failure is raised again with its alpha in the message."""
    gains = []
    eye, R = np.eye(system.n_x), np.eye(system.n_u)
    for alpha in np.asarray(alphas, dtype=float):
        try:
            sol = control_math.solve_dare(system.A, system.B, float(alpha) * eye, R)
        except (NotConverged, UnstableMatrix) as exc:
            raise type(exc)(f"no LQR expert at alpha = {alpha:.6g}: {exc}") from exc
        gains.append(sol.K)
    return gains


def build_ensemble(
    system: LinearSystem, gains: list, truth: GroundTruthFactors | None = None
) -> TaskEnsemble:
    """Assemble an ensemble on one plant from gains, the last the target's;
    each task's noise is the plant's."""
    if len(gains) < 2:
        raise ValueError("need at least one source gain plus the target gain")
    tasks = [make_task(system, K) for K in gains]
    return TaskEnsemble(system, tasks[:-1], tasks[-1], truth)


def lift_ensemble(system: LinearSystem, gains: list, G: np.ndarray) -> TaskEnsemble:
    """The ensemble of a plant's gains (target last), lifted through injective G.

    The lifted plant is (G A G+, G B) and each gain becomes K G+, where G+ is
    the pseudo-inverse; its basis is the left singular vectors of G, which
    span range(G), and it keeps the plant's sigma_z. Stationary covariances
    are solved for process noise w ~ N(0, I) in the lifted space; the ground
    truth records Phi = G+ and F^(h) equal to the given gains.

    Raises:
        RankDeficient: if G is wide or not full column rank.
    """
    G = np.asarray(G, dtype=float)
    _require_tall(*G.shape)
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    if s[-1] <= 1e-10 * s[0]:
        raise RankDeficient("lift map G is not injective")
    # Not np.linalg.pinv(G): that rounds differently and changes results.csv.
    G_pinv = (Vt.T * (1.0 / s)) @ U.T
    lifted = replace(system, A=G @ system.A @ G_pinv, B=G @ system.B, basis=U)
    truth = GroundTruthFactors(phi_star=G_pinv, f_stars=list(gains))
    return build_ensemble(lifted, [K @ G_pinv for K in gains], truth)


def _require_tall(m: int, n_x: int) -> None:
    """An m x n_x map with m < n_x has a null space: it cannot be injective."""
    if m < n_x:
        raise RankDeficient(f"lift dimension {m} is below n_x = {n_x}")


def sample_lift_map(n_x: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an m x n_x lift map with i.i.d. standard-normal entries.

    For m >= n_x such a draw is injective with probability 1; `lift_ensemble`
    refuses one that is not.

    Raises:
        RankDeficient: if m < n_x.
    """
    _require_tall(m, n_x)
    return rng.standard_normal((m, n_x))


# Plant used throughout the numerical experiments: a 4-state, 2-input
# unstable system, entries fixed to two decimals.
_HONG2021_A = np.array(
    [
        [0.99, 0.03, -0.02, -0.32],
        [0.01, 0.47, 4.70, 0.00],
        [0.02, -0.06, 0.40, 0.00],
        [0.01, -0.04, 0.72, 0.99],
    ]
)
_HONG2021_B = np.array(
    [
        [0.01, 0.99],
        [-3.44, 1.66],
        [-0.83, 0.44],
        [-0.47, 0.25],
    ]
)

PRESETS = {
    "hong2021": lambda: LinearSystem(A=_HONG2021_A.copy(), B=_HONG2021_B.copy()),
}


def get_preset(name: str) -> LinearSystem:
    """Look up a named plant preset."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return PRESETS[name]()
