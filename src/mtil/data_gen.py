"""Seeded trajectory sampling and coupled rollouts.

All randomness flows through a SeedTree: a root seed plus a path of
(label, index) pairs, mapped to independent NumPy generator streams. Every
sampling routine documents its draw order so any batch can be regenerated
bit-identically from its seed path, independent of scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .lti_env import ExpertTask, LinearSystem


def _label_hash(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class SeedTree:
    """A root seed plus a path of (label, index) pairs naming a stream."""

    root: int
    path: tuple = field(default_factory=tuple)

    def child(self, label: str, index: int = 0) -> "SeedTree":
        if not (0 <= index < 2**32):
            raise ValueError("stream index must fit in 32 bits")
        return SeedTree(root=self.root, path=self.path + ((label, int(index)),))

    def stream(self) -> np.random.Generator:
        """Deterministic generator for this node."""
        key = []
        for label, index in self.path:
            key.append(_label_hash(label))
            key.append(index)
        seq = np.random.SeedSequence(entropy=self.root, spawn_key=tuple(key))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class NoiseRealization:
    """One realization of initial state, process noise, and actuator noise."""

    x0: np.ndarray
    w: np.ndarray
    z: np.ndarray


@dataclass(frozen=True)
class StackedData:
    """Row-stacked demonstration data; row i*T + t holds (x_i[t], u_i[t])."""

    X: np.ndarray
    U: np.ndarray


def sample_noise(
    system: LinearSystem,
    task: ExpertTask,
    T: int,
    rng: np.random.Generator,
    trials: int = 1,
) -> NoiseRealization:
    """Draw (x0, w, z) for `trials` trajectories, with a leading trial axis.

    Draw order per trajectory is fixed: x0 ~ N(0, sigma_x), then w row-major
    (T x n_x) with w[t] ~ N(0, sigma_w), then z row-major (T x n_u) with
    z[t] ~ N(0, sigma_z^2 I). Trajectory i takes the i-th block of draws: the
    same numbers, bit for bit, as `trials` successive one-trial calls.
    """
    n_x, n_u = system.n_x, system.n_u
    g = rng.standard_normal((trials, n_x + T * (n_x + n_u)))
    # Stacked matrix-vector and per-trial matrix products: each trajectory
    # gets the bits of a one-trajectory call.
    x0 = (task.chol_x @ g[:, :n_x, None])[..., 0]
    w = g[:, n_x : n_x + T * n_x].reshape(-1, T, n_x) @ task.chol_w.T
    z = task.sigma_z * g[:, n_x + T * n_x :].reshape(-1, T, n_u)
    return NoiseRealization(x0=x0, w=w, z=z)


def rollout_expert(
    system: LinearSystem,
    task: ExpertTask,
    T: int,
    N: int,
    rng: np.random.Generator,
) -> StackedData:
    """Simulate N closed-loop expert trajectories of length T, row-stacked.

    Row i*T + t holds (x_i[t], u_i[t]). Initial states are exact stationary
    draws x_i[0] ~ N(0, sigma_x) (no burn-in); inputs are u_i[t] = K x_i[t] +
    z_i[t]. Draw order: all initial states (N x n_x, row-major), then process
    noise (N x T x n_x), then actuator noise (N x T x n_u). K is taken to be
    stabilizing, as `make_task` checks when it builds the task.
    """
    if T < 1 or N < 1:
        raise ValueError("T and N must be >= 1")
    x = rng.standard_normal((N, system.n_x)) @ task.chol_x.T
    W = rng.standard_normal((N, T, system.n_x)) @ task.chol_w.T
    Z = task.sigma_z * rng.standard_normal((N, T, system.n_u))

    states = np.empty((N, T, system.n_x))
    inputs = np.empty((N, T, system.n_u))
    for t in range(T):
        u = x @ task.K.T + Z[:, t, :]
        states[:, t, :] = x
        inputs[:, t, :] = u
        x = x @ system.A.T + u @ system.B.T + W[:, t, :]
    return StackedData(
        X=states.reshape(N * T, system.n_x), U=inputs.reshape(N * T, system.n_u)
    )


def coupled_rollout(
    system: LinearSystem,
    K_expert: np.ndarray,
    K_learned: np.ndarray,
    noise: NoiseRealization,
    T: int,
    peak: bool = False,
) -> tuple:
    """Roll out both controllers on the same noise, all trials as one recurrence.

    Both trajectories of trial i start at noise.x0[i] and follow
    x[t+1] = (A + BK) x[t] + B z[t] + w[t]. Returns (expert_states,
    learned_states, steps): arrays of shape (trials, T + 1, n_x) whose row t
    is x[t], and per trial the number of steps before either rollout first
    overflows to non-finite values. Rows past steps[i] are not meaningful;
    trial i is non-finite exactly when steps[i] < T.

    With peak=True, K_learned stacks c gains per trial, shape (trials, c,
    n_u, n_x), each rolled out against the trial's one expert trajectory,
    and only the current states are kept. Returns (peak, steps), both of
    shape (trials, c): the max over t = 1..steps of ||x_hat[t] - x_star[t]||^2
    and the steps as above, per gain.
    """
    trials = noise.x0.shape[0]
    # States carry a gain axis: (trials, c, n_x, 1), c = 1 for one gain.
    K = K_learned if peak else K_learned[None, None]
    A_star = system.A + system.B @ K_expert
    A_hat = system.B @ K
    A_hat += system.A  # in place: a stack of c gains per trial can be large
    xs = noise.x0[:, None, :, None]
    xh = np.repeat(xs, K.shape[1], axis=1)
    alive = np.ones(xh.shape[:2], dtype=bool)
    steps = np.zeros(xh.shape[:2], dtype=int)
    if peak:
        peak_sq = np.full(xh.shape[:2], -np.inf)
    else:
        xs_all = np.empty((trials, T + 1, system.n_x))
        xh_all = np.empty_like(xs_all)
        xs_all[:, 0] = xh_all[:, 0] = noise.x0
    # Every product is a stack of matrix-vector products, one per trial and
    # gain (and per trial for the drive), so each gets the bits of its
    # one-trial, one-gain rollout whatever the batch size.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            # The drive B z[t] + w[t] is shared by the gains of a trial.
            drive = system.B @ noise.z[:, t, None, :, None]
            drive += noise.w[:, t, None, :, None]
            xs = A_star @ xs + drive
            xh = A_hat @ xh + drive
            # Steps past the first non-finite one are not counted, so running
            # on through them changes nothing.
            alive &= np.isfinite(xs).all(axis=(2, 3))
            alive &= np.isfinite(xh).all(axis=(2, 3))
            steps += alive
            if peak:
                diff = (xh - xs)[..., 0]
                sq = np.sum(diff * diff, axis=2)
                np.maximum(peak_sq, sq, out=peak_sq, where=alive)
            else:
                xs_all[:, t + 1] = xs[:, 0, :, 0]
                xh_all[:, t + 1] = xh[:, 0, :, 0]
    if peak:
        return peak_sq, steps
    return xs_all, xh_all, steps[:, 0]
