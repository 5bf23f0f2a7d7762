"""Seeded trajectory sampling and the coupled closed-loop rollout.

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

    Draw order per trajectory is fixed: x0 ~ N(0, sigma_x), then w ~ N(0, I)
    row-major (T x n_x), the standard normals as drawn, then z row-major
    (T x n_u) with z[t] ~ N(0, sigma_z^2 I). Trajectory i takes the i-th block
    of draws: the same numbers, bit for bit, as `trials` successive calls.
    """
    n_x, n_u = system.n_x, system.n_u
    g = rng.standard_normal((trials, n_x + T * (n_x + n_u)))
    # A stack of matrix-vector products: each trajectory gets the bits of a
    # one-trajectory call.
    x0 = (task.chol_x @ g[:, :n_x, None])[..., 0]
    w = g[:, n_x : n_x + T * n_x].reshape(-1, T, n_x)
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
    noise w ~ N(0, I), the standard normals as drawn (N x T x n_x), then
    actuator noise (N x T x n_u). K is taken to be stabilizing, as
    `make_task` checks when it builds the task.
    """
    if T < 1 or N < 1:
        raise ValueError("T and N must be >= 1")
    x = rng.standard_normal((N, system.n_x)) @ task.chol_x.T
    W = rng.standard_normal((N, T, system.n_x))
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
) -> tuple:
    """The expert trajectory of each trial and the tracking deviations of c
    learned gains from it, all on the trial's noise.

    K_learned has shape (trials, c, n_u, n_x). The expert trajectory follows
    x*[t+1] = (A + B K*) x*[t] + B z[t] + w[t] from x*[0] = noise.x0: the
    drives B z[t] + w[t] are written into rows 1..T first, and each step
    adds (A + B K*) x*[t] to its row in place. A learned trajectory is
    x_hat = x* + e, where e[0] = 0 and
    e[t+1] = (A + B K_hat) e[t] + B (K_hat - K*) x*[t].
    Both maps land in the span of the plant's basis Q, so e runs as
    r-vectors Q'e, with ||e|| = ||Q'e||: every drive
    Q'B (K_hat - K*) x*[t] comes from one GEMM, and each step is an r x r
    product per gain.

    Returns (xs, devs, steps): xs of shape (trials, T + 1, n_x), whose row t
    is x*[t]; devs of shape (trials, c, T, r), whose row t - 1 is Q'e[t] for
    t = 1..T; and steps of shape (trials, c), the number of steps before
    x*[t] or e[t] (and so x_hat[t]) first goes non-finite. Rows past a
    gain's steps are not meaningful; trial i's gain j is non-finite exactly
    when steps[i, j] < T. Every product is per trial and gain, so each entry
    has the bits of its one-trial, one-gain call.
    """
    trials, c = K_learned.shape[:2]
    Q = system.basis
    x = np.empty((trials, T + 1, system.n_x, 1))
    x[:, 0] = noise.x0[..., None]
    np.matmul(system.B, noise.z[:, :T, :, None], out=x[:, 1:])
    x[:, 1:] += noise.w[:, :T, :, None]
    expert = system.A + system.B @ K_expert
    closed = system.closed_loop_on_range(K_learned)
    gap = (Q.T @ system.B) @ (K_learned - K_expert)
    devs = np.empty((trials, c, T, Q.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            x[:, t + 1] += expert @ x[:, t]
        xs = x[..., 0]
        pushes = xs[:, None, :T] @ gap.transpose(0, 1, 3, 2)
        e = np.zeros((trials, c, Q.shape[1], 1))
        for t in range(T):
            e = closed @ e
            e += pushes[:, :, t, :, None]
            devs[:, :, t] = e[..., 0]
    finite = np.isfinite(devs).all(axis=3) & np.isfinite(xs[:, None, 1:]).all(axis=3)
    return xs, devs, np.logical_and.accumulate(finite, axis=2).sum(axis=2)
