"""Seeded trajectory sampling and the coupled closed-loop rollout.

All randomness flows through a SeedTree: a root seed plus a path of
(label, index) pairs, mapped to independent NumPy generator streams. Every
sampling routine documents its draw order so any batch can be regenerated
bit-identically from its seed path, independent of scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: a plant-free probe loads no plant module
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
class StackedData:
    """Row-stacked demonstration data; row i*T + t holds (x_i[t], u_i[t])."""

    X: np.ndarray
    U: np.ndarray


def sample_noise(
    system: LinearSystem,
    task: ExpertTask,
    T: int,
    N: int,
    rng: np.random.Generator,
    trials: int = 1,
) -> tuple:
    """The noise of `trials` batches of N trajectories of length T: the draws
    of `trials` successive `rollout_expert` calls, stacked.

    Returns (x0, W, Z) of shapes (trials, N, n_x), (trials, N, T, n_x) and
    (trials, N, T, n_u). Draw order per trial: all initial states
    x0 ~ N(0, sigma_x) (N x n_x, row-major), then process noise w ~ N(0, I),
    the standard normals as drawn (N x T x n_x), then actuator noise
    z ~ N(0, sigma_z^2 I) (N x T x n_u), which a plant with sigma_z = 0 does
    not draw (Z is zeros). One draw serves all trials, so trial i takes the
    numbers, bit for bit, of the i-th of `trials` successive calls.

    Raises:
        ValueError: if T, N or trials is below 1.
    """
    if min(T, N, trials) < 1:
        raise ValueError("T, N and trials must be >= 1")
    n_x, n_u = system.n_x, system.n_u
    n_w = N * T * n_x
    n_z = N * T * n_u if system.sigma_z else 0
    g = rng.standard_normal((trials, N * n_x + n_w + n_z))
    x0 = g[:, : N * n_x].reshape(trials, N, n_x) @ task.chol_x.T
    W = g[:, N * n_x : N * n_x + n_w].reshape(trials, N, T, n_x)
    if n_z:
        Z = system.sigma_z * g[:, N * n_x + n_w :].reshape(trials, N, T, n_u)
    else:
        Z = np.zeros((trials, N, T, n_u))
    return x0, W, Z


def expert_recurrence(
    system: LinearSystem,
    K: np.ndarray,
    x0: np.ndarray,
    W: np.ndarray,
    Z: np.ndarray,
) -> np.ndarray:
    """States of closed-loop expert trajectories, any leading batch axes.

    From x[0] = x0 (..., n_x), under process noise W (..., T, n_x) and
    actuator noise Z (..., T, n_u): x[t+1] = x[t] (A + B K)' + (z[t] B' +
    w[t]), the input of step t being u[t] = K x[t] + z[t]. Returns the
    states x[0..T], of shape (..., T + 1, n_x): the drives z B' + w are
    written into rows 1..T first, and each step adds x[t] (A + B K)' to its
    row in place. Every product is per trajectory batch, so each batch gets
    the bits of a call on it alone.
    """
    T = W.shape[-2]
    states = np.empty(W.shape[:-2] + (T + 1, W.shape[-1]))
    states[..., 0, :] = x0
    np.matmul(Z, system.B.T, out=states[..., 1:, :])
    states[..., 1:, :] += W
    closed = (system.A + system.B @ K).T
    for t in range(T):
        states[..., t + 1, :] += states[..., t, :] @ closed
    return states


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
    z_i[t]. Draws as `sample_noise` documents them: all initial states,
    then process noise, then actuator noise, which a plant with sigma_z = 0
    does not draw. K is taken to be stabilizing, as `make_task` checks when
    it builds the task. The states are `expert_recurrence`'s rows 0..T-1,
    and the inputs U = X K' + Z come from one product.
    """
    x0, W, Z = sample_noise(system, task, T, N, rng)
    X = expert_recurrence(system, task.K, x0[0], W[0], Z[0])[:, :T]
    U = X @ task.K.T + Z[0]
    return StackedData(X=X.reshape(N * T, system.n_x), U=U.reshape(N * T, system.n_u))


def coupled_rollout(
    system: LinearSystem,
    K_expert: np.ndarray,
    K_learned: np.ndarray,
    x0: np.ndarray,
    W: np.ndarray,
    Z: np.ndarray,
) -> tuple:
    """The expert trajectory of each trial and the tracking deviations of c
    learned gains from it, all on the trial's noise.

    K_learned has shape (trials, c, n_u, n_x); the noise is one trajectory
    a trial as `sample_noise(..., N=1, ..., trials)` draws it: x0
    (trials, 1, n_x), W (trials, 1, T, n_x) and Z (trials, 1, T, n_u), and T
    is read off W. The expert trajectory x* of a trial is its own
    `expert_recurrence` call under K*, so it has the bits that the training
    data's recurrence gives it. A learned trajectory is x_hat = x* + e,
    where e[0] = 0 and e[t+1] = (A + B K_hat) e[t] + B (K_hat - K*) x*[t].
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
    T = W.shape[-2]
    Q = system.basis
    closed = system.closed_loop_on_range(K_learned)
    gap = (Q.T @ system.B) @ (K_learned - K_expert)
    devs = np.empty((trials, c, T, Q.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        xs = expert_recurrence(system, K_expert, x0, W, Z)[:, 0]
        pushes = xs[:, None, :T] @ gap.transpose(0, 1, 3, 2)
        e = np.zeros((trials, c, Q.shape[1], 1))
        for t in range(T):
            e = closed @ e
            e += pushes[:, :, t, :, None]
            devs[:, :, t] = e[..., 0]
    finite = np.isfinite(devs).all(axis=3) & np.isfinite(xs[:, None, 1:]).all(axis=3)
    return xs, devs, np.logical_and.accumulate(finite, axis=2).sum(axis=2)
