"""Dueling double DQN with prioritized replay, in plain numpy.

The network is a ReLU trunk with separate value and advantage heads,
combined as Q = V + A - mean(A).  Training follows the double-DQN rule: the
online network picks the argmax over the next state's allowed actions, the
target network scores it.  Replay is prioritized by absolute TD error with
importance-sampling correction.  Everything runs in double precision with
explicit analytic gradients so the backward pass can be checked against
finite differences.

The learner trains once per ``LEARN_EVERY`` observed transitions, DQN's
replay ratio, from the first transition that fills a batch.  The
exploration rate counts decisions, not updates: it is the rate the schedule
would reach with one update per transition, so thinning the updates leaves
exploration as it was.  Learning is still the largest part of a planning
run, about half to two thirds of each benchmark workload, against four
fifths or more with an update per decision.  The trunk is (64, 64) for
every task: at batch 64 and 2 actions one learn takes 0.66, 3.0 and 9.1 ms
at 201, 2,001 and 6,667 inputs, against 3.9, 16 and 56 ms at (256, 256) (2
vCPUs, OpenBLAS with 2 threads).  Over ten seeds per benchmark workload the
median plan quality of the two widths differs by less than 0.001.

The learner keeps its large arrays across steps.  A network keeps all its
parameters in one flat float64 vector (``QNetwork.flat``), and ``params``
maps each tensor name to a reshaped view into it, in the order the tensors
are drawn at initialization; ``backward`` writes into a gradient vector of
the same layout.  Adam updates the flat vector in place, over two scratch
buffers, with the per-tensor operations in their original order, so the
results are bit-for-bit those of one update per tensor.  The replay buffer
stores each transition field in a preallocated array and gathers a batch by
index into arrays it also keeps, so a wide state costs no fresh pages per
step.  The online network scores ``next_states`` and ``states`` in two
forward passes, not one stacked pass: a 128-row matrix product may sum in a
different order than two 64-row ones, which changes the last bits of the
Q values and, through them, of the losses and the learned plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


# one update per this many observed transitions
LEARN_EVERY = 4


class DivergenceError(Exception):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True)
class AgentConfig:
    """Hyper-parameters of the DQN agent; ``hidden`` is the trunk, and
    ``epsilon_decay_iters`` counts decisions, not updates (see above)."""

    gamma: float = 0.6
    lr: float = 0.001
    batch_size: int = 64
    buffer_capacity: int = 2000
    per_alpha: float = 0.2
    per_beta: float = 0.6
    target_sync_every: int = 100
    epsilon_start: float = 1.0
    epsilon_final: float = 0.1
    epsilon_decay_iters: int = 2000
    hidden: tuple[int, ...] = (64, 64)
    huber_delta: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8


def epsilon_at(decisions: int, config: AgentConfig) -> float:
    """Linearly decayed exploration rate after ``decisions`` decisions past the first batch."""
    if config.epsilon_decay_iters <= 0:
        return config.epsilon_final
    frac = min(1.0, max(0.0, decisions / config.epsilon_decay_iters))
    return config.epsilon_start + (config.epsilon_final - config.epsilon_start) * frac


class QNetwork:
    """Dueling MLP: shared ReLU trunk, value head and advantage head.

    ``params`` and ``grads`` are views into the flat vectors ``flat`` and
    ``grad_flat``: write into a view (``params[key][...] = value``), never
    rebind it, or the flat vector no longer sees the change.
    """

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden: Sequence[int],
        rng: np.random.Generator | None = None,
        flat: np.ndarray | None = None,
    ):
        """Draw the parameters from ``rng``, or take ``flat`` over as they are."""
        if state_dim < 1 or num_actions < 1:
            raise ValueError("state_dim and num_actions must be positive")
        if not hidden:
            raise ValueError("the trunk needs at least one hidden layer")
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.hidden = tuple(hidden)
        # (name, shape, fan-in) in drawing order
        self._layout: list[tuple[str, tuple[int, ...], int]] = []
        fan_in = state_dim
        for i, width in enumerate(self.hidden):
            self._layout += [(f"w{i}", (fan_in, width), fan_in), (f"b{i}", (width,), fan_in)]
            fan_in = width
        for head, width in (("v", 1), ("a", num_actions)):
            self._layout += [(f"w{head}", (fan_in, width), fan_in), (f"b{head}", (width,), fan_in)]
        size = sum(int(np.prod(shape)) for _, shape, _ in self._layout)
        self.flat = np.empty(size) if flat is None else flat
        self.params = self.views(self.flat)
        self.grad_flat = np.empty(size)
        self.grads = self.views(self.grad_flat)
        if flat is None:
            rng = rng or np.random.default_rng(0)
            for key, shape, fan_in in self._layout:
                bound = 1.0 / np.sqrt(fan_in)
                self.params[key][...] = rng.uniform(-bound, bound, size=shape)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views into a vector laid out like ``flat``."""
        out: dict[str, np.ndarray] = {}
        start = 0
        for key, shape, _ in self._layout:
            stop = start + int(np.prod(shape))
            out[key] = flat[start:stop].reshape(shape)
            start = stop
        return out

    def forward(self, states: np.ndarray) -> np.ndarray:
        q, _ = self.forward_cached(states)
        return q

    def forward_cached(self, states: np.ndarray) -> tuple[np.ndarray, dict]:
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if x.shape[1] != self.state_dim:
            raise ValueError(f"expected state dim {self.state_dim}, got {x.shape[1]}")
        cache: dict = {"inputs": [x]}
        h = x
        for i in range(len(self.hidden)):
            z = h @ self.params[f"w{i}"] + self.params[f"b{i}"]
            h = np.maximum(z, 0.0)
            cache.setdefault("pre", []).append(z)
            cache["inputs"].append(h)
        value = h @ self.params["wv"] + self.params["bv"]
        advantage = h @ self.params["wa"] + self.params["ba"]
        q = value + advantage - advantage.mean(axis=1, keepdims=True)
        cache["trunk_out"] = h
        return q, cache

    def backward(self, cache: dict, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given dLoss/dQ, written into ``grads``."""
        grads, params = self.grads, self.params
        h = cache["trunk_out"]
        dvalue = dq.sum(axis=1, keepdims=True)
        dadv = dq - dvalue / self.num_actions
        np.matmul(h.T, dvalue, out=grads["wv"])
        dvalue.sum(axis=0, out=grads["bv"])
        np.matmul(h.T, dadv, out=grads["wa"])
        dadv.sum(axis=0, out=grads["ba"])
        dh = dvalue @ params["wv"].T + dadv @ params["wa"].T
        for i in range(len(self.hidden) - 1, -1, -1):
            dz = dh * (cache["pre"][i] > 0.0)
            np.matmul(cache["inputs"][i].T, dz, out=grads[f"w{i}"])
            dz.sum(axis=0, out=grads[f"b{i}"])
            if i:  # nothing needs the gradient of the states
                dh = dz @ params[f"w{i}"].T
        return grads

    def copy_from(self, other: "QNetwork") -> None:
        self.flat[...] = other.flat

    def clone(self) -> "QNetwork":
        return QNetwork(self.state_dim, self.num_actions, self.hidden, flat=self.flat.copy())


def act(
    net: QNetwork,
    state: np.ndarray,
    mask: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy action over the allowed set."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("no action is allowed")
    if rng.random() < epsilon:
        allowed = np.flatnonzero(mask)
        return int(allowed[rng.integers(len(allowed))])
    # the highest-Q allowed action; ties resolve to the lowest index
    return int(np.argmax(np.where(mask, net.forward(state)[0], -np.inf)))


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    next_mask: np.ndarray


class Batch(NamedTuple):
    """Transition fields, one row per transition."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    done: np.ndarray
    next_masks: np.ndarray


class PrioritizedReplayBuffer:
    """Ring buffer with proportional prioritized sampling.

    Each transition field lives in its own array, allocated on the first
    push once the state and mask sizes are known.  ``sample`` gathers into
    batch arrays allocated on the first sample and overwritten by the next.
    """

    def __init__(self, capacity: int = 2000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._store: Batch | None = None
        self._batch: Batch | None = None
        self._priorities = np.zeros(capacity, dtype=np.float64)
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        """Insert with the current maximum priority so it gets sampled soon."""
        t = transition
        if self._store is None:
            n = self.capacity
            self._store = Batch(
                np.zeros((n, len(t.state))),
                np.zeros(n, dtype=np.int64),
                np.zeros(n),
                np.zeros((n, len(t.next_state))),
                np.zeros(n),
                np.zeros((n, len(t.next_mask)), dtype=bool),
            )
        priority = self._priorities[: self._size].max() if self._size else 1.0
        fields = (t.state, t.action, t.reward, t.next_state, t.done, t.next_mask)
        for column, value in zip(self._store, fields):
            column[self._next] = value
        self._priorities[self._next] = priority
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(
        self, batch_size: int, alpha: float, beta: float, rng: np.random.Generator
    ) -> tuple[np.ndarray, Batch, np.ndarray]:
        """Sample indices with probability proportional to priority**alpha.

        Returns (indices, the transitions at them, importance weights);
        weights are normalized by the batch maximum.
        """
        n = self._size
        if n < batch_size:
            raise ValueError("not enough transitions to sample a batch")
        scaled = self._priorities[:n] ** alpha
        probs = scaled / scaled.sum()
        indices = rng.choice(n, size=batch_size, replace=True, p=probs)
        weights = (n * probs[indices]) ** (-beta)
        weights = weights / weights.max()
        if self._batch is None or len(self._batch.actions) != batch_size:
            self._batch = Batch(*(np.empty((batch_size, *c.shape[1:]), c.dtype) for c in self._store))
        for column, out in zip(self._store, self._batch):
            # mode="clip" gathers straight into out; "raise" would buffer a copy
            np.take(column, indices, axis=0, out=out, mode="clip")
        return indices, self._batch, weights

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        self._priorities[indices] = np.abs(td_errors) + 1e-6


class AdamOptimizer:
    """Adam with bias correction over one flat parameter vector, in place."""

    def __init__(self, params: np.ndarray, config: AgentConfig):
        self.lr = config.lr
        self.beta1 = config.adam_beta1
        self.beta2 = config.adam_beta2
        self.eps = config.adam_eps
        self.t = 0
        # np.zeros and np.empty leave the pages untouched until the first step
        self.m = np.zeros(params.shape)
        self.v = np.zeros(params.shape)
        self._scratch = (np.empty(params.shape), np.empty(params.shape))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and
        ``params -= lr*(m/c1) / (sqrt(v/c2) + eps)``, operation by operation."""
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        a, b = self._scratch
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.square(grads, out=a)
        a *= 1.0 - self.beta2
        v += a
        np.divide(v, correct2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, correct1, out=b)
        b *= self.lr
        b /= a
        params -= b


def huber(x: np.ndarray, delta: float) -> np.ndarray:
    absx = np.abs(x)
    return np.where(absx <= delta, 0.5 * x**2, delta * (absx - 0.5 * delta))


def train_step(
    net: QNetwork,
    target_net: QNetwork,
    buffer: PrioritizedReplayBuffer,
    config: AgentConfig,
    optimizer: AdamOptimizer,
    rng: np.random.Generator,
) -> float:
    """One double-DQN update on a prioritized batch; returns the loss."""
    indices, batch, weights = buffer.sample(
        config.batch_size, config.per_alpha, config.per_beta, rng
    )
    states, actions, rewards, next_states, done, next_masks = batch
    rows = np.arange(len(indices))

    # terminal rows may have empty masks; their bootstrap term is zeroed anyway
    has_next = next_masks.any(axis=1)
    safe_masks = next_masks  # the buffer's batch array, refilled by every sample
    safe_masks[~has_next, 0] = True
    done = np.maximum(done, (~has_next).astype(np.float64))

    online_next = net.forward(next_states)
    best_next = np.argmax(np.where(safe_masks, online_next, -np.inf), axis=1)
    target_next = target_net.forward(next_states)[rows, best_next]
    targets = rewards + config.gamma * (1.0 - done) * target_next

    q_all, cache = net.forward_cached(states)
    q_taken = q_all[rows, actions]
    td = q_taken - targets

    loss = float(np.mean(weights * huber(td, config.huber_delta)))
    dq_taken = weights * np.clip(td, -config.huber_delta, config.huber_delta) / len(indices)
    dq = np.zeros_like(q_all)
    dq[rows, actions] = dq_taken
    net.backward(cache, dq)
    optimizer.step(net.flat, net.grad_flat)
    buffer.update_priorities(indices, td)
    return loss


class DqnAgent:
    """Convenience wrapper tying the network, target, buffer and Adam together."""

    def __init__(self, config: AgentConfig, state_dim: int, num_actions: int, seed: int = 0):
        # a buffer that cannot fill a batch would never train, while epsilon decayed
        if config.buffer_capacity < config.batch_size:
            raise ValueError("the replay buffer must hold at least one batch")
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.net = QNetwork(state_dim, num_actions, config.hidden, self.rng)
        self.target = self.net.clone()
        self.buffer = PrioritizedReplayBuffer(config.buffer_capacity)
        self.optimizer = AdamOptimizer(self.net.flat, config)
        self.observed = 0
        self.train_steps = 0

    @property
    def epsilon(self) -> float:
        """The rate of one update per decision from the first full batch on."""
        return epsilon_at(max(0, self.observed - self.config.batch_size + 1), self.config)

    def act(self, state: np.ndarray, mask: np.ndarray) -> int:
        return act(self.net, state, mask, self.epsilon, self.rng)

    def observe(self, transition: Transition) -> None:
        self.buffer.push(transition)
        self.observed += 1

    def learn(self) -> float | None:
        """Run one training step once the buffer can fill a batch."""
        if len(self.buffer) < self.config.batch_size:
            return None
        loss = train_step(
            self.net, self.target, self.buffer, self.config, self.optimizer, self.rng
        )
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss diverged to {loss}")
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_every == 0:
            self.target.copy_from(self.net)
        return loss
