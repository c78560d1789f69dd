"""Dueling DQN with uniform replay, in plain numpy.

The network is a ReLU trunk with separate value and advantage heads,
combined as Q = V + A - mean(A).  One network both acts and bootstraps: a
TD target takes its masked maximum over the next state's allowed actions,
as in the first DQN (arXiv 1312.5602).  Each update draws its batch
uniformly, with replacement, from the filled part of the replay ring, and
minimizes the plain mean Huber loss of the batch's TD errors.  Everything
runs in double precision with explicit analytic gradients so the backward
pass can be checked against finite differences.

``AgentConfig`` holds the two settings the tasks set apart (flags and the
CLI's per-task defaults); every other hyper-parameter is a module constant,
the discount ``GAMMA``, the replay batch ``BATCH_SIZE`` and the ring's
``BUFFER_CAPACITY`` among them.

One stdlib ``random.Random(seed)`` per agent makes every random draw, in
this order: the network's initial weights, tensor by tensor in layout
order; then per decision one ``random()`` for the epsilon test and, when
it explores, one ``randrange`` over the allowed actions; then per update
``BATCH_SIZE`` values of ``random()`` that pick the replay batch.  The
numpy generator, whose first import costs about 10 ms of every run's
set-up, is not used; only profile generation (``autoplan.dataproc``,
``--dist``) loads it.  Python keeps ``random()``'s sequence for an int
seed the same across versions, and the weights and replay draws are
values of that sequence; ``randrange``, and ``randbytes``, through which
the weights are drawn in bulk, are stable only within one version.  A seed
therefore repeats its plan on one Python version, and across versions
while those two methods do not change.

``DqnAgent`` owns its update schedule: it trains once per ``LEARN_EVERY``
free decisions, DQN's replay ratio, from the first full batch on.  ``act``
notes whether its decision is a free one that is due, and ``observe`` then
stores the transition and, once the buffer holds a batch, calls ``learn``
and returns the loss, so each ``learn`` call is one update.  A decision is
free when its mask allows more than one action.  A forced step, such as a
pp-infer device cut pinned to its band's centre, is still acted on and
observed, so replay bootstraps through it, but it does not count toward the
next update.  The exploration rate counts every observed transition, not
updates or free decisions: it is the rate the schedule would reach with one
update per transition, so thinning the updates leaves exploration as it
was.  Learning is still the largest part of a planning run, against four
fifths or more with an update per decision: 0.56 of the traced
``opp-mlp100`` benchmark workload and 0.58 of ``pptrain-chain128``, whose
env steps no longer cost stage plans, and 0.44 of ``ppinfer-bert48``,
whose head scores only the 24 actions its bands allow (see
``autoplan.envs.PickEnv``; ``share.agent_learn``, median of 7 traced runs
at seed 0, 2 vCPUs).  The trunk is (64, 64) for
every task: at batch 64 and 2 actions one learn takes 0.44, 2.2 and
7.1 ms at 201, 2,001 and 6,667 inputs, against 2.3, 8.4 and 28 ms at (256, 256) (2 vCPUs,
OpenBLAS with 2 threads).  Over ten seeds per benchmark workload the median plan quality of
the two widths differs by less than 0.001.

The learner keeps its large arrays across steps.  A network keeps all its
parameters in one flat float64 vector (``QNetwork.flat``), and ``params``
maps each tensor name to a reshaped view into it, in the order the tensors
are drawn at initialization; ``backward`` writes into a gradient vector of
the same layout.  Adam updates the flat vector in place, over two scratch
buffers, with the per-tensor operations in their original order, so the
results are bit-for-bit those of one update per tensor.  The replay buffer
stores each transition field in a preallocated array and gathers a batch by
index into arrays it also keeps, so a wide state costs no fresh pages per
step.  The network scores ``next_states`` and ``states`` in two forward
passes, not one stacked pass: a 128-row matrix product may sum in a
different order than two 64-row ones, which changes the last bits of the
Q values and, through them, of the losses and the learned plans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


# one update per this many free decisions (masks allowing more than one action)
LEARN_EVERY = 4
HIDDEN = (64, 64)  # the trunk's layer widths
GAMMA = 0.6  # the TD target's discount
BATCH_SIZE = 64  # transitions per update
BUFFER_CAPACITY = 2000  # transitions the replay ring holds
# exploration decays linearly from EPSILON_START to EPSILON_FINAL
EPSILON_START = 1.0
EPSILON_FINAL = 0.1
HUBER_DELTA = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(Exception):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True)
class AgentConfig:
    """The settings the tasks set apart; ``epsilon_decay_iters`` counts
    decisions, not updates (see above)."""

    lr: float = 0.001
    epsilon_decay_iters: int = 2000


def epsilon_at(decisions: int, config: AgentConfig) -> float:
    """Linearly decayed exploration rate after ``decisions`` decisions past the first batch."""
    if config.epsilon_decay_iters <= 0:
        return EPSILON_FINAL
    frac = min(1.0, max(0.0, decisions / config.epsilon_decay_iters))
    return EPSILON_START + (EPSILON_FINAL - EPSILON_START) * frac


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, drawn in bulk.

    ``random()`` makes a float from two 32-bit outputs of the generator, the
    top 27 bits of the first and the top 26 of the second; ``randbytes``
    hands out the same outputs in the same order, four little-endian bytes
    each, and leaves the generator where ``n`` calls would.
    """
    words = np.frombuffer(rng.randbytes(8 * n), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


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
        rng: random.Random,
    ):
        """Draw the parameters from ``rng``.

        Each parameter is ``rng.uniform(-b, b)`` with ``b = 1/sqrt(fan_in)``
        of its layer, drawn in layout order; the draws are made in bulk
        (``uniforms``), but the values are those of one call per parameter.
        """
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
        self.flat = uniforms(rng, size)
        self.params = self.views(self.flat)
        self.grad_flat = np.empty(size)
        self.grads = self.views(self.grad_flat)
        for key, _, fan_in in self._layout:
            # random.uniform's -b + (b - -b) * u, operation by operation
            bound = 1.0 / np.sqrt(fan_in)
            view = self.params[key]
            view *= 2.0 * bound
            view -= bound

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


class ReplayBuffer:
    """Ring buffer with uniform sampling.

    Each transition field lives in its own array, allocated on the first
    push once the state and mask sizes are known.  ``sample`` gathers into
    batch arrays allocated on the first sample and overwritten by the next.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._store: Batch | None = None
        self._batch: Batch | None = None
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        """Insert, overwriting the oldest transition once the buffer is full."""
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
        fields = (t.state, t.action, t.reward, t.next_state, t.done, t.next_mask)
        for column, value in zip(self._store, fields):
            column[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: random.Random) -> Batch:
        """``batch_size`` transitions drawn uniformly, with replacement.

        Each index is ``int(u * n)`` for one ``u = rng.random()``, where
        ``n`` is the number of filled slots; as ``u < 1``, it is below ``n``.
        """
        n = self._size
        if n < batch_size:
            raise ValueError("not enough transitions to sample a batch")
        indices = [int(rng.random() * n) for _ in range(batch_size)]
        if self._batch is None or len(self._batch.actions) != batch_size:
            self._batch = Batch(*(np.empty((batch_size, *c.shape[1:]), c.dtype) for c in self._store))
        for column, out in zip(self._store, self._batch):
            # mode="clip" gathers straight into out; "raise" would buffer a copy
            np.take(column, indices, axis=0, out=out, mode="clip")
        return self._batch


# the name bench/tracing.py wraps (agent.replay_sample, agent.replay_push)
PrioritizedReplayBuffer = ReplayBuffer


class AdamOptimizer:
    """Adam with bias correction over one flat parameter vector, in place."""

    def __init__(self, params: np.ndarray, lr: float):
        self.lr = lr
        self.t = 0
        # np.zeros and np.empty leave the pages untouched until the first step
        self.m = np.zeros(params.shape)
        self.v = np.zeros(params.shape)
        self._scratch = (np.empty(params.shape), np.empty(params.shape))

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and
        ``params -= lr*(m/c1) / (sqrt(v/c2) + eps)``, operation by operation."""
        self.t += 1
        correct1 = 1.0 - ADAM_BETA1**self.t
        correct2 = 1.0 - ADAM_BETA2**self.t
        m, v = self.m, self.v
        a, b = self._scratch
        m *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.square(grads, out=a)
        a *= 1.0 - ADAM_BETA2
        v += a
        np.divide(v, correct2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, correct1, out=b)
        b *= self.lr
        b /= a
        params -= b


def huber(x: np.ndarray, delta: float) -> np.ndarray:
    absx = np.abs(x)
    return np.where(absx <= delta, 0.5 * x**2, delta * (absx - 0.5 * delta))


class DqnAgent:
    """The network, replay buffer and Adam, and the schedule that trains them."""

    def __init__(self, config: AgentConfig, state_dim: int, num_actions: int, seed: int = 0):
        # random.Random(-s) would seed the stream of Random(s), and a float seed its hash
        if not isinstance(seed, int) or seed < 0:
            raise ValueError(f"the seed must be a non-negative int, got {seed!r}")
        self.config = config
        self.rng = random.Random(seed)
        self.net = QNetwork(state_dim, num_actions, HIDDEN, self.rng)
        self.buffer = ReplayBuffer(BUFFER_CAPACITY)
        self.optimizer = AdamOptimizer(self.net.flat, config.lr)
        self.observed = 0
        # decisions whose mask allowed more than one action
        self._free_decisions = 0
        # whether the last decision was a free one that the schedule trains on
        self._due = False
        self.train_steps = 0

    @property
    def epsilon(self) -> float:
        """The rate of one update per decision from the first full batch on."""
        return epsilon_at(max(0, self.observed - BATCH_SIZE + 1), self.config)

    def act(self, state: np.ndarray, mask: np.ndarray) -> int:
        """Epsilon-greedy action over the allowed set."""
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("no action is allowed")
        self._due = False
        if np.count_nonzero(mask) > 1:
            self._free_decisions += 1
            self._due = self._free_decisions % LEARN_EVERY == 0
        if self.rng.random() < self.epsilon:
            allowed = np.flatnonzero(mask)
            return int(allowed[self.rng.randrange(len(allowed))])
        # the highest-Q allowed action; ties resolve to the lowest index
        return int(np.argmax(np.where(mask, self.net.forward(state)[0], -np.inf)))

    def observe(self, transition: Transition) -> float | None:
        """Store the transition of the last decision, and train if it was due.

        Returns the update's loss, or None when there was no update: the
        decision was forced or not due, or the buffer cannot fill a batch yet.
        """
        self.buffer.push(transition)
        self.observed += 1
        due, self._due = self._due, False
        if due and len(self.buffer) >= BATCH_SIZE:
            return self.learn()
        return None

    def learn(self) -> float:
        """One DQN update on a uniformly drawn batch; returns the loss.

        The loss is the batch mean of the Huber loss of the TD errors,
        bootstrapped from the network's own masked maximum.  The buffer must
        hold a batch; the draw takes ``BATCH_SIZE`` values of ``random()``
        from the agent's generator, whatever the buffer holds.
        """
        net = self.net
        batch = self.buffer.sample(BATCH_SIZE, self.rng)
        states, actions, rewards, next_states, done, next_masks = batch
        rows = np.arange(len(actions))

        # terminal rows may have empty masks; their bootstrap term is zeroed anyway
        has_next = next_masks.any(axis=1)
        safe_masks = next_masks  # the buffer's batch array, refilled by every sample
        safe_masks[~has_next, 0] = True
        done = np.maximum(done, (~has_next).astype(np.float64))

        q_next = net.forward(next_states)
        next_value = np.max(np.where(safe_masks, q_next, -np.inf), axis=1)
        targets = rewards + GAMMA * (1.0 - done) * next_value

        q_all, cache = net.forward_cached(states)
        q_taken = q_all[rows, actions]
        td = q_taken - targets

        loss = float(np.mean(huber(td, HUBER_DELTA)))
        dq = np.zeros_like(q_all)
        dq[rows, actions] = np.clip(td, -HUBER_DELTA, HUBER_DELTA) / len(actions)
        net.backward(cache, dq)
        self.optimizer.step(net.flat, net.grad_flat)
        if not np.isfinite(loss):
            raise DivergenceError(f"training loss diverged to {loss}")
        self.train_steps += 1
        return loss
