"""The DQN learner: analytic gradients and bit-exact training."""

import random

import numpy as np
import pytest

from autoplan import agent as agent_module
from autoplan.agent import GAMMA, AgentConfig, DqnAgent, QNetwork, ReplayBuffer, Transition

from helpers import ReferenceLearner

SMALL_BATCH, SMALL_RING = 8, 40


@pytest.fixture
def small_replay(monkeypatch):
    """Batches of 8 from a ring of 40, so a short run fills the ring and wraps it."""
    monkeypatch.setattr(agent_module, "BATCH_SIZE", SMALL_BATCH)
    monkeypatch.setattr(agent_module, "BUFFER_CAPACITY", SMALL_RING)


def random_transition(rng: np.random.Generator, state_dim: int, num_actions: int) -> Transition:
    """A transition with a random mask; terminal rows get an empty mask half the time."""
    done = bool(rng.random() < 0.3)
    mask = rng.random(num_actions) < 0.6
    if done and rng.random() < 0.5:
        mask[:] = False
    elif not mask.any():
        mask[rng.integers(num_actions)] = True
    return Transition(
        rng.normal(size=state_dim),
        int(rng.integers(num_actions)),
        float(rng.normal()),
        rng.normal(size=state_dim),
        done,
        mask,
    )


def test_backward_matches_central_differences():
    rng = np.random.default_rng(11)
    net = QNetwork(5, 3, (4, 3), random.Random(11))
    states = rng.normal(size=(6, 5))
    upstream = rng.normal(size=(6, 3))

    def loss() -> float:
        return float(np.sum(upstream * net.forward(states)))

    _, cache = net.forward_cached(states)
    grads = {key: value.copy() for key, value in net.backward(cache, upstream).items()}
    assert set(grads) == set(net.params)
    step = 1e-6
    for key, param in net.params.items():
        numeric = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            saved = param[idx]
            param[idx] = saved + step
            up = loss()
            param[idx] = saved - step
            down = loss()
            param[idx] = saved
            numeric[idx] = (up - down) / (2 * step)
        np.testing.assert_allclose(grads[key], numeric, rtol=1e-6, atol=1e-8, err_msg=key)


def test_training_matches_the_reference_learner_bit_for_bit(small_replay):
    config = AgentConfig()
    agent = DqnAgent(config, 10, 5, seed=4)
    reference = ReferenceLearner(10, 5, 4, config.lr, GAMMA, SMALL_BATCH, SMALL_RING)
    rng = np.random.default_rng(17)
    losses = 0
    while losses < 220:  # the ring buffer wraps several times
        transition = random_transition(rng, 10, 5)
        agent.observe(transition)
        reference.observe(transition)
        if len(agent.buffer) < SMALL_BATCH:
            assert reference.learn() is None
            continue
        loss, expected = agent.learn(), reference.learn()
        assert loss.hex() == expected.hex(), f"learn step {losses}"
        losses += 1
        if losses % 50 == 0 or losses == 220:
            slots = [
                ("net", agent.net.params, reference.net.params),
                ("adam.m", agent.net.views(agent.optimizer.m), reference.optimizer.m),
                ("adam.v", agent.net.views(agent.optimizer.v), reference.optimizer.v),
            ]
            for scope, tensors, expected in slots:
                assert tensors.keys() == expected.keys(), scope
                for key, value in expected.items():
                    assert np.array_equal(tensors[key], value), f"{scope}.{key}"
    assert (agent.train_steps, agent.optimizer.t) == (reference.train_steps, reference.optimizer.t)
    assert len(agent.buffer) == SMALL_RING < agent.observed


def test_default_trunk_stays_small_on_a_wide_state():
    # 6,667 inputs is the opp state of a 10,001-node MLP; a (256, 256) trunk holds 1,773,571
    agent = DqnAgent(AgentConfig(), 6667, 2)
    assert agent.net.flat.size < 500_000


@pytest.mark.parametrize("seed", [-5, 2.5])
def test_agent_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    # random.Random(-5) would silently seed the stream of Random(5), Random(2.5) that of its hash
    with pytest.raises(ValueError, match="non-negative int"):
        DqnAgent(AgentConfig(), 4, 2, seed=seed)


@pytest.mark.parametrize("pushes", [30, 67], ids=["filling", "wrapped"])
def test_replay_draws_filled_slots_uniformly(pushes):
    capacity, batch, rounds = 50, 20, 1000
    buffer = ReplayBuffer(capacity)
    empty = np.zeros(1)
    for k in range(pushes):
        # each transition's action names its slot, plus one: a slot never filled reads 0
        buffer.push(Transition(empty, k % capacity + 1, 0.0, empty, False, np.ones(1, dtype=bool)))
    filled = len(buffer)
    rng = random.Random(7)
    counts = np.zeros(capacity + 1, dtype=np.int64)
    for _ in range(rounds):
        np.add.at(counts, buffer.sample(batch, rng).actions, 1)
    assert counts[0] == 0 and not counts[filled + 1 :].any()
    draws, p = batch * rounds, 1.0 / filled
    spread = 4.0 * np.sqrt(draws * p * (1.0 - p))
    assert np.all(np.abs(counts[1 : filled + 1] - draws * p) <= spread)


@pytest.mark.parametrize("pushes", [8, 23, 97], ids=["one-batch", "filling", "wrapped"])
def test_an_update_draws_batch_size_values_from_the_agent_generator(small_replay, pushes):
    # so the exploration draws that follow an update do not depend on the replay rule
    agent = DqnAgent(AgentConfig(), 10, 5, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(pushes):
        agent.observe(random_transition(rng, 10, 5))
    expected = random.Random()
    expected.setstate(agent.rng.getstate())
    for _ in range(SMALL_BATCH):
        expected.random()
    agent.learn()
    assert agent.rng.getstate() == expected.getstate()


def test_an_update_makes_two_forward_passes(small_replay, monkeypatch):
    # one over the next states for the bootstrap, one over the states for the gradient
    agent = DqnAgent(AgentConfig(), 10, 5, seed=2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        agent.observe(random_transition(rng, 10, 5))
    calls = []
    original = QNetwork.forward_cached

    def counted(net, states):
        calls.append(len(states))
        return original(net, states)

    monkeypatch.setattr(QNetwork, "forward_cached", counted)
    agent.learn()
    assert calls == [SMALL_BATCH, SMALL_BATCH]
