"""The DQN learner: analytic gradients, checkpoints, and bit-exact training."""

import copy

import numpy as np
import pytest

from autoplan.agent import AgentConfig, CheckpointError, DqnAgent, QNetwork, Transition

from helpers import ReferenceLearner

SMALL = AgentConfig(batch_size=8, buffer_capacity=50, target_sync_every=7, hidden=(16, 8))


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
    net = QNetwork(5, 3, (4, 3), rng)
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


def _checkpoint(agent: DqnAgent, path) -> dict[str, np.ndarray]:
    agent.save(str(path))
    with np.load(str(path)) as blob:
        return {key: blob[key] for key in blob.files}


def test_checkpoint_round_trip_resumes_bit_exactly(tmp_path):
    rng = np.random.default_rng(5)
    agent = DqnAgent(SMALL, 6, 4, seed=2)
    while agent.train_steps < 20:
        agent.observe(random_transition(rng, 6, 4))
        agent.learn()
    saved = _checkpoint(agent, tmp_path / "a.npz")
    loaded = DqnAgent.load(str(tmp_path / "a.npz"))
    # net, target, Adam slots and the header (adam_t, train_steps, RNG state)
    resaved = _checkpoint(loaded, tmp_path / "b.npz")
    assert saved.keys() == resaved.keys()
    for key in saved:
        assert saved[key].dtype == resaved[key].dtype, key
        assert np.array_equal(saved[key], resaved[key]), key
    assert loaded.rng.bit_generator.state == agent.rng.bit_generator.state
    assert (loaded.train_steps, loaded.optimizer.t) == (agent.train_steps, agent.optimizer.t)

    # the replay buffer is not part of a checkpoint
    loaded.buffer = copy.deepcopy(agent.buffer)
    rng = np.random.default_rng(9)
    for _ in range(15):  # target syncs at learn steps 21, 28 and 35
        transition = random_transition(rng, 6, 4)
        for learner in (agent, loaded):
            learner.observe(transition)
        assert agent.learn().hex() == loaded.learn().hex()
    final, final_loaded = _checkpoint(agent, tmp_path / "c.npz"), _checkpoint(loaded, tmp_path / "d.npz")
    for key in final:
        assert np.array_equal(final[key], final_loaded[key]), key


def test_load_rejects_a_mismatched_checkpoint(tmp_path):
    arrays = _checkpoint(DqnAgent(SMALL, 6, 4), tmp_path / "a.npz")
    arrays["net.w0"] = arrays["net.w0"][:, :3]
    np.savez(str(tmp_path / "b.npz"), **arrays)
    with pytest.raises(CheckpointError):
        DqnAgent.load(str(tmp_path / "b.npz"))


def test_training_matches_the_reference_learner_bit_for_bit(tmp_path):
    config = AgentConfig(batch_size=8, buffer_capacity=40, target_sync_every=9, hidden=(12, 7))
    agent = DqnAgent(config, 10, 5, seed=4)
    reference = ReferenceLearner(config, 10, 5, seed=4)
    rng = np.random.default_rng(17)
    losses = 0
    while losses < 220:  # the ring buffer wraps several times
        transition = random_transition(rng, 10, 5)
        agent.observe(transition)
        reference.observe(transition)
        loss, expected = agent.learn(), reference.learn()
        if expected is None:
            assert loss is None
            continue
        assert loss.hex() == expected.hex(), f"learn step {losses}"
        losses += 1
        if losses % 50 == 0 or losses == 220:
            arrays = _checkpoint(agent, tmp_path / "agent.npz")
            slots = [("net", reference.net.params), ("target", reference.target.params),
                     ("adam.m", reference.optimizer.m), ("adam.v", reference.optimizer.v)]
            for scope, tensors in slots:
                for key, value in tensors.items():
                    assert np.array_equal(arrays[f"{scope}.{key}"], value), f"{scope}.{key}"
    assert (agent.train_steps, agent.optimizer.t) == (reference.train_steps, reference.optimizer.t)
