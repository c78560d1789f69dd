"""Environment states and terminal infos, and the traces the CLI writes from them."""

import itertools
import json

import numpy as np
import pytest

from autoplan.cli import EXIT_OK, main
from autoplan.dataproc import GRANULARITY, build_environment_arrays, generate_environment
from autoplan.envs import ACTION_PARTITION, EpisodeError, OppEnv, PipeInferEnv, PipeTrainEnv
from autoplan.pipecost import (
    InfeasiblePlanError,
    proportional_device_count_rows,
    proportional_device_counts,
)
from autoplan.topology import DeviceTopology, load_topology
from autoplan.zoo import GRAPHS, bert48_profile, uniform_chain, vgg_classifier, zoo_graph

from helpers import GraphBuilder, reference_pipe_train_state

# boundaries 34, 66, 98, then device cuts 8, 16, 24 on a 32-device topology
BOUNDARIES = (34, 66, 98)
CUTS = (8, 16, 24)


def _actions():
    return [b - 1 for b in BOUNDARIES] + [GRANULARITY - 1 + c - 1 for c in CUTS]


def _infer_env(arrays, stages=4):
    return PipeInferEnv(arrays, load_topology("configc"), num_stages=stages)


@pytest.mark.parametrize("stages", [2, 4, 7])
def test_infer_state_is_the_slots_and_starts_at_zero(stages):
    env = _infer_env(build_environment_arrays(bert48_profile()), stages)
    assert env.state_dim == 2 * (stages - 1)
    state = env.reset()
    assert state.shape == (env.state_dim,)
    assert not state.any()


def test_infer_state_entries_follow_the_picks():
    env = _infer_env(build_environment_arrays(bert48_profile()))
    devices = env.topo.num_devices
    picks = env.num_stages - 1
    expected = np.zeros(2 * picks)
    env.reset()
    for i, action in enumerate(_actions()):
        if i < picks:
            expected[i] = BOUNDARIES[i] / GRANULARITY
        else:
            expected[i] = CUTS[i - picks] / devices
        result = env.step(action)
        assert np.array_equal(result.next_state, expected)
    assert result.done and result.info["plan"].pivot_ids == BOUNDARIES


def test_infer_state_does_not_depend_on_the_profile():
    envs = [
        _infer_env(build_environment_arrays(bert48_profile())),
        _infer_env(generate_environment("uniform", 10 * GRANULARITY, 0)),
    ]
    states = [[env.reset()] + [env.step(a).next_state for a in _actions()] for env in envs]
    # the profiles differ, and so do the rewards, but never the states
    assert not np.array_equal(envs[0].arrays.c, envs[1].arrays.c)
    for a, b in zip(*states):
        assert np.array_equal(a, b)


def test_infer_runs_are_byte_identical(tmp_path):
    args = [
        "--task", "pp-infer", "--graph", "bert48_profile", "--stages", "4",
        "--topology", "configc", "--episodes", "20", "--seed", "3",
    ]
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        out, log = tmp_path / run / "plan.json", tmp_path / run / "trace.jsonl"
        assert main(args + ["--out", str(out), "--log", str(log)]) == EXIT_OK
    for name in ("plan.json", "plan_curve.csv", "trace.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_conflict_names_its_instruction(tmp_path):
    # the data input is replicated, so no dim of the weight w1 can be split
    env = OppEnv(vgg_classifier())
    env.reset()
    result = env.step(ACTION_PARTITION)
    assert result.done and result.info == {"conflict": True, "conflict_site": "w1"}

    log = tmp_path / "trace.jsonl"
    args = ["--task", "opp", "--graph", "vgg_classifier", "--episodes", "8", "--seed", "0"]
    assert main(args + ["--out", str(tmp_path / "plan.json"), "--log", str(log)]) == EXIT_OK
    records = [json.loads(line) for line in log.read_text().splitlines()]
    sites = {(r["outcome"], r.get("conflict_site")) for r in records}
    assert sites == {("conflict", "w1"), ("complete", None)}


def test_infer_step_refuses_actions_outside_the_space():
    env = _infer_env(build_environment_arrays(bert48_profile()))
    env.reset()
    for action in [b - 1 for b in (11, 21, 31)] + [GRANULARITY - 1 + c - 1 for c in (8, 16)]:
        env.step(action)
    # -1 would wrap around to the last device cut, and num_actions is past the end
    for action in (-1, -env.num_actions, env.num_actions):
        with pytest.raises(EpisodeError, match="outside"):
            env.step(action)
    assert env.boundaries == (11, 21, 31) and env.device_cuts == (8, 16)


def test_train_step_refuses_actions_outside_the_space():
    env = PipeTrainEnv(uniform_chain(128), load_topology("configc"), 4)
    env.reset()
    env.step(0)
    env.step(1)
    for action in (-1, env.num_actions):
        with pytest.raises(EpisodeError, match="outside"):
            env.step(action)
    assert not env.done
    env.step(env.num_actions - 1)
    assert env.done


# -- the pp-train state against the per-candidate decode ----------------------


def _cost_chain(costs, trainable_every=0):
    """A chain of unary ops with the given forward costs.

    With ``trainable_every`` > 0, every that many ops add a trainable weight,
    so that stages carry parameter bytes.
    """
    g = GraphBuilder()
    prev = g.param("x", (8, 8))
    for i, cost in enumerate(costs):
        if trainable_every and i % trainable_every == 0:
            w = g.param(f"w{i}", (8, 8), trainable=True)
            prev = g.add(f"op{i}", "add", (prev, w), (8, 8), compute_cost_ms=cost)
        else:
            prev = g.add(f"op{i}", "exp", (prev,), (8, 8), compute_cost_ms=cost)
    return g.build()


def _walk_states(env, rng, walks):
    """(state, reference) pairs along random action walks, terminal states included."""
    for _ in range(walks):
        yield env.reset(), reference_pipe_train_state(env)
        while not env.done:
            result = env.step(int(rng.choice(np.flatnonzero(env.action_mask()))))
            yield result.next_state, reference_pipe_train_state(env)


def _assert_states_match(env, seed, walks=2):
    rng = np.random.default_rng(seed)
    for state, reference in _walk_states(env, rng, walks):
        assert [x.hex() for x in state] == [x.hex() for x in reference]


TRAIN_GRAPHS = {
    # vgg_classifier leaves no candidate pivots on any preset
    **{name: (lambda name=name: zoo_graph(name)) for name in GRAPHS if name != "vgg_classifier"},
    "uniform_chain128": lambda: uniform_chain(128),
    # fractional costs, where prefix differences lose the running sums' bits
    "random_cost_chain": lambda: _cost_chain(
        np.random.default_rng(7).uniform(0.01, 1.0, 96).tolist(), trainable_every=5
    ),
}


@pytest.mark.parametrize("name", sorted(TRAIN_GRAPHS))
def test_train_state_matches_the_per_candidate_decode(name):
    graph = TRAIN_GRAPHS[name]()
    envs = 0
    for topo in ("configa", "configb", "configc"):
        for stages in range(2, 6):
            for radius in range(4):
                try:
                    env = PipeTrainEnv(graph, load_topology(topo), stages, radius=radius)
                except InfeasiblePlanError:
                    continue
                _assert_states_match(env, seed=stages * 10 + radius)
                envs += 1
    assert envs > 0


@pytest.mark.parametrize("name", ["t5_block", "attention_block", "random_cost_chain"])
def test_train_state_matches_on_a_network_faster_than_the_servers(name):
    topo = DeviceTopology(num_servers=3, gpus_per_server=4, intra_bw=1e9, inter_bw=1e10)
    for stages in (2, 3, 4):
        env = PipeTrainEnv(TRAIN_GRAPHS[name](), topo, stages, radius=2)
        _assert_states_match(env, seed=stages, walks=4)


def test_train_state_matches_without_compute():
    # every quota takes the equal split of the total <= 0 branch
    env = PipeTrainEnv(_cost_chain([0.0] * 40, trainable_every=3), load_topology("configa"), 4)
    _assert_states_match(env, seed=0, walks=4)


def test_train_state_matches_where_a_stage_starves():
    # a free middle stage gets quota 0, so the min-1 repair must hand it a device
    costs = [1.0] * 20 + [0.0] * 20 + [1.0] * 20
    env = PipeTrainEnv(_cost_chain(costs, trainable_every=4), load_topology("configa"), 3, radius=0)
    picks = [
        (a, b)
        for a, b in itertools.combinations(range(env.num_actions), 2)
        if env.table.stage_metrics([env.candidates[a], env.candidates[b]])[1].compute_ms == 0.0
    ]
    assert picks
    env.reset()
    state = env.step(picks[0][0]).next_state
    assert [x.hex() for x in state] == [x.hex() for x in reference_pipe_train_state(env)]
    _assert_states_match(env, seed=1, walks=6)


def test_device_count_rows_match_the_scalar_counts():
    rng = np.random.default_rng(5)
    for devices, stages in ((4, 4), (16, 3), (32, 5), (24, 2)):
        rows = rng.choice([0.0, 0.1, 1.0, 1.0 / 3.0, 7.5, 1e-9], size=(400, stages))
        rows[:50] = rng.uniform(0.0, 1.0, size=(50, stages))
        counts = proportional_device_count_rows(rows, devices)
        expected = [proportional_device_counts(row, devices) for row in rows.tolist()]
        assert counts.tolist() == expected
