"""Environment states and terminal infos, and the traces the CLI writes from them."""

import json
from itertools import repeat
from math import comb, sqrt

import numpy as np
import pytest

from autoplan.cli import EXIT_OK, main
from autoplan.dataproc import GRANULARITY, build_environment_arrays, generate_environment
from autoplan.envs import (
    ACTION_PARTITION,
    ACTION_REPLICATE,
    EpisodeError,
    PipeInferEnv,
    PipeTrainEnv,
    infer_search_bands,
)
from autoplan.pipecost import (
    pipeline_length,
    proportional_device_count_rows,
    proportional_device_counts,
)
from autoplan.topology import DeviceTopology, load_topology
from autoplan.zoo import GRAPHS, bert48_profile, t5_block, uniform_chain, vgg_classifier, zoo_graph

from helpers import opp_env

# boundaries 34, 66, 98, then device cuts 8, 16, 24 on a 32-device topology
BOUNDARIES = (34, 66, 98)
CUTS = (8, 16, 24)


def _actions():
    return [b - 1 for b in BOUNDARIES] + [GRANULARITY - 1 + c - 1 for c in CUTS]


def _infer_env(arrays, stages=4):
    return PipeInferEnv(arrays, load_topology("configc"), num_stages=stages)


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
    # without bands every position is an action, so the last state marks the positions picked
    assert np.flatnonzero(states[0][-1]).tolist() == _actions()


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
    env = opp_env(vgg_classifier())
    env.reset()
    result = env.step(ACTION_PARTITION)
    assert result.done and result.info == {"conflict": True, "conflict_site": "w1"}

    log = tmp_path / "trace.jsonl"
    args = ["--task", "opp", "--graph", "vgg_classifier", "--episodes", "8", "--seed", "0"]
    assert main(args + ["--out", str(tmp_path / "plan.json"), "--log", str(log)]) == EXIT_OK
    records = [json.loads(line) for line in log.read_text().splitlines()]
    sites = {(r["outcome"], r.get("conflict_site")) for r in records}
    assert sites == {("conflict", "w1"), ("complete", None)}


@pytest.mark.parametrize("config", ["configa", "configb", "configc"])
def test_cut_bands_are_the_pinned_center_cuts(config):
    arrays, topo = build_environment_arrays(bert48_profile()), load_topology(config)
    for stages in (2, 4, 8):
        _, cut_bands = infer_search_bands(arrays, topo, stages, 0)
        # the radius widens the boundary bands only
        assert infer_search_bands(arrays, topo, stages, 3)[1] == cut_bands
        cuts = [c for band in cut_bands for c in band]
        assert len(cuts) == stages - 1
        assert cuts == sorted(set(cuts)) and 1 <= cuts[0] and cuts[-1] < topo.num_devices


def _loop_mask(env, prefix, bands, cut_bands):
    """The pp-infer mask over all 127 + (D-1) positions after the positions ``prefix``,
    built position by position: the reference for the sliced one."""
    mask = np.zeros(GRANULARITY - 1 + env.topo.num_devices - 1, dtype=bool)
    if env.done:
        return mask
    picks = env.num_stages - 1
    boundaries = [a + 1 for a in prefix[:picks]]
    device_cuts = [a - (GRANULARITY - 1) + 1 for a in prefix[picks:]]
    if len(boundaries) < picks:
        slot = len(boundaries)
        remaining = picks - slot
        last = boundaries[-1] if boundaries else 0
        band = bands[slot] if bands else None
        for b in range(last + 1, GRANULARITY):
            if (GRANULARITY - 1) - b < remaining - 1:
                continue
            if band is not None and b not in band:
                continue
            mask[b - 1] = True
    else:
        slot = len(device_cuts)
        remaining = picks - slot
        last = device_cuts[-1] if device_cuts else 0
        band = cut_bands[slot] if cut_bands else None
        d = env.topo.num_devices
        for c in range(last + 1, d):
            if (d - 1) - c < remaining - 1:
                continue
            if band is not None and c not in band:
                continue
            mask[GRANULARITY - 1 + c - 1] = True
    return mask


def _band_union(bands, cut_bands):
    """The positions some band allows, in position order: boundary b is b-1, cut c is 126+c."""
    boundaries = {b - 1 for band in bands for b in band}
    return sorted(boundaries | {GRANULARITY - 2 + c for band in cut_bands for c in band})


@pytest.mark.parametrize("radius, count", [(0, 6), (3, 24)])
def test_infer_actions_are_the_band_union(radius, count):
    arrays, topo = build_environment_arrays(bert48_profile()), load_topology("configc")
    bands, cut_bands = infer_search_bands(arrays, topo, 4, radius)
    env = PipeInferEnv(arrays, topo, num_stages=4, allowed_boundaries=bands, allowed_cuts=cut_bands)
    assert env.num_actions == len(_band_union(bands, cut_bands)) == count
    env.reset()
    assert env.action_mask().shape == (count,)


def test_infer_step_picks_the_kept_action_at_its_index():
    arrays, topo = build_environment_arrays(bert48_profile()), load_topology("configc")
    bands, cut_bands = infer_search_bands(arrays, topo, 4, 3)
    env = PipeInferEnv(arrays, topo, num_stages=4, allowed_boundaries=bands, allowed_cuts=cut_bands)
    kept = _band_union(bands, cut_bands)
    env.reset()
    for action in _actions():
        result = env.step(kept.index(action))
    plan = result.info["plan"]
    assert result.done and plan.pivot_ids == BOUNDARIES and plan.device_cuts == CUTS
    assert result.info["pipeline_length"] == pytest.approx(0.8745)


@pytest.mark.parametrize("config", ["configa", "configc"])
def test_infer_without_bands_keeps_every_position(config):
    topo = load_topology(config)
    env = PipeInferEnv(build_environment_arrays(bert48_profile()), topo, num_stages=2)
    assert env.num_actions == (GRANULARITY - 1) + (topo.num_devices - 1)


def test_infer_refuses_more_stages_than_the_grid_separates():
    arrays, topo = build_environment_arrays(bert48_profile()), DeviceTopology(20, 8)
    # 128 stages take all 127 boundaries of the grid
    env = PipeInferEnv(arrays, topo, num_stages=GRANULARITY)
    env.reset()
    assert env.action_mask().any() and not env.done
    with pytest.raises(ValueError, match="grid boundaries"):
        PipeInferEnv(arrays, topo, num_stages=GRANULARITY + 1)


@pytest.mark.parametrize("radius", [0, 3, None], ids=["radius0", "radius3", "no-bands"])
def test_infer_mask_matches_the_loop_at_every_reachable_prefix(radius):
    arrays, topo = build_environment_arrays(bert48_profile()), load_topology("configc")
    bands, cut_bands = infer_search_bands(arrays, topo, 4, radius) if radius is not None else (None, None)
    env = PipeInferEnv(arrays, topo, num_stages=4, allowed_boundaries=bands, allowed_cuts=cut_bands)
    space = GRANULARITY - 1 + topo.num_devices - 1
    kept = _band_union(bands, cut_bands) if radius is not None else list(range(space))
    picks, checked = env.num_stages - 1, 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        env.reset()
        for action in prefix:
            env.step(action)
        mask = env.action_mask()
        positions = [kept[a] for a in prefix]
        assert np.array_equal(mask, _loop_mask(env, positions, bands, cut_bands)[kept]), prefix
        checked += 1
        children = np.flatnonzero(mask)
        if len(prefix) == picks - 1 and bands is None:
            # the cut-phase mask reads only the cuts, so the first of the
            # 333,375 boundary triples stands for them all
            children = children[:1] if checked == picks else []
        stack.extend(prefix + (int(a),) for a in children)
    expected = {
        # every pick is forced: 7 states down one path
        0: 7,
        # 7 choices per boundary, then 4 states down the pinned cuts
        3: 1 + 7 + 7**2 + 4 * 7**3,
        # boundary prefixes of length 0-2 in 1..126, cut prefixes of length 0-3 in 1..31
        None: 1 + 125 + comb(126, 2) + 1 + 29 + comb(30, 2) + comb(31, 3),
    }
    assert checked == expected[radius]


def test_infer_step_refuses_actions_outside_the_space():
    env = _infer_env(build_environment_arrays(bert48_profile()))
    env.reset()
    for action in [b - 1 for b in (11, 21, 31)] + [GRANULARITY - 1 + c - 1 for c in (8, 16)]:
        env.step(action)
    # -1 would wrap around to the last device cut, and num_actions is past the end
    for action in (-1, -env.num_actions, env.num_actions):
        with pytest.raises(EpisodeError, match="outside"):
            env.step(action)
    # the refused actions left the picks as they were
    plan = env.step(GRANULARITY - 1 + 24 - 1).info["plan"]
    assert plan.pivot_ids == (11, 21, 31) and plan.device_cuts == (8, 16, 24)


def _train_loop_mask(env, prefix):
    """The pp-train mask after ``prefix`` position by position: the reference for the sliced one."""
    mask = np.zeros(env.num_actions, dtype=bool)
    picks = env.num_stages - 1
    if len(prefix) == picks:
        return mask
    last = prefix[-1] if prefix else -1
    remaining = picks - len(prefix)
    for i in range(last + 1, env.num_actions):
        # candidates after i must hold the picks still owed after this one
        if (env.num_actions - 1) - i >= remaining - 1:
            mask[i] = True
    return mask


def test_train_mask_matches_the_loop_at_every_reachable_prefix():
    env = PipeTrainEnv(uniform_chain(128), load_topology("configc"), 4)
    n, picks, checked = len(env.candidates), env.num_stages - 1, 0
    # without bands every candidate is an action
    assert env.num_actions == n
    stack = [()]
    while stack:
        prefix = stack.pop()
        env.reset()
        for action in prefix:
            env.step(action)
        mask = env.action_mask()
        assert np.array_equal(mask, _train_loop_mask(env, prefix)), prefix
        checked += 1
        children = np.flatnonzero(mask)
        if len(prefix) == picks - 1:
            # the terminal mask is empty whatever the picks, so one plan stands for them all
            children = children[:1] if checked == picks else []
        stack.extend(prefix + (int(a),) for a in children)
    # prefixes of length 0-2 in 0..n-1 that leave room, then one complete plan
    assert checked == 1 + (n - 2) + comb(n - 1, 2) + 1


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


# -- the pick-loop state ----------------------------------------------------


def _check_state_is_the_one_hot_of_the_picks(env, seed):
    """Random episodes: each state marks the actions picked before it, and no
    later step changes it."""
    assert env.state_dim == env.num_actions
    rng = np.random.default_rng(seed)
    for _ in range(3):
        states, picked = [env.reset()], []
        while not env.done:
            picked.append(int(rng.choice(np.flatnonzero(env.action_mask()))))
            states.append(env.step(picked[-1]).next_state)
        for i, state in enumerate(states):
            assert state.shape == (env.state_dim,) and set(state) <= {0.0, 1.0}
            assert np.flatnonzero(state).tolist() == picked[:i]


# vgg_classifier leaves no candidate pivots on any preset
TRAIN_ZOO = sorted(set(GRAPHS) - {"vgg_classifier"})


@pytest.mark.parametrize("name", TRAIN_ZOO)
@pytest.mark.parametrize("stages", [2, 3, 4])
def test_train_state_is_the_one_hot_of_the_picks(name, stages):
    env = PipeTrainEnv(zoo_graph(name), load_topology("configc"), stages)
    assert env.num_actions == len(env.candidates)
    _check_state_is_the_one_hot_of_the_picks(env, stages)


@pytest.mark.parametrize("radius, count", [(3, 24), (None, 158)], ids=["radius3", "no-bands"])
def test_infer_state_is_the_one_hot_of_the_picks(radius, count):
    arrays, topo = build_environment_arrays(bert48_profile()), load_topology("configc")
    bands, cut_bands = infer_search_bands(arrays, topo, 4, radius) if radius is not None else (None, None)
    env = PipeInferEnv(arrays, topo, num_stages=4, allowed_boundaries=bands, allowed_cuts=cut_bands)
    assert env.num_actions == count
    _check_state_is_the_one_hot_of_the_picks(env, 4)


def test_device_count_rows_match_the_scalar_counts():
    rng = np.random.default_rng(5)
    for devices, stages in ((4, 4), (16, 3), (32, 5), (24, 2)):
        rows = rng.choice([0.0, 0.1, 1.0, 1.0 / 3.0, 7.5, 1e-9], size=(400, stages))
        rows[:50] = rng.uniform(0.0, 1.0, size=(50, stages))
        counts = proportional_device_count_rows(rows, devices)
        expected = [proportional_device_counts(row, devices) for row in rows.tolist()]
        assert counts.tolist() == expected


# -- how an env scores and ranks its episodes ---------------------------------

PIPE_INFO_KEYS = {"pipeline_length", "memory_feasible", "plan", "metrics"}


def _episode(env, actions):
    """One episode, stepped through the actions until it ends; returns its
    total reward and terminal info."""
    env.reset()
    total = 0.0
    for action in actions:
        result = env.step(action)
        total += result.reward
        if result.done:
            return total, result.info
    raise AssertionError("the actions ran out before the episode ended")


def test_partition_rank_puts_more_partitions_first():
    env = opp_env(t5_block())
    ranks = {}
    for action in (ACTION_PARTITION, ACTION_REPLICATE):
        total, info = _episode(env, repeat(action))
        assert not info["conflict"]
        ranks[action] = env.rank(info, total)
        assert ranks[action] == (info["partition_count"], total)
    assert ranks[ACTION_PARTITION] > ranks[ACTION_REPLICATE]
    # the partition count comes before the reward
    one, none = ({"conflict": False, "partition_count": n} for n in (1, 0))
    assert env.rank(one, 0.1) > env.rank(none, 9.9)


def test_partition_rank_refuses_a_conflict():
    env = opp_env(vgg_classifier())
    total, info = _episode(env, repeat(ACTION_PARTITION))
    assert info["conflict"] and env.rank(info, total) is None


def test_train_ranks_the_plans_that_fit_by_length():
    # 1 kB per device: some plans of the chain fit and some do not
    env = PipeTrainEnv(uniform_chain(), load_topology("configc"), 4, mem_per_device=1e3)
    assert env.cost_topology is env.topo
    total, info = _episode(env, [0, 1, 2])
    assert set(info) == PIPE_INFO_KEYS and not info["memory_feasible"]
    assert total == -1.0 / sqrt(info["pipeline_length"])
    assert env.rank(info, total) is None
    ranks = []
    for actions in ([0, 5, 12], [1, 6, 12]):
        total, info = _episode(env, actions)
        assert info["memory_feasible"] and total == 1.0 / info["pipeline_length"]
        ranks.append(env.rank(info, total))
        assert ranks[-1] == -info["pipeline_length"]
    # the shorter plan ranks higher
    assert ranks[1] > ranks[0]


def test_infer_plans_fit_and_are_costed_on_the_normalized_topology():
    topo = load_topology("configc")
    env = _infer_env(build_environment_arrays(bert48_profile()))
    assert env.cost_topology == topo.normalized() == env.topo_norm
    total, info = _episode(env, _actions())
    assert set(info) == PIPE_INFO_KEYS and info["memory_feasible"]
    length = pipeline_length(info["plan"], info["metrics"], topo.normalized())
    assert info["pipeline_length"] == length and total == 1.0 / length
    assert env.rank(info, total) == -length
