"""Environment states and terminal infos, and the traces the CLI writes from them."""

import json

import numpy as np
import pytest

from autoplan.cli import EXIT_OK, main
from autoplan.dataproc import GRANULARITY, build_environment_arrays, generate_environment
from autoplan.envs import ACTION_PARTITION, OppEnv, PipeInferEnv
from autoplan.topology import load_topology
from autoplan.zoo import bert48_profile, vgg_classifier

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
