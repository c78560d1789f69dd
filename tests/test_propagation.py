"""Worklist propagation against the sweep engine it replaced.

``reference_propagate`` in ``helpers`` is the earlier engine kept verbatim:
full sweeps over every rule until nothing changes, from a fresh state on
every run.  The rules are monotone, so the worklist, the cached pinned base
state and decisions seeded one at a time must all reach its fixed point.
"""

import functools
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoplan.envs import AdpEnv, OppEnv, adp_candidates
from autoplan.ir import decision_dims, graph_from_dict
from autoplan.linkage import extract_linkage_groups
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, propagate
from autoplan.zoo import GRAPHS, zoo_graph

from helpers import reference_linkage_groups, reference_propagate

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import mlp_graph_dict  # noqa: E402

P, R, U = DimStatus.PARTITIONED, DimStatus.REPLICATED, DimStatus.UNDECIDED


@functools.lru_cache(maxsize=None)
def _graph(name):
    return graph_from_dict(mlp_graph_dict(25)) if name == "mlp25" else zoo_graph(name)


def _candidates(graph, kind):
    if kind == "opp":
        return decision_dims(graph, graph.trainable_variables)
    return decision_dims(graph, [graph.instruction(i).name for i in adp_candidates(graph)])


GRAPH_NAMES = [*sorted(GRAPHS), "mlp25"]
CASES = [
    (name, kind)
    for name in GRAPH_NAMES
    for kind in ("opp", "adp")
    if _candidates(_graph(name), kind)
]


def _random_seeds(rng, dims):
    """A random subset of the dims with random statuses; small sets mostly."""
    k = len(dims) if rng.random() < 0.2 else int(rng.integers(0, min(len(dims), 6) + 1))
    chosen = rng.choice(len(dims), size=k, replace=False)
    return {dims[i]: (P if rng.random() < 0.5 else R) for i in chosen}


def _assert_same_fixed_point(result, ref):
    assert result.outcome is ref.outcome
    if ref.outcome is not Outcome.CONFLICT:
        assert result.assignments == ref.assignments
        assert result.newly_decided == ref.newly_decided


@pytest.mark.parametrize("name, kind", CASES)
def test_one_shot_runs_match_sweep_engine(name, kind):
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    rng = np.random.default_rng(len(dims))
    for _ in range(60):
        seeds = _random_seeds(rng, dims)
        ref = reference_propagate(graph, seeds, dims)
        _assert_same_fixed_point(engine.run(seeds), ref)
        _assert_same_fixed_point(engine.run(seeds, start=engine.base()), ref)
        _assert_same_fixed_point(propagate(graph, seeds, dims), ref)


@pytest.mark.parametrize("name, kind", CASES)
def test_seeds_one_at_a_time_match_sweep_engine(name, kind):
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    rng = np.random.default_rng(len(dims) + 1)
    for _ in range(30):
        seeds = _random_seeds(rng, dims)
        result = engine.run({}, start=engine.base())
        for di, status in seeds.items():
            result = engine.run({di: status}, start=result.rows)
            if result.outcome is Outcome.CONFLICT:
                break
        ref = reference_propagate(graph, seeds, dims)
        assert result.outcome is ref.outcome
        if ref.outcome is not Outcome.CONFLICT:
            assert result.assignments == ref.assignments


@pytest.mark.parametrize("name", [n for n in GRAPH_NAMES if _candidates(_graph(n), "opp")])
def test_linkage_matches_sweep_extraction(name):
    graph = _graph(name)
    dims = _candidates(graph, "opp")
    groups = extract_linkage_groups(graph, dims)
    ref = reference_linkage_groups(graph, dims)
    assert list(groups) == list(ref)
    assert {t: (g.implied, g.infeasible) for t, g in groups.items()} == ref


@functools.lru_cache(maxsize=None)
def _engine(name, kind):
    """One engine per case, so trials accumulate on its one working copy."""
    graph = _graph(name)
    return PropagationEngine(graph, candidates=_candidates(graph, kind))


@pytest.mark.parametrize("name, kind", CASES)
def test_trials_leave_the_base_state_as_built(name, kind):
    """Every trigger, and every pair of seeds, is undone, conflict or not."""
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    fresh = PropagationEngine(graph, candidates=dims).base()
    triggers = [{di: status} for di in dims for status in (P, R)]
    # pairs among the first dims only, to keep mlp25's count small
    pairs = [
        {a: sa, b: sb}
        for a, b in itertools.combinations(dims[:12], 2)
        for sa, sb in itertools.product((P, R), repeat=2)
    ]
    conflicts = 0
    for seeds in triggers + pairs:
        result = engine.trial(seeds)
        conflicts += result.outcome is Outcome.CONFLICT and bool(result.changed)
        assert engine._work == fresh
    assert engine.base() == fresh
    if (name, kind) in (("t5_block", "opp"), ("vgg_classifier", "adp")):
        # these met contradictions after the seeds had changed rows
        assert conflicts


@pytest.mark.parametrize("name, kind", CASES)
@settings(max_examples=25)
@given(data=st.data())
def test_trial_matches_run_from_a_base_copy(name, kind, data):
    engine = _engine(name, kind)
    dims = engine.candidates
    picks = data.draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=2, unique=True))
    seeds = {dims[i]: data.draw(st.sampled_from([P, R])) for i in picks}
    trial = engine.trial(seeds)
    ref = engine.run(seeds, start=engine.base())
    assert trial.rows is None
    assert (trial.outcome, trial.conflict_site, trial.newly_decided, trial.changed) == (
        ref.outcome, ref.conflict_site, ref.newly_decided, ref.changed,
    )


@functools.lru_cache(maxsize=None)
def _env(name, kind):
    graph = _graph(name)
    return OppEnv(graph) if kind == "opp" else AdpEnv(graph)


def _one_shot_decided(env, seeds):
    result = propagate(env.graph, seeds, env.dims)
    if result.outcome is Outcome.CONFLICT:
        return result.outcome, None
    decided = {}
    for d in env.dims:
        status = result.assignments[d.instruction_id].statuses[d.dim]
        if status != U:
            decided[d] = DimStatus(status)
    return result.outcome, decided


@pytest.mark.parametrize("name, kind", CASES)
@settings(max_examples=25)
@given(actions=st.lists(st.integers(0, 1), min_size=1, max_size=48), finetune=st.booleans())
def test_env_steps_match_one_shot(name, kind, actions, finetune):
    """Stepping an env decides what one-shot propagation of its seeds decides."""
    env = _env(name, kind)
    env.reset()
    for action in actions:
        if env.done:
            # the episode completed; optionally restart it as --finetune does
            if not finetune:
                break
            finetune = False
            env.finetune_reset(env.strategy())
            if env.done:
                break
        dim = next(d for d in env.order if d not in env.decided)
        seeds = {**env.seeds, dim: P if action == 0 else R}
        result = env.step(action)
        outcome, decided = _one_shot_decided(env, seeds)
        if result.info["conflict"]:
            assert outcome is Outcome.CONFLICT
            break
        assert outcome is not Outcome.CONFLICT
        assert env.seeds == seeds
        assert env.decided == decided
        assert result.done == (outcome is Outcome.COMPLETE)
