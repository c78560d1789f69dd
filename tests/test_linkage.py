"""Linkage groups under the propagation rules."""

import sys
from pathlib import Path

import numpy as np
import pytest

from autoplan.envs import ACTION_PARTITION, ACTION_REPLICATE, AdpEnv, OppEnv, adp_candidates
from autoplan.ir import decision_dims, graph_from_dict
from autoplan.linkage import extract_linkage_groups
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, propagation_runs
from autoplan.zoo import GRAPHS, zoo_graph

from helpers import (
    label_map,
    linkage_chain_graph,
    opp_env,
    random_decision_graph,
    reference_linkage_groups,
    trainable_dims,
    two_layer_graph,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import mlp_graph_dict  # noqa: E402

P, R = DimStatus.PARTITIONED, DimStatus.REPLICATED


def _chain_groups():
    g = linkage_chain_graph()
    dims = trainable_dims(g)
    return g, label_map(g, dims), extract_linkage_groups(g, dims)


def test_contracting_trigger_is_infeasible():
    # w.d0 partitioned would split the replicated input x
    g, lm, groups = _chain_groups()
    by_label = {lm[d]: d for d in lm}
    assert groups[(by_label["w.d0"], P)].infeasible
    linked = groups[(by_label["w.d1"], P)]
    assert not linked.infeasible
    assert sorted(lm[d] for d, _ in linked.implied) == ["bias.d0", "scale.d0", "w.d0"]


def _opp_graphs():
    graphs = {name: zoo_graph(name) for name in sorted(GRAPHS)}
    graphs["mlp25"] = graph_from_dict(mlp_graph_dict(25))
    return {name: g for name, g in graphs.items() if g.trainable_variables}


@pytest.mark.parametrize("name", sorted(_opp_graphs()))
def test_finetune_feasibility_matches_the_linkage_groups(name):
    # finetune undoes a replication when partitioning the dim alone does not
    # conflict; the env takes those dims from the triggers' linkage groups at
    # construction, which must agree with running each lone partition
    graph = _opp_graphs()[name]
    env = opp_env(graph)
    groups = extract_linkage_groups(graph, env.dims)
    expected = [env.engine.run({d: P}).outcome is not Outcome.CONFLICT for d in env.dims]
    assert [not groups[(d, P)].infeasible for d in env.dims] == expected
    assert [d not in env.infeasible for d in env.dims] == expected


def _adp_graphs():
    return sorted(name for name in GRAPHS if adp_candidates(zoo_graph(name)))


@pytest.mark.parametrize("name", _adp_graphs())
def test_adp_feasibility_matches_lone_trials(name):
    # AdpEnv has no linkage groups and runs each lone partition itself; a
    # fresh engine's runs must find the same conflicting dims
    graph = zoo_graph(name)
    env = AdpEnv(graph)
    engine = PropagationEngine(graph, env.dims)
    expected = {d for d in env.dims if engine.run({d: P}).outcome is Outcome.CONFLICT}
    assert env.infeasible == expected
    # so that, as opp's, a restart propagates its seeds once and no more
    env.reset()
    while not env.done:
        assert not env.step(ACTION_REPLICATE).info["conflict"]
    strategy = env.strategy()
    before = propagation_runs()
    env.finetune_reset(strategy)
    assert propagation_runs() - before == 1


def test_adp_feasibility_has_both_answers():
    # the zoo holds adp dims that may and that may not be partitioned alone
    env = AdpEnv(zoo_graph("vgg_classifier"))
    assert 0 < len(env.infeasible) < len(env.dims)


@pytest.mark.parametrize("name", sorted(_opp_graphs()))
def test_finetune_reset_runs_one_propagation(name):
    # the feasibility of every replicated dim comes from the linkage groups,
    # so restarting from a strategy propagates its seeds once and no more
    env = opp_env(_opp_graphs()[name])
    env.reset()
    while not env.done:
        assert not env.step(ACTION_REPLICATE).info["conflict"]
    strategy = env.strategy()
    before = propagation_runs()
    env.finetune_reset(strategy)
    assert propagation_runs() - before == 1


def test_extraction_copies_the_base_state_once(monkeypatch):
    calls = []
    base = PropagationEngine.base

    def counted(self):
        calls.append(self)
        return base(self)

    monkeypatch.setattr(PropagationEngine, "base", counted)
    graph = graph_from_dict(mlp_graph_dict(25))
    dims = decision_dims(graph, graph.trainable_variables)
    groups = extract_linkage_groups(graph, dims)
    assert len(groups) == 2 * len(dims) == 100
    assert len(calls) <= 1


def _assert_shared_engine_groups_match(graph):
    """Groups extracted on the engine an env then searches with, before and
    after its episodes, equal a fresh extraction's and the sweep engine's,
    key order and implied order included."""
    dims = trainable_dims(graph)
    engine = PropagationEngine(graph, dims)
    shared = extract_linkage_groups(graph, dims, engine)
    env = OppEnv(engine, shared)
    for action in (ACTION_PARTITION, ACTION_REPLICATE):
        env.reset()
        while not env.done:
            env.step(action)
    again = extract_linkage_groups(graph, dims, engine)
    ref = reference_linkage_groups(graph, dims)
    for groups in (shared, again, extract_linkage_groups(graph, dims)):
        assert list(groups) == list(ref)
        assert {t: (g.implied, g.infeasible) for t, g in groups.items()} == ref


@pytest.mark.parametrize("name", [*sorted(n for n in GRAPHS if zoo_graph(n).trainable_variables), "mlp100"])
def test_groups_on_the_shared_engine_match_the_sweep_extraction(name):
    graph = graph_from_dict(mlp_graph_dict(100)) if name == "mlp100" else zoo_graph(name)
    _assert_shared_engine_groups_match(graph)


def test_groups_on_the_shared_engine_match_on_random_graphs():
    for seed in range(50):
        _assert_shared_engine_groups_match(random_decision_graph(np.random.default_rng(seed)))


def test_extraction_refuses_an_engine_of_another_graph_or_candidate_list():
    graph = two_layer_graph()
    dims = trainable_dims(graph)
    other = two_layer_graph()
    for engine in (PropagationEngine(other, trainable_dims(other)), PropagationEngine(graph, dims[:-1])):
        with pytest.raises(ValueError, match="another graph or candidate list"):
            extract_linkage_groups(graph, dims, engine)
