"""Linkage groups under the propagation rules."""

import sys
from pathlib import Path

import pytest

from autoplan.envs import OppEnv
from autoplan.ir import decision_dims, graph_from_dict
from autoplan.linkage import extract_linkage_groups
from autoplan.sharding import DimStatus, PropagationEngine
from autoplan.zoo import GRAPHS, zoo_graph

from helpers import label_map, linkage_chain_graph, trainable_dims

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
    # conflict, which the trigger's linkage group records as well
    graph = _opp_graphs()[name]
    env = OppEnv(graph)
    groups = extract_linkage_groups(graph, env.dims)
    expected = [not groups[(d, P)].infeasible for d in env.dims]
    assert [env._partition_feasible(d) for d in env.dims] == expected


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
