"""Linkage groups under the propagation rules, and their on-disk cache."""

import json
import sys
from pathlib import Path

import pytest

from autoplan.ir import decision_dims, graph_from_dict
from autoplan.linkage import extract_linkage_groups, load_cache, save_cache
from autoplan.sharding import RULE_VERSION, DimStatus, PropagationEngine
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


def test_cache_round_trip(tmp_path):
    g, _, groups = _chain_groups()
    path = str(tmp_path / "chain.linkage.json")
    save_cache(path, g, groups)
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["rule_version"] == RULE_VERSION
    assert load_cache(path, g) == groups


@pytest.mark.parametrize("version", [None, RULE_VERSION - 1])
def test_cache_from_other_rules_ignored(tmp_path, version):
    # a cache written without a rule version predates the current rules
    g, _, groups = _chain_groups()
    path = str(tmp_path / "chain.linkage.json")
    save_cache(path, g, groups)
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if version is None:
        del payload["rule_version"]
    else:
        payload["rule_version"] = version
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert load_cache(path, g) is None


def _opp_graphs():
    graphs = {name: zoo_graph(name) for name in sorted(GRAPHS)}
    graphs["mlp25"] = graph_from_dict(mlp_graph_dict(25))
    return {name: g for name, g in graphs.items() if g.trainable_variables}


@pytest.mark.parametrize("name", sorted(_opp_graphs()))
def test_cache_bytes_match_the_streaming_writer(tmp_path, name):
    # the bytes do not depend on which JSON encoder writes them
    graph = _opp_graphs()[name]
    groups = extract_linkage_groups(graph, decision_dims(graph, graph.trainable_variables))
    path = tmp_path / "g.linkage.json"
    save_cache(str(path), graph, groups)
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    streamed = tmp_path / "streamed.json"
    with open(streamed, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == streamed.read_bytes()


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
