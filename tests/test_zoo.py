"""The documented optima of the bundled graphs and profiles."""

import json

import pytest

from autoplan.cli import EXIT_OK, main
from autoplan.dataproc import build_environment_arrays
from autoplan.envs import PipeInferEnv, adp_candidates, infer_search_bands
from autoplan.ir import decision_dims
from autoplan.sharding import DimStatus, Outcome, propagate
from autoplan.topology import load_topology
from autoplan.zoo import attention_block, bert48_profile, t5_block, vgg_classifier

from helpers import brute_force_infer, enumerate_completes, label_map, trainable_dims

P, R = DimStatus.PARTITIONED, DimStatus.REPLICATED
ATTENTION_BEST = {"wq.d1", "wk.d1", "wv.d1", "wo.d0"}
T5_BEST = {"wq.d1", "wk.d1", "wv.d1", "wo.d0", "w1.d1", "b1.d0", "w2.d0"}


def _maxima(graph, dims):
    completes = enumerate_completes(graph, dims)
    best = max(len(c) for c in completes)
    lm = label_map(graph, dims)
    return completes, [{lm[d] for d in c} for c in completes if len(c) == best]


def test_attention_block_unique_maximum():
    g = attention_block()
    dims = trainable_dims(g)
    assert len(dims) == 10
    _, maxima = _maxima(g, dims)
    assert maxima == [ATTENTION_BEST]


def test_vgg_classifier_adp_unique_maximum():
    g = vgg_classifier()
    dims = decision_dims(g, [g.instruction(i).name for i in adp_candidates(g)])
    assert len(dims) == 6
    completes, maxima = _maxima(g, dims)
    assert maxima == [{"arg0.1.d0", "arg1.2.d0"}]
    assert len(completes) == 2


def test_t5_block_seven_partitions_are_maximal():
    # 18 dims are too many to enumerate; check the plan and that no further
    # candidate dim can join it
    g = t5_block()
    dims = trainable_dims(g)
    assert len(dims) == 18
    lm = label_map(g, dims)
    plan = {d: P if lm[d] in T5_BEST else R for d in dims}
    assert propagate(g, plan, dims).outcome is Outcome.COMPLETE
    partitioned = {d: P for d in dims if lm[d] in T5_BEST}
    for d in dims:
        if lm[d] not in T5_BEST:
            extra = {**partitioned, d: P}
            assert propagate(g, extra, dims).outcome is Outcome.CONFLICT, lm[d]


def test_bert48_profile_optimum_in_search_bands():
    arrays = build_environment_arrays(bert48_profile())
    topo = load_topology("configc")
    bands, cut_bands = infer_search_bands(arrays, topo, 4, 3)
    env = PipeInferEnv(arrays, topo, num_stages=4, allowed_boundaries=bands, allowed_cuts=cut_bands)
    boundaries, cuts, _ = brute_force_infer(
        arrays, topo, 4, env.micro_batches, env.micro_batch_size, bands, cut_bands
    )
    assert boundaries == (34, 66, 98)
    assert cuts == (8, 16, 24)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("graph, best", [("t5_block", T5_BEST), ("attention_block", ATTENTION_BEST)])
def test_default_opp_search_reaches_the_optimum(tmp_path, graph, best, seed):
    out = tmp_path / "plan.json"
    args = ["--task", "opp", "--graph", graph, "--episodes", "30", "--seed", str(seed)]
    assert main(args + ["--out", str(out)]) == EXIT_OK
    strategy = json.loads(out.read_text())["strategy"]
    assert {f"{name}.d{dim}" for name, dim in strategy.items() if dim >= 0} == best
