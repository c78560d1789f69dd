"""Stage costs of pipeline cuts, checked against the per-call walk oracle."""

import numpy as np
import pytest

from autoplan.envs import PipeTrainEnv
from autoplan.ir import HloGraph, forward_subgraph
from autoplan.pipecost import CutCostTable, InfeasiblePlanError, stage_metrics
from autoplan.topology import load_topology
from autoplan.zoo import GRAPHS, uniform_chain

from helpers import GraphBuilder, reference_stage_metrics


def _bits(metrics):
    return [
        (m.compute_ms.hex(), m.activation_bytes.hex(), m.param_bytes.hex()) for m in metrics
    ]


def _ref_bits(graph, pivots, backward_multiplier):
    return [tuple(map(float.hex, s)) for s in reference_stage_metrics(graph, pivots, backward_multiplier)]


def backward_graph() -> HloGraph:
    """A two-layer forward pass plus gradient ops that are not forward."""
    g = GraphBuilder()
    x = g.param("x", (4, 8))
    w1 = g.param("w1", (8, 6), trainable=True)
    h = g.add("h", "dot", (x, w1), (4, 6), compute_cost_ms=1.0)
    # a gradient op between forward ids must not count as a consumer
    gh = g.add("grad_h", "multiply", (h, h), (4, 6), is_forward=False, compute_cost_ms=9.0)
    a = g.add("a", "tanh", (h,), (4, 6), compute_cost_ms=0.25)
    w2 = g.param("w2", (6, 5), trainable=True)
    y = g.add("y", "dot", (a, w2), (4, 5), compute_cost_ms=1.5)
    g.add("loss", "reduce", (y,), (), compute_cost_ms=0.1)
    g.add("grad_w1", "add", (w1, w1), (8, 6), is_forward=False, compute_cost_ms=2.0)
    g.add("grad_a", "multiply", (a, gh), (4, 6), is_forward=False)
    return g.build()


def orphan_trainable_graph() -> HloGraph:
    """Two forward weights plus a trainable that is not forward and has no forward consumer."""
    g = GraphBuilder()
    x = g.param("x", (4, 8))
    w1 = g.param("w1", (8, 6), trainable=True)
    h1 = g.add("h1", "dot", (x, w1), (4, 6), compute_cost_ms=1.0)
    t1 = g.add("t1", "tanh", (h1,), (4, 6), compute_cost_ms=0.5)
    w2 = g.param("w2", (6, 6), trainable=True)
    h2 = g.add("h2", "dot", (t1, w2), (4, 6), compute_cost_ms=1.0)
    t2 = g.add("t2", "tanh", (h2,), (4, 6), compute_cost_ms=0.5)
    g.add("loss", "reduce", (t2,), ())
    g.trainables.append("slot")
    slot = g.add("slot", "parameter", (), (16,), is_forward=False)
    g.add("slot_update", "add", (slot, slot), (16,), is_forward=False)
    return g.build()


CASES = {
    **GRAPHS,
    "uniform_chain128": lambda: uniform_chain(128),
    "backward_graph": backward_graph,
    "orphan_trainable_graph": orphan_trainable_graph,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stage_metrics_matches_walk_bit_for_bit(name):
    graph = CASES[name]()
    order = forward_subgraph(graph)
    rng = np.random.default_rng(7)
    for _ in range(300):
        size = int(rng.integers(0, min(6, len(order)) + 1))
        positions = sorted(rng.choice(len(order), size=size, replace=False))
        pivots = [order[p] for p in positions]
        multiplier = float(rng.choice([0.0, 1.0, 2.0, 2.5]))
        assert _bits(stage_metrics(graph, pivots, multiplier)) == _ref_bits(graph, pivots, multiplier)


def test_running_sums_keep_the_stage_metrics_bits():
    # 700 fractional costs fill several blocks of rows
    g = GraphBuilder()
    prev = g.param("x", (4, 4))
    for i, cost in enumerate(np.random.default_rng(3).uniform(0.01, 1.0, 700).tolist()):
        prev = g.add(f"op{i}", "exp", (prev,), (4, 4), compute_cost_ms=cost)
    table = CutCostTable.build(g.build())
    cuts = list(range(0, len(table.order) - 1, 2))
    sums = table.running_sums(cuts, backward_multiplier=2.5)
    assert sums.shape == (len(cuts) + 1, len(cuts) + 1)
    rng = np.random.default_rng(4)
    for _ in range(400):
        a, b = sorted(rng.integers(0, len(cuts) + 1, size=2).tolist())
        # the stage from boundary a (one past cut a-1) through cut b, or the end
        bounds = cuts[a - 1 : a] if a else []
        pivots = [table.order[p] for p in bounds + cuts[b : b + 1]]
        stage = table.stage_metrics(pivots, backward_multiplier=2.5)[1 if a else 0]
        assert sums[a, b].hex() == stage.compute_ms.hex()


def test_stage_metrics_rejects_bad_pivots():
    graph = backward_graph()
    grad_h = graph.by_name("grad_h").id
    h, y = graph.by_name("h").id, graph.by_name("y").id
    for pivots in ([grad_h], [y, h], [h, h]):
        with pytest.raises(InfeasiblePlanError):
            stage_metrics(graph, pivots)
        with pytest.raises(InfeasiblePlanError):
            reference_stage_metrics(graph, pivots)


def test_gradient_ops_neither_cost_nor_cross():
    graph = backward_graph()
    first, second = stage_metrics(graph, [graph.by_name("h").id], backward_multiplier=0.0)
    # only h crosses, to a; grad_h and grad_w1 add neither compute nor uses
    assert (first.compute_ms, first.activation_bytes, first.param_bytes) == (1.0, 4 * 6 * 4, 8 * 6 * 4)
    assert (second.compute_ms, second.activation_bytes, second.param_bytes) == (0.25 + 1.5 + 0.1, 0.0, 6 * 5 * 4)


def test_orphan_trainable_counts_in_stage_zero_of_stage_metrics():
    graph = orphan_trainable_graph()
    slot_bytes = 16 * 4
    for pivot, stage0 in (("x", slot_bytes), ("h1", slot_bytes + 8 * 6 * 4)):
        metrics = stage_metrics(graph, [graph.by_name(pivot).id])
        assert metrics[0].param_bytes == stage0
        assert sum(m.param_bytes for m in metrics) == slot_bytes + 8 * 6 * 4 + 6 * 6 * 4


def test_orphan_trainable_is_left_out_of_the_candidate_count():
    graph = orphan_trainable_graph()
    # radius 8 on configa allows every device cut, so only the variable rule prunes
    env = PipeTrainEnv(graph, load_topology("configa"), num_stages=2, radius=8)
    # cuts need w1 before and w2 after; the stage-zero slot does not count as "before"
    assert [graph.instruction(i).name for i in env.candidates] == ["h1", "t1", "w2"]


CANDIDATES = {
    ("attention_block", "configa", 0): [16, 17],
    ("attention_block", "configb", 0): [18, 19, 20],
    ("attention_block", "configc", 0): [16],
    ("attention_block", "configc", 3): [14, *range(16, 24)],
    ("t5_block", "configa", 0): [26, 27, 28],
    ("t5_block", "configb", 0): [22, 30],
    ("t5_block", "configb", 3): [*range(21, 27), *range(29, 39)],
    ("t5_block", "configc", 0): [21, 28, 36, 37, 38],
    ("uniform_chain", "configa", 0): [30, 31, 32, 33],
    ("uniform_chain", "configb", 0): [20, 21, 22, 42, 43],
    ("uniform_chain", "configc", 0): [15, 16, 31, 32, 47, 48],
    ("uniform_chain", "configc", 3): [*range(9, 23), *range(25, 39), *range(41, 55)],
    ("uniform_chain128", "configc", 0): [30, 31, 32, 33, 62, 63, 64, 65, 94, 95, 96, 97],
    ("uniform_chain128", "configc", 3): [*range(18, 46), *range(50, 78), *range(82, 110)],
}


@pytest.mark.parametrize("name, topology, radius", sorted(CANDIDATES))
def test_candidate_pivots_are_pinned(name, topology, radius):
    env = PipeTrainEnv(CASES[name](), load_topology(topology), num_stages=2, radius=radius)
    assert env.candidates == CANDIDATES[name, topology, radius]


@pytest.mark.parametrize("topology", ["configa", "configb", "configc"])
def test_vgg_classifier_has_no_candidates(topology):
    with pytest.raises(InfeasiblePlanError, match="only 0 candidate pivots"):
        PipeTrainEnv(GRAPHS["vgg_classifier"](), load_topology(topology), num_stages=2, radius=3)
