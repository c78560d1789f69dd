"""Propagation rules, conflicts and the stepwise/one-shot equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from autoplan.envs import adp_candidates
from autoplan.ir import decision_dims
from autoplan.sharding import (
    DimStatus,
    Outcome,
    PropagationEngine,
    ShardingSpec,
    propagate,
    rule_for,
)
from autoplan.zoo import vgg_classifier

from helpers import (
    GraphBuilder,
    label_map,
    linkage_chain_graph,
    random_decision_graph,
    stepwise_outcome,
    trainable_dims,
    two_layer_graph,
)

P, R, U = DimStatus.PARTITIONED, DimStatus.REPLICATED, DimStatus.UNDECIDED


def by_label(graph, dims):
    return {v: k for k, v in label_map(graph, dims).items()}


class TestShardingSpec:
    def test_single_partition_rule(self):
        with pytest.raises(ValueError, match="at most one"):
            ShardingSpec(statuses=(int(P), int(P)))

    def test_undecided_factory(self):
        spec = ShardingSpec.undecided(3)
        assert spec.rank == 3

    def test_dims_length_checked(self):
        with pytest.raises(ValueError, match="equal length"):
            ShardingSpec(statuses=(int(R),), dims=(2, 3))


class TestDotRule:
    """dot(A[m,k], B[k,n]) -> C[m,n]."""

    def _graph(self):
        b = GraphBuilder()
        a = b.param("a", (4, 8))
        w = b.param("b", (8, 6))
        b.add("c", "dot", (a, w), (4, 6))
        return b.build()

    def _run(self, seeds_by_label):
        g = self._graph()
        dims = decision_dims(g, ["a", "b", "c"])
        lk = by_label(g, dims)
        result = propagate(g, {lk[k]: v for k, v in seeds_by_label.items()}, dims)
        statuses = {
            lbl: DimStatus(result.assignments[d.instruction_id].statuses[d.dim])
            for lbl, d in lk.items()
        }
        return result, statuses

    def test_row_partition_flows_to_output(self):
        result, s = self._run({"a.d0": P})
        assert result.outcome is Outcome.COMPLETE
        assert s["c.d0"] == P
        # the other operand ends up fully replicated
        assert s["b.d0"] == R and s["b.d1"] == R
        assert s["a.d1"] == R and s["c.d1"] == R

    def test_column_partition_flows_to_output(self):
        _, s = self._run({"b.d1": P})
        assert s["c.d1"] == P
        assert s["a.d0"] == R and s["a.d1"] == R

    def test_contracting_partition_replicates_output(self):
        # partitioned k means an allreduce produces a full C
        _, s = self._run({"a.d1": P})
        assert s["b.d0"] == P
        assert s["c.d0"] == R and s["c.d1"] == R

    def test_both_row_and_column(self):
        result, s = self._run({"a.d0": P, "b.d1": P})
        assert result.outcome is Outcome.CONFLICT

    def test_output_partition_pulls_operand(self):
        _, s = self._run({"c.d0": P})
        assert s["a.d0"] == P
        assert s["b.d0"] == R and s["b.d1"] == R


class TestTensorAutoReplicate:
    def test_sibling_dims_replicate(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w.d1"]: P}, dims)
        spec = result.assignments[lk["w.d1"].instruction_id]
        assert spec.statuses == (int(R), int(P))

    def test_second_partition_on_tensor_conflicts(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w.d0"]: P, lk["w.d1"]: P}, dims)
        assert result.outcome is Outcome.CONFLICT
        assert result.conflict_site is not None


class TestBroadcastReduce:
    def test_fresh_broadcast_dim_forced_replicated(self):
        b = GraphBuilder()
        v = b.param("v", (6,))
        b.add("bc", "broadcast", (v,), (4, 6))
        g = b.build()
        dims = decision_dims(g, ["v", "bc"])
        lk = by_label(g, dims)
        result = propagate(g, {}, dims)
        assert result.assignments[lk["bc.d0"].instruction_id].statuses[0] == int(R)

    def test_broadcast_links_paired_dim(self):
        b = GraphBuilder()
        v = b.param("v", (6,))
        b.add("bc", "broadcast", (v,), (4, 6))
        g = b.build()
        dims = decision_dims(g, ["v", "bc"])
        lk = by_label(g, dims)
        result = propagate(g, {lk["v.d0"]: P}, dims)
        assert result.assignments[lk["bc.d1"].instruction_id].statuses[1] == int(P)

    def test_partitioned_reduced_dim_replicates_output(self):
        b = GraphBuilder()
        x = b.param("x", (4, 6))
        b.add("r", "reduce", (x,), (4,))
        g = b.build()
        dims = decision_dims(g, ["x", "r"])
        lk = by_label(g, dims)
        result = propagate(g, {lk["x.d1"]: P}, dims)
        assert result.assignments[lk["r.d0"].instruction_id].statuses[0] == int(R)

    def test_partitioned_output_replicates_reduced_dims(self):
        b = GraphBuilder()
        x = b.param("x", (4, 6))
        b.add("r", "reduce", (x,), (4,))
        g = b.build()
        dims = decision_dims(g, ["x", "r"])
        lk = by_label(g, dims)
        result = propagate(g, {lk["r.d0"]: P}, dims)
        assert result.assignments[lk["x.d1"].instruction_id].statuses[1] == int(R)

    def test_kept_reduce_dim_links(self):
        b = GraphBuilder()
        x = b.param("x", (4, 6))
        b.add("r", "reduce", (x,), (6,))
        g = b.build()
        dims = decision_dims(g, ["x", "r"])
        lk = by_label(g, dims)
        result = propagate(g, {lk["x.d1"]: P}, dims)
        assert result.assignments[lk["r.d0"].instruction_id].statuses[0] == int(P)


class TestPropagationResult:
    def test_newly_decided_excludes_seeds_flat_order(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lm = label_map(g, dims)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w.d1"]: P}, dims)
        assert result.outcome is Outcome.COMPLETE
        newly = [(lm[d], s) for d, s in result.newly_decided]
        assert newly == [("w.d0", R), ("bias.d0", P), ("scale.d0", P)]

    def test_incomplete_when_dims_left(self):
        g = two_layer_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w1.d0"]: R}, dims)
        assert result.outcome is Outcome.INCOMPLETE

    def test_conflict_has_empty_newly_decided(self):
        g = two_layer_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w1.d1"]: P, lk["w2.d0"]: R}, dims)
        assert result.outcome is Outcome.CONFLICT
        assert result.newly_decided == ()

    def test_bad_seed_rejected(self):
        from autoplan.ir import DimIndex, GraphValidationError

        g = two_layer_graph()
        dims = trainable_dims(g)
        with pytest.raises(GraphValidationError):
            propagate(g, {DimIndex(0, 999, 0): P}, dims)
        with pytest.raises(GraphValidationError):
            propagate(g, {DimIndex(0, dims[0].instruction_id, 9): P}, dims)


class TestNonCandidateInputs:
    """Parameters outside the candidate set are pinned to replication."""

    def test_contracting_partition_needs_split_input(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w.d0"]: P}, dims)
        assert result.outcome is Outcome.CONFLICT
        assert g.instruction(result.conflict_site).name == "mm"

    def test_input_stays_replicated(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w.d1"]: P}, dims)
        assert result.outcome is Outcome.COMPLETE
        assert result.assignments[g.by_name("x").id].statuses == (int(R), int(R))

    def test_adp_replicates_weights(self):
        g = vgg_classifier()
        names = [g.instruction(i).name for i in adp_candidates(g)]
        dims = decision_dims(g, names)
        lk = by_label(g, dims)
        result = propagate(g, {lk["arg0.1.d0"]: P}, dims)
        assert result.outcome is not Outcome.CONFLICT
        assert result.assignments[g.by_name("w1").id].statuses == (int(R), int(R))
        assert propagate(g, {lk["arg0.1.d1"]: P}, dims).outcome is Outcome.CONFLICT


class TestEngineReuse:
    def test_engine_runs_are_independent(self):
        g = two_layer_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        engine = PropagationEngine(g, candidates=dims)
        first = engine.run({lk["w1.d1"]: P})
        second = engine.run({lk["w1.d1"]: P})
        assert first.outcome == second.outcome
        assert first.newly_decided == second.newly_decided
        conflicted = engine.run({lk["w1.d1"]: P, lk["w2.d0"]: R})
        assert conflicted.outcome is Outcome.CONFLICT
        again = engine.run({lk["w1.d1"]: P})
        assert again.outcome == first.outcome


class TestRuleFor:
    def test_elementwise_links(self):
        specs = (ShardingSpec(statuses=(int(P), int(R))),)
        out = ShardingSpec.undecided(2)
        updated, new_out = rule_for("tanh", specs, out)
        assert new_out.statuses == (int(P), int(R))

    def test_transpose(self):
        specs = (ShardingSpec(statuses=(int(P), int(R))),)
        out = ShardingSpec.undecided(2)
        _, new_out = rule_for("transpose", specs, out)
        assert new_out.statuses == (int(R), int(P))

    def test_dot(self):
        a = ShardingSpec(statuses=(int(P), int(R)))
        b = ShardingSpec.undecided(2)
        out = ShardingSpec.undecided(2)
        (new_a, new_b), new_out = rule_for("dot", (a, b), out)
        assert new_out.statuses[0] == int(P)
        assert new_b.statuses == (int(R), int(R))

    def test_conflict_returns_none(self):
        a = ShardingSpec(statuses=(int(P), int(R)))
        out = ShardingSpec(statuses=(int(R), int(R)))
        assert rule_for("tanh", (a,), out) is None

    def test_idempotent(self):
        a = ShardingSpec(statuses=(int(P), int(U)))
        out = ShardingSpec.undecided(2)
        first = rule_for("tanh", (a,), out)
        second = rule_for("tanh", *first)
        assert first == second

    def test_broadcast_needs_dims(self):
        with pytest.raises(ValueError, match="dims"):
            rule_for("broadcast", (ShardingSpec.undecided(1),), ShardingSpec.undecided(2))

    def test_broadcast_with_dims(self):
        spec = ShardingSpec(statuses=(int(P),), dims=(6,))
        out = ShardingSpec.undecided(2, dims=(4, 6))
        _, new_out = rule_for("broadcast", (spec,), out)
        assert new_out.statuses == (int(R), int(P))

    def test_unknown_opcode(self):
        with pytest.raises(ValueError, match="unknown opcode"):
            rule_for("convolution", (), ShardingSpec.undecided(1))


# -- whole-graph properties ---------------------------------------------------


@given(st.integers(0, 200), st.integers(0, 2**16 - 1))
def test_stepwise_matches_one_shot(graph_seed, bits):
    """Seeding one dim at a time classifies exactly like seeding all at once."""
    g = random_decision_graph(np.random.default_rng(graph_seed))
    dims = trainable_dims(g)
    assignment = {
        d: (P if (bits >> i) & 1 else R) for i, d in enumerate(dims)
    }
    one_shot = propagate(g, assignment, dims).outcome
    assert stepwise_outcome(g, dims, assignment) == one_shot


@given(st.integers(0, 200), st.integers(0, 2**16 - 1), st.randoms(use_true_random=False))
def test_seed_order_is_irrelevant(graph_seed, bits, shuffler):
    g = random_decision_graph(np.random.default_rng(graph_seed))
    dims = trainable_dims(g)
    assignment = {d: (P if (bits >> i) & 1 else R) for i, d in enumerate(dims)}
    base = propagate(g, assignment, dims)
    items = list(assignment.items())
    shuffler.shuffle(items)
    shuffled = propagate(g, dict(items), dims)
    assert shuffled.outcome == base.outcome
    if base.outcome is not Outcome.CONFLICT:
        for d in dims:
            a = base.assignments[d.instruction_id].statuses[d.dim]
            b = shuffled.assignments[d.instruction_id].statuses[d.dim]
            assert a == b


@given(st.integers(0, 200))
def test_propagation_is_idempotent(graph_seed):
    """Re-seeding a complete fixed point returns the same fixed point."""
    g = random_decision_graph(np.random.default_rng(graph_seed))
    dims = trainable_dims(g)
    result = propagate(g, {d: R for d in dims}, dims)
    assert result.outcome in (Outcome.COMPLETE, Outcome.CONFLICT)
    if result.outcome is Outcome.COMPLETE:
        full = {
            d: DimStatus(result.assignments[d.instruction_id].statuses[d.dim])
            for d in dims
        }
        again = propagate(g, full, dims)
        assert again.outcome is Outcome.COMPLETE
        for ins_id, spec in result.assignments.items():
            decided = [
                i for i, s in enumerate(spec.statuses) if s != int(U)
            ]
            for i in decided:
                assert again.assignments[ins_id].statuses[i] == spec.statuses[i]


def test_exhaustive_small_graph():
    """Every full vector on the 4-dim chain classifies consistently."""
    g = linkage_chain_graph()
    dims = trainable_dims(g)
    completes = []
    for vec in itertools.product((P, R), repeat=len(dims)):
        assignment = dict(zip(dims, vec))
        one_shot = propagate(g, assignment, dims).outcome
        assert stepwise_outcome(g, dims, assignment) == one_shot
        if one_shot is Outcome.COMPLETE:
            completes.append(vec)
    # the chain admits exactly two full strategies: all-replicated and the
    # linked partition {w.d1, bias.d0, scale.d0}
    assert (R, R, R, R) in completes
    assert (R, P, P, P) in completes
    assert len(completes) == 2
