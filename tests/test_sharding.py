"""Propagation rules, conflicts and the stepwise/one-shot equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from autoplan.envs import adp_candidates
from autoplan.ir import ELEMENTWISE_BINARY, OPCODES, decision_dims
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, _rule, propagate
from autoplan.zoo import vgg_classifier

from helpers import (
    GraphBuilder,
    fixed_point,
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
        seeds = {lk[k]: v for k, v in seeds_by_label.items()}
        result = propagate(g, seeds, dims)
        rows = fixed_point(g, seeds, dims)
        statuses = {
            lbl: DimStatus(rows[d.instruction_id][d.dim])
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
        rows = fixed_point(g, {lk["w.d1"]: P}, dims)
        assert rows[lk["w.d1"].instruction_id] == [R, P]

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
        rows = fixed_point(g, {}, dims)
        assert rows[lk["bc.d0"].instruction_id][0] == int(R)

    def test_broadcast_links_paired_dim(self):
        b = GraphBuilder()
        v = b.param("v", (6,))
        b.add("bc", "broadcast", (v,), (4, 6))
        g = b.build()
        dims = decision_dims(g, ["v", "bc"])
        lk = by_label(g, dims)
        rows = fixed_point(g, {lk["v.d0"]: P}, dims)
        assert rows[lk["bc.d1"].instruction_id][1] == int(P)

    def test_partitioned_reduced_dim_replicates_output(self):
        b = GraphBuilder()
        x = b.param("x", (4, 6))
        b.add("r", "reduce", (x,), (4,))
        g = b.build()
        dims = decision_dims(g, ["x", "r"])
        lk = by_label(g, dims)
        rows = fixed_point(g, {lk["x.d1"]: P}, dims)
        assert rows[lk["r.d0"].instruction_id][0] == int(R)

    def test_partitioned_output_replicates_reduced_dims(self):
        b = GraphBuilder()
        x = b.param("x", (4, 6))
        b.add("r", "reduce", (x,), (4,))
        g = b.build()
        dims = decision_dims(g, ["x", "r"])
        lk = by_label(g, dims)
        rows = fixed_point(g, {lk["r.d0"]: P}, dims)
        assert rows[lk["x.d1"].instruction_id][1] == int(R)

    def test_kept_reduce_dim_links(self):
        b = GraphBuilder()
        x = b.param("x", (4, 6))
        b.add("r", "reduce", (x,), (6,))
        g = b.build()
        dims = decision_dims(g, ["x", "r"])
        lk = by_label(g, dims)
        rows = fixed_point(g, {lk["x.d1"]: P}, dims)
        assert rows[lk["r.d0"].instruction_id][0] == int(P)


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

    def test_bad_seed_rejected_by_a_built_engine(self):
        # the candidates are checked once, when the engine is built; a seed
        # outside them still gets the full check on every run
        from autoplan.ir import DimIndex, GraphValidationError

        g = two_layer_graph()
        dims = trainable_dims(g)
        engine = PropagationEngine(g, dims)
        x = g.by_name("x").id
        bad = [
            DimIndex(0, 999, 0),
            DimIndex(0, dims[0].instruction_id, 9),
            DimIndex(0, dims[0].instruction_id, -1),
            DimIndex(0, x, 2),
        ]
        for seed in bad:
            with pytest.raises(GraphValidationError):
                engine.run({seed: P})
            with pytest.raises(GraphValidationError):
                engine.run({dims[0]: R, seed: P})
            with pytest.raises(GraphValidationError):
                PropagationEngine(g, [*dims, seed])
        # a refused seed list changes no row of the working copy
        assert engine._work in (None, engine.base())
        # a valid seed outside the candidates is checked and propagated
        assert engine.run({DimIndex(0, x, 0): R}).outcome is Outcome.INCOMPLETE
        assert engine.run({DimIndex(7, dims[1].instruction_id, dims[1].dim): P}) == engine.run(
            {dims[1]: P}
        )
        with pytest.raises(ValueError, match="twice"):
            PropagationEngine(g, [*dims, dims[0]])


class TestNonCandidateInputs:
    """Parameters outside the candidate set are pinned to replication."""

    def test_contracting_partition_needs_split_input(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        result = propagate(g, {lk["w.d0"]: P}, dims)
        assert result.outcome is Outcome.CONFLICT
        # the run starts from the base state, where mm has already carried the
        # replicated x.d1 onto w.d0, so the seed itself meets the conflict
        assert g.instruction(result.conflict_site).name == "w"

    def test_input_stays_replicated(self):
        g = linkage_chain_graph()
        dims = trainable_dims(g)
        lk = by_label(g, dims)
        seeds = {lk["w.d1"]: P}
        assert propagate(g, seeds, dims).outcome is Outcome.COMPLETE
        assert fixed_point(g, seeds, dims)[g.by_name("x").id] == [R, R]

    def test_adp_replicates_weights(self):
        g = vgg_classifier()
        names = [g.instruction(i).name for i in adp_candidates(g)]
        dims = decision_dims(g, names)
        lk = by_label(g, dims)
        seeds = {lk["arg0.1.d0"]: P}
        assert propagate(g, seeds, dims).outcome is not Outcome.CONFLICT
        assert fixed_point(g, seeds, dims)[g.by_name("w1").id] == [R, R]
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


class TestOneOpRules:
    """Each rule on a graph of one op whose operands and output are all candidates."""

    @staticmethod
    def _graph(opcode, operand_dims, out_dims):
        b = GraphBuilder()
        operands = [b.param(f"a{i}", dims) for i, dims in enumerate(operand_dims)]
        b.add("out", opcode, operands, out_dims)
        g = b.build()
        names = [f"a{i}" for i in range(len(operand_dims))] + ["out"]
        return g, decision_dims(g, names)

    def _run(self, opcode, operand_dims, out_dims, seeds_by_label):
        g, dims = self._graph(opcode, operand_dims, out_dims)
        lk = by_label(g, dims)
        seeds = {lk[k]: v for k, v in seeds_by_label.items()}
        result = propagate(g, seeds, dims)
        rows = fixed_point(g, seeds, dims)
        statuses = {lbl: DimStatus(rows[d.instruction_id][d.dim]) for lbl, d in lk.items()}
        return result, statuses

    def test_unary_elementwise_links(self):
        _, s = self._run("tanh", [(4, 6)], (4, 6), {"a0.d0": P})
        assert (s["out.d0"], s["out.d1"]) == (P, R)

    def test_binary_elementwise_links_both_operands(self):
        _, s = self._run("add", [(4, 6), (4, 6)], (4, 6), {"a0.d1": P})
        assert (s["a1.d0"], s["a1.d1"]) == (R, P)
        assert (s["out.d0"], s["out.d1"]) == (R, P)

    def test_transpose_swaps_dims(self):
        _, s = self._run("transpose", [(4, 6)], (6, 4), {"a0.d0": P})
        assert (s["out.d0"], s["out.d1"]) == (R, P)

    def test_dot(self):
        _, s = self._run("dot", [(4, 8), (8, 6)], (4, 6), {"a0.d0": P})
        assert s["out.d0"] == P
        assert (s["a1.d0"], s["a1.d1"]) == (R, R)

    def test_conflict(self):
        g, dims = self._graph("tanh", [(4, 6)], (4, 6))
        lk = by_label(g, dims)
        result = propagate(g, {lk["a0.d0"]: P, lk["out.d0"]: R, lk["out.d1"]: R}, dims)
        assert result.outcome is Outcome.CONFLICT
        assert result.conflict_site == g.by_name("out").id

    def test_idempotent(self):
        g, dims = self._graph("tanh", [(4, 6)], (4, 6))
        lk = by_label(g, dims)
        seeds = {lk["a0.d0"]: P}
        first = propagate(g, seeds, dims)
        rows = fixed_point(g, seeds, dims)
        decided = {d: DimStatus(rows[d.instruction_id][d.dim]) for d in dims}
        again = propagate(g, decided, dims)
        assert again.outcome is first.outcome is Outcome.COMPLETE
        assert fixed_point(g, decided, dims) == rows

    def test_broadcast_pairs_the_operand_dim(self):
        _, s = self._run("broadcast", [(6,)], (4, 6), {"a0.d0": P})
        assert (s["out.d0"], s["out.d1"]) == (R, P)


# operand and output extents for the ops whose rule pairs dims by shape; any
# other op takes one or two (4, 6) operands to a (4, 6) output
_RULE_SHAPES = {
    "parameter": ([], (4, 6)),
    "constant": ([], (4, 6)),
    "tuple": ([(4, 6), (6,)], ()),
    "dot": ([(4, 8), (8, 6)], (4, 6)),
    "transpose": ([(4, 6)], (6, 4)),
    "reshape": ([(4, 6)], (24,)),
    "broadcast": ([(6,)], (4, 6)),
    "reduce": ([(4, 6)], (4,)),
}


@pytest.mark.parametrize("opcode", sorted(OPCODES))
def test_every_loadable_opcode_has_a_rule(opcode):
    # the loader refuses any opcode outside OPCODES, so an opcode added there
    # without a rule would reach _rule's "unknown opcode" raise here first
    arity = 2 if opcode in ELEMENTWISE_BINARY else 1
    operand_dims, out_dims = _RULE_SHAPES.get(opcode, ([(4, 6)] * arity, (4, 6)))
    operands = list(range(len(operand_dims)))
    plans, _ = _rule(opcode, operands, len(operands), operand_dims, out_dims)
    # an op with operands and an output links them; the rest fire nothing
    assert bool(plans) == (opcode not in ("parameter", "constant", "tuple"))


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
    # run sorts its seeds, so advance takes the shuffled order as it comes
    engine = PropagationEngine(g, dims)
    rows = engine.base()
    site, _ = engine.advance(rows, dict(items))
    assert (site is not None) == (base.outcome is Outcome.CONFLICT)
    if base.outcome is not Outcome.CONFLICT:
        ordered = fixed_point(g, assignment, dims)
        for d in dims:
            a = ordered[d.instruction_id][d.dim]
            b = rows[d.instruction_id][d.dim]
            assert a == b


@given(st.integers(0, 200))
def test_propagation_is_idempotent(graph_seed):
    """Re-seeding a complete fixed point returns the same fixed point."""
    g = random_decision_graph(np.random.default_rng(graph_seed))
    dims = trainable_dims(g)
    seeds = {d: R for d in dims}
    result = propagate(g, seeds, dims)
    assert result.outcome in (Outcome.COMPLETE, Outcome.CONFLICT)
    if result.outcome is Outcome.COMPLETE:
        rows = fixed_point(g, seeds, dims)
        full = {
            d: DimStatus(rows[d.instruction_id][d.dim])
            for d in dims
        }
        again = propagate(g, full, dims)
        assert again.outcome is Outcome.COMPLETE
        again_rows = fixed_point(g, full, dims)
        for ins_id, row in rows.items():
            for i, status in enumerate(row):
                if status != U:
                    assert again_rows[ins_id][i] == status


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
