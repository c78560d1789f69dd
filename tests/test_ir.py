"""Graph construction, shape rules, ordering and serialization."""

import json

import pytest

from autoplan.ir import (
    DimIndex,
    GraphParseError,
    GraphValidationError,
    HloGraph,
    Instruction,
    TensorShape,
    decision_dims,
    forward_subgraph,
    graph_from_dict,
    load_graph,
)

from helpers import GraphBuilder, linkage_chain_graph


def _ins(id, name, opcode, operands=(), dims=(), **kw):
    return Instruction(
        id=id, name=name, opcode=opcode, operand_ids=tuple(operands),
        shape=TensorShape(tuple(dims)), **kw,
    )


class TestTensorShape:
    def test_rank_elements_bytes(self):
        s = TensorShape((4, 8, 2))
        assert s.rank == 3
        assert s.num_elements == 64
        assert s.byte_size == 256

    def test_scalar(self):
        s = TensorShape(())
        assert s.rank == 0
        assert s.num_elements == 1
        assert s.byte_size == 4

    def test_element_size(self):
        assert TensorShape((10,), element_size=2).byte_size == 20


class TestShapeRules:
    def test_elementwise_requires_equal_shapes(self):
        with pytest.raises(GraphValidationError, match="elementwise"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 3)),
                _ins(1, "b", "parameter", dims=(3, 2)),
                _ins(2, "c", "add", (0, 1), (2, 3)),
            ])

    def test_elementwise_unary_ok(self):
        g = HloGraph([
            _ins(0, "a", "parameter", dims=(2, 3)),
            _ins(1, "b", "tanh", (0,), (2, 3)),
        ])
        assert len(g) == 2

    def test_dot_shapes(self):
        g = HloGraph([
            _ins(0, "a", "parameter", dims=(2, 3)),
            _ins(1, "b", "parameter", dims=(3, 5)),
            _ins(2, "c", "dot", (0, 1), (2, 5)),
        ])
        assert g.instruction(2).shape.dims == (2, 5)

    def test_dot_contraction_mismatch(self):
        with pytest.raises(GraphValidationError, match="dot"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 3)),
                _ins(1, "b", "parameter", dims=(4, 5)),
                _ins(2, "c", "dot", (0, 1), (2, 5)),
            ])

    def test_dot_rank_must_be_two(self):
        with pytest.raises(GraphValidationError, match="rank-2"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 3, 4)),
                _ins(1, "b", "parameter", dims=(4, 5)),
                _ins(2, "c", "dot", (0, 1), (2, 5)),
            ])

    def test_transpose_reverses(self):
        g = HloGraph([
            _ins(0, "a", "parameter", dims=(2, 3, 4)),
            _ins(1, "t", "transpose", (0,), (4, 3, 2)),
        ])
        assert g.instruction(1).shape.dims == (4, 3, 2)
        with pytest.raises(GraphValidationError, match="transpose"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 3, 4)),
                _ins(1, "t", "transpose", (0,), (3, 2, 4)),
            ])

    def test_reshape_preserves_elements(self):
        HloGraph([
            _ins(0, "a", "parameter", dims=(2, 6)),
            _ins(1, "r", "reshape", (0,), (3, 4)),
        ])
        with pytest.raises(GraphValidationError, match="element count"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 6)),
                _ins(1, "r", "reshape", (0,), (3, 5)),
            ])

    def test_broadcast_right_aligned(self):
        HloGraph([
            _ins(0, "a", "parameter", dims=(6,)),
            _ins(1, "b", "broadcast", (0,), (4, 6)),
        ])
        with pytest.raises(GraphValidationError, match="broadcast"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(5,)),
                _ins(1, "b", "broadcast", (0,), (4, 6)),
            ])

    def test_reduce_cannot_raise_rank(self):
        HloGraph([
            _ins(0, "a", "parameter", dims=(4, 6)),
            _ins(1, "r", "reduce", (0,), (4,)),
        ])
        with pytest.raises(GraphValidationError, match="raise rank"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(4,)),
                _ins(1, "r", "reduce", (0,), (4, 6)),
            ])

    def test_reduce_unmatchable_output(self):
        with pytest.raises(GraphValidationError, match="reduce"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(4, 6)),
                _ins(1, "r", "reduce", (0,), (5,)),
            ])

    def test_gte_picks_first_shape_match(self):
        g = HloGraph([
            _ins(0, "a", "parameter", dims=(2, 3)),
            _ins(1, "b", "parameter", dims=(4,)),
            _ins(2, "t", "tuple", (0, 1), (2, 3)),
            _ins(3, "g", "get-tuple-element", (2,), (4,)),
        ])
        assert g.tuple_element_index(g.instruction(3)) == 1

    def test_gte_needs_tuple_operand(self):
        with pytest.raises(GraphValidationError, match="tuple"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 3)),
                _ins(1, "g", "get-tuple-element", (0,), (2, 3)),
            ])

    def test_gte_no_matching_element(self):
        with pytest.raises(GraphValidationError, match="shape"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2, 3)),
                _ins(1, "t", "tuple", (0,), (2, 3)),
                _ins(2, "g", "get-tuple-element", (1,), (9, 9)),
            ])


class TestValidation:
    def test_unknown_opcode(self):
        with pytest.raises(GraphValidationError, match="opcode"):
            HloGraph([_ins(0, "a", "convolution", dims=(2,))])

    def test_wrong_arity(self):
        with pytest.raises(GraphValidationError, match="operands"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2,)),
                _ins(1, "b", "add", (0,), (2,)),
            ])

    def test_unknown_operand(self):
        with pytest.raises(GraphValidationError, match="unknown operand"):
            HloGraph([_ins(0, "a", "tanh", (7,), (2,))])

    def test_duplicate_id(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2,)),
                _ins(0, "b", "parameter", dims=(2,)),
            ])

    def test_duplicate_name(self):
        with pytest.raises(GraphValidationError, match="unique"):
            HloGraph([
                _ins(0, "a", "parameter", dims=(2,)),
                _ins(1, "a", "parameter", dims=(2,)),
            ])

    def test_zero_extent_rejected(self):
        with pytest.raises(GraphValidationError, match="extents"):
            HloGraph([_ins(0, "a", "parameter", dims=(0,))])

    def test_bad_element_size(self):
        bad = Instruction(0, "a", "parameter", (), TensorShape((2,), element_size=0))
        with pytest.raises(GraphValidationError, match="element_size"):
            HloGraph([bad])

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -50.0])
    def test_unpriceable_compute_cost(self, cost):
        with pytest.raises(GraphValidationError, match="compute_cost_ms"):
            HloGraph([_ins(0, "a", "parameter", dims=(2,), compute_cost_ms=cost)])

    def test_tensor_past_the_float_range(self):
        huge = Instruction(0, "a", "parameter", (), TensorShape((2,), element_size=10**400))
        with pytest.raises(GraphValidationError, match="bytes"):
            HloGraph([huge])

    def test_trainable_must_be_parameter(self):
        with pytest.raises(GraphValidationError, match="not a parameter"):
            HloGraph(
                [
                    _ins(0, "a", "parameter", dims=(2,)),
                    _ins(1, "b", "tanh", (0,), (2,)),
                ],
                trainable_variables=["b"],
            )

    def test_trainable_must_exist(self):
        with pytest.raises(GraphValidationError, match="not an instruction"):
            HloGraph([_ins(0, "a", "parameter", dims=(2,))], trainable_variables=["ghost"])

    def test_cycle_detected(self):
        with pytest.raises(GraphValidationError, match="cycle"):
            HloGraph([
                _ins(0, "a", "tanh", (1,), (2,)),
                _ins(1, "b", "tanh", (0,), (2,)),
            ])


class TestOrdering:
    def test_toposort_min_id_ties(self):
        # diamond: both branches ready after the source; min id goes first
        g = HloGraph([
            _ins(0, "src", "parameter", dims=(2,)),
            _ins(1, "l", "tanh", (0,), (2,)),
            _ins(2, "r", "exp", (0,), (2,)),
            _ins(3, "m", "add", (1, 2), (2,)),
        ])
        assert g.topological_order == (0, 1, 2, 3)

    def test_toposort_respects_edges(self):
        # id order disagrees with dataflow; edges win
        g = HloGraph([
            _ins(0, "out", "tanh", (2,), (2,)),
            _ins(1, "src", "parameter", dims=(2,)),
            _ins(2, "mid", "exp", (1,), (2,)),
        ])
        assert g.topological_order == (1, 2, 0)

    def test_consumers_sorted(self):
        g = HloGraph([
            _ins(0, "a", "parameter", dims=(2,)),
            _ins(1, "u", "tanh", (0,), (2,)),
            _ins(2, "v", "exp", (0,), (2,)),
        ])
        assert g.consumers(0) == (1, 2)
        assert g.consumers(2) == ()

    def test_forward_subgraph_filters(self):
        g = HloGraph([
            _ins(0, "a", "parameter", dims=(2,)),
            _ins(1, "f", "tanh", (0,), (2,)),
            _ins(2, "bwd", "exp", (1,), (2,), is_forward=False),
        ])
        assert forward_subgraph(g) == [0, 1]


class TestDecisionDims:
    def test_flat_index_bijection(self):
        g = linkage_chain_graph()
        dims = decision_dims(g, g.trainable_variables)
        assert [d.flat_index for d in dims] == list(range(len(dims)))
        # w(8,6) then bias(6,) then scale(6,) in id order
        labels = [(g.instruction(d.instruction_id).name, d.dim) for d in dims]
        assert labels == [("w", 0), ("w", 1), ("bias", 0), ("scale", 0)]

    def test_duplicate_names_collapse(self):
        g = linkage_chain_graph()
        assert len(decision_dims(g, ["w", "w"])) == 2

    def test_unknown_name(self):
        g = linkage_chain_graph()
        with pytest.raises(GraphValidationError):
            decision_dims(g, ["ghost"])


class TestSerialization:
    def test_round_trip(self):
        g = linkage_chain_graph()
        h = graph_from_dict(g.to_dict())
        assert h.to_dict() == g.to_dict()

    def test_save_load(self, tmp_path):
        g = linkage_chain_graph()
        path = str(tmp_path / "g.json")
        g.save(path)
        h = load_graph(path)
        assert h.to_dict() == g.to_dict()
        assert h.trainable_variables == g.trainable_variables

    def test_optional_fields_survive(self):
        b = GraphBuilder()
        x = b.param("x", (2,))
        b.add("y", "tanh", (x,), (2,), compute_cost_ms=1.5)
        g = graph_from_dict(b.build().to_dict())
        assert g.by_name("y").compute_cost_ms == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphParseError, match="cannot read"):
            load_graph(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(GraphParseError, match="not valid JSON"):
            load_graph(str(path))

    @pytest.mark.parametrize(
        "first, later",
        [
            # the later of two keys used to win in silence, here dropping the trainable w
            ('"trainable_variables": ["bias", "scale", "w"]', '"trainable_variables": ["bias", "scale"]'),
            # a key repeated in an instruction is refused as one at the top level is
            ('"is_forward": true', '"is_forward": false'),
        ],
        ids=["top-level", "instruction"],
    )
    def test_repeated_key_is_refused(self, tmp_path, first, later):
        text = json.dumps(linkage_chain_graph().to_dict())
        assert first in text
        path = tmp_path / "g.json"
        path.write_text(text.replace(first, f"{first}, {later}", 1))
        key = later.split('"')[1]
        with pytest.raises(GraphParseError, match=f"repeated key '{key}'"):
            load_graph(str(path))

    def test_malformed_instruction(self):
        with pytest.raises(GraphParseError, match="malformed"):
            graph_from_dict({"instructions": [{"name": "a"}]})

    def test_instruction_must_be_an_object(self):
        with pytest.raises(GraphParseError, match="must be an object"):
            graph_from_dict({"instructions": [5]})

    def test_overflowing_number(self):
        entry = {"id": 0, "name": "a", "opcode": "parameter", "shape": [2], "element_size": 1e400}
        with pytest.raises(GraphParseError, match="malformed"):
            graph_from_dict({"instructions": [entry]})

    def test_malformed_instruction_is_named(self):
        entry = {"id": 0.5, "name": "a", "opcode": "parameter", "shape": [2]}
        message = r"instruction #0 \('a'\) is malformed: 0.5 is not a whole number"
        with pytest.raises(GraphParseError, match=message):
            graph_from_dict({"instructions": [entry]})

    def test_instructions_key_required(self):
        with pytest.raises(GraphParseError, match="instructions"):
            graph_from_dict({"nodes": []})

    def test_trainables_must_be_names(self):
        with pytest.raises(GraphParseError, match="trainable_variables"):
            graph_from_dict({"instructions": [], "trainable_variables": [3]})


def test_by_name_and_contains():
    g = linkage_chain_graph()
    assert g.by_name("mm").opcode == "dot"
    assert g.by_name("w").id in g
    assert 999 not in g
    with pytest.raises(GraphValidationError):
        g.by_name("ghost")
    with pytest.raises(GraphValidationError):
        g.instruction(999)


def test_dim_index_is_plain_data():
    d = DimIndex(flat_index=0, instruction_id=3, dim=1)
    assert (d.flat_index, d.instruction_id, d.dim) == (0, 3, 1)
    assert d == DimIndex(0, 3, 1)
