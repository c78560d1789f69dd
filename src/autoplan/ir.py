"""HLO-like computation graphs loaded from JSON.

A graph is a DAG of instructions over a small opcode vocabulary.  All
orderings exposed by this module are deterministic: instructions are kept
sorted by ascending id and topological ties are broken by ascending id.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence


class GraphError(Exception):
    """Base class for graph loading and validation failures."""


class GraphParseError(GraphError):
    """The file or dict could not be decoded into instructions."""


class GraphValidationError(GraphError):
    """The decoded graph violates a structural rule."""


# Opcode vocabulary.  Unknown opcodes are a hard error at load time.
ELEMENTWISE_BINARY = ("add", "subtract", "multiply", "divide")
ELEMENTWISE_UNARY = ("exp", "tanh")
OPCODES = frozenset(
    ELEMENTWISE_BINARY
    + ELEMENTWISE_UNARY
    + (
        "parameter",
        "constant",
        "dot",
        "reshape",
        "transpose",
        "broadcast",
        "reduce",
        "tuple",
        "get-tuple-element",
    )
)

# opcode -> required operand count, None means variadic
_ARITY: dict[str, int | None] = {
    "parameter": 0,
    "constant": 0,
    "dot": 2,
    "add": 2,
    "subtract": 2,
    "multiply": 2,
    "divide": 2,
    "exp": 1,
    "tanh": 1,
    "reshape": 1,
    "transpose": 1,
    "broadcast": 1,
    "reduce": 1,
    "get-tuple-element": 1,
    "tuple": None,
}


@dataclass(frozen=True)
class TensorShape:
    """Static shape of one tensor plus its element width in bytes."""

    dims: tuple[int, ...]
    element_size: int = 4

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def num_elements(self) -> int:
        return math.prod(self.dims)

    @property
    def byte_size(self) -> int:
        return self.num_elements * self.element_size


@dataclass(frozen=True)
class Instruction:
    """One node of the computation graph."""

    id: int
    name: str
    opcode: str
    operand_ids: tuple[int, ...]
    shape: TensorShape
    is_forward: bool = True
    compute_cost_ms: float | None = None


class DimIndex(NamedTuple):
    """Addresses one dimension of one instruction inside a decision vector.

    ``flat_index`` is the position in the flattened per-dimension decision
    vector built by :func:`decision_dims`; it is a bijection onto
    ``range(len(dims))`` for a fixed candidate set.  A named tuple, because
    dims key the dicts and sets of every search step and of each linkage
    run, and a tuple hashes and compares in C.
    """

    flat_index: int
    instruction_id: int
    dim: int


def _pair_broadcast(in_dims: Sequence[int], out_dims: Sequence[int]) -> list[tuple[int, int]]:
    """Match broadcast input dims to output dims, right-aligned and greedy.

    Returns (input_dim, output_dim) pairs.  Output dims left unpaired are the
    newly broadcast dims.  Raises if some input dim cannot be matched.
    """
    pairs: list[tuple[int, int]] = []
    j = len(out_dims) - 1
    for i in range(len(in_dims) - 1, -1, -1):
        while j >= 0 and out_dims[j] != in_dims[i]:
            j -= 1
        if j < 0:
            raise GraphValidationError(
                f"broadcast cannot map input dim {i} (extent {in_dims[i]}) "
                f"into output shape {tuple(out_dims)}"
            )
        pairs.append((i, j))
        j -= 1
    pairs.reverse()
    return pairs


def _pair_reduce(in_dims: Sequence[int], out_dims: Sequence[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Match reduce output dims to kept input dims, left-aligned and greedy.

    Returns (kept pairs, reduced input dims).  Raises if some output dim has
    no matching input dim.
    """
    pairs: list[tuple[int, int]] = []
    reduced: list[int] = []
    i = 0
    for j, extent in enumerate(out_dims):
        while i < len(in_dims) and in_dims[i] != extent:
            reduced.append(i)
            i += 1
        if i >= len(in_dims):
            raise GraphValidationError(
                f"reduce cannot map output dim {j} (extent {extent}) "
                f"onto input shape {tuple(in_dims)}"
            )
        pairs.append((i, j))
        i += 1
    reduced.extend(range(i, len(in_dims)))
    return pairs, reduced


def _pair_reshape(
    in_dims: Sequence[int], out_dims: Sequence[int]
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Align reshape dims whose extent survives as a whole output dim.

    Two dims align when they have equal extent and equal element offset
    (product of the extents before them).  Returns (aligned pairs, unaligned
    input dims, unaligned output dims).
    """
    aligned: list[tuple[int, int]] = []
    un_in: list[int] = []
    un_out: list[int] = []
    i = j = 0
    pin = pout = 1
    while i < len(in_dims) and j < len(out_dims):
        if pin == pout and in_dims[i] == out_dims[j]:
            aligned.append((i, j))
            pin *= in_dims[i]
            pout *= out_dims[j]
            i += 1
            j += 1
        elif pin * in_dims[i] <= pout * out_dims[j]:
            un_in.append(i)
            pin *= in_dims[i]
            i += 1
        else:
            un_out.append(j)
            pout *= out_dims[j]
            j += 1
    un_in.extend(range(i, len(in_dims)))
    un_out.extend(range(j, len(out_dims)))
    return aligned, un_in, un_out


class HloGraph:
    """Validated instruction DAG plus the set of trainable variable names."""

    def __init__(self, instructions: Iterable[Instruction], trainable_variables: Iterable[str] = ()):
        instrs = sorted(instructions, key=lambda ins: ins.id)
        self._instructions: dict[int, Instruction] = {}
        for ins in instrs:
            if ins.id in self._instructions:
                raise GraphValidationError(f"duplicate instruction id {ins.id}")
            self._instructions[ins.id] = ins
        names = [ins.name for ins in instrs]
        if len(set(names)) != len(names):
            raise GraphValidationError("instruction names must be unique")
        self._by_name = {ins.name: ins for ins in instrs}
        self.trainable_variables: tuple[str, ...] = tuple(sorted(set(trainable_variables)))
        self._consumers: dict[int, tuple[int, ...]] = {}
        self._validate()
        self._topo_order = self._toposort()

    # -- basic access ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._instructions)

    def __contains__(self, instruction_id: int) -> bool:
        return instruction_id in self._instructions

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return tuple(self._instructions.values())

    def instruction(self, instruction_id: int) -> Instruction:
        try:
            return self._instructions[instruction_id]
        except KeyError:
            raise GraphValidationError(f"no instruction with id {instruction_id}") from None

    def by_name(self, name: str) -> Instruction:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphValidationError(f"no instruction named {name!r}") from None

    def consumers(self, instruction_id: int) -> tuple[int, ...]:
        return self._consumers.get(instruction_id, ())

    @property
    def topological_order(self) -> tuple[int, ...]:
        return self._topo_order

    def trainable_ids(self) -> tuple[int, ...]:
        return tuple(self._by_name[name].id for name in self.trainable_variables)

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        consumers: dict[int, set[int]] = {}
        for ins in self._instructions.values():
            if ins.opcode not in OPCODES:
                raise GraphValidationError(f"{ins.name}: unknown opcode {ins.opcode!r}")
            arity = _ARITY[ins.opcode]
            if arity is not None and len(ins.operand_ids) != arity:
                raise GraphValidationError(
                    f"{ins.name}: opcode {ins.opcode} takes {arity} operands, "
                    f"got {len(ins.operand_ids)}"
                )
            if ins.shape.element_size < 1:
                raise GraphValidationError(f"{ins.name}: element_size must be >= 1")
            # the pipeline cost model sums the costs; NaN fails both comparisons
            if (cost := ins.compute_cost_ms) is not None and not 0.0 <= cost < math.inf:
                raise GraphValidationError(f"{ins.name}: compute_cost_ms must be finite and >= 0")
            if any(d < 1 for d in ins.shape.dims):
                raise GraphValidationError(f"{ins.name}: dimension extents must be >= 1")
            # the cost model prices bytes as floats, exact up to 2**53; far past it they overflow
            if ins.shape.byte_size > 2**53:
                raise GraphValidationError(f"{ins.name}: tensor holds more than 2**53 bytes")
            for op_id in ins.operand_ids:
                if op_id not in self._instructions:
                    raise GraphValidationError(f"{ins.name}: unknown operand id {op_id}")
                consumers.setdefault(op_id, set()).add(ins.id)
            self._check_shape_rule(ins)
        self._consumers = {i: tuple(sorted(c)) for i, c in consumers.items()}
        for name in self.trainable_variables:
            ins = self._by_name.get(name)
            if ins is None:
                raise GraphValidationError(f"trainable variable {name!r} is not an instruction")
            if ins.opcode != "parameter":
                raise GraphValidationError(f"trainable variable {name!r} is not a parameter")

    def _check_shape_rule(self, ins: Instruction) -> None:
        dims = ins.shape.dims
        operands = [self._instructions[i] for i in ins.operand_ids]
        if ins.opcode in ELEMENTWISE_BINARY or ins.opcode in ELEMENTWISE_UNARY:
            for op in operands:
                if op.shape.dims != dims:
                    raise GraphValidationError(
                        f"{ins.name}: elementwise operand {op.name} has shape "
                        f"{op.shape.dims}, expected {dims}"
                    )
        elif ins.opcode == "dot":
            a, b = operands
            if a.shape.rank != 2 or b.shape.rank != 2 or len(dims) != 2:
                raise GraphValidationError(f"{ins.name}: dot requires rank-2 operands and output")
            m, k = a.shape.dims
            k2, n = b.shape.dims
            if k != k2 or dims != (m, n):
                raise GraphValidationError(
                    f"{ins.name}: dot shapes {a.shape.dims} x {b.shape.dims} -> {dims} do not agree"
                )
        elif ins.opcode == "transpose":
            (op,) = operands
            if tuple(reversed(op.shape.dims)) != dims:
                raise GraphValidationError(
                    f"{ins.name}: transpose output must reverse the input dims, "
                    f"got {op.shape.dims} -> {dims}"
                )
        elif ins.opcode == "reshape":
            (op,) = operands
            if op.shape.num_elements != ins.shape.num_elements:
                raise GraphValidationError(f"{ins.name}: reshape must preserve element count")
        elif ins.opcode == "broadcast":
            (op,) = operands
            _pair_broadcast(op.shape.dims, dims)
        elif ins.opcode == "reduce":
            (op,) = operands
            if len(dims) > op.shape.rank:
                raise GraphValidationError(f"{ins.name}: reduce cannot raise rank")
            _pair_reduce(op.shape.dims, dims)
        elif ins.opcode == "get-tuple-element":
            (op,) = operands
            if op.opcode != "tuple":
                raise GraphValidationError(f"{ins.name}: get-tuple-element operand must be a tuple")
            if self.tuple_element_index(ins) is None:
                raise GraphValidationError(
                    f"{ins.name}: no tuple element of {op.name} has shape {dims}"
                )

    def tuple_element_index(self, ins: Instruction) -> int | None:
        """Element slot a get-tuple-element reads, derived by shape match.

        The schema carries no index attribute, so the first element whose
        shape equals the consumer's shape is used.
        """
        if ins.opcode != "get-tuple-element":
            return None
        tup = self._instructions[ins.operand_ids[0]]
        for idx, el_id in enumerate(tup.operand_ids):
            if self._instructions[el_id].shape.dims == ins.shape.dims:
                return idx
        return None

    def _toposort(self) -> tuple[int, ...]:
        indeg = {i: len(set(ins.operand_ids)) for i, ins in self._instructions.items()}
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            cur = heapq.heappop(ready)
            order.append(cur)
            # consumer lists are deduplicated, one edge per unique operand
            for nxt in self._consumers.get(cur, ()):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) != len(self._instructions):
            stuck = min(i for i, d in indeg.items() if d > 0)
            raise GraphValidationError(
                f"graph has a cycle through {self._instructions[stuck].name}"
            )
        return tuple(order)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        out = []
        for ins in self._instructions.values():
            entry: dict = {
                "id": ins.id,
                "name": ins.name,
                "opcode": ins.opcode,
                "operands": list(ins.operand_ids),
                "shape": list(ins.shape.dims),
                "element_size": ins.shape.element_size,
                "is_forward": ins.is_forward,
            }
            if ins.compute_cost_ms is not None:
                entry["compute_cost_ms"] = ins.compute_cost_ms
            out.append(entry)
        return {"instructions": out, "trainable_variables": list(self.trainable_variables)}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def whole(value) -> int:
    """``value`` as a count or an id; int() alone would take 4.9 as 4, true as 1 and "4" as 4."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or int(value) != float(value):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def number(value, field: str) -> float:
    """``value`` as a float; float() alone would take "130e9" and true as numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} {value!r} is not a number")
    return float(value)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.load``'s ``object_pairs_hook``: a key repeated in one object is refused, not overwritten."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def load_json(path: str, error: type[Exception]):
    """The JSON file at ``path``; ``error`` when it cannot be read, is not JSON or repeats a key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


def graph_from_dict(data: Mapping) -> HloGraph:
    """Build a validated graph from a decoded JSON object."""
    if not isinstance(data, Mapping) or "instructions" not in data:
        raise GraphParseError("graph object must contain an 'instructions' array")
    raw = data["instructions"]
    if not isinstance(raw, list):
        raise GraphParseError("'instructions' must be an array")
    instructions = []
    for pos, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise GraphParseError(f"instruction #{pos} must be an object")
        try:
            name = entry["name"]
            if not isinstance(name, str):
                raise ValueError(f"name {name!r} is not a string")
            is_forward = entry.get("is_forward", True)
            if not isinstance(is_forward, bool):
                raise ValueError(f"is_forward {is_forward!r} is not a boolean")
            cost = entry.get("compute_cost_ms")
            shape = TensorShape(
                dims=tuple(whole(d) for d in entry.get("shape", [])),
                element_size=whole(entry.get("element_size", 4)),
            )
            instructions.append(
                Instruction(
                    id=whole(entry["id"]),
                    name=name,
                    opcode=str(entry["opcode"]),
                    operand_ids=tuple(whole(i) for i in entry.get("operands", [])),
                    shape=shape,
                    is_forward=is_forward,
                    compute_cost_ms=None if cost is None else number(cost, "compute_cost_ms"),
                )
            )
        # json reads a number too large for a float as infinity, which int() refuses
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            name = entry.get("name")
            raise GraphParseError(f"instruction #{pos} ({name!r}) is malformed: {exc}") from exc
    trainables = data.get("trainable_variables", [])
    if not isinstance(trainables, list) or not all(isinstance(t, str) for t in trainables):
        raise GraphParseError("'trainable_variables' must be an array of names")
    return HloGraph(instructions, trainables)


def load_graph(path: str) -> HloGraph:
    """Load and validate a graph JSON file."""
    return graph_from_dict(load_json(path, GraphParseError))


def forward_subgraph(graph: HloGraph) -> list[int]:
    """Topologically ordered ids of the forward instructions.

    The order is the deterministic min-id topological order of the full
    graph restricted to instructions with ``is_forward`` set.
    """
    return [i for i in graph.topological_order if graph.instruction(i).is_forward]


def decision_dims(graph: HloGraph, candidate_names: Iterable[str]) -> list[DimIndex]:
    """Flatten the dims of the named candidate tensors into a decision vector.

    Candidates are visited in ascending instruction id, dims in order, so the
    flat index is a stable bijection for a fixed candidate set.
    """
    ids = []
    for name in set(candidate_names):
        ids.append(graph.by_name(name).id)
    dims: list[DimIndex] = []
    for ins_id in sorted(ids):
        ins = graph.instruction(ins_id)
        for d in range(ins.shape.rank):
            dims.append(DimIndex(len(dims), ins_id, d))
    return dims
