"""SPMD sharding status propagation over a computation graph.

Every tensor dimension carries one of three statuses: partitioned across all
devices, replicated, or undecided.  Seeding some dims and running the rules
to a fixed point derives the statuses forced on the rest of the graph.
Because "partitioned" always means split across the whole device set, a
tensor can hold at most one partitioned dim; requesting a second one is a
conflict, and deciding one dim partitioned forces the tensor's remaining
dims to replicated.

Only the candidate tensors are up for decision.  Every other graph input
(a ``parameter`` instruction outside the candidate set) is fully replicated
before the seeds are applied: a plan lists the layout of its candidates
only, so an input it does not name must be available whole on every device.
Operator partitioning therefore keeps the non-trainable inputs replicated,
and data parallelism keeps the weights replicated.  Constants stay free,
since they are produced inside the graph and any device can build any slice
of one locally.

Each instruction's rule becomes one or more plans over the tensors it
reads and writes, and ``PropagationEngine`` indexes the plans by tensor
once per graph.  Propagation is a worklist: when a tensor's status row
changes, only the plans touching that tensor fire again, until no plan
changes anything.  Runs work on raw rows (a list of ints per instruction);
a result builds ``ShardingSpec``s only when its ``assignments`` are read.
``rule_for`` applies one opcode's plans to standalone specs through the same
worklist.

The rules are monotone implications, so the fixed point of a seed set does
not depend on the order in which the seeds arrive, and a conflict is found
whatever the order.  A run may therefore start from an earlier fixed point:
an engine keeps the fixed point of its pins alone (the base state), and a
search seeds one decision per step onto the state its previous step left.
Seeding dims one at a time decides and classifies exactly as seeding them
all at once does.

Every run reports the tensors whose rows it changed, also when it ends in a
conflict, so work proportional to what a decision touches can follow it.  A
search step (``advance``) reads the dims it settled off those tensors.  A
trial (linkage extraction, the finetune feasibility check) seeds onto one
working copy of the base state that the engine keeps, reads its outcome,
then restores just the changed rows from the base: no trial copies the
whole state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import Callable, Mapping, Sequence

from autoplan.ir import (
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    DimIndex,
    GraphValidationError,
    HloGraph,
    _pair_broadcast,
    _pair_reduce,
    _pair_reshape,
)


class DimStatus(IntEnum):
    """Sharding status of one tensor dimension."""

    PARTITIONED = 1
    REPLICATED = 0
    UNDECIDED = -1


class Outcome(Enum):
    COMPLETE = "complete"
    INCOMPLETE = "incomplete"
    CONFLICT = "conflict"


@dataclass(frozen=True)
class ShardingSpec:
    """Per-dimension statuses of one tensor.

    ``dims`` optionally carries the tensor extents so shape dependent rules
    can be applied to a spec without graph context.
    """

    statuses: tuple[int, ...]
    dims: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.dims is not None and len(self.dims) != len(self.statuses):
            raise ValueError("statuses and dims must have equal length")
        if sum(1 for s in self.statuses if s == DimStatus.PARTITIONED) > 1:
            raise ValueError("at most one dim of a tensor can be partitioned")

    @classmethod
    def undecided(cls, rank: int, dims: tuple[int, ...] | None = None) -> "ShardingSpec":
        return cls(statuses=(int(DimStatus.UNDECIDED),) * rank, dims=dims)

    @property
    def rank(self) -> int:
        return len(self.statuses)


# the status row of every instruction, keyed by instruction id
Rows = dict[int, list[int]]


@dataclass(frozen=True)
class PropagationResult:
    """Outcome of running the rules from a seed set to a fixed point.

    ``rows`` holds the raw status row of every instruction, keyed by id; on
    a conflict it is the state at the contradiction, and ``conflict_site``
    the instruction whose rule or seed met it.  A trial's result has no
    rows (None): they were restored to the base state.  ``changed`` names
    the instructions whose rows the run changed, on a conflict too.
    ``newly_decided`` lists the candidate dims decided beyond the seeds
    themselves, in candidate order; from a later search state than
    ``base()`` it keeps only those the base state decides or the run's
    changed tensors hold.  ``assignments`` builds a ``ShardingSpec`` per
    instruction from the rows when it is first read.
    """

    outcome: Outcome
    rows: Rows | None
    conflict_site: int | None
    newly_decided: tuple[tuple[DimIndex, DimStatus], ...]
    changed: frozenset[int]
    graph: HloGraph = field(repr=False, compare=False)

    @cached_property
    def assignments(self) -> dict[int, ShardingSpec]:
        if self.rows is None:
            raise ValueError("a trial keeps no rows")
        return {
            ins.id: ShardingSpec(statuses=tuple(self.rows[ins.id]), dims=ins.shape.dims)
            for ins in self.graph.instructions
        }


class _Conflict(Exception):
    def __init__(self, site: int):
        self.site = site


_P = int(DimStatus.PARTITIONED)
_R = int(DimStatus.REPLICATED)
_U = int(DimStatus.UNDECIDED)
_STATUS = {_P: DimStatus.PARTITIONED, _R: DimStatus.REPLICATED}

# a rule plan: the function that fires it and its arguments after (rows, dirty)
Plan = tuple[Callable[..., None], tuple]


def _set(rows: Rows, tid: int, dim: int, value: int, site: int, dirty: list[int]) -> None:
    """Record one status, enforcing the single-partition rule per tensor.

    A tensor whose row changes is appended to ``dirty``.
    """
    row = rows[tid]
    cur = row[dim]
    if cur == value:
        return
    if cur != _U:
        raise _Conflict(site)
    if value == _P:
        if _P in row:
            raise _Conflict(site)
        row[dim] = _P
        # one partitioned dim pins the rest of the tensor to replicated
        for j in range(len(row)):
            if row[j] == _U:
                row[j] = _R
    else:
        row[dim] = value
    dirty.append(tid)


def _link(rows: Rows, ta: int, da: int, tb: int, db: int, site: int, dirty: list[int]) -> None:
    va = rows[ta][da]
    vb = rows[tb][db]
    if va == vb:
        return
    if va == _U:
        _set(rows, ta, da, vb, site, dirty)
    elif vb == _U:
        _set(rows, tb, db, va, site, dirty)
    else:
        raise _Conflict(site)


def _fire_links(rows: Rows, dirty: list[int], links: tuple, site: int) -> None:
    """Dims that must share one status: elementwise, transpose, aligned
    reshape, broadcast and kept-reduce-dim pairs."""
    for ta, da, tb, db in links:
        _link(rows, ta, da, tb, db, site, dirty)


def _fire_dot(rows: Rows, dirty: list[int], a: int, b: int, c: int) -> None:
    """dot(A[m,k], B[k,n]) -> C[m,n].

    The m and n dims flow between operand and output; the contracting k
    dims must agree.  Partitioning m (n) leaves the other operand fully
    replicated, and a partitioned contracting dim forces the output to full
    replication, which models the implied allreduce.
    """
    _link(rows, a, 0, c, 0, c, dirty)
    _link(rows, b, 1, c, 1, c, dirty)
    _link(rows, a, 1, b, 0, c, dirty)
    ra, rb, rc = rows[a], rows[b], rows[c]
    if ra[0] == _P or rc[0] == _P:
        _set(rows, b, 0, _R, c, dirty)
        _set(rows, b, 1, _R, c, dirty)
    if rb[1] == _P or rc[1] == _P:
        _set(rows, a, 0, _R, c, dirty)
        _set(rows, a, 1, _R, c, dirty)
    if ra[1] == _P or rb[0] == _P:
        _set(rows, c, 0, _R, c, dirty)
        _set(rows, c, 1, _R, c, dirty)


def _fire_reduce(rows: Rows, dirty: list[int], a: int, reduced: tuple[int, ...], out: int) -> None:
    """A partitioned reduced dim implies an allreduce, so the output is
    fully replicated; a partitioned output dim rules that out."""
    out_row = rows[out]
    if any(rows[a][r] == _P for r in reduced):
        for j in range(len(out_row)):
            _set(rows, out, j, _R, out, dirty)
    if _P in out_row:
        for r in reduced:
            _set(rows, a, r, _R, out, dirty)


def _rule(
    opcode: str,
    operands: Sequence[int],
    out: int,
    out_rank: int,
    operand_dims: Sequence[tuple[int, ...] | None],
    out_dims: tuple[int, ...] | None,
) -> tuple[list[Plan], list[tuple[int, int]]]:
    """The plans and the forced-replicated dims of one op's rule.

    ``operands`` and ``out`` are row ids; a get-tuple-element passes the
    tuple element it reads as its one operand.  Reshape, broadcast and
    reduce need the extents in ``operand_dims`` and ``out_dims``.
    """
    if opcode in ("reshape", "broadcast", "reduce") and (operand_dims[0] is None or out_dims is None):
        raise ValueError(f"rule for {opcode} needs specs with dims attached")
    plans: list[Plan] = []
    forced: list[tuple[int, int]] = []
    if opcode in ELEMENTWISE_BINARY or opcode in ELEMENTWISE_UNARY or opcode == "get-tuple-element":
        links = tuple([(op, d, out, d) for op in operands for d in range(out_rank)])
        plans.append((_fire_links, (links, out)))
    elif opcode == "dot":
        a, b = operands
        plans.append((_fire_dot, (a, b, out)))
    elif opcode == "transpose":
        (a,) = operands
        links = tuple([(a, out_rank - 1 - d, out, d) for d in range(out_rank)])
        plans.append((_fire_links, (links, out)))
    elif opcode == "reshape":
        (a,) = operands
        aligned, un_in, un_out = _pair_reshape(operand_dims[0], out_dims)
        plans.append((_fire_links, (tuple([(a, i, out, j) for i, j in aligned]), out)))
        forced.extend((a, i) for i in un_in)
        forced.extend((out, j) for j in un_out)
    elif opcode == "broadcast":
        (a,) = operands
        pairs = _pair_broadcast(operand_dims[0], out_dims)
        plans.append((_fire_links, (tuple([(a, i, out, j) for i, j in pairs]), out)))
        paired_out = {j for _, j in pairs}
        forced.extend((out, j) for j in range(out_rank) if j not in paired_out)
    elif opcode == "reduce":
        (a,) = operands
        pairs, reduced = _pair_reduce(operand_dims[0], out_dims)
        if pairs:
            plans.append((_fire_links, (tuple([(a, i, out, j) for i, j in pairs]), out)))
        if reduced and out_rank:
            plans.append((_fire_reduce, (a, tuple(reduced), out)))
    elif opcode not in ("parameter", "constant", "tuple"):
        raise ValueError(f"unknown opcode {opcode!r}")
    return plans, forced


def _drain(
    rows: Rows,
    dirty: list[int],
    plans: Sequence[Plan],
    touching: Mapping[int, Sequence[int]],
    changed: set[int],
) -> None:
    """Fire the plans touching each changed tensor until none changes a row.

    ``dirty`` lists the tensors changed since ``rows`` was last a fixed
    point; ``touching`` maps a tensor to the indices of the plans over it.
    Adds every tensor changed, ``dirty`` included, to ``changed``; it does
    so also when it raises ``_Conflict`` at the first contradiction, so the
    caller can undo a conflicting run.
    """
    queue: deque[int] = deque()
    queued: set[int] = set()
    try:
        while True:
            if dirty:
                changed.update(dirty)
                for tid in dirty:
                    for p in touching.get(tid, ()):
                        if p not in queued:
                            queued.add(p)
                            queue.append(p)
                dirty.clear()
            if not queue:
                return
            p = queue.popleft()
            queued.discard(p)
            fire, args = plans[p]
            fire(rows, dirty, *args)
    finally:
        # the tensors of the firing that met a contradiction
        changed.update(dirty)


class PropagationEngine:
    """Propagation over a fixed graph and candidate dim set.

    The rule plans are built and indexed by tensor once.  Parameters whose
    dims are not among the candidates are pinned to full replication on
    every run.  ``base()`` keeps the fixed point of those pins (the base
    state), and runs that start from a copy of it skip re-deriving what the
    pins force; ``trial`` runs from one working copy of it and undoes the
    rows it changed.

    ``by_tensor`` maps each candidate tensor to its candidates' positions,
    and ``base_decided`` lists the positions the base state decides.
    ``PropagationEngine.runs`` counts the runs of every engine in the
    process: a ``run``, a ``trial`` or an ``advance`` is one run each.
    """

    runs = 0

    def __init__(self, graph: HloGraph, candidates: Sequence[DimIndex]):
        self.graph = graph
        self.candidates = list(candidates)
        self._plans: list[Plan] = []
        touching: dict[int, list[int]] = {}
        self._forced: list[tuple[int, int]] = []
        for ins in graph.instructions:
            operands = ins.operand_ids
            if ins.opcode == "get-tuple-element":
                element = graph.instruction(operands[0]).operand_ids[graph.tuple_element_index(ins)]
                operands = (element,)
            plans, forced = _rule(
                ins.opcode,
                operands,
                ins.id,
                ins.shape.rank,
                [graph.instruction(op).shape.dims for op in operands],
                ins.shape.dims,
            )
            for plan in plans:
                for tid in {*operands, ins.id}:
                    touching.setdefault(tid, []).append(len(self._plans))
                self._plans.append(plan)
            self._forced.extend(forced)
        self._touching = {tid: tuple(ps) for tid, ps in touching.items()}
        self.by_tensor: dict[int, list[int]] = {}
        for i, di in enumerate(self.candidates):
            self.by_tensor.setdefault(di.instruction_id, []).append(i)
        self._base: Rows | None = None  # never seeded onto
        self._work: Rows | None = None  # the trials' copy of the base state
        self.base_decided: list[int] = []  # set by the first base(): the positions it decides

    def base(self) -> Rows:
        """A copy of the base state: the fixed point of the pins alone.

        It is computed on the first call and kept for the next ones.
        """
        if self._base is None:
            # pins hold only replicated statuses, which cannot conflict
            self._base, dirty = self._pinned()
            _drain(self._base, dirty, self._plans, self._touching, set())
            self.base_decided = [
                i for i, di in enumerate(self.candidates) if self._base[di.instruction_id][di.dim] != _U
            ]
        return {tid: row[:] for tid, row in self._base.items()}

    def _pinned(self) -> tuple[Rows, list[int]]:
        """Rows with only the pins set, and the tensors they changed."""
        rows = {ins.id: [_U] * ins.shape.rank for ins in self.graph.instructions}
        dirty: list[int] = []
        chosen = {di.instruction_id for di in self.candidates}
        inputs = [
            (ins.id, d)
            for ins in self.graph.instructions
            if ins.opcode == "parameter" and ins.id not in chosen
            for d in range(ins.shape.rank)
        ]
        for tid, dim in self._forced + inputs:
            _set(rows, tid, dim, _R, tid, dirty)
        return rows, dirty

    def advance(
        self, rows: Rows, seeds: Mapping[DimIndex, DimStatus], dirty: list[int] | None = None
    ) -> tuple[int | None, set[int]]:
        """Seed onto ``rows`` in place, in the mapping's order, and drain.

        The core of every run: ``rows`` must be a fixed point of this engine
        apart from the tensors in ``dirty``.  Returns the instruction that
        met a contradiction (None without one) and every tensor whose row
        changed, on a conflict too.  It neither checks the seeds nor scans
        the candidates, so a search step costs what its seed touches.
        """
        PropagationEngine.runs += 1
        dirty = [] if dirty is None else dirty
        changed: set[int] = set()
        try:
            for di, status in seeds.items():
                _set(rows, di.instruction_id, di.dim, int(status), di.instruction_id, dirty)
            _drain(rows, dirty, self._plans, self._touching, changed)
        except _Conflict as c:
            # a seed that conflicts leaves the seeds set before it in dirty
            changed.update(dirty)
            return c.site, changed
        return None, changed

    def run(
        self, seeds: Mapping[DimIndex, DimStatus], start: Rows | None = None
    ) -> PropagationResult:
        """Propagate ``seeds`` to a fixed point.

        Without ``start`` the run begins from the bare pins.  A ``start``
        must be a fixed point of this engine, such as ``base()`` or the rows
        of an earlier conflict-free result; the seeds go onto it in place,
        so a search can seed one decision per step onto the state the
        previous step left.
        """
        order = sorted(seeds, key=lambda d: (d.instruction_id, d.dim))
        for di in order:
            if di.instruction_id not in self.graph:
                raise GraphValidationError(f"seed references unknown instruction {di.instruction_id}")
            if di.dim >= self.graph.instruction(di.instruction_id).shape.rank:
                raise GraphValidationError(
                    f"seed dim {di.dim} out of range for instruction {di.instruction_id}"
                )
        candidates = self.candidates
        rows, dirty = self._pinned() if start is None else (start, [])
        site, changed = self.advance(rows, {di: seeds[di] for di in order}, dirty)
        if site is not None:
            return PropagationResult(Outcome.CONFLICT, rows, site, (), frozenset(changed), self.graph)
        if start is None:
            positions: Sequence[int] = range(len(candidates))
        else:
            # a start holds the base state, and only the changed tensors moved on from it
            if self._base is None:
                self.base()
            by_tensor = self.by_tensor
            positions = sorted({*self.base_decided, *(i for t in changed for i in by_tensor.get(t, ()))})
        seeded = {(di.instruction_id, di.dim) for di in order}
        newly = tuple(
            (di, _STATUS[rows[di.instruction_id][di.dim]])
            for di in map(candidates.__getitem__, positions)
            if (di.instruction_id, di.dim) not in seeded and rows[di.instruction_id][di.dim] != _U
        )
        complete = all(rows[di.instruction_id][di.dim] != _U for di in candidates)
        outcome = Outcome.COMPLETE if complete else Outcome.INCOMPLETE
        return PropagationResult(outcome, rows, None, newly, frozenset(changed), self.graph)

    def trial(self, seeds: Mapping[DimIndex, DimStatus]) -> PropagationResult:
        """``run(seeds, start=self.base())`` without copying the base state.

        The seeds go onto the engine's working copy of the base state, and
        the rows the run changed are then restored from the base, conflict
        or not.  The result has the run's outcome, ``conflict_site``,
        ``newly_decided`` and ``changed``, but no rows.
        """
        if self._work is None:
            self._work = self.base()
        r = self.run(seeds, start=self._work)
        work, base = self._work, self._base
        for tid in r.changed:
            work[tid][:] = base[tid]
        return PropagationResult(r.outcome, None, r.conflict_site, r.newly_decided, r.changed, self.graph)


def propagate(
    graph: HloGraph,
    seeds: Mapping[DimIndex, DimStatus],
    candidates: Sequence[DimIndex],
) -> PropagationResult:
    """One-shot propagation of a seed set over a graph.

    ``candidates`` names the dims up for decision; parameters outside it are
    replicated.
    """
    return PropagationEngine(graph, candidates).run(seeds)


def rule_for(
    opcode: str,
    operand_specs: Sequence[ShardingSpec],
    output_spec: ShardingSpec,
) -> tuple[tuple[ShardingSpec, ...], ShardingSpec] | None:
    """Apply one opcode's rule to standalone specs.

    Returns the updated (operand specs, output spec) or None on conflict.
    Shape dependent opcodes (reshape, broadcast, reduce) require specs that
    carry ``dims``.  For get-tuple-element pass the selected element's spec
    as the single operand.  Applying the rule twice is a no-op.
    """
    same_rank = opcode in ELEMENTWISE_BINARY or opcode in ELEMENTWISE_UNARY
    if (same_rank or opcode in ("get-tuple-element", "transpose")) and any(
        spec.rank != output_spec.rank for spec in operand_specs
    ):
        raise ValueError(f"rule for {opcode} needs operand ranks equal to the output rank")
    out = len(operand_specs)
    plans, forced = _rule(
        opcode,
        range(out),
        out,
        output_spec.rank,
        [spec.dims for spec in operand_specs],
        output_spec.dims,
    )
    rows = {i: list(spec.statuses) for i, spec in enumerate((*operand_specs, output_spec))}
    # the given specs need not be a fixed point: every plan fires at first
    dirty = list(rows)
    touching = dict.fromkeys(rows, range(len(plans)))
    try:
        for tid, dim in forced:
            _set(rows, tid, dim, _R, tid, dirty)
        _drain(rows, dirty, plans, touching, set())
    except _Conflict:
        return None
    new_operands = tuple(
        ShardingSpec(statuses=tuple(rows[i]), dims=spec.dims)
        for i, spec in enumerate(operand_specs)
    )
    return new_operands, ShardingSpec(statuses=tuple(rows[out]), dims=output_spec.dims)
