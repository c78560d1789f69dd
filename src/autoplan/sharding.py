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
changes anything.  Runs work on raw rows: a list of ints per instruction.

The rules are monotone implications, so the fixed point of a seed set does
not depend on the order in which the seeds arrive, and a conflict is found
whatever the order.  A propagation therefore starts from an earlier fixed
point: an engine keeps the fixed point of its pins alone (the base state),
and seeding dims one at a time decides and classifies exactly as seeding
them all at once does.  The engine has three entry points:

- ``advance`` and ``settled`` serve a search episode.  ``advance`` seeds
  onto rows the caller holds (a ``base()`` copy, then the state its
  previous step left) and hands back the tensors whose rows it changed, on
  a conflict too; ``settled`` reads the candidate statuses of the tensors
  asked for, so a step costs what its decision touches.
- ``run`` answers a one-off question (a linkage trigger, adp's
  lone-partition feasibility): it seeds onto the one working copy of the
  base state that the engine keeps, reads the outcome, then restores just
  the rows it changed, conflict or not, so no run copies the whole state.
- ``propagate`` is a fresh engine's ``run``, for a caller that asks once
  (self-validation and ``--task validate``).

An opp run builds one engine: linkage extraction runs its triggers on it
and the env then searches on it (self-validation builds its own, so that it
stays independent of the search).  A run costs its propagation plus
bookkeeping in the size of what it changed: the seeds are looked up among
the candidates, which were checked once when the engine was built, and
``settled`` meets the changed tensors with the candidate tensors in one
set intersection.  On the 302-node, 200-dim MLP of the benchmark the 400
linkage runs take about 7 ms, two thirds of it propagation.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from enum import Enum, IntEnum
from typing import Callable, Container, Iterable, Mapping, NamedTuple, Sequence

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


# the status row of every instruction, keyed by instruction id
Rows = dict[int, list[int]]


class PropagationResult(NamedTuple):
    """Outcome of one ``run``: its seeds propagated to a fixed point.

    On a conflict ``conflict_site`` is the instruction whose rule or seed
    met the contradiction.  ``newly_decided`` lists the candidate dims the
    run decided beyond the seeds themselves, the base state's included, in
    candidate order: the engine's ``base_settled`` and what ``settled``
    reads off the tensors the run changed.  The rows are not part of it:
    ``run`` restores them to the base state.  A named tuple, since every
    linkage trigger builds one.
    """

    outcome: Outcome
    conflict_site: int | None
    newly_decided: tuple[tuple[DimIndex, DimStatus], ...]


class _Conflict(Exception):
    def __init__(self, site: int):
        self.site = site


_P = int(DimStatus.PARTITIONED)
_R = int(DimStatus.REPLICATED)
_U = int(DimStatus.UNDECIDED)
_STATUS = {_P: DimStatus.PARTITIONED, _R: DimStatus.REPLICATED}

# a rule plan: its fire function with the op's arguments bound, called as
# plan(rows, dirty); binding them once saves unpacking them on every firing
Plan = Callable[[Rows, list[int]], None]


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
    """Give two dims of differing statuses one status; the callers check
    that they differ, which is the common case's whole cost."""
    va = rows[ta][da]
    vb = rows[tb][db]
    if va == _U:
        _set(rows, ta, da, vb, site, dirty)
    elif vb == _U:
        _set(rows, tb, db, va, site, dirty)
    else:
        raise _Conflict(site)


def _fire_links(links: tuple, site: int, rows: Rows, dirty: list[int]) -> None:
    """Dims that must share one status: elementwise, transpose, aligned
    reshape, broadcast and kept-reduce-dim pairs."""
    for ta, da, tb, db in links:
        if rows[ta][da] != rows[tb][db]:
            _link(rows, ta, da, tb, db, site, dirty)


def _fire_dot(a: int, b: int, c: int, rows: Rows, dirty: list[int]) -> None:
    """dot(A[m,k], B[k,n]) -> C[m,n].

    The m and n dims flow between operand and output; the contracting k
    dims must agree.  Partitioning m (n) leaves the other operand fully
    replicated, and a partitioned contracting dim forces the output to full
    replication, which models the implied allreduce.
    """
    # rows change in place, so these stay current through the links
    ra, rb, rc = rows[a], rows[b], rows[c]
    if ra[0] != rc[0]:
        _link(rows, a, 0, c, 0, c, dirty)
    if rb[1] != rc[1]:
        _link(rows, b, 1, c, 1, c, dirty)
    if ra[1] != rb[0]:
        _link(rows, a, 1, b, 0, c, dirty)
    if ra[0] == _P or rc[0] == _P:
        _set(rows, b, 0, _R, c, dirty)
        _set(rows, b, 1, _R, c, dirty)
    if rb[1] == _P or rc[1] == _P:
        _set(rows, a, 0, _R, c, dirty)
        _set(rows, a, 1, _R, c, dirty)
    if ra[1] == _P or rb[0] == _P:
        _set(rows, c, 0, _R, c, dirty)
        _set(rows, c, 1, _R, c, dirty)


def _fire_reduce(a: int, reduced: tuple[int, ...], out: int, rows: Rows, dirty: list[int]) -> None:
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
    operand_dims: Sequence[tuple[int, ...]],
    out_dims: tuple[int, ...],
) -> tuple[list[Plan], list[tuple[int, int]]]:
    """The plans and the forced-replicated dims of one op's rule.

    ``operands`` and ``out`` are row ids; a get-tuple-element passes the
    tuple element it reads as its one operand.  ``operand_dims`` and
    ``out_dims`` are the extents of the operands and the output.
    """
    out_rank = len(out_dims)
    plans: list[Plan] = []
    forced: list[tuple[int, int]] = []
    if opcode in ELEMENTWISE_BINARY or opcode in ELEMENTWISE_UNARY or opcode == "get-tuple-element":
        links = tuple([(op, d, out, d) for op in operands for d in range(out_rank)])
        plans.append(partial(_fire_links, links, out))
    elif opcode == "dot":
        a, b = operands
        plans.append(partial(_fire_dot, a, b, out))
    elif opcode == "transpose":
        (a,) = operands
        links = tuple([(a, out_rank - 1 - d, out, d) for d in range(out_rank)])
        plans.append(partial(_fire_links, links, out))
    elif opcode == "reshape":
        (a,) = operands
        aligned, un_in, un_out = _pair_reshape(operand_dims[0], out_dims)
        plans.append(partial(_fire_links, tuple([(a, i, out, j) for i, j in aligned]), out))
        forced.extend((a, i) for i in un_in)
        forced.extend((out, j) for j in un_out)
    elif opcode == "broadcast":
        (a,) = operands
        pairs = _pair_broadcast(operand_dims[0], out_dims)
        plans.append(partial(_fire_links, tuple([(a, i, out, j) for i, j in pairs]), out))
        paired_out = {j for _, j in pairs}
        forced.extend((out, j) for j in range(out_rank) if j not in paired_out)
    elif opcode == "reduce":
        (a,) = operands
        pairs, reduced = _pair_reduce(operand_dims[0], out_dims)
        if pairs:
            plans.append(partial(_fire_links, tuple([(a, i, out, j) for i, j in pairs]), out))
        if reduced and out_rank:
            plans.append(partial(_fire_reduce, a, tuple(reduced), out))
    elif opcode not in ("parameter", "constant", "tuple"):
        raise ValueError(f"unknown opcode {opcode!r}")
    return plans, forced


def _drain(
    rows: Rows,
    dirty: list[int],
    touching: Mapping[int, Sequence[Plan]],
    changed: set[int],
) -> None:
    """Fire the plans touching each changed tensor until none changes a row.

    ``dirty`` lists the tensors changed since ``rows`` was last a fixed
    point; ``touching`` maps a tensor to the indices of the plans over it.
    Adds every tensor changed, ``dirty`` included, to ``changed``; it does
    so also when it raises ``_Conflict`` at the first contradiction, so the
    caller can undo a conflicting run.
    """
    queue: deque[Plan] = deque()
    queued: set[Plan] = set()
    try:
        while True:
            if dirty:
                changed.update(dirty)
                for tid in dirty:
                    for plan in touching.get(tid, ()):
                        if plan not in queued:
                            queued.add(plan)
                            queue.append(plan)
                dirty.clear()
            if not queue:
                return
            plan = queue.popleft()
            queued.discard(plan)
            plan(rows, dirty)
    finally:
        # the tensors of the firing that met a contradiction
        changed.update(dirty)


_runs = 0  # see propagation_runs()


def propagation_runs() -> int:
    """The runs of every engine in the process so far: a ``run`` or an
    ``advance`` is one run each.

    A module global, not a class attribute: writing to the class on every
    run would void the interpreter's attribute caches for its instances.
    """
    return _runs


class PropagationEngine:
    """Propagation over a fixed graph and candidate dim set.

    The rule plans are built and indexed by tensor once.  Parameters whose
    dims are not among the candidates are pinned to full replication.
    ``base()`` keeps the fixed point of those pins (the base state), and
    every propagation starts from it, so none re-derives what the pins
    force.  A search episode ``advance``s its own copy of the base state
    and reads it with ``settled``; ``run`` answers a one-off question on
    the engine's working copy and undoes the rows it changed.

    ``settled`` is the one reader of rows for the candidates' statuses, and
    ``base_settled``, which the first ``base()`` fills from it, maps the
    position of every candidate the base state decides to its status, in
    position order.
    """

    def __init__(self, graph: HloGraph, candidates: Sequence[DimIndex]):
        self.graph = graph
        self.candidates = list(candidates)
        # the candidates pass a seed's check once, here, and not on every run
        self._positions: dict[tuple[int, int], int] = {}
        # per candidate tensor, the (position, dim) of its candidates
        self._by_tensor: dict[int, list[tuple[int, int]]] = {}
        for i, di in enumerate(self.candidates):
            self._check(di)
            self._positions[(di.instruction_id, di.dim)] = i
            self._by_tensor.setdefault(di.instruction_id, []).append((i, di.dim))
        if len(self._positions) < len(self.candidates):
            raise ValueError("a dim appears twice among the candidates")
        touching: dict[int, list[Plan]] = {}
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
                [graph.instruction(op).shape.dims for op in operands],
                ins.shape.dims,
            )
            for plan in plans:
                for tid in {*operands, ins.id}:
                    touching.setdefault(tid, []).append(plan)
            self._forced.extend(forced)
        self._touching = {tid: tuple(ps) for tid, ps in touching.items()}
        self._base: Rows | None = None  # never seeded onto
        self._work: Rows | None = None  # run's working copy of the base state
        # filled by the first base(); a dict, so that it is a run's ``known`` too
        self.base_settled: dict[int, DimStatus] = {}

    def _check(self, di: DimIndex) -> None:
        """Refuse a seed or candidate dim that the graph does not have."""
        if di.instruction_id not in self.graph:
            raise GraphValidationError(f"dim references unknown instruction {di.instruction_id}")
        if not 0 <= di.dim < self.graph.instruction(di.instruction_id).shape.rank:
            raise GraphValidationError(
                f"dim {di.dim} out of range for instruction {di.instruction_id}"
            )

    def base(self) -> Rows:
        """A copy of the base state: the fixed point of the pins alone.

        It is computed on the first call and kept for the next ones.
        """
        if self._base is None:
            # pins hold only replicated statuses, which cannot conflict
            self._base, dirty = self._pinned()
            _drain(self._base, dirty, self._touching, set())
            self.base_settled = dict(self.settled(self._base, self._by_tensor.keys(), ()))
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

    def settled(
        self, rows: Rows, tensors: Iterable[int], known: Container[int]
    ) -> list[tuple[int, DimStatus]]:
        """The (position, status) of every candidate in ``tensors`` that
        ``rows`` decides and ``known`` lacks, sorted by position.

        ``tensors`` are instruction ids and ``known`` candidate positions.
        The tensors meet the candidate tensors in one set intersection, in C.
        """
        by_tensor = self._by_tensor
        entries = []
        for t in by_tensor.keys() & tensors:
            row = rows[t]
            for i, dim in by_tensor[t]:
                status = row[dim]
                if status != _U and i not in known:
                    entries.append((i, _STATUS[status]))
        # positions are unique, so the sort never compares past them
        entries.sort()
        return entries

    def advance(
        self, rows: Rows, seeds: Mapping[DimIndex, DimStatus]
    ) -> tuple[int | None, set[int]]:
        """Seed onto ``rows`` in place, in the mapping's order, and drain.

        The core of every propagation: ``rows`` must be a fixed point of
        this engine.  Returns the instruction that met a contradiction (None
        without one) and every tensor whose row changed, on a conflict too.
        It neither checks the seeds nor scans the candidates, so a search
        step costs what its seed touches.
        """
        global _runs
        _runs += 1
        dirty: list[int] = []
        changed: set[int] = set()
        try:
            for di, status in seeds.items():
                _set(rows, di.instruction_id, di.dim, int(status), di.instruction_id, dirty)
            _drain(rows, dirty, self._touching, changed)
        except _Conflict as c:
            # a seed that conflicts leaves the seeds set before it in dirty
            changed.update(dirty)
            return c.site, changed
        return None, changed

    def run(self, seeds: Mapping[DimIndex, DimStatus]) -> PropagationResult:
        """Propagate ``seeds`` to a fixed point from the base state.

        The seeds go onto the engine's working copy of the base state in
        (instruction id, dim) order, and the rows the run changed are set
        back to their base values afterwards, conflict or not.
        """
        if len(seeds) > 1:
            seeds = {di: seeds[di] for di in sorted(seeds, key=lambda d: (d.instruction_id, d.dim))}
        seeded = set()  # the seeds' positions among the candidates
        for di in seeds:
            i = self._positions.get((di.instruction_id, di.dim))
            if i is None:
                self._check(di)
            else:
                seeded.add(i)
        if self._work is None:
            self._work = self.base()
        rows = self._work
        site, changed = self.advance(rows, seeds)
        if site is not None:
            outcome, newly = Outcome.CONFLICT, ()
        else:
            # the run moved on from the base state only in the changed tensors
            entries = self.settled(rows, changed, self.base_settled)
            if self.base_settled:
                entries += self.base_settled.items()
                entries.sort()
            dims = self.candidates
            newly = tuple([(dims[i], status) for i, status in entries if i not in seeded])
            # the seeds and newly_decided are every candidate the rows decide
            complete = len(seeded) + len(newly) == len(dims)
            outcome = Outcome.COMPLETE if complete else Outcome.INCOMPLETE
        base = self._base
        for tid in changed:
            rows[tid][:] = base[tid]
        return PropagationResult(outcome, site, newly)


def propagate(
    graph: HloGraph,
    seeds: Mapping[DimIndex, DimStatus],
    candidates: Sequence[DimIndex],
) -> PropagationResult:
    """A fresh engine's ``run``: one-shot propagation of a seed set.

    ``candidates`` names the dims up for decision; parameters outside it are
    replicated.
    """
    return PropagationEngine(graph, candidates).run(seeds)
