"""Pipeline stage construction and the pipeline length cost model.

A plan cuts the forward instruction order into K stages at K-1 pivot
instructions (a pivot is the last instruction of its stage) and splits the
device list into K contiguous groups at K-1 device cuts.  Stages run
GPipe-style fill and drain over M micro batches; gradients are all-reduced
inside each stage's device group, overlapped across stages so only the
slowest stage's allreduce shows up in the length.

The costs of cutting a graph live in its ``CutCostTable``, built in one
sweep of the forward order: compute per position, activation bytes crossing
a cut after each position, and trainable bytes by first forward consumer.
``stage_metrics`` and ``candidate_pivots`` read stage costs off it;
``length_terms`` holds the terms of ``pipeline_length``.

Stage compute is a forward-order running sum from the stage's first
position.  A difference of two prefix sums gives the same real number but
not always the same last bit, and that bit can decide a largest-remainder
tie in ``proportional_device_counts`` and so a device count.
``PipeTrainEnv`` scores many candidate cuts at once, so it keeps
``CutCostTable.running_sums``: one ``np.cumsum`` per possible stage start,
which adds in the same sequence as ``stage_metrics`` and so keeps its bits,
read at the possible stage ends.  ``proportional_device_count_rows`` and
``length_term_maxima`` are the row forms of the device allocation and of
the communication terms, with the scalar code's float operations in the
same order.

``PipeInferEnv.decode_metrics`` costs pp-infer stages by prefix differences
on the coarsened arrays instead.  Those bits are what pp-infer plan files
and the benchmark oracle pin, and running sums of the per-point
differences do not reproduce them (its docstring has the measurement).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from autoplan.ir import HloGraph, forward_subgraph
from autoplan.topology import DeviceTopology, allreduce_time, transfer_time


# floats in one masked block of CutCostTable.running_sums
_TABLE_BLOCK = 1 << 16


class InfeasiblePlanError(Exception):
    """A plan or configuration cannot be realized on the topology."""


@dataclass(frozen=True)
class StageMetrics:
    """Costs of one pipeline stage.

    ``compute_ms`` is the per-micro-batch forward plus backward time,
    ``activation_bytes`` the payload crossing the cut after this stage
    (zero for the last stage), ``param_bytes`` the trainable parameter bytes
    assigned to the stage.
    """

    compute_ms: float
    activation_bytes: float
    param_bytes: float


@dataclass(frozen=True)
class PipelinePlan:
    """K-stage plan: K-1 pivot instruction ids and K-1 device cuts."""

    pivot_ids: tuple[int, ...]
    device_cuts: tuple[int, ...]
    micro_batches: int = 1
    micro_batch_size: int = 16

    def __post_init__(self) -> None:
        if len(self.pivot_ids) != len(self.device_cuts):
            raise InfeasiblePlanError("plan needs one device cut per pivot")
        if self.micro_batches < 1:
            raise InfeasiblePlanError("micro_batches must be >= 1")

    @property
    def num_stages(self) -> int:
        return len(self.pivot_ids) + 1


def device_groups(device_cuts: Sequence[int], num_devices: int) -> list[tuple[int, int]]:
    """Split devices [0, D) into contiguous half-open groups at the cuts."""
    cuts = list(device_cuts)
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise InfeasiblePlanError("device cuts must be strictly increasing")
    if cuts and (cuts[0] < 1 or cuts[-1] > num_devices - 1):
        raise InfeasiblePlanError("device cuts must lie strictly inside (0, D)")
    edges = [0] + cuts + [num_devices]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


@dataclass(frozen=True)
class CutCostTable:
    """The costs of cutting a graph's forward order, by forward position i.

    ``compute[i]``: ``compute_cost_ms`` (missing counts as zero).
    ``crossing[i]``: bytes of the tensors produced at or before i with a
    forward consumer after it, each counted once.  ``param_bytes[i]``:
    trainable bytes whose first forward consumer, or else the trainable
    itself, sits at i.  The rest, ``unplaced_param_bytes``, count in the
    first stage but not in ``candidate_pivots``.
    """

    order: tuple[int, ...]
    position: Mapping[int, int]
    compute: tuple[float, ...]
    crossing: tuple[int, ...]
    param_bytes: tuple[int, ...]
    unplaced_param_bytes: int

    @classmethod
    def build(cls, graph: HloGraph) -> CutCostTable:
        order = forward_subgraph(graph)
        position = {ins_id: i for i, ins_id in enumerate(order)}

        def forward_uses(ins_id: int) -> list[int]:
            return [position[c] for c in graph.consumers(ins_id) if c in position]

        # a tensor crosses the cuts after positions i .. last use - 1
        delta = [0] * (len(order) + 1)
        for i, ins_id in enumerate(order):
            uses = forward_uses(ins_id)
            if uses:
                size = graph.instruction(ins_id).shape.byte_size
                delta[i] += size
                delta[max(uses)] -= size

        param_bytes = [0] * len(order)
        unplaced = 0
        for var_id in graph.trainable_ids():
            uses = forward_uses(var_id)
            first = min(uses) if uses else position.get(var_id)
            size = graph.instruction(var_id).shape.byte_size
            if first is None:
                unplaced += size
            else:
                param_bytes[first] += size

        return cls(
            order=tuple(order),
            position=position,
            compute=tuple(graph.instruction(i).compute_cost_ms or 0.0 for i in order),
            crossing=tuple(itertools.accumulate(delta[:-1])),
            param_bytes=tuple(param_bytes),
            unplaced_param_bytes=unplaced,
        )

    def stage_metrics(
        self, pivots: Sequence[int], backward_multiplier: float = 2.0
    ) -> list[StageMetrics]:
        """Cost the stages that the pivots cut the forward order into."""
        for p in pivots:
            if p not in self.position:
                raise InfeasiblePlanError(f"pivot {p} is not a forward instruction")
        cuts = [self.position[p] for p in pivots]
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise InfeasiblePlanError("pivots must be strictly increasing in forward order")

        scale = 1.0 + backward_multiplier
        edges = [0] + [c + 1 for c in cuts] + [len(self.order)]
        metrics = []
        for s in range(len(edges) - 1):
            lo, hi = edges[s], edges[s + 1]
            # a running sum: prefix differences would change the last bit of
            # stage compute and so the tie-breaks of proportional_device_counts
            compute = 0.0
            for cost in self.compute[lo:hi]:
                compute += cost
            params = sum(self.param_bytes[lo:hi]) + (self.unplaced_param_bytes if s == 0 else 0)
            activation = float(self.crossing[hi - 1]) if s < len(cuts) else 0.0
            metrics.append(StageMetrics(compute * scale, activation, float(params)))
        return metrics

    def running_sums(
        self, cuts: Sequence[int], backward_multiplier: float = 2.0
    ) -> np.ndarray:
        """Stage compute between any two of the increasing cut positions.

        Stage boundary 0 is the first position, boundary j+1 lies just past
        ``cuts[j]`` and boundary ``len(cuts)+1`` past the last position.
        Entry [a, b] is the compute of the stage from boundary a to boundary
        b+1, in the bits of ``stage_metrics``; entries with b < a mean
        nothing.  Row a is the running sum from its start, masked to zero
        before it (adding zeros first leaves the sum's bits alone).
        """
        compute = np.asarray(self.compute)
        starts = np.array([0, *(c + 1 for c in cuts)])
        ends = np.array([*cuts, len(compute) - 1])
        table = np.empty((len(starts), len(ends)))
        # a block of rows shares one masked cumsum of at most _TABLE_BLOCK
        # floats, from the block's first start on
        rows = max(1, _TABLE_BLOCK // len(compute))
        for lo in range(0, len(starts), rows):
            first = starts[lo]
            masked = np.where(
                np.arange(first, len(compute)) >= starts[lo : lo + rows, None], compute[first:], 0.0
            )
            table[lo : lo + rows] = np.cumsum(masked, axis=1)[:, np.maximum(ends - first, 0)]
        return table * (1.0 + backward_multiplier)


def stage_metrics(
    graph: HloGraph, pivots: Sequence[int], backward_multiplier: float = 2.0
) -> list[StageMetrics]:
    """Split the forward order at the pivots and cost each stage.

    Compute adds the backward pass as ``backward_multiplier`` times the
    forward time; the other costs are those of ``CutCostTable``.  Callers
    that cost many pivot sets of one graph keep the table instead.
    """
    return CutCostTable.build(graph).stage_metrics(pivots, backward_multiplier)


def length_terms(
    metrics: Sequence[StageMetrics], device_cuts: Sequence[int], topo: DeviceTopology
) -> tuple[list[float], list[float], list[float]]:
    """Per-stage times ``compute_ms / 1000 / n``, boundary transfers and allreduces."""
    groups = device_groups(device_cuts, topo.num_devices)
    times = [m.compute_ms / 1000.0 / (end - start) for m, (start, end) in zip(metrics, groups)]
    transfers = [
        transfer_time(metrics[s].activation_bytes, groups[s][1] - 1, groups[s + 1][0], topo)
        for s in range(len(groups) - 1)
    ]
    reduces = [
        allreduce_time(m.param_bytes, range(start, end), topo)
        for m, (start, end) in zip(metrics, groups)
    ]
    return times, transfers, reduces


def pipeline_length(
    plan: PipelinePlan, metrics: Sequence[StageMetrics], topo: DeviceTopology
) -> float:
    """GPipe-style pipeline length in seconds.

    With the terms of ``length_terms`` the length is
    ``(M-1)*max(t) + sum(t) + sum(boundary transfers) + max(allreduce)``:
    fill and drain on the slowest stage, one pass through every stage, the
    stage boundary hops, and the slowest gradient allreduce (the rest
    overlap with it).
    """
    if len(metrics) != plan.num_stages:
        raise InfeasiblePlanError("metrics do not match the plan's stage count")
    times, transfers, reduces = length_terms(metrics, plan.device_cuts, topo)
    return (plan.micro_batches - 1) * max(times) + sum(times) + sum(transfers) + max(reduces)


def length_breakdown(
    plan: PipelinePlan, metrics: Sequence[StageMetrics], topo: DeviceTopology
) -> dict:
    """The terms of ``pipeline_length``, to show what a plan's length comes from.

    Per stage ``time_s``, ``allreduce_s`` and, for all but the last stage,
    ``transfer_s`` (the hop to the next stage); ``fill_drain_s`` is
    ``(M-1)*max(time_s)``.  ``fill_drain_s + sum(time_s) + sum(transfer_s)
    + max(allreduce_s)``, added in that order, is the length.
    """
    times, transfers, reduces = length_terms(metrics, plan.device_cuts, topo)
    stages = [{"time_s": t, "allreduce_s": r} for t, r in zip(times, reduces)]
    for stage, transfer in zip(stages, transfers):
        stage["transfer_s"] = transfer
    return {"stages": stages, "fill_drain_s": (plan.micro_batches - 1) * max(times)}


def memory_feasible(
    plan: PipelinePlan,
    metrics: Sequence[StageMetrics],
    topo: DeviceTopology,
    mem_per_device: float,
    optimizer_multiplier: float = 4.0,
) -> bool:
    """Check that every device fits its parameter shard plus activations.

    Per device of stage s the model keeps ``param_bytes / n_s`` weights
    blown up by the optimizer state multiplier, plus the in-flight
    activation working set: M micro batches of the stage's boundary
    activations, split over the stage replicas.  Exactly hitting the budget
    is feasible.
    """
    groups = device_groups(plan.device_cuts, topo.num_devices)
    if len(metrics) != len(groups):
        raise InfeasiblePlanError("metrics do not match the plan's stage count")
    for s, ((start, end), m) in enumerate(zip(groups, metrics)):
        n = end - start
        act_in = metrics[s - 1].activation_bytes if s > 0 else 0.0
        act_out = m.activation_bytes
        working_set = plan.micro_batches * (act_in + act_out) / n
        if m.param_bytes / n * optimizer_multiplier + working_set > mem_per_device:
            return False
    return True


def _largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    counts = [int(q) for q in quotas]
    remainder = total - sum(counts)
    order = sorted(
        range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def proportional_device_counts(
    compute_ms: Sequence[float], num_devices: int
) -> list[int]:
    """Devices per stage proportional to compute, largest remainder, min 1."""
    k = len(compute_ms)
    if k > num_devices:
        raise InfeasiblePlanError(f"{k} stages need more than {num_devices} devices")
    # summed in sequence, as proportional_device_count_rows does (the
    # built-in sum compensates rounding from Python 3.12 on)
    total = 0.0
    for c in compute_ms:
        total += c
    if total <= 0:
        quotas = [num_devices / k] * k
    else:
        quotas = [num_devices * c / total for c in compute_ms]
    counts = _largest_remainder(quotas, num_devices)
    # proportionality never starves a stage completely
    while any(c == 0 for c in counts):
        poorest = counts.index(0)
        richest = max(range(k), key=lambda i: (counts[i], -i))
        counts[richest] -= 1
        counts[poorest] = 1
    return counts


def proportional_device_cuts(
    metrics: Sequence[StageMetrics], topo: DeviceTopology
) -> tuple[int, ...]:
    """Device cuts allocating devices proportionally to stage compute."""
    counts = proportional_device_counts([m.compute_ms for m in metrics], topo.num_devices)
    return tuple(itertools.accumulate(counts[:-1]))


def proportional_device_count_rows(compute_ms: np.ndarray, num_devices: int) -> np.ndarray:
    """``proportional_device_counts`` of every row of per-stage compute.

    The float operations are the scalar ones in the same order, and ties
    break the same way, so every row gets the counts the scalar function
    gives it.
    """
    k = compute_ms.shape[1]
    if k > num_devices:
        raise InfeasiblePlanError(f"{k} stages need more than {num_devices} devices")
    total = np.zeros((len(compute_ms), 1))
    for s in range(k):
        total[:, 0] += compute_ms[:, s]
    positive = total > 0
    # the discarded quotas divide by 1, so that no 0/0 is ever evaluated
    shares = num_devices * compute_ms / np.where(positive, total, 1.0)
    quotas = np.where(positive, shares, num_devices / k)
    counts = quotas.astype(np.int64)
    # largest remainder first, ties to the lower stage; counts - quotas is
    # exactly -(quotas - counts)
    order = np.argsort(counts - quotas, axis=1, kind="stable")
    remainder = num_devices - counts.sum(axis=1)
    counts += np.argsort(order, axis=1) < remainder[:, None]
    # the scalar repair, one starved stage per pass: k <= D, so the richest
    # stage holds at least two devices while a stage holds none
    starved = np.flatnonzero((counts == 0).any(axis=1))
    while starved.size:
        rows = counts[starved]
        poorest, richest = (rows == 0).argmax(axis=1), rows.argmax(axis=1)
        counts[starved, richest] -= 1
        counts[starved, poorest] = 1
        starved = starved[(counts[starved] == 0).any(axis=1)]
    return counts


def length_term_maxima(
    activation_bytes: np.ndarray,
    param_bytes: np.ndarray,
    device_counts: np.ndarray,
    topo: DeviceTopology,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the slowest boundary transfer and allreduce of ``length_terms``.

    Row r holds a plan of k stages: ``activation_bytes[r]`` the k-1 payloads
    crossing its cuts, ``param_bytes[r]`` and ``device_counts[r]`` the k
    stages' trainable bytes and contiguous device groups.  The values are
    those of ``transfer_time`` and ``allreduce_time``.
    """
    g = topo.gpus_per_server
    ends = np.cumsum(device_counts, axis=1)
    # a stage hands over from its last device, ends - 1, to the next one's first
    transfers = activation_bytes / np.where(ends[:, :-1] % g != 0, topo.intra_bw, topo.inter_bw)
    if topo.inter_bw <= topo.intra_bw:
        # a group that spans servers is bound by the network, others by the
        # server links; a group of one device or no bytes costs 0
        spans = (ends - device_counts) // g != (ends - 1) // g
        min_bw = np.where(spans, topo.inter_bw, topo.intra_bw)
        reduces = 2.0 * (device_counts - 1) / device_counts * param_bytes / min_bw
    else:
        reduces = np.array(
            [
                [allreduce_time(b, range(e - n, e), topo) for b, n, e in zip(*row)]
                for row in zip(param_bytes.tolist(), device_counts.tolist(), ends.tolist())
            ]
        )
    return transfers.max(axis=1), reduces.max(axis=1)


def allowed_device_cuts(topo: DeviceTopology, radius: int) -> list[int]:
    """Device cuts within ``radius`` of a server boundary.

    Server boundaries are the multiples of gpus_per_server strictly inside
    (0, D); radius 0 keeps exactly those.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    d = topo.num_devices
    allowed: set[int] = set()
    for m in range(topo.gpus_per_server, d, topo.gpus_per_server):
        for c in range(max(1, m - radius), min(d - 1, m + radius) + 1):
            allowed.add(c)
    return sorted(allowed)


def candidate_pivots(
    table: CutCostTable, topo: DeviceTopology, num_stages: int, radius: int
) -> list[int]:
    """Pivots worth considering for a K-stage plan of the table's graph.

    A pivot stays when the device cut implied by its prefix/suffix compute
    split lands within ``radius`` of a server boundary, and when both sides
    of the cut hold at least one trainable variable placed in the forward
    order (vacuous for graphs without such trainables).  Raises when fewer
    than K-1 candidates survive.
    """
    if num_stages < 2:
        raise InfeasiblePlanError("pipeline planning needs at least two stages")
    if num_stages > topo.num_devices:
        raise InfeasiblePlanError("more stages than devices")
    if len(table.order) < 2:
        raise InfeasiblePlanError("graph is too small to cut")

    prefix = np.array(list(itertools.accumulate(table.compute)))
    # every tensor holds at least one byte, so bytes tell whether a side holds a variable
    params = list(itertools.accumulate(table.param_bytes))
    # the device cut of a two-way split is the first side's device count
    splits = np.column_stack([prefix[:-1], prefix[-1] - prefix[:-1]])
    cuts = proportional_device_count_rows(splits, topo.num_devices)[:, 0]
    fits = np.isin(cuts, allowed_device_cuts(topo, radius)).tolist()
    kept = [
        table.order[i]
        for i in range(len(table.order) - 1)
        if fits[i] and (not params[-1] or 0 < params[i] < params[-1])
    ]
    if len(kept) < num_stages - 1:
        raise InfeasiblePlanError(
            f"only {len(kept)} candidate pivots for {num_stages} stages; "
            "the configuration is infeasible at this radius"
        )
    return kept
