"""Search environments for the three planning tasks.

Four Markov decision processes with a shared ``reset`` / ``step`` /
``action_mask`` interface:

* ``OppEnv``: partition-or-replicate decisions over the trainable variable
  dims of a graph, guided by linkage groups; non-trainable inputs stay
  replicated.
* ``AdpEnv``: the same decision process over the non-trainable input
  tensors (batch-dim search), without linkage; the weights stay replicated.
* ``PipeTrainEnv``: pick K-1 pivots out of the pruned candidate set; device
  counts then follow from proportional allocation.
* ``PipeInferEnv``: pick K-1 stage boundaries on coarsened cost arrays,
  then K-1 device cuts, in one phased action space of the band-allowed
  positions.

The two pipeline envs run on one pick loop, ``PickEnv``: phases of K-1
strictly increasing picks each, every pick past the phase's previous one
and leaving room for the picks still owed; the one-hot of the picked
actions as the state; and one terminal costing, on ``cost_topology``.
They differ only in their phases, their bands and how the picks make a plan.

The ``info`` of an episode's last step describes its outcome: ``conflict``
(with ``conflict_site``, the name of the instruction that met it), or
``partition_count`` and ``strategy`` for the partition envs; ``plan``,
``metrics``, ``pipeline_length`` and ``memory_feasible`` for the pipeline
envs.  Each env ranks its episodes by it, in ``rank(info, total_reward)``.
A step checks its action against the mask of the current decision and
hands back the next one as ``StepResult.next_mask``, which ``action_mask``
also returns until the next step.  Masks are read-only: a pipeline env
builds each once, in ``reset`` or ``step``, and keeps it; a partition
search has two constant ones.
Environments are single-threaded; instances share only immutable inputs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from autoplan.dataproc import GRANULARITY, CoarsenedArrays
from autoplan.ir import DimIndex, HloGraph, decision_dims
from autoplan.linkage import LinkageGroup, Trigger, sorted_decision_order
from autoplan.pipecost import (
    MICRO_BATCH_SIZE,
    CutCostTable,
    InfeasiblePlanError,
    PipelinePlan,
    StageMetrics,
    candidate_pivots,
    memory_feasible,
    pipeline_length,
    proportional_device_cuts,
)
from autoplan.sharding import DimStatus, Outcome, PropagationEngine
from autoplan.topology import DeviceTopology

ACTION_PARTITION = 0
ACTION_REPLICATE = 1

_MIN_LENGTH = 1e-12


class EpisodeError(Exception):
    """step() called on a finished episode, or with a masked or out-of-range action."""


def _check_action(mask: np.ndarray, action: int) -> None:
    # a negative index would wrap around the mask
    if not 0 <= action < len(mask):
        raise EpisodeError(f"action {action} is outside 0..{len(mask) - 1}")
    if not mask[action]:
        raise EpisodeError(f"action {action} is masked")


@dataclass(frozen=True)
class StepResult:
    """One step's outcome; ``next_mask`` is the env's mask for the next decision."""

    next_state: np.ndarray
    reward: float
    done: bool
    next_mask: np.ndarray
    info: dict = field(default_factory=dict)


def _frozen(mask: np.ndarray) -> np.ndarray:
    """``mask`` made read-only: an env keeps it, and callers only read it."""
    mask.flags.writeable = False
    return mask


# both decisions stay available in a partition search; bad ones earn the
# conflict penalty
_BOTH = _frozen(np.ones(2, dtype=bool))
_NONE = _frozen(np.zeros(2, dtype=bool))


class PartitionSearchEnv:
    """Common core of the operator-partitioning and data-parallel tasks.

    The state is the decision vector over the candidate dims (-1 undecided,
    0 replicated, 1 partitioned) plus the normalized flat index of the dim
    currently up for decision.  One ``PropagationEngine`` serves the whole
    run, and its graph and candidates are the env's graph and dims.  An
    episode starts from a copy of its pinned base state (``finetune_reset``
    advances it by the decisions it keeps), and a step seeds only the
    current dim, with the chosen status, onto the state the previous step
    left; the rules are monotone, so this decides exactly what propagating
    all decisions taken so far at once would.  Every candidate dim the step
    newly settles is rewarded at 0.4 (partitioned) or 0.1 (replicated).  A
    contradiction ends the episode with reward -1, and its ``info`` names
    the instruction that met it in ``conflict_site``; ``conflicts`` counts
    the episodes that ended so.

    The first step of an episode reads every candidate tensor, so it also
    settles the dims the start state decides beyond the seeds.  A later
    step costs what its seed touches, not the candidate count: ``settled``
    reads only the tensors the propagation changed.  ``infeasible``, the
    dims whose lone partition conflicts, is fixed at construction (by the
    linkage groups for opp, by one ``engine.run`` per dim for adp);
    ``finetune_reset`` keeps their replications.
    """

    def __init__(
        self, engine: PropagationEngine, order: Sequence[DimIndex], infeasible: Iterable[DimIndex]
    ):
        if not engine.candidates:
            raise ValueError("the environment needs at least one candidate dim")
        self.engine = engine
        self.graph = engine.graph
        self.dims = engine.candidates
        self.order = list(order)
        self.infeasible = frozenset(infeasible)
        self.num_actions = 2
        self.state_dim = len(self.dims) + 1
        self.conflicts = 0
        self._tensors = {d.instruction_id for d in self.dims}
        self._rows: dict[int, list[int]] = {}  # the engine's state of the episode
        self._decided: dict[int, DimStatus] = {}  # keyed by position in dims
        # _decided as a state vector, without the position entry
        self._vec = np.full(self.state_dim, float(DimStatus.UNDECIDED))
        self._stepped = False  # the episode's first step reads every candidate tensor
        self._cursor = 0  # every dim in order[:_cursor] is decided
        self._done = True
        self._position: DimIndex | None = None

    # -- episode control --------------------------------------------------

    def reset(self) -> np.ndarray:
        self._rows = self.engine.base()
        return self._start({})

    def finetune_reset(self, strategy: Mapping[DimIndex, DimStatus]) -> np.ndarray:
        """Restart from a completed strategy with revertible replications undone.

        Replicated dims whose partition does not conflict on its own go back
        to undecided; every other decision is kept as a seed.
        """
        if any(d not in strategy for d in self.dims):
            raise ValueError("finetune needs a strategy covering every candidate dim")
        seeds: dict[DimIndex, DimStatus] = {}
        for d in self.dims:
            status = strategy[d]
            if status == DimStatus.UNDECIDED:
                raise ValueError("finetune needs a fully decided strategy")
            if status == DimStatus.REPLICATED and d not in self.infeasible:
                continue
            seeds[d] = status
        self._rows = self.engine.base()
        if self.engine.advance(self._rows, seeds)[0] is not None:
            raise ValueError("finetune needs a conflict-free strategy")
        return self._start(seeds)

    def _start(self, seeds: dict[DimIndex, DimStatus]) -> np.ndarray:
        """Begin an episode on ``_rows``, which the seeds were advanced onto."""
        self._decided = {d.flat_index: status for d, status in seeds.items()}
        self._vec.fill(float(DimStatus.UNDECIDED))
        for i, status in self._decided.items():
            self._vec[i] = float(status)
        self._stepped = False
        self._cursor = 0
        self._position = self._next_position()
        self._done = self._position is None
        return self._state()

    def step(self, action: int) -> StepResult:
        if self._done:
            raise EpisodeError("episode is over")
        _check_action(_BOTH, action)
        status = DimStatus.PARTITIONED if action == ACTION_PARTITION else DimStatus.REPLICATED
        dim = self._position
        assert dim is not None
        rows = self._rows
        site, changed = self.engine.advance(rows, {dim: status})
        if site is not None:
            self._done = True
            self.conflicts += 1
            return StepResult(
                self._state(), -1.0, True, _NONE,
                {"conflict": True, "conflict_site": self.graph.instruction(site).name},
            )

        # past the first step, a dim this step settles sits in a tensor it changed
        decided = self._decided
        newly = self.engine.settled(rows, changed if self._stepped else self._tensors, decided)
        self._stepped = True
        partitioned = 0
        for i, value in newly:
            decided[i] = value
            self._vec[i] = float(value)
            partitioned += value == DimStatus.PARTITIONED
        replicated = len(newly) - partitioned
        reward = 0.4 * partitioned + 0.1 * replicated
        info = {"conflict": False}
        if len(decided) == len(self.dims):
            self._done = True
            self._position = None
            info["partition_count"] = self.partition_count
            info["strategy"] = self.strategy()
        else:
            self._position = self._next_position()
        return StepResult(self._state(), reward, self._done, self.action_mask(), info)

    def action_mask(self) -> np.ndarray:
        """The current decision's mask, read-only."""
        return _NONE if self._done else _BOTH

    def rank(self, info: dict, total: float) -> tuple[int, float] | None:
        """Conflict-free strategies, by partition count and then episode reward."""
        return None if info["conflict"] else (info["partition_count"], total)

    # -- introspection ----------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def decided(self) -> dict[DimIndex, DimStatus]:
        return {self.dims[i]: status for i, status in self._decided.items()}

    @property
    def partition_count(self) -> int:
        return sum(s == DimStatus.PARTITIONED for s in self._decided.values())

    def strategy(self) -> dict[DimIndex, DimStatus]:
        """The completed assignment of every candidate dim."""
        if not self._done or len(self._decided) != len(self.dims):
            raise EpisodeError("no completed strategy available")
        return self.decided

    # -- internals --------------------------------------------------------

    def _next_position(self) -> DimIndex | None:
        """The first dim in decision order that is still undecided.

        Decisions only accumulate within an episode, so the scan resumes
        where the previous one stopped.
        """
        order = self.order
        while self._cursor < len(order) and order[self._cursor].flat_index in self._decided:
            self._cursor += 1
        return order[self._cursor] if self._cursor < len(order) else None

    def _state(self) -> np.ndarray:
        vec = self._vec.copy()
        if self._position is None:
            vec[-1] = 1.0
        else:
            vec[-1] = self._position.flat_index / len(self.dims)
        return vec


class OppEnv(PartitionSearchEnv):
    """Operator partitioning over the trainable variable dims.

    The linkage groups set the decision order, and their infeasible
    partition triggers are the dims whose lone partition conflicts, so the
    env runs no propagation of its own to find them.  An opp run builds one
    ``PropagationEngine`` over the trainable variable dims, extracts the
    groups on it and hands both to the env.
    """

    def __init__(self, engine: PropagationEngine, groups: Mapping[Trigger, LinkageGroup]):
        infeasible = [
            d for (d, status), group in groups.items()
            if status == DimStatus.PARTITIONED and group.infeasible
        ]
        super().__init__(engine, sorted_decision_order(groups), infeasible)


def adp_candidates(graph: HloGraph) -> list[int]:
    """Input tensors eligible for data parallelism.

    Parameters that are not trainable variables; constants never qualify.
    """
    trainable = set(graph.trainable_variables)
    return [
        ins.id
        for ins in graph.instructions
        if ins.opcode == "parameter" and ins.name not in trainable
    ]


class AdpEnv(PartitionSearchEnv):
    """Data-parallel search over candidate input dims, no linkage groups.

    Without groups, the env runs each candidate's lone partition once at
    construction (``engine.run``) to find the dims where it conflicts.
    """

    def __init__(self, graph: HloGraph):
        ids = adp_candidates(graph)
        if not ids:
            raise ValueError("the graph has no candidate input tensors")
        names = [graph.instruction(i).name for i in ids]
        engine = PropagationEngine(graph, decision_dims(graph, names))
        infeasible = [
            d for d in engine.candidates
            if engine.run({d: DimStatus.PARTITIONED}).outcome is Outcome.CONFLICT
        ]
        super().__init__(engine, engine.candidates, infeasible)


class PickEnv:
    """The pick loop of the pipeline envs.

    An episode walks through ``phases``, each a run of positions
    ``[offset, offset + size)`` in which it makes K-1 picks.  A pick lies
    past the phase's previous pick, leaves room for the picks the phase
    still owes, and is one of the positions ``bands[i]`` allows for pick
    ``i`` of the episode; ``bands`` has one row per pick and one column per
    position.  The episode ends with the last pick of the last phase: its
    plan (``_plan``) earns 1/L for its length L on ``cost_topology``, or
    -1/sqrt(L) if it does not fit in memory (``_fits``).  Every plan records
    ``micro_batch_size``, the constant ``MICRO_BATCH_SIZE`` that no cost
    reads.

    The actions are the positions some band allows, in position order:
    action ``i`` picks position ``_actions[i]``, and ``_picks`` holds
    positions.  A position no band allows can never be picked, so it takes
    no output of the agent's network and no part of its dueling mean
    (action elimination, arXiv 1809.02121).  The state is the one-hot of
    the actions picked so far, all zeros at reset.  A run plans one fixed
    problem, so the cost of any plan is a function of its picks, and the
    picks alone form a complete Markov state; the reward carries the costs.
    """

    cost_topology: DeviceTopology  # set by the subclass
    micro_batch_size = MICRO_BATCH_SIZE

    def __init__(self, num_stages: int, phases: Sequence[tuple[int, int]], bands: np.ndarray):
        self.num_stages = num_stages
        self._phases = list(phases)
        self._actions = np.flatnonzero(bands.any(axis=0)).tolist()
        self.num_actions = self.state_dim = len(self._actions)
        self._bands = bands[:, self._actions]
        self._picks: list[int] = []
        self._picked = np.zeros(self.num_actions)
        self._done = True
        self._mask = _frozen(np.zeros(self.num_actions, dtype=bool))

    def reset(self) -> np.ndarray:
        self._picks = []
        self._picked.fill(0.0)
        self._done = False
        self._mask = self._build_mask()
        return self._picked.copy()

    @property
    def done(self) -> bool:
        return self._done

    def action_mask(self) -> np.ndarray:
        """The current decision's mask, read-only."""
        return self._mask

    def _build_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_actions, dtype=bool)
        if not self._done:
            pick = len(self._picks)
            phase, index = divmod(pick, self.num_stages - 1)
            offset, size = self._phases[phase]
            first = self._picks[-1] + 1 if index else offset
            # keep room for the picks the phase still owes after this one
            end = offset + size - (self.num_stages - 2 - index)
            # the actions whose positions lie in [first, end)
            mask[bisect_left(self._actions, first) : bisect_left(self._actions, end)] = True
            mask &= self._bands[pick]
        return _frozen(mask)

    def step(self, action: int) -> StepResult:
        if self._done:
            raise EpisodeError("episode is over")
        _check_action(self._mask, action)
        self._picks.append(self._actions[action])
        self._picked[action] = 1.0
        self._done = len(self._picks) == (self.num_stages - 1) * len(self._phases)
        self._mask = self._build_mask()
        reward, info = self._outcome() if self._done else (0.0, {})
        return StepResult(self._picked.copy(), reward, self._done, self._mask, info)

    def _outcome(self) -> tuple[float, dict]:
        plan, metrics = self._plan()
        length = max(pipeline_length(plan, metrics, self.cost_topology), _MIN_LENGTH)
        feasible = self._fits(plan, metrics)
        reward = 1.0 / length if feasible else -1.0 / math.sqrt(length)
        info = {"pipeline_length": length, "memory_feasible": feasible, "plan": plan, "metrics": metrics}
        return reward, info

    def _plan(self) -> tuple[PipelinePlan, list[StageMetrics]]:
        raise NotImplementedError

    def _fits(self, plan: PipelinePlan, metrics: Sequence[StageMetrics]) -> bool:
        return True

    def rank(self, info: dict, total: float) -> float | None:
        """Memory-feasible pipelines, shortest first."""
        return -info["pipeline_length"] if info["memory_feasible"] else None


class PipeTrainEnv(PickEnv):
    """Pivot selection for a K-stage training pipeline.

    One phase over the pruned candidate list: an episode picks K-1 pivots
    in increasing forward order, and every candidate is an action.  Device
    counts follow from proportional allocation of stage compute, and a plan
    fits when every device holds its share within ``mem_per_device``.
    Backward compute is ``backward_multiplier`` (2) times forward compute.
    The state is ``PickEnv``'s, one entry per candidate; it carries no
    stage costs, since the graph and topology of a run never change.
    """

    def __init__(
        self,
        graph: HloGraph,
        topo: DeviceTopology,
        num_stages: int,
        radius: int = 3,
        micro_batches: int = 4,
        mem_per_device: float | None = None,
    ):
        self.graph = graph
        self.topo = self.cost_topology = topo
        self.micro_batches = micro_batches
        self.mem_per_device = mem_per_device
        self.backward_multiplier = 2.0
        self.table = CutCostTable.build(graph)
        self.candidates = candidate_pivots(self.table, topo, num_stages, radius)
        n = len(self.candidates)
        super().__init__(num_stages, [(0, n)], np.ones((num_stages - 1, n), dtype=bool))

    def _plan(self) -> tuple[PipelinePlan, list[StageMetrics]]:
        pivots = tuple(self.candidates[i] for i in self._picks)
        metrics = self.table.stage_metrics(pivots, self.backward_multiplier)
        cuts = proportional_device_cuts(metrics, self.topo)
        return PipelinePlan(pivots, cuts, self.micro_batches), metrics

    def _fits(self, plan: PipelinePlan, metrics: Sequence[StageMetrics]) -> bool:
        budget = self.mem_per_device
        return budget is None or memory_feasible(plan, metrics, self.topo, budget)


def infer_search_bands(
    arrays: CoarsenedArrays,
    topo: DeviceTopology,
    num_stages: int,
    radius: int,
) -> tuple[list[set[int]], list[set[int]]]:
    """Per-slot bands around the center solution.

    The center boundaries split the cumulative compute into equal shares;
    the center cuts split the device list evenly and then snap to the
    nearest server boundary, where stage groups avoid the slow inter-server
    ring links.  Boundary bands keep their center plus ``radius`` positions
    either side, so radius 0 degenerates to the center solution itself.
    Cut bands are the pinned center cuts.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    picks = num_stages - 1
    d = topo.num_devices
    g = topo.gpus_per_server
    boundary_centers = []
    for s in range(picks):
        target = (s + 1) / num_stages
        center = int(np.searchsorted(arrays.c, target)) + 1
        boundary_centers.append(min(max(center, s + 1), GRANULARITY - picks + s))
    cut_centers = []
    for s in range(picks):
        if topo.num_servers > 1:
            # snap toward server boundaries, where groups dodge the slow links
            center = round((s + 1) * d / num_stages / g) * g
            center = min(max(center, g), d - g)
        else:
            center = min(max(round((s + 1) * d / num_stages), 1), d - 1)
        cut_centers.append(center)
    # collapse of neighboring centers would leave a slot with no legal pick
    spacing = g if topo.num_servers > 1 else 1
    for s in range(1, picks):
        boundary_centers[s] = max(boundary_centers[s], boundary_centers[s - 1] + 1)
        cut_centers[s] = max(cut_centers[s], cut_centers[s - 1] + spacing)
    for s in reversed(range(picks)):
        cut_centers[s] = min(cut_centers[s], d - (picks - s))
    for s in range(1, picks):
        cut_centers[s] = max(cut_centers[s], cut_centers[s - 1] + 1)
    boundaries = [
        {b for b in range(c - radius, c + radius + 1) if 1 <= b <= GRANULARITY - 1}
        for c in boundary_centers
    ]
    cuts = [{c} if 1 <= c <= d - 1 else set() for c in cut_centers]
    return boundaries, cuts


class PipeInferEnv(PickEnv):
    """Stage-boundary and device-cut selection on coarsened cost arrays.

    Two phases over 127 + (D-1) positions: an episode first picks K-1
    strictly increasing boundaries in 1..127 (position b-1), then K-1
    strictly increasing device cuts in 1..D-1 (position 126+c), each within
    its slot's band when bands are given.  The actions are the positions
    some band allows, so the bands prune the agent's network and not just
    its choices: 24 of 158 on ``bert48_profile`` (K=4, configc, radius 3).
    Without bands every position is an action.  Every plan fits, and its
    length is costed on the normalized topology, ``topo_norm``.

    The state is ``PickEnv``'s, one entry per action.  The profile (C*, A*,
    W*) and the bandwidth matrix are not inputs: a run plans on one fixed
    environment, where they never change.  The paper feeds them in so that
    one policy trained on many generated environments transfers to new
    ones; that setting needs a training consumer for those environments
    before a wide state pays off.
    """

    def __init__(
        self,
        arrays: CoarsenedArrays,
        topo: DeviceTopology,
        num_stages: int,
        micro_batches: int = 1,
        allowed_boundaries: Sequence[set[int]] | None = None,
        allowed_cuts: Sequence[set[int]] | None = None,
    ):
        if len(arrays.c) != GRANULARITY:
            raise ValueError(f"expected granularity {GRANULARITY}")
        for name, xs in (("C*", arrays.c), ("A*", arrays.a), ("W*", arrays.w)):
            if np.min(xs) < 0.0 or np.max(xs) > 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if num_stages < 2:
            raise ValueError("pipeline planning needs at least two stages")
        if num_stages > topo.num_devices:
            raise ValueError("more stages than devices")
        # past it, reset would leave a mask with no action on an unfinished episode
        if num_stages > GRANULARITY:
            raise ValueError(f"more stages than the {GRANULARITY - 1} grid boundaries can separate")
        picks = num_stages - 1
        if allowed_boundaries is not None and len(allowed_boundaries) != picks:
            raise ValueError("need one boundary set per pick")
        if allowed_cuts is not None and len(allowed_cuts) != picks:
            raise ValueError("need one device-cut set per pick")
        self.arrays = arrays
        self.topo = topo
        self.topo_norm = self.cost_topology = topo.normalized()
        self.micro_batches = micro_batches
        d = topo.num_devices
        positions = (GRANULARITY - 1) + (d - 1)
        # per slot (boundaries, then cuts), the positions its band allows
        bands = np.ones((2 * picks, positions), dtype=bool)
        for slot, band in enumerate(allowed_boundaries or ()):
            bands[slot] = False
            bands[slot, [b - 1 for b in band if 1 <= b <= GRANULARITY - 1]] = True
        for slot, band in enumerate(allowed_cuts or (), start=picks):
            bands[slot] = False
            bands[slot, [GRANULARITY - 2 + c for c in band if 1 <= c <= d - 1]] = True
        phases = [(0, GRANULARITY - 1), (GRANULARITY - 1, d - 1)]
        super().__init__(num_stages, phases, bands)

    def _plan(self) -> tuple[PipelinePlan, list[StageMetrics]]:
        picks = self.num_stages - 1
        boundaries = tuple(a + 1 for a in self._picks[:picks])
        cuts = tuple(a - (GRANULARITY - 2) for a in self._picks[picks:])
        metrics = self.decode_metrics(boundaries)
        return PipelinePlan(boundaries, cuts, self.micro_batches), metrics

    def decode_metrics(self, boundaries: Sequence[int]) -> list[StageMetrics]:
        """Per-stage costs implied by the boundaries on the coarsened arrays.

        Compute and parameter prefixes difference out per stage; the
        activation payload of a stage is the A* entry at its boundary.
        Compute is scaled to milliseconds so that the pipeline length
        arithmetic (which divides by 1000) recovers the normalized units.
        It stays apart from ``CutCostTable.stage_metrics`` because these
        prefix-difference bits are what pp-infer plan files and the
        benchmark oracle pin.  Running sums of the per-point differences of
        C* and W* change the stage bits of every one of the 343 band plans
        on ``bert48_profile`` (K=4, configc), and the optimum's length from
        0x1.bfbe76c8b4418p-1 to 0x1.bfbe76c8b4417p-1; scaling by 1000 after
        the sum keeps that profile bit-equal but not 25 of the 30 generated
        profiles of seeds 0-9, one of whose optima changes.
        """
        edges = [0] + list(boundaries) + [GRANULARITY]
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InfeasiblePlanError(f"boundaries must increase strictly in 1..{GRANULARITY - 1}")
        metrics = []
        for s in range(len(edges) - 1):
            lo, hi = edges[s], edges[s + 1]
            compute = self.arrays.c[hi - 1] - (self.arrays.c[lo - 1] if lo > 0 else 0.0)
            params = self.arrays.w[hi - 1] - (self.arrays.w[lo - 1] if lo > 0 else 0.0)
            activation = self.arrays.a[hi - 1] if hi < GRANULARITY else 0.0
            metrics.append(
                StageMetrics(
                    compute_ms=compute * 1000.0,
                    activation_bytes=activation,
                    param_bytes=params,
                )
            )
        return metrics
