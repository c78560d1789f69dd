"""Shared test fixtures: graph builders, generators and brute-force oracles."""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from autoplan.ir import (
    ELEMENTWISE_BINARY,
    ELEMENTWISE_UNARY,
    DimIndex,
    GraphValidationError,
    HloGraph,
    Instruction,
    TensorShape,
    _pair_broadcast,
    _pair_reduce,
    _pair_reshape,
    decision_dims,
    forward_subgraph,
)
from autoplan.envs import OppEnv
from autoplan.linkage import extract_linkage_groups
from autoplan.pipecost import (
    CutCostTable,
    InfeasiblePlanError,
    allowed_device_cuts,
    proportional_device_counts,
)
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, propagate
from autoplan.topology import DeviceTopology, allreduce_time, transfer_time
from autoplan.dataproc import GRANULARITY


class GraphBuilder:
    """Incremental Instruction-list builder for hand-made test graphs."""

    def __init__(self):
        self.instructions: list[Instruction] = []
        self.trainables: list[str] = []

    def add(self, name, opcode, operands=(), dims=(), element_size=4,
            is_forward=True, compute_cost_ms=None) -> int:
        self.instructions.append(
            Instruction(
                id=len(self.instructions),
                name=name,
                opcode=opcode,
                operand_ids=tuple(operands),
                shape=TensorShape(tuple(dims), element_size),
                is_forward=is_forward,
                compute_cost_ms=compute_cost_ms,
            )
        )
        return len(self.instructions) - 1

    def param(self, name, dims, trainable=False) -> int:
        if trainable:
            self.trainables.append(name)
        return self.add(name, "parameter", (), dims)

    def build(self) -> HloGraph:
        return HloGraph(self.instructions, self.trainables)


def linkage_chain_graph() -> HloGraph:
    """y = tanh((x @ w) + bias) * scale; partitioning w.d1 drags bias and scale.

    Candidate dims: w.d0, w.d1, bias.d0, scale.d0.  Seeding w.d1 partitioned
    settles all four: three partitioned (w.d1, bias.d0, scale.d0) and one
    replicated sibling (w.d0).
    """
    g = GraphBuilder()
    x = g.param("x", (4, 8))
    w = g.param("w", (8, 6), trainable=True)
    bias = g.param("bias", (6,), trainable=True)
    scale = g.param("scale", (6,), trainable=True)
    mm = g.add("mm", "dot", (x, w), (4, 6))
    bb = g.add("bias_b", "broadcast", (bias,), (4, 6))
    sa = g.add("sum", "add", (mm, bb), (4, 6))
    ac = g.add("act", "tanh", (sa,), (4, 6))
    sb = g.add("scale_b", "broadcast", (scale,), (4, 6))
    g.add("out", "multiply", (ac, sb), (4, 6))
    return g.build()


def two_layer_graph() -> HloGraph:
    """x @ w1 @ w2 with both weights trainable; classic contraction linkage."""
    g = GraphBuilder()
    x = g.param("x", (4, 8))
    w1 = g.param("w1", (8, 6), trainable=True)
    w2 = g.param("w2", (6, 5), trainable=True)
    h = g.add("h", "dot", (x, w1), (4, 6))
    g.add("y", "dot", (h, w2), (4, 5))
    return g.build()


def random_decision_graph(rng: np.random.Generator) -> HloGraph:
    """Random valid chain graph with 3-8 trainable decision dims.

    Shapes are consistent by construction; ops are drawn from dot, biased
    add, scaling, unary activations, transposes and residual adds, closed
    by a full reduce.
    """
    g = GraphBuilder()
    extents = [int(e) for e in rng.integers(2, 7, size=8)]
    n, d = extents[0], extents[1]
    x = g.param("x", (n, d))
    w0 = g.param("w0", (d, extents[2]), trainable=True)
    cur = g.add("mm0", "dot", (x, w0), (n, extents[2]))
    shape = (n, extents[2])
    budget = 8 - 2
    same_shape: dict[tuple[int, ...], int] = {shape: cur}
    k = 0
    for step in range(int(rng.integers(2, 6))):
        ops = ["unary", "transpose"]
        if budget >= 2:
            ops.append("dot")
        if budget >= 1:
            ops.extend(["bias", "scale"])
        if shape in same_shape and same_shape[shape] != cur:
            ops.append("residual")
        op = rng.choice(ops)
        k += 1
        if op == "dot":
            out = int(rng.integers(2, 7))
            w = g.param(f"w{k}", (shape[-1], out), trainable=True)
            cur = g.add(f"mm{k}", "dot", (cur, w), (shape[0], out))
            shape = (shape[0], out)
            budget -= 2
        elif op in ("bias", "scale"):
            v = g.param(f"v{k}", (shape[-1],), trainable=True)
            b = g.add(f"b{k}", "broadcast", (v,), shape)
            kind = "add" if op == "bias" else "multiply"
            cur = g.add(f"{kind}{k}", kind, (cur, b), shape)
            budget -= 1
        elif op == "unary":
            fn = str(rng.choice(["tanh", "exp"]))
            cur = g.add(f"{fn}{k}", fn, (cur,), shape)
        elif op == "transpose":
            shape = tuple(reversed(shape))
            cur = g.add(f"t{k}", "transpose", (cur,), shape)
        else:
            cur = g.add(f"res{k}", "add", (cur, same_shape[shape]), shape)
        same_shape.setdefault(shape, cur)
    g.add("loss", "reduce", (cur,), ())
    return g.build()


def reference_stage_metrics(
    graph: HloGraph, pivots: Sequence[int], backward_multiplier: float = 2.0
) -> list[tuple[float, float, float]]:
    """Stage costs by the per-call walk of the forward order, as an oracle.

    This is the body ``pipecost.stage_metrics`` had before the cut-cost
    table, kept verbatim except that it returns ``(compute_ms,
    activation_bytes, param_bytes)`` per stage and no variable counts.
    """
    order = forward_subgraph(graph)
    pos = {ins_id: i for i, ins_id in enumerate(order)}
    cut_positions = []
    for p in pivots:
        if p not in pos:
            raise InfeasiblePlanError(f"pivot {p} is not a forward instruction")
        cut_positions.append(pos[p])
    if any(b <= a for a, b in zip(cut_positions, cut_positions[1:])):
        raise InfeasiblePlanError("pivots must be strictly increasing in forward order")

    k = len(cut_positions) + 1

    def stage_of(position: int) -> int:
        return bisect.bisect_left(cut_positions, position)

    compute = [0.0] * k
    for i, ins_id in enumerate(order):
        cost = graph.instruction(ins_id).compute_cost_ms or 0.0
        compute[stage_of(i)] += cost

    activation = [0.0] * k
    for s, cut in enumerate(cut_positions):
        crossing = 0.0
        for i in range(cut + 1):
            ins = graph.instruction(order[i])
            if any(
                pos.get(cons, -1) > cut
                for cons in graph.consumers(ins.id)
                if graph.instruction(cons).is_forward
            ):
                crossing += ins.shape.byte_size
        activation[s] = crossing

    params = [0.0] * k
    for var_id in graph.trainable_ids():
        consumer_positions = [
            pos[c]
            for c in graph.consumers(var_id)
            if graph.instruction(c).is_forward and c in pos
        ]
        if consumer_positions:
            stage = stage_of(min(consumer_positions))
        else:
            stage = stage_of(pos[var_id]) if var_id in pos else 0
        params[stage] += graph.instruction(var_id).shape.byte_size

    scale = 1.0 + backward_multiplier
    return [(compute[s] * scale, activation[s], params[s]) for s in range(k)]


def reference_candidate_pivots(table: CutCostTable, topo: DeviceTopology, radius: int) -> list[int]:
    """The pivots ``candidate_pivots`` keeps, one scalar split at a time.

    The filter ``candidate_pivots`` ran before it scored every split in one
    ``proportional_device_count_rows`` call, without its raises.
    """
    prefix = list(itertools.accumulate(table.compute))
    params = list(itertools.accumulate(table.param_bytes))
    allowed = set(allowed_device_cuts(topo, radius))
    return [
        table.order[i]
        for i in range(len(table.order) - 1)
        if proportional_device_counts([prefix[i], prefix[-1] - prefix[i]], topo.num_devices)[0] in allowed
        and (not params[-1] or 0 < params[i] < params[-1])
    ]


def stepwise_outcome(
    graph: HloGraph, dims: Sequence[DimIndex], assignment: Mapping[DimIndex, DimStatus]
) -> Outcome:
    """Classification when the seeds arrive one at a time in flat order."""
    result = None
    for t in range(1, len(dims) + 1):
        seeds = {d: assignment[d] for d in dims[:t]}
        result = propagate(graph, seeds, dims)
        if result.outcome is Outcome.CONFLICT:
            return Outcome.CONFLICT
    return result.outcome


def fixed_point(
    graph: HloGraph, seeds: Mapping[DimIndex, DimStatus], dims: Sequence[DimIndex]
) -> dict[int, list[int]]:
    """The status rows ``propagate(graph, seeds, dims)`` reaches, keyed by id.

    A copy of a fresh engine's base state, advanced by the seeds in
    (instruction id, dim) order, as ``run`` and an env advance theirs; on a
    conflict, the rows at the contradiction.
    """
    engine = PropagationEngine(graph, dims)
    rows = engine.base()
    engine.advance(rows, {d: seeds[d] for d in sorted(seeds, key=lambda d: (d.instruction_id, d.dim))})
    return rows


def enumerate_completes(
    graph: HloGraph, dims: Sequence[DimIndex]
) -> list[frozenset[DimIndex]]:
    """Partition sets of every conflict-free full assignment."""
    completes = []
    for bits in itertools.product((DimStatus.PARTITIONED, DimStatus.REPLICATED), repeat=len(dims)):
        seeds = dict(zip(dims, bits))
        if propagate(graph, seeds, dims).outcome is Outcome.COMPLETE:
            completes.append(frozenset(d for d, s in seeds.items() if s == DimStatus.PARTITIONED))
    return completes


def brute_force_infer(
    arrays,
    topo: DeviceTopology,
    num_stages: int,
    micro_batches: int,
    micro_batch_size: int,
    boundary_sets: Sequence[set[int]] | None = None,
    cut_sets: Sequence[set[int]] | None = None,
    chunk: int = 512,
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Vectorized exhaustive minimum of the pipeline length on coarse arrays.

    Mirrors the environment's terminal decode: stage compute and params from
    prefix differences, activations at the boundaries, costs on the
    normalized topology.  ``boundary_sets``/``cut_sets`` restrict the sweep
    to per-slot candidate sets; None sweeps the full strictly increasing
    space.
    """
    topo_n = topo.normalized()
    d = topo.num_devices
    picks = num_stages - 1
    g = GRANULARITY

    def combos(sets, hi):
        if sets is None:
            return np.array(list(itertools.combinations(range(1, hi), picks)), dtype=int)
        pool = [
            c for c in itertools.product(*[sorted(s) for s in sets])
            if all(c[i] < c[i + 1] for i in range(picks - 1))
        ]
        return np.array(pool, dtype=int).reshape(-1, picks)

    b_combos = combos(boundary_sets, g)
    c_combos = combos(cut_sets, d)
    cpad = np.concatenate([[0.0], arrays.c])
    wpad = np.concatenate([[0.0], arrays.w])
    apad = np.concatenate([[0.0], arrays.a])
    edges = np.concatenate(
        [np.zeros((len(b_combos), 1), int), b_combos, np.full((len(b_combos), 1), g)], axis=1
    )
    comp = cpad[edges[:, 1:]] - cpad[edges[:, :-1]]
    wsum = wpad[edges[:, 1:]] - wpad[edges[:, :-1]]
    act = apad[b_combos]

    tr_unit = np.array([transfer_time(1.0, c - 1, c, topo_n) for c in range(1, d)])
    ar_table = {}
    for start in range(d):
        for end in range(start + 1, d + 1):
            ar_table[(start, end)] = allreduce_time(1.0, range(start, end), topo_n)
    cedges = np.concatenate(
        [np.zeros((len(c_combos), 1), int), c_combos, np.full((len(c_combos), 1), d)], axis=1
    )
    sizes = (cedges[:, 1:] - cedges[:, :-1]).astype(float)
    tr = tr_unit[c_combos - 1]
    ar = np.array(
        [[ar_table[(cedges[j, s], cedges[j, s + 1])] for s in range(num_stages)]
         for j in range(len(c_combos))]
    )

    best_l = np.inf
    best = None
    for lo in range(0, len(b_combos), chunk):
        hi = min(lo + chunk, len(b_combos))
        t = comp[lo:hi, None, :] / sizes[None, :, :]
        length = (micro_batches - 1) * t.max(axis=2) + t.sum(axis=2)
        length += (act[lo:hi, None, :] * tr[None, :, :]).sum(axis=2)
        length += (wsum[lo:hi, None, :] * ar[None, :, :]).max(axis=2)
        idx = np.unravel_index(np.argmin(length), length.shape)
        if length[idx] < best_l:
            best_l = float(length[idx])
            best = (
                tuple(int(v) for v in b_combos[lo + idx[0]]),
                tuple(int(v) for v in c_combos[idx[1]]),
            )
    return best[0], best[1], best_l


def label_map(graph: HloGraph, dims: Sequence[DimIndex]) -> dict[DimIndex, str]:
    return {d: f"{graph.instruction(d.instruction_id).name}.d{d.dim}" for d in dims}


def trainable_dims(graph: HloGraph) -> list[DimIndex]:
    return decision_dims(graph, graph.trainable_variables)


def opp_env(graph: HloGraph) -> OppEnv:
    """The opp env as the CLI builds it: one engine serves linkage extraction and the search."""
    engine = PropagationEngine(graph, trainable_dims(graph))
    return OppEnv(engine, extract_linkage_groups(graph, engine.candidates, engine))


# -- the DQN learner before the flat parameter vector, as an oracle ----------
#
# ReferenceQNetwork, ReferenceReplayBuffer, ReferenceAdamOptimizer and
# reference_train_step are the per-tensor network, the Transition-list replay,
# the dict-based Adam and the training step that ``autoplan.agent`` had before
# its parameters became one flat vector, kept verbatim apart from their names,
# type annotations and argument checks, the settings that are now
# ``autoplan.agent`` constants, which they read as literals (the discount,
# batch size and replay capacity are arguments, so a test can wrap a small
# ring), their random draws, their replay rule and their bootstrap.  The
# draws come from a stdlib ``random.Random``, one call at a time: ``uniform``
# per weight, and per replay index one ``random()`` scaled to the list's
# length and truncated.  Replay draws uniformly, the loss is the plain batch
# mean, and a TD target bootstraps from the masked maximum of the one
# network, with no target copy.


class ReferenceQNetwork:
    """Dueling MLP: shared ReLU trunk, value head and advantage head."""

    def __init__(self, state_dim, num_actions, hidden, rng):
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.hidden = tuple(hidden)
        self.params: dict[str, np.ndarray] = {}
        fan_in = state_dim
        for i, width in enumerate(self.hidden):
            self.params[f"w{i}"] = self._init(rng, fan_in, width)
            self.params[f"b{i}"] = self._init(rng, fan_in, width, bias=True)
            fan_in = width
        self.params["wv"] = self._init(rng, fan_in, 1)
        self.params["bv"] = self._init(rng, fan_in, 1, bias=True)
        self.params["wa"] = self._init(rng, fan_in, num_actions)
        self.params["ba"] = self._init(rng, fan_in, num_actions, bias=True)

    @staticmethod
    def _init(rng, fan_in, width, bias=False):
        bound = 1.0 / np.sqrt(fan_in)
        shape = (width,) if bias else (fan_in, width)
        draws = [rng.uniform(-bound, bound) for _ in range(int(np.prod(shape)))]
        return np.array(draws, dtype=np.float64).reshape(shape)

    def forward(self, states):
        q, _ = self.forward_cached(states)
        return q

    def forward_cached(self, states):
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        cache: dict = {"inputs": [x]}
        h = x
        for i in range(len(self.hidden)):
            z = h @ self.params[f"w{i}"] + self.params[f"b{i}"]
            h = np.maximum(z, 0.0)
            cache.setdefault("pre", []).append(z)
            cache["inputs"].append(h)
        value = h @ self.params["wv"] + self.params["bv"]
        advantage = h @ self.params["wa"] + self.params["ba"]
        q = value + advantage - advantage.mean(axis=1, keepdims=True)
        cache["trunk_out"] = h
        return q, cache

    def backward(self, cache, dq):
        grads: dict[str, np.ndarray] = {}
        h = cache["trunk_out"]
        dvalue = dq.sum(axis=1, keepdims=True)
        dadv = dq - dq.sum(axis=1, keepdims=True) / self.num_actions
        grads["wv"] = h.T @ dvalue
        grads["bv"] = dvalue.sum(axis=0)
        grads["wa"] = h.T @ dadv
        grads["ba"] = dadv.sum(axis=0)
        dh = dvalue @ self.params["wv"].T + dadv @ self.params["wa"].T
        for i in range(len(self.hidden) - 1, -1, -1):
            dz = dh * (cache["pre"][i] > 0.0)
            grads[f"w{i}"] = cache["inputs"][i].T @ dz
            grads[f"b{i}"] = dz.sum(axis=0)
            dh = dz @ self.params[f"w{i}"].T
        return grads


class ReferenceReplayBuffer:
    """Ring buffer of transitions with uniform sampling."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._data: list = []
        self._next = 0

    def __len__(self):
        return len(self._data)

    def push(self, transition):
        if len(self._data) < self.capacity:
            self._data.append(transition)
        else:
            self._data[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample(self, batch_size, rng):
        n = len(self._data)
        if n < batch_size:
            raise ValueError("not enough transitions to sample a batch")
        return [self._data[int(rng.random() * n)] for _ in range(batch_size)]


class ReferenceAdamOptimizer:
    """Adam with bias correction, one slot pair per parameter tensor."""

    def __init__(self, params, lr):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        correct1 = 1.0 - self.beta1**self.t
        correct2 = 1.0 - self.beta2**self.t
        for key, grad in grads.items():
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * grad
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * grad**2
            m_hat = self.m[key] / correct1
            v_hat = self.v[key] / correct2
            params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _reference_huber(x, delta):
    absx = np.abs(x)
    return np.where(absx <= delta, 0.5 * x**2, delta * (absx - 0.5 * delta))


def reference_train_step(net, buffer, optimizer, rng, gamma, batch_size) -> float:
    """One DQN update on a uniformly drawn batch, bootstrapped from ``net``; returns the loss."""
    batch = buffer.sample(batch_size, rng)
    states = np.stack([t.state for t in batch])
    actions = np.array([t.action for t in batch], dtype=np.int64)
    rewards = np.array([t.reward for t in batch], dtype=np.float64)
    next_states = np.stack([t.next_state for t in batch])
    next_masks = np.stack([t.next_mask for t in batch]).astype(bool)
    done = np.array([t.done for t in batch], dtype=np.float64)

    # terminal rows may have empty masks; their bootstrap term is zeroed anyway
    has_next = next_masks.any(axis=1)
    safe_masks = next_masks.copy()
    safe_masks[~has_next, 0] = True
    done = np.maximum(done, (~has_next).astype(np.float64))

    q_next = net.forward(next_states)
    next_value = np.max(np.where(safe_masks, q_next, -np.inf), axis=1)
    targets = rewards + gamma * (1.0 - done) * next_value

    q_all, cache = net.forward_cached(states)
    q_taken = q_all[np.arange(len(batch)), actions]
    td = q_taken - targets

    loss = float(np.mean(_reference_huber(td, 1.0)))
    dq_taken = np.clip(td, -1.0, 1.0) / len(batch)
    dq = np.zeros_like(q_all)
    dq[np.arange(len(batch)), actions] = dq_taken
    grads = net.backward(cache, dq)
    optimizer.step(net.params, grads)
    return loss


class ReferenceLearner:
    """The reference pieces wired together the way ``DqnAgent`` wires its own."""

    def __init__(self, state_dim, num_actions, seed, lr, gamma, batch_size, capacity):
        self.gamma = gamma
        self.batch_size = batch_size
        self.rng = random.Random(seed)
        self.net = ReferenceQNetwork(state_dim, num_actions, (64, 64), self.rng)
        self.buffer = ReferenceReplayBuffer(capacity)
        self.optimizer = ReferenceAdamOptimizer(self.net.params, lr)
        self.train_steps = 0

    def observe(self, transition):
        self.buffer.push(transition)

    def learn(self):
        if len(self.buffer) < self.batch_size:
            return None
        loss = reference_train_step(
            self.net, self.buffer, self.optimizer, self.rng, self.gamma, self.batch_size
        )
        self.train_steps += 1
        return loss


# -- the sweep propagation engine, as an oracle ----------------------------------
#
# ReferencePropagationEngine is the propagation engine ``autoplan.sharding``
# had before its worklist: full sweeps over every rule plan until none changes
# anything, from a fresh state per run.  It is kept verbatim apart from its
# names and its result type, which carries the status rows as the engine's
# results do.


class ReferenceResult(NamedTuple):
    outcome: Outcome
    rows: dict[int, list[int]]
    conflict_site: int | None
    newly_decided: tuple[tuple[DimIndex, DimStatus], ...]


class _RefConflict(Exception):
    def __init__(self, site: int):
        self.site = site


_P = int(DimStatus.PARTITIONED)
_R = int(DimStatus.REPLICATED)
_U = int(DimStatus.UNDECIDED)


def _ref_set(state: dict[int, list[int]], tid: int, dim: int, value: int, site: int) -> bool:
    """Record one status, enforcing the single-partition rule per tensor."""
    row = state[tid]
    cur = row[dim]
    if cur == value:
        return False
    if cur != _U:
        raise _RefConflict(site)
    if value == _P:
        if any(s == _P for s in row):
            raise _RefConflict(site)
        row[dim] = _P
        # one partitioned dim pins the rest of the tensor to replicated
        for j in range(len(row)):
            if row[j] == _U:
                row[j] = _R
    else:
        row[dim] = value
    return True


def _ref_link(state: dict[int, list[int]], a: tuple[int, int], b: tuple[int, int], site: int) -> bool:
    va = state[a[0]][a[1]]
    vb = state[b[0]][b[1]]
    if va == vb:
        return False
    if va == _U:
        return _ref_set(state, a[0], a[1], vb, site)
    if vb == _U:
        return _ref_set(state, b[0], b[1], va, site)
    raise _RefConflict(site)


class ReferencePropagationEngine:
    def __init__(self, graph: HloGraph, candidates: Sequence[DimIndex] | None = None):
        self.graph = graph
        self.candidates = list(candidates) if candidates is not None else None
        self._plans: list[tuple[int, str, tuple]] = []
        self._forced_replicated: list[tuple[int, int]] = []
        self._build()
        self._pinned = (
            self._forced_replicated + self._replicated_inputs(self.candidates)
            if self.candidates is not None
            else None
        )

    def _build(self) -> None:
        g = self.graph
        for ins in g.instructions:
            out = ins.id
            ops = ins.operand_ids
            if ins.opcode in ELEMENTWISE_BINARY or ins.opcode in ELEMENTWISE_UNARY:
                links = [((op, d), (out, d)) for op in ops for d in range(ins.shape.rank)]
                self._plans.append((out, "links", tuple(links)))
            elif ins.opcode == "dot":
                a, b = ops
                self._plans.append((out, "dot", (a, b)))
            elif ins.opcode == "transpose":
                (a,) = ops
                rank = ins.shape.rank
                links = [((a, rank - 1 - d), (out, d)) for d in range(rank)]
                self._plans.append((out, "links", tuple(links)))
            elif ins.opcode == "reshape":
                (a,) = ops
                aligned, un_in, un_out = _pair_reshape(
                    g.instruction(a).shape.dims, ins.shape.dims
                )
                links = [((a, i), (out, j)) for i, j in aligned]
                self._plans.append((out, "links", tuple(links)))
                self._forced_replicated.extend((a, i) for i in un_in)
                self._forced_replicated.extend((out, j) for j in un_out)
            elif ins.opcode == "broadcast":
                (a,) = ops
                pairs = _pair_broadcast(g.instruction(a).shape.dims, ins.shape.dims)
                paired_out = {j for _, j in pairs}
                links = [((a, i), (out, j)) for i, j in pairs]
                self._plans.append((out, "links", tuple(links)))
                self._forced_replicated.extend(
                    (out, j) for j in range(ins.shape.rank) if j not in paired_out
                )
            elif ins.opcode == "reduce":
                (a,) = ops
                pairs, reduced = _pair_reduce(g.instruction(a).shape.dims, ins.shape.dims)
                links = [((a, i), (out, j)) for i, j in pairs]
                if links:
                    self._plans.append((out, "links", tuple(links)))
                if reduced and ins.shape.rank:
                    self._plans.append((out, "reduce", (a, tuple(reduced))))
            elif ins.opcode == "get-tuple-element":
                idx = g.tuple_element_index(ins)
                element = g.instruction(ops[0]).operand_ids[idx]
                links = [((element, d), (out, d)) for d in range(ins.shape.rank)]
                self._plans.append((out, "links", tuple(links)))
            # parameter, constant and tuple have no rule

    def _replicated_inputs(self, candidates: Sequence[DimIndex]) -> list[tuple[int, int]]:
        """Every dim of each parameter that holds no candidate dim."""
        chosen = {di.instruction_id for di in candidates}
        return [
            (ins.id, d)
            for ins in self.graph.instructions
            if ins.opcode == "parameter" and ins.id not in chosen
            for d in range(ins.shape.rank)
        ]

    def _candidate_dims(self, seeds: Mapping[DimIndex, DimStatus]) -> list[DimIndex]:
        if self.candidates is not None:
            return self.candidates
        names = {self.graph.instruction(di.instruction_id).name for di in seeds}
        return decision_dims(self.graph, names)

    def run(self, seeds: Mapping[DimIndex, DimStatus]) -> ReferenceResult:
        g = self.graph
        state: dict[int, list[int]] = {
            ins.id: [_U] * ins.shape.rank for ins in g.instructions
        }
        candidates = self._candidate_dims(seeds)
        pinned = self._pinned
        if pinned is None:
            pinned = self._forced_replicated + self._replicated_inputs(candidates)
        seed_keys = set()
        conflict_site: int | None = None
        try:
            for tid, dim in pinned:
                _ref_set(state, tid, dim, _R, tid)
            for di in sorted(seeds, key=lambda d: (d.instruction_id, d.dim)):
                if di.instruction_id not in state:
                    raise GraphValidationError(f"seed references unknown instruction {di.instruction_id}")
                if di.dim >= len(state[di.instruction_id]):
                    raise GraphValidationError(
                        f"seed dim {di.dim} out of range for instruction {di.instruction_id}"
                    )
                seed_keys.add((di.instruction_id, di.dim))
                _ref_set(state, di.instruction_id, di.dim, int(seeds[di]), di.instruction_id)
            self._fixed_point(state)
        except _RefConflict as c:
            conflict_site = c.site

        if conflict_site is not None:
            return ReferenceResult(Outcome.CONFLICT, state, conflict_site, ())
        newly = tuple(
            (di, DimStatus(state[di.instruction_id][di.dim]))
            for di in candidates
            if (di.instruction_id, di.dim) not in seed_keys
            and state[di.instruction_id][di.dim] != _U
        )
        complete = all(state[di.instruction_id][di.dim] != _U for di in candidates)
        outcome = Outcome.COMPLETE if complete else Outcome.INCOMPLETE
        return ReferenceResult(outcome, state, None, newly)

    def _fixed_point(self, state: dict[int, list[int]]) -> None:
        max_rank = max((ins.shape.rank for ins in self.graph.instructions), default=1)
        cap = max(2, len(self.graph) * max(1, max_rank) + 2)
        for _ in range(cap):
            changed = False
            for site, kind, payload in self._plans:
                if kind == "links":
                    for a, b in payload:
                        changed |= _ref_link(state, a, b, site)
                elif kind == "dot":
                    changed |= self._apply_dot(state, payload[0], payload[1], c=site)
                else:
                    changed |= self._apply_reduce(state, payload[0], payload[1], out=site)
            if not changed:
                return
        raise RuntimeError("sharding propagation failed to reach a fixed point")

    @staticmethod
    def _apply_dot(state: dict[int, list[int]], a: int, b: int, c: int) -> bool:
        changed = _ref_link(state, (a, 0), (c, 0), c)
        changed |= _ref_link(state, (b, 1), (c, 1), c)
        changed |= _ref_link(state, (a, 1), (b, 0), c)
        if state[a][0] == _P or state[c][0] == _P:
            changed |= _ref_set(state, b, 0, _R, c)
            changed |= _ref_set(state, b, 1, _R, c)
        if state[b][1] == _P or state[c][1] == _P:
            changed |= _ref_set(state, a, 0, _R, c)
            changed |= _ref_set(state, a, 1, _R, c)
        if state[a][1] == _P or state[b][0] == _P:
            changed |= _ref_set(state, c, 0, _R, c)
            changed |= _ref_set(state, c, 1, _R, c)
        return changed

    @staticmethod
    def _apply_reduce(state: dict[int, list[int]], a: int, reduced: tuple[int, ...], out: int) -> bool:
        changed = False
        out_row = state[out]
        if any(state[a][r] == _P for r in reduced):
            for j in range(len(out_row)):
                changed |= _ref_set(state, out, j, _R, out)
        if any(s == _P for s in out_row):
            for r in reduced:
                changed |= _ref_set(state, a, r, _R, out)
        return changed


def reference_propagate(
    graph: HloGraph,
    seeds: Mapping[DimIndex, DimStatus],
    candidates: Sequence[DimIndex] | None = None,
) -> ReferenceResult:
    return ReferencePropagationEngine(graph, candidates).run(seeds)


def reference_linkage_groups(graph: HloGraph, dims: Sequence[DimIndex]) -> dict:
    """Linkage extraction over the sweep engine: (dim, status) -> (implied, infeasible)."""
    engine = ReferencePropagationEngine(graph, candidates=dims)
    groups = {}
    for di in dims:
        for status in (DimStatus.PARTITIONED, DimStatus.REPLICATED):
            result = engine.run({di: status})
            if result.outcome is Outcome.CONFLICT:
                groups[(di, status)] = ((), True)
            else:
                groups[(di, status)] = (result.newly_decided, False)
    return groups
