"""Worklist propagation against the sweep engine it replaced.

``reference_propagate`` in ``helpers`` is the earlier engine kept verbatim:
full sweeps over every rule until nothing changes, from a fresh state on
every run.  The rules are monotone, so the worklist, runs from the cached
pinned base state and decisions seeded one at a time must all reach its
fixed point.
"""

import functools
import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from autoplan.envs import AdpEnv, adp_candidates
from autoplan.ir import decision_dims, graph_from_dict
from autoplan.linkage import extract_linkage_groups
from autoplan.sharding import DimStatus, Outcome, PropagationEngine, propagate
from autoplan.zoo import GRAPHS, zoo_graph

from helpers import (
    GraphBuilder,
    fixed_point,
    opp_env,
    reference_linkage_groups,
    reference_propagate,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import mlp_graph_dict  # noqa: E402

P, R, U = DimStatus.PARTITIONED, DimStatus.REPLICATED, DimStatus.UNDECIDED


@functools.lru_cache(maxsize=None)
def _graph(name):
    return graph_from_dict(mlp_graph_dict(25)) if name == "mlp25" else zoo_graph(name)


def _candidates(graph, kind):
    if kind == "opp":
        return decision_dims(graph, graph.trainable_variables)
    return decision_dims(graph, [graph.instruction(i).name for i in adp_candidates(graph)])


GRAPH_NAMES = [*sorted(GRAPHS), "mlp25"]
CASES = [
    (name, kind)
    for name in GRAPH_NAMES
    for kind in ("opp", "adp")
    if _candidates(_graph(name), kind)
]


def _random_seeds(rng, dims):
    """A random subset of the dims with random statuses; small sets mostly."""
    k = len(dims) if rng.random() < 0.2 else int(rng.integers(0, min(len(dims), 6) + 1))
    chosen = rng.choice(len(dims), size=k, replace=False)
    return {dims[i]: (P if rng.random() < 0.5 else R) for i in chosen}


def _assert_same_fixed_point(result, rows, ref):
    """A run's result and the rows its seeds reach match the sweep engine's."""
    assert result.outcome is ref.outcome
    if ref.outcome is not Outcome.CONFLICT:
        assert rows == ref.rows
        assert result.newly_decided == ref.newly_decided


@pytest.mark.parametrize("name, kind", CASES)
def test_one_shot_runs_match_sweep_engine(name, kind):
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    rng = np.random.default_rng(len(dims))
    for _ in range(60):
        seeds = _random_seeds(rng, dims)
        ref = reference_propagate(graph, seeds, dims)
        rows = fixed_point(graph, seeds, dims)
        _assert_same_fixed_point(engine.run(seeds), rows, ref)
        _assert_same_fixed_point(propagate(graph, seeds, dims), rows, ref)


@pytest.mark.parametrize("name, kind", CASES)
def test_seeds_one_at_a_time_match_sweep_engine(name, kind):
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    rng = np.random.default_rng(len(dims) + 1)
    for _ in range(30):
        seeds = _random_seeds(rng, dims)
        rows = engine.base()
        for di, status in seeds.items():
            site, _ = engine.advance(rows, {di: status})
            if site is not None:
                outcome = Outcome.CONFLICT
                break
        else:
            undecided = any(rows[d.instruction_id][d.dim] == U for d in dims)
            outcome = Outcome.INCOMPLETE if undecided else Outcome.COMPLETE
        ref = reference_propagate(graph, seeds, dims)
        assert outcome is ref.outcome
        if ref.outcome is not Outcome.CONFLICT:
            assert rows == ref.rows


@pytest.mark.parametrize("name, kind", CASES)
def test_settled_reads_what_a_scan_of_the_rows_reads(name, kind):
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    tensors = {d.instruction_id for d in dims}
    first = dims[0].instruction_id
    odd = set(range(1, len(dims), 2))
    rng = np.random.default_rng(len(dims) + 2)
    for _ in range(20):
        rows = engine.base()
        for di, status in _random_seeds(rng, dims).items():
            # a conflict leaves rows that still hold statuses to read
            if engine.advance(rows, {di: status})[0] is not None:
                break
        scan = [
            (i, DimStatus(rows[d.instruction_id][d.dim]))
            for i, d in enumerate(dims)
            if rows[d.instruction_id][d.dim] != U
        ]
        assert engine.settled(rows, tensors, ()) == scan
        assert engine.settled(rows, tensors, odd) == [e for e in scan if e[0] not in odd]
        assert engine.settled(rows, {first}, ()) == [e for e in scan if dims[e[0]].instruction_id == first]
    assert list(engine.base_settled.items()) == engine.settled(engine.base(), tensors, ())


def _tuple_read_graph():
    """h = x @ w1; y = h @ get-tuple-element(tuple(h, w2)): the element read is w2."""
    g = GraphBuilder()
    x = g.param("x", (4, 8))
    w1 = g.param("w1", (8, 6), trainable=True)
    w2 = g.param("w2", (6, 5), trainable=True)
    h = g.add("h", "dot", (x, w1), (4, 6))
    pair = g.add("pair", "tuple", (h, w2))
    read = g.add("read", "get-tuple-element", (pair,), (6, 5))
    g.add("y", "dot", (h, read), (4, 5))
    return g.build()


def test_get_tuple_element_links_the_element_it_reads():
    graph = _tuple_read_graph()
    dims = decision_dims(graph, graph.trainable_variables)
    engine = PropagationEngine(graph, candidates=dims)
    for statuses in itertools.product((None, P, R), repeat=len(dims)):
        seeds = {d: s for d, s in zip(dims, statuses) if s is not None}
        _assert_same_fixed_point(
            engine.run(seeds), fixed_point(graph, seeds, dims), reference_propagate(graph, seeds, dims)
        )
    # w1's output dim reaches w2's input dim only through the read
    w1_out, w2_in = dims[1], dims[2]
    assert (w2_in, P) in engine.run({w1_out: P}).newly_decided


@pytest.mark.parametrize("name", [n for n in GRAPH_NAMES if _candidates(_graph(n), "opp")])
def test_linkage_matches_sweep_extraction(name):
    graph = _graph(name)
    dims = _candidates(graph, "opp")
    groups = extract_linkage_groups(graph, dims)
    ref = reference_linkage_groups(graph, dims)
    assert list(groups) == list(ref)
    assert {t: (g.implied, g.infeasible) for t, g in groups.items()} == ref


@functools.lru_cache(maxsize=None)
def _engine(name, kind):
    """One engine per case, so runs accumulate on its one working copy."""
    graph = _graph(name)
    return PropagationEngine(graph, candidates=_candidates(graph, kind))


@pytest.mark.parametrize("name, kind", CASES)
def test_trials_leave_the_base_state_as_built(name, kind):
    """Every one-off run of a trigger, and of every pair of seeds, is
    undone, conflict or not."""
    graph = _graph(name)
    dims = _candidates(graph, kind)
    engine = PropagationEngine(graph, candidates=dims)
    fresh = PropagationEngine(graph, candidates=dims).base()
    triggers = [{di: status} for di in dims for status in (P, R)]
    # pairs among the first dims only, to keep mlp25's count small
    pairs = [
        {a: sa, b: sb}
        for a, b in itertools.combinations(dims[:12], 2)
        for sa, sb in itertools.product((P, R), repeat=2)
    ]
    conflicts = 0
    for seeds in triggers + pairs:
        result = engine.run(seeds)
        conflicts += result.outcome is Outcome.CONFLICT and fixed_point(graph, seeds, dims) != fresh
        assert engine._work == fresh
    assert engine.base() == fresh
    if (name, kind) in (("t5_block", "opp"), ("vgg_classifier", "adp")):
        # these met contradictions after the seeds had changed rows
        assert conflicts


@pytest.mark.parametrize("name, kind", CASES)
@settings(max_examples=25)
@given(data=st.data())
def test_trial_matches_run_from_a_base_copy(name, kind, data):
    """A one-off run on the engine's working copy reads what advancing a
    ``base()`` copy by the same seeds reads, and leaves the copy as built."""
    engine = _engine(name, kind)
    dims = engine.candidates
    picks = data.draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=2, unique=True))
    seeds = {dims[i]: data.draw(st.sampled_from([P, R])) for i in picks}
    result = engine.run(seeds)
    rows = engine.base()
    ordered = sorted(seeds, key=lambda d: (d.instruction_id, d.dim))
    site, _ = engine.advance(rows, {d: seeds[d] for d in ordered})
    newly = ()
    if site is not None:
        outcome = Outcome.CONFLICT
    else:
        statuses = [(d, rows[d.instruction_id][d.dim]) for d in dims]
        newly = tuple((d, DimStatus(s)) for d, s in statuses if s != U and d not in seeds)
        complete = all(s != U for _, s in statuses)
        outcome = Outcome.COMPLETE if complete else Outcome.INCOMPLETE
    assert (result.outcome, result.conflict_site, result.newly_decided) == (outcome, site, newly)
    assert engine._work == engine.base()


@functools.lru_cache(maxsize=None)
def _env(name, kind):
    graph = _graph(name)
    return opp_env(graph) if kind == "opp" else AdpEnv(graph)


def _one_shot_decided(env, seeds):
    result = propagate(env.graph, seeds, env.dims)
    if result.outcome is Outcome.CONFLICT:
        return result.outcome, None
    rows = fixed_point(env.graph, seeds, env.dims)
    decided = {}
    for d in env.dims:
        status = rows[d.instruction_id][d.dim]
        if status != U:
            decided[d] = DimStatus(status)
    return result.outcome, decided


@pytest.mark.parametrize("name, kind", CASES)
@settings(max_examples=25)
@given(actions=st.lists(st.integers(0, 1), min_size=1, max_size=48), finetune=st.booleans())
def test_env_steps_match_one_shot(name, kind, actions, finetune):
    """Stepping an env decides what one-shot propagation of its seeds decides."""
    env = _env(name, kind)
    env.reset()
    # an episode starts with its seeds decided and nothing else credited yet
    seeds = env.decided
    assert seeds == {}
    for action in actions:
        if env.done:
            # the episode completed; optionally restart it as --finetune does
            if not finetune:
                break
            finetune = False
            env.finetune_reset(env.strategy())
            seeds = env.decided
            if env.done:
                break
        dim = next(d for d in env.order if d not in env.decided)
        seeds = {**seeds, dim: P if action == 0 else R}
        result = env.step(action)
        outcome, decided = _one_shot_decided(env, seeds)
        if result.info["conflict"]:
            assert outcome is Outcome.CONFLICT
            break
        assert outcome is not Outcome.CONFLICT
        assert env.decided == decided
        assert result.done == (outcome is Outcome.COMPLETE)


def _random_episode(env, rng, start):
    """Start an episode, act at random until it ends; its seeds, its total
    reward and its last step's info (empty when it starts done)."""
    start()
    seeds = env.decided
    total, info = 0.0, {}
    while not env.done:
        result = env.step(rng.randrange(2))
        total += result.reward
        info = result.info
    return seeds, total, info


def _credit(strategy, seeds):
    """0.4 per partitioned and 0.1 per replicated dim of the strategy that
    is not a seed."""
    statuses = [status for d, status in strategy.items() if d not in seeds]
    return 0.4 * statuses.count(P) + 0.1 * statuses.count(R)


@pytest.mark.parametrize("name, kind", CASES)
def test_complete_episodes_credit_every_unseeded_dim_once(name, kind):
    """A conflict-free episode earns each dim it did not seed exactly once,
    the dims its start state already decides included: the first step
    credits those."""
    env = _env(name, kind)
    rng = random.Random(0)
    complete = 0
    for _ in range(20):
        _, total, info = _random_episode(env, rng, env.reset)
        if info.get("conflict", True):
            continue
        complete += 1
        strategy = info["strategy"]
        assert total == pytest.approx(_credit(strategy, {}), abs=1e-9)
        seeds, total, info = _random_episode(env, rng, lambda: env.finetune_reset(strategy))
        if not info.get("conflict", True):
            assert total == pytest.approx(_credit(info["strategy"], seeds), abs=1e-9)
    assert complete
