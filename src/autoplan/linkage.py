"""Linkage groups: which dims a single sharding decision drags along.

For every candidate dim and for both decisions (partition / replicate), the
dim is seeded alone onto the pinned base state of one propagation engine
and propagated.  The candidate dims that come out decided form the dim's
linkage group for that decision.  Group sizes drive the decision order
during search: dims whose decisions settle many other dims are decided
first, which shortens episodes considerably.

Each trigger is one ``PropagationEngine.run``: it seeds onto the engine's
one working copy of the base state in place and then restores only the
rows it changed, conflict or not.  Extraction therefore costs the rows the
triggers touch, not a copy of the whole state per trigger, and grows
linearly with the graph when the groups stay small.  An opp run extracts on
the engine its env then searches with, so the graph's rules are indexed
and its base state derived once per run.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from autoplan.ir import DimIndex, HloGraph
from autoplan.sharding import DimStatus, Outcome, PropagationEngine

Trigger = tuple[DimIndex, DimStatus]


class LinkageGroup(NamedTuple):
    """Candidate dims decided as a consequence of one trigger decision.

    Groups are keyed by their trigger, which is not part of ``implied``.
    ``infeasible`` marks triggers whose lone seed already conflicts; their
    group is empty.  A named tuple, as cheap to build as the run's result.
    """

    implied: tuple[tuple[DimIndex, DimStatus], ...]
    infeasible: bool = False

    @property
    def size(self) -> int:
        return len(self.implied)


# every infeasible trigger's group; groups are immutable, so they share one
_INFEASIBLE = LinkageGroup(implied=(), infeasible=True)


def extract_linkage_groups(
    graph: HloGraph, dims: Sequence[DimIndex], engine: PropagationEngine | None = None
) -> dict[Trigger, LinkageGroup]:
    """Propagate every (dim, status) trigger alone and record what it decides.

    ``engine`` is the run's engine over ``graph`` and ``dims``; without one
    the extraction builds its own.
    """
    if engine is None:
        engine = PropagationEngine(graph, candidates=dims)
    elif engine.graph is not graph or engine.candidates != list(dims):
        raise ValueError("the engine was built for another graph or candidate list")
    groups: dict[Trigger, LinkageGroup] = {}
    for di in dims:
        for status in (DimStatus.PARTITIONED, DimStatus.REPLICATED):
            result = engine.run({di: status})
            if result.outcome is Outcome.CONFLICT:
                groups[(di, status)] = _INFEASIBLE
            else:
                groups[(di, status)] = LinkageGroup(result.newly_decided)
    return groups


def sorted_decision_order(groups: Mapping[Trigger, LinkageGroup]) -> list[DimIndex]:
    """Dims sorted descending by their larger linkage group, ties by flat index."""
    largest: dict[DimIndex, int] = {}
    for (di, _), group in groups.items():
        largest[di] = max(largest.get(di, 0), group.size)
    return sorted(largest, key=lambda d: (-largest[d], d.flat_index))
