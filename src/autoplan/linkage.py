"""Linkage groups: which dims a single sharding decision drags along.

For every candidate dim and for both decisions (partition / replicate), the
dim is seeded alone onto the pinned base state of one propagation engine
and propagated.  The candidate dims that come out decided form the dim's
linkage group for that decision.  Group sizes drive the decision order
during search: dims whose decisions settle many other dims are decided
first, which shortens episodes considerably.

Each trigger is a ``PropagationEngine.trial``: it seeds onto the engine's
one working copy of the base state in place and then restores only the
rows it changed, conflict or not.  Extraction therefore costs the rows the
triggers touch, not a copy of the whole state per trigger, and grows
linearly with the graph when the groups stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from autoplan.ir import DimIndex, HloGraph
from autoplan.sharding import DimStatus, Outcome, PropagationEngine

Trigger = tuple[DimIndex, DimStatus]


@dataclass(frozen=True)
class LinkageGroup:
    """Candidate dims decided as a consequence of one trigger decision.

    The trigger itself is not part of ``implied``.  ``infeasible`` marks
    triggers whose lone seed already conflicts; their group is empty.
    """

    trigger: Trigger
    implied: tuple[tuple[DimIndex, DimStatus], ...]
    infeasible: bool = False

    @property
    def size(self) -> int:
        return len(self.implied)


def extract_linkage_groups(
    graph: HloGraph, dims: Sequence[DimIndex]
) -> dict[Trigger, LinkageGroup]:
    """Propagate every (dim, status) trigger alone and record what it decides."""
    engine = PropagationEngine(graph, candidates=dims)
    groups: dict[Trigger, LinkageGroup] = {}
    for di in dims:
        for status in (DimStatus.PARTITIONED, DimStatus.REPLICATED):
            trigger = (di, status)
            result = engine.trial({di: status})
            if result.outcome is Outcome.CONFLICT:
                groups[trigger] = LinkageGroup(trigger=trigger, implied=(), infeasible=True)
            else:
                groups[trigger] = LinkageGroup(trigger=trigger, implied=result.newly_decided)
    return groups


def sorted_decision_order(groups: Mapping[Trigger, LinkageGroup]) -> list[DimIndex]:
    """Dims sorted descending by their larger linkage group, ties by flat index."""
    dims = sorted({t[0] for t in groups}, key=lambda d: d.flat_index)

    def _max_size(di: DimIndex) -> int:
        sizes = [
            groups[(di, status)].size
            for status in (DimStatus.PARTITIONED, DimStatus.REPLICATED)
            if (di, status) in groups
        ]
        return max(sizes, default=0)

    return sorted(dims, key=lambda d: (-_max_size(d), d.flat_index))
