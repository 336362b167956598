"""Dataflow scheduling for compiled execution plans (O3).

An :class:`~repro.ir.plan.ExecutionPlan` executes its steps strictly in
topological order.  That is correct but over-serialized: branchy models
(Inception towers, ShuffleNet split halves, attention Q/K/V
projections) contain step subsequences with no data dependency between
them.  Borrowing the dataflow framing of SDFG-style compilers (DaCe),
this module turns the flat step list into an explicit schedule:

* **chains** — maximal runs of steps linked producer-to-sole-consumer
  are collapsed into one unit, since no parallelism exists inside them
  and per-step hand-off would only add overhead;
* **levels** — chains are assigned the longest-path depth of their
  dependencies.  All chains in one level are mutually independent.
  The plan runs levels in order (the level-major :attr:`Schedule.order`),
  which is what lets :mod:`repro.ir.memplan` recycle arena slots at
  level boundaries; ``max_width`` reports how wide the widest level is.

The schedule is a pure function of the step dependency sets: it holds
step *indices* only, never arrays or closures, so one schedule is
shared by every thread running the plan.
"""
from __future__ import annotations

from typing import List, Sequence, Set, Tuple

__all__ = ["Schedule", "build_schedule"]


class Schedule:
    """Chains of plan-step indices grouped into dependency levels."""

    __slots__ = ("levels", "order")

    def __init__(self, levels: List[List[Tuple[int, ...]]]) -> None:
        #: ``levels[d]`` is the list of independent chains at depth ``d``;
        #: each chain is a tuple of step indices in execution order
        self.levels = levels
        #: flattened serial order (level-major); equals the original
        #: topological order re-grouped, valid for inline execution
        self.order: List[int] = [idx for level in levels
                                 for chain in level for idx in chain]

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_chains(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def max_width(self) -> int:
        """Widest level — the plan's peak exploitable parallelism."""
        return max((len(level) for level in self.levels), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Schedule({self.num_levels} levels, {self.num_chains} "
                f"chains, width {self.max_width})")


def build_schedule(deps: Sequence[Set[int]]) -> Schedule:
    """Partition steps into dependency levels of independent chains.

    ``deps[i]`` is the set of step indices step ``i`` consumes from;
    steps must already be topologically sorted (every dependency index
    is smaller than the dependent's index).
    """
    n = len(deps)
    dependents: List[List[int]] = [[] for _ in range(n)]
    for i, ds in enumerate(deps):
        for d in ds:
            dependents[d].append(i)

    # link i -> j when j is i's sole dependent and i is j's sole
    # dependency: no other step may legally run between them, so they
    # collapse into one chain
    nxt = [-1] * n
    has_prev = [False] * n
    for i in range(n):
        if len(dependents[i]) == 1:
            j = dependents[i][0]
            if deps[j] == {i}:
                nxt[i] = j
                has_prev[j] = True

    chains: List[Tuple[int, ...]] = []
    chain_of = [-1] * n
    for i in range(n):
        if has_prev[i]:
            continue
        members = [i]
        while nxt[members[-1]] != -1:
            members.append(nxt[members[-1]])
        for m in members:
            chain_of[m] = len(chains)
        chains.append(tuple(members))

    # longest-path depth per chain over the condensed dependency graph
    depth = [0] * len(chains)
    for ci, members in enumerate(chains):
        d = 0
        for m in members:
            for dep in deps[m]:
                dc = chain_of[dep]
                if dc != ci:
                    d = max(d, depth[dc] + 1)
        depth[ci] = d

    n_levels = max(depth) + 1 if chains else 0
    levels: List[List[Tuple[int, ...]]] = [[] for _ in range(n_levels)]
    for ci, members in enumerate(chains):
        levels[depth[ci]].append(members)
    for level in levels:
        level.sort(key=len, reverse=True)
    return Schedule(levels)
