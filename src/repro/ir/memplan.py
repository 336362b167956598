"""Static arena memory planning for compiled execution plans (O3).

Levels 0-2 manage intermediates dynamically: every run allocates each
output fresh and a liveness pass releases it after its last consumer.
That bounds peak memory but leaves allocator traffic on the hot path.
The O3 tier instead plans memory *once per plan*, TVM-style: every
static intermediate a plan step writes receives a fixed byte offset
into one flat arena, and steady-state runs reuse the same storage with
zero per-run allocation or release.

The planner consumes liveness as *step-granular* intervals — a tensor
is live from the plan step that produces it through the last step that
reads it (or any view of it), inclusive.  The plan runs its steps in
one fixed order, so an extent whose last reader ran at an earlier step
is free for the next tenant; a tensor dying at step ``i`` is never
handed to an output born at step ``i``, so no step's output overlaps
its own inputs.

Assignment is the classic first-fit / greedy interval scheme: walk the
steps in order, return dead extents to a coalescing free list, and
place each newly-born tensor (largest first) into the first hole that
fits, growing the arena only when none does.  The resulting
``peak_bytes`` is the plan's static memory high-water mark, exported
through the ``plan.o3.arena_peak_bytes`` gauge in :mod:`repro.obs`.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["ArenaPlan", "TensorRequest", "plan_arena"]

#: offsets are aligned so every slot can host any vectorized dtype and
#: slots never share a cache line with a neighbour written by another
#: worker thread
ALIGNMENT = 64


class TensorRequest:
    """One arena tenant: a named byte extent live over the plan steps
    [birth, death]."""

    __slots__ = ("name", "nbytes", "birth", "death")

    def __init__(self, name: str, nbytes: int, birth: int, death: int) -> None:
        if nbytes < 0:
            raise ValueError(f"{name}: negative size {nbytes}")
        if death < birth:
            raise ValueError(f"{name}: death level {death} < birth {birth}")
        self.name = name
        self.nbytes = int(nbytes)
        self.birth = int(birth)
        self.death = int(death)


class ArenaPlan:
    """First-fit offset assignment for one plan's static intermediates."""

    __slots__ = ("offsets", "sizes", "peak_bytes", "alignment")

    def __init__(self, offsets: Dict[str, int], sizes: Dict[str, int],
                 peak_bytes: int, alignment: int) -> None:
        #: tensor name -> byte offset into the arena
        self.offsets = offsets
        #: tensor name -> unaligned payload size in bytes
        self.sizes = sizes
        #: total arena size — the static peak across all steps
        self.peak_bytes = peak_bytes
        self.alignment = alignment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ArenaPlan({len(self.offsets)} tensors, "
                f"{self.peak_bytes} bytes)")


def _align(n: int, a: int) -> int:
    return (n + a - 1) // a * a


class _FreeList:
    """Sorted, coalescing list of free ``[start, end)`` holes."""

    def __init__(self) -> None:
        self._holes: List[Tuple[int, int]] = []

    def take(self, size: int) -> int:
        """First hole that fits, or -1."""
        for i, (start, end) in enumerate(self._holes):
            if end - start >= size:
                if end - start == size:
                    del self._holes[i]
                else:
                    self._holes[i] = (start + size, end)
                return start
        return -1

    def give(self, start: int, end: int) -> None:
        if end <= start:
            return
        holes = self._holes
        lo = 0
        while lo < len(holes) and holes[lo][0] < start:
            lo += 1
        holes.insert(lo, (start, end))
        # coalesce with both neighbours
        if lo + 1 < len(holes) and holes[lo][1] == holes[lo + 1][0]:
            holes[lo] = (holes[lo][0], holes[lo + 1][1])
            del holes[lo + 1]
        if lo > 0 and holes[lo - 1][1] == holes[lo][0]:
            holes[lo - 1] = (holes[lo - 1][0], holes[lo][1])
            del holes[lo]

    def trim_tail(self, top: int) -> int:
        """Drop a hole ending exactly at ``top``; return the new top."""
        if self._holes and self._holes[-1][1] == top:
            start, _ = self._holes.pop()
            return start
        return top


def plan_arena(requests: Sequence[TensorRequest],
               alignment: int = ALIGNMENT) -> ArenaPlan:
    """Assign a static arena offset to every request.

    Two requests receive overlapping extents only if their [birth,
    death] step intervals are disjoint — the invariant the O3 runner
    relies on for slot reuse, checked by ``tests/ir/test_memplan.py``
    by brute force.
    """
    if alignment <= 0 or alignment & (alignment - 1):
        raise ValueError(f"alignment must be a power of two: {alignment}")
    by_birth: Dict[int, List[TensorRequest]] = {}
    by_death: Dict[int, List[TensorRequest]] = {}
    for req in requests:
        by_birth.setdefault(req.birth, []).append(req)
        by_death.setdefault(req.death, []).append(req)

    offsets: Dict[str, int] = {}
    sizes: Dict[str, int] = {}
    free = _FreeList()
    top = 0  # current arena extent (may shrink when the tail frees)
    peak = 0
    for level in sorted(set(by_birth) | set(by_death)):
        # everything whose last consumer ran at an *earlier* step is
        # reclaimable; death at this very step is still too hot — the
        # step reads it while writing its newborn outputs
        for dl in [d for d in by_death if d < level]:
            for req in by_death.pop(dl):
                size = _align(req.nbytes, alignment)
                free.give(offsets[req.name], offsets[req.name] + size)
        top = free.trim_tail(top)
        # largest first: big tenants grab the big holes before small
        # ones fragment them
        for req in sorted(by_birth.get(level, ()),
                          key=lambda r: r.nbytes, reverse=True):
            size = _align(max(req.nbytes, 1), alignment)
            start = free.take(size)
            if start < 0:
                start = top
                top += size
            offsets[req.name] = start
            sizes[req.name] = req.nbytes
        peak = max(peak, top)
    return ArenaPlan(offsets, sizes, peak, alignment)
