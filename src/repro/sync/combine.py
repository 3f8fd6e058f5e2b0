"""Combining non-redundant synchronizations (§5.1.2, Fig. 6).

All upper-bound regions are sorted by the position of their first legal
slot; intersections are grown greedily in that order, and a new group
starts only when the incoming region no longer intersects the running
intersection.  For interval regions this sweep yields the minimum number
of combined synchronization points (the classic interval point-cover
argument the paper proves in its technical report); the property-based
test suite checks minimality against brute force on random interval sets.

Each combined group becomes one aggregated synchronization: one placement
slot, the union of dependent arrays with their maximum distances — the
communications of the member pairs are merged into one message per
neighbor (realized by :class:`repro.runtime.halo.HaloExchanger`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sync.regions import SyncRegion


@dataclass
class CombinedSync:
    """One combined synchronization point."""

    placement: int  # slot
    regions: list[SyncRegion] = field(default_factory=list)
    #: every slot all member regions allow (the running intersection);
    #: ``placement`` is its last
    feasible: list[int] = field(default_factory=list)

    @property
    def arrays(self) -> list[str]:
        return sorted({r.array for r in self.regions})

    def distances(self) -> dict[str, dict[int, tuple[int, int]]]:
        """Per array, per grid dim: merged (minus, plus) ghost widths."""
        out: dict[str, dict[int, tuple[int, int]]] = {}
        for region in self.regions:
            per_array = out.setdefault(region.array, {})
            for g, (minus, plus) in region.pair.distances.items():
                old_minus, old_plus = per_array.get(g, (0, 0))
                per_array[g] = (max(old_minus, minus), max(old_plus, plus))
        return out

    def irregular_arrays(self) -> set[str]:
        return {r.array for r in self.regions if r.pair.irregular}

    def dim_distances(self) -> dict[int, tuple[int, int]]:
        """Per grid dim: (minus, plus) widths merged over *all* arrays.

        This is the footprint of the whole aggregated message — the
        widest ghost reach any member array has along each dimension.
        The overlap verdict sizes its boundary strips exactly this
        wide: interior iterations closer than these widths to an owned
        edge could read ghosts still in flight.
        """
        return merge_dim_distances(self.distances().items())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CombinedSync(@{self.placement}, {len(self.regions)} "
                f"pairs, arrays={self.arrays})")


def merge_dim_distances(arrays) -> dict[int, tuple[int, int]]:
    """Merge per-array ``{grid_dim: (minus, plus)}`` maps into one.

    *arrays* iterates ``(name, distances)`` pairs; the result takes the
    per-dim maximum of each side across all arrays.
    """
    out: dict[int, tuple[int, int]] = {}
    for _name, dists in arrays:
        for g, (minus, plus) in dists.items():
            old_minus, old_plus = out.get(g, (0, 0))
            out[g] = (max(old_minus, minus), max(old_plus, plus))
    return out


def combine_regions(regions: list[SyncRegion]) -> list[CombinedSync]:
    """Greedy minimum-intersection combining over sorted regions.

    The placement chosen for each group is the **last** slot of the final
    intersection: synchronizing as late as legality allows keeps freshly
    produced data flowing and leaves the most room for overlap.
    """
    if not regions:
        return []
    ordered = sorted(regions, key=lambda r: (r.allowed[0], r.allowed[-1]))
    groups: list[CombinedSync] = []
    current: set[int] | None = None
    members: list[SyncRegion] = []

    def flush() -> None:
        nonlocal current, members
        if members:
            assert current
            groups.append(CombinedSync(placement=max(current),
                                       regions=members,
                                       feasible=sorted(current)))
        current = None
        members = []

    for region in ordered:
        slots = set(region.allowed)
        if current is None:
            current = slots
            members = [region]
            continue
        intersection = current & slots
        if intersection:
            current = intersection
            members.append(region)
        else:
            flush()
            current = slots
            members = [region]
    flush()
    return groups


def join_reductions(groups: list[CombinedSync], regions: list[list[int]],
                    loop_of) -> list[int | None]:
    """Let each reduction ride the first combined sync whose feasible
    slots meet its *region* (the slots where its global value can be
    formed) inside the loop the sync sits in (``loop_of(slot)``: a sync
    moved into a loop would run more often): the sync's feasible set
    narrows to the meet and the sync moves to the meet's last slot, so
    one round carries the faces and the partials.  Per region, the index
    of the group it rides, or None (it keeps its own allreduce)."""
    rides: list[int | None] = []
    for region in regions:
        slots = set(region)
        for k, group in enumerate(groups):
            loop = loop_of(group.placement)
            meet = {s for s in slots.intersection(group.feasible)
                    if loop_of(s) is loop}
            if meet:
                group.feasible = sorted(meet)
                group.placement = group.feasible[-1]
                rides.append(k)
                break
        else:
            rides.append(None)
    return rides


def combining_stats(regions: list[SyncRegion]) -> tuple[int, int, float]:
    """(before, after, percentage reduced) — the Table 1 quantities."""
    before = len(regions)
    after = len(combine_regions(regions))
    reduction = 100.0 * (before - after) / before if before else 0.0
    return before, after, reduction
