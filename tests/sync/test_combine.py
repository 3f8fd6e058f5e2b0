"""Minimum-intersection combining (§5.1.2, Figure 6).

Includes the exact Figure 6 instance (six regions combining into two) and
a hypothesis property checking the sweep is minimal against brute force on
random interval families.
"""

import itertools
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sync.combine import (combine_regions, combining_stats,
                                join_reductions)
from repro.sync.regions import SyncRegion


def make_region(start: int, end: int, array: str = "v",
                distances=None) -> SyncRegion:
    pair = SimpleNamespace(array=array,
                           distances=distances or {0: (1, 1)},
                           irregular=False)
    return SyncRegion(pair=pair, start=start, end=end,
                      allowed=list(range(start, end + 1)))


class TestFigure6:
    #: Figure 6(a): six sorted upper-bound regions whose optimal
    #: combination is two groups (the first three overlap, the last three
    #: overlap, and the two clusters are disjoint).
    FIG6 = [(0, 6), (2, 8), (4, 10), (12, 18), (14, 20), (16, 22)]

    def test_six_regions_combine_into_two(self):
        regions = [make_region(a, b) for a, b in self.FIG6]
        groups = combine_regions(regions)
        assert len(groups) == 2
        assert len(groups[0].regions) == 3
        assert len(groups[1].regions) == 3

    def test_placements_inside_intersections(self):
        regions = [make_region(a, b) for a, b in self.FIG6]
        for group in combine_regions(regions):
            for region in group.regions:
                assert group.placement in region.allowed

    def test_greedy_beats_bad_grouping(self):
        # Figure 6(c)'s warning: a non-sorted strategy can produce 3
        # groups; the sorted sweep must produce 2
        before, after, percent = combining_stats(
            [make_region(a, b) for a, b in self.FIG6])
        assert (before, after) == (6, 2)
        assert percent == 100.0 * 4 / 6


class TestBasicProperties:
    def test_empty(self):
        assert combine_regions([]) == []

    def test_single(self):
        groups = combine_regions([make_region(3, 7)])
        assert len(groups) == 1
        assert groups[0].placement == 7  # latest legal slot

    def test_disjoint_stay_separate(self):
        groups = combine_regions([make_region(0, 2), make_region(5, 8)])
        assert len(groups) == 2

    def test_nested_regions_merge(self):
        groups = combine_regions([make_region(0, 10), make_region(4, 6)])
        assert len(groups) == 1
        assert 4 <= groups[0].placement <= 6

    def test_chain_needs_two(self):
        # [0,4], [3,7], [6,10]: 0-4 & 3-7 intersect at {3,4}; adding 6-10
        # empties the intersection → two groups
        groups = combine_regions([make_region(0, 4), make_region(3, 7),
                                  make_region(6, 10)])
        assert len(groups) == 2

    def test_unsorted_input(self):
        groups = combine_regions([make_region(12, 18), make_region(0, 6),
                                  make_region(2, 8), make_region(4, 10)])
        assert len(groups) == 2


class TestAggregation:
    def test_distances_merged_per_array(self):
        regions = [
            make_region(0, 5, "v", {0: (1, 0)}),
            make_region(1, 6, "v", {0: (0, 2), 1: (1, 1)}),
            make_region(2, 7, "w", {1: (1, 1)}),
        ]
        groups = combine_regions(regions)
        assert len(groups) == 1
        merged = groups[0].distances()
        assert merged["v"][0] == (1, 2)
        assert merged["v"][1] == (1, 1)
        assert merged["w"][1] == (1, 1)
        assert groups[0].arrays == ["v", "w"]

    def test_irregular_arrays_reported(self):
        r = make_region(0, 3)
        r.pair.irregular = True
        groups = combine_regions([r, make_region(1, 4, "w")])
        assert groups[0].irregular_arrays() == {"v"}


class TestJoinReductions:
    """Fig. 6's two groups: slots 4-6 and 16-18 are feasible."""

    def groups(self):
        return combine_regions([make_region(a, b)
                                for a, b in TestFigure6.FIG6])

    def test_the_meet_narrows_the_sync_and_moves_it_to_its_end(self):
        groups = self.groups()
        assert [g.feasible for g in groups] == [[4, 5, 6], [16, 17, 18]]
        rides = join_reductions(groups, [[7, 8], [2, 3, 4, 5], [17, 30]],
                                lambda slot: None)
        assert rides == [None, 0, 1]
        assert [g.feasible for g in groups] == [[4, 5], [17]]
        assert [g.placement for g in groups] == [5, 17]
        # a later reduction meets what the earlier ones left
        assert join_reductions(groups, [[6]], lambda slot: None) == [None]

    def test_a_sync_does_not_move_into_another_loop(self):
        groups = self.groups()
        # slots 16 and 17 sit inside a loop that 18, the placement, is not
        inner = object()
        rides = join_reductions(groups, [[16, 17]],
                                lambda slot: inner if slot < 18 else None)
        assert rides == [None]
        assert groups[1].placement == 18


def brute_force_min_piercing(intervals) -> int:
    """Smallest number of points hitting every interval (exhaustive)."""
    points = sorted({p for a, b in intervals for p in (a, b)})
    for k in range(1, len(intervals) + 1):
        for combo in itertools.combinations(points, k):
            if all(any(a <= p <= b for p in combo) for a, b in intervals):
                return k
    return len(intervals)


@given(st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 12)).map(
        lambda t: (t[0], t[0] + t[1])),
    min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_property_greedy_is_minimal(intervals):
    regions = [make_region(a, b) for a, b in intervals]
    groups = combine_regions(regions)
    assert len(groups) == brute_force_min_piercing(intervals)
    # soundness: every region is in exactly one group and its placement
    # is legal for it
    seen = 0
    for group in groups:
        for region in group.regions:
            assert group.placement in region.allowed
        seen += len(group.regions)
    assert seen == len(regions)
