"""Timeline frames()/rollup() on traces a crash left incomplete.

A rank killed mid-run never emits its ``rank`` envelope event and stops
emitting frame-delimiting exchanges; the timeline must degrade to
clipped windows instead of raising or inventing time.
"""

import pytest

from repro.obs.timeline import Timeline
from repro.runtime.trace import Trace
from tests.obs.synth import put as _ev
from tests.obs.synth import synthetic_trace


def _crashed_trace() -> Trace:
    """Rank 0 ran 10 s (3 frames); rank 1 died at t=4 mid-frame 2.

    Rank 1 has no ``rank`` envelope (the crash skipped its epilogue)
    and fewer exchange marks than rank 0.
    """
    tr = synthetic_trace()
    _ev(tr, 0, "rank", 0.0, 10.0)
    for t in (1.0, 4.0, 7.0):  # frame-delimiting exchange, sync id 5
        _ev(tr, 0, "exchange", t, t + 0.5, tag=5)
    _ev(tr, 0, "recv", 8.0, 10.0, peer=1)  # waiting on the corpse
    _ev(tr, 1, "exchange", 1.0, 1.5, tag=5)
    _ev(tr, 1, "recv", 2.0, 3.0, peer=0)
    _ev(tr, 1, "halo_pack", 3.5, 4.0)
    return tr


class TestCrashedRankWindows:
    def test_missing_rank_envelope_clips_to_observed_events(self):
        tl = Timeline.from_trace(_crashed_trace())
        assert tl.rank_window(0) == (0.0, 10.0)
        # rank 1's window is its first event start to last event end
        assert tl.rank_window(1) == (1.0, 4.0)

    def test_rollup_books_only_the_clipped_window(self):
        roll = Timeline.from_trace(_crashed_trace()).rollup()
        r1 = roll.ranks[1]
        assert r1.total == pytest.approx(3.0)
        assert r1.blocked == pytest.approx(1.0)
        assert r1.halo == pytest.approx(0.5)  # exchange is an envelope
        # compute never goes negative on a clipped window
        assert r1.compute >= 0.0

    def test_rank_with_no_events_contributes_zero(self):
        tr = _crashed_trace()
        # a rank id only mentioned as a peer -> empty window, zero rows
        _ev(tr, 2, "rank", 0.0, 0.0)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.ranks[2].total == 0.0
        assert roll.ranks[2].compute == 0.0


class TestCrashedRankFrames:
    def test_reference_rank_frames_survive_peer_crash(self):
        tl = Timeline.from_trace(_crashed_trace())
        frames = tl.frames(ref_rank=0)
        assert len(frames) == 3
        assert frames[0][0] == pytest.approx(0.0)
        assert frames[-1][1] == pytest.approx(10.0)

    def test_crashed_reference_rank_collapses_to_one_frame(self):
        # rank 1 saw its delimiting exchange only once before dying
        tl = Timeline.from_trace(_crashed_trace())
        frames = tl.frames(ref_rank=1)
        assert frames == [tl.rank_window(1)]

    def test_no_frame_markers_means_whole_window(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 5.0)
        _ev(tr, 0, "recv", 1.0, 2.0, peer=1)
        tl = Timeline.from_trace(tr)
        assert tl.frames() == [(0.0, 5.0)]

    def test_empty_trace_has_no_frames(self):
        tl = Timeline.from_trace(synthetic_trace())
        assert tl.frames() == []
        assert tl.rollup().ranks == []

    def test_per_frame_rollups_on_crashed_trace_partition_time(self):
        tl = Timeline.from_trace(_crashed_trace())
        per = tl.per_frame()
        assert len(per) == 3
        total0 = sum(r.ranks[0].total for r in per)
        assert total0 == pytest.approx(10.0)


class TestTopCapping:
    def test_table_top_keeps_worst_blocked_ranks(self):
        tr = synthetic_trace()
        for rank, blocked in ((0, 1.0), (1, 3.0), (2, 2.0)):
            _ev(tr, rank, "rank", 0.0, 10.0)
            _ev(tr, rank, "recv", 0.0, blocked, peer=0)
        roll = Timeline.from_trace(tr).rollup()
        worst = roll.worst_ranks(2)
        assert [r.rank for r in worst] == [1, 2]
        text = roll.table(top=2)
        lines = text.splitlines()
        assert any("2 more" not in l and l.startswith("   1") for l in lines)
        assert "1 more ranks elided (top 2 by blocked time)" in text
        # the summary still reflects every rank
        assert f"critical-path rank {roll.critical_path_rank}" in text

    def test_top_larger_than_world_shows_everything(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 1.0)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.table(top=10) == roll.table()
