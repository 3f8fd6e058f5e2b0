"""Timeline roll-ups over synthetic traces with known breakdowns."""

import pytest

from repro.obs.timeline import Timeline
from repro.runtime.trace import Trace
from tests.obs.synth import put as _ev
from tests.obs.synth import synthetic_trace


def _two_rank_trace() -> Trace:
    """Two ranks, 10 s windows, hand-placed leaf events.

    rank 0: blocked 2 s, halo 1 s, collective 1 s  -> compute 6 s
    rank 1: blocked 1 s, halo 0.5 s                -> compute 8.5 s
    """
    tr = synthetic_trace()
    _ev(tr, 0, "rank", 0.0, 10.0)
    _ev(tr, 1, "rank", 0.0, 10.0)
    _ev(tr, 0, "recv", 1.0, 3.0, peer=1)
    _ev(tr, 0, "halo_pack", 3.0, 3.5)
    _ev(tr, 0, "halo_unpack", 3.5, 4.0)
    _ev(tr, 0, "allreduce", 5.0, 6.0)
    _ev(tr, 1, "recv", 2.0, 3.0, peer=0)
    _ev(tr, 1, "halo_pack", 3.0, 3.5)
    return tr


class TestRollup:
    def test_classified_breakdown(self):
        roll = Timeline.from_trace(_two_rank_trace()).rollup()
        r0, r1 = roll.ranks
        assert r0.total == pytest.approx(10.0)
        assert r0.blocked == pytest.approx(2.0)
        assert r0.halo == pytest.approx(1.0)
        assert r0.collective == pytest.approx(1.0)
        assert r0.compute == pytest.approx(6.0)
        assert r1.compute == pytest.approx(8.5)

    def test_load_imbalance_and_critical_path(self):
        roll = Timeline.from_trace(_two_rank_trace()).rollup()
        # busy = compute + halo + send: rank0 7.0, rank1 9.0
        assert roll.critical_path_rank == 1
        assert roll.load_imbalance == pytest.approx(9.0 / 8.0)

    def test_comm_compute_ratio(self):
        roll = Timeline.from_trace(_two_rank_trace()).rollup()
        # comm = blocked+halo+collective+send: (2+1+1) + (1+0.5) = 5.5
        assert roll.comm_time == pytest.approx(5.5)
        assert roll.compute_time == pytest.approx(14.5)
        assert roll.comm_compute_ratio == pytest.approx(5.5 / 14.5)

    def test_window_clips_events(self):
        roll = Timeline.from_trace(_two_rank_trace()).rollup(0.0, 2.0)
        r0 = roll.ranks[0]
        assert r0.total == pytest.approx(2.0)
        assert r0.blocked == pytest.approx(1.0)  # recv [1,3) clipped at 2
        assert r0.compute == pytest.approx(1.0)

    def test_envelope_events_not_double_counted(self):
        tr = _two_rank_trace()
        # an exchange envelope AROUND the halo events must not add time
        _ev(tr, 0, "exchange", 3.0, 4.0, tag=1)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.ranks[0].halo == pytest.approx(1.0)
        assert roll.ranks[0].compute == pytest.approx(6.0)

    def test_empty_trace(self):
        roll = Timeline.from_trace(synthetic_trace()).rollup()
        assert roll.ranks == []
        assert roll.load_imbalance == 1.0
        assert roll.comm_compute_ratio == float("inf")

    def test_fault_events_get_their_own_category(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 10.0)
        _ev(tr, 0, "fault_straggler", 1.0, 2.0)
        _ev(tr, 0, "checkpoint", 3.0, 3.5, tag=2)
        _ev(tr, 0, "restore", 4.0, 4.5, tag=2)
        roll = Timeline.from_trace(tr).rollup()
        r0 = roll.ranks[0]
        assert r0.fault == pytest.approx(2.0)
        # lost time must not masquerade as compute
        assert r0.compute == pytest.approx(8.0)
        assert roll.as_dict()["ranks"][0]["fault"] == pytest.approx(2.0)
        assert "fault" in roll.table()

    def test_fault_column_hidden_when_clean(self):
        roll = Timeline.from_trace(_two_rank_trace()).rollup()
        assert all(r.fault == 0.0 for r in roll.ranks)
        assert "fault" not in roll.table()

    def test_as_dict_and_table(self):
        roll = Timeline.from_trace(_two_rank_trace()).rollup()
        d = roll.as_dict()
        assert d["source"] == "runtime"
        assert len(d["ranks"]) == 2
        table = roll.table()
        assert "comm/compute ratio" in table
        assert "critical-path rank 1" in table


class TestFrames:
    def test_recurring_exchange_delimits_frames(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 9.0)
        for f in range(3):
            base = f * 3.0
            _ev(tr, 0, "exchange", base + 0.5, base + 1.0, tag=1)
            _ev(tr, 0, "exchange", base + 2.0, base + 2.5, tag=2)
        frames = Timeline.from_trace(tr).frames()
        assert len(frames) == 3
        # windows tile the rank window with cuts at the recurring sync
        assert frames[0] == (0.0, 3.5)
        assert frames[-1][1] == 9.0

    def test_frame_events_delimit_frames_when_present(self):
        # a generated program: the hook marks every trip, and the first
        # exchange is entry-only (it does not recur)
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 9.0)
        _ev(tr, 0, "exchange", 0.5, 1.0, tag=1)
        for f in range(3):
            _ev(tr, 0, "frame", f * 3.0 + 0.25, f * 3.0 + 0.25, tag=f + 1)
            _ev(tr, 0, "exchange", f * 3.0 + 2.0, f * 3.0 + 2.5, tag=2)
        assert Timeline.from_trace(tr).frames() == [
            (0.0, 3.25), (3.25, 6.25), (6.25, 9.0)]

    def test_single_frame_without_recurrence(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 5.0)
        _ev(tr, 0, "exchange", 1.0, 2.0, tag=1)
        assert Timeline.from_trace(tr).frames() == [(0.0, 5.0)]

    def test_per_frame_rollups(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 6.0)
        _ev(tr, 0, "exchange", 0.0, 1.0, tag=1)
        _ev(tr, 0, "recv", 0.0, 1.0, peer=1)
        _ev(tr, 0, "exchange", 3.0, 4.0, tag=1)
        _ev(tr, 0, "recv", 3.0, 4.0, peer=1)
        rolls = Timeline.from_trace(tr).per_frame()
        assert len(rolls) == 2
        assert rolls[0].ranks[0].blocked == pytest.approx(1.0)


class TestRollupEdgeCases:
    def test_zero_recorded_frames(self):
        """A trace with no events: no frames, no per-frame roll-ups,
        and the whole-run roll-up is empty but well-formed."""
        tl = Timeline.from_trace(synthetic_trace())
        assert tl.frames() == []
        assert tl.per_frame() == []
        assert tl.span() == (0.0, 0.0)
        roll = tl.rollup()
        assert roll.ranks == []
        assert roll.load_imbalance == 1.0
        assert roll.critical_path_rank == 0
        assert roll.table()  # renders without blowing up

    def test_events_without_rank_envelope(self):
        """Frames on a trace whose rank never emitted its envelope."""
        tr = synthetic_trace()
        _ev(tr, 0, "recv", 1.0, 2.0)
        tl = Timeline.from_trace(tr)
        assert tl.rank_window(0) == (1.0, 2.0)
        assert tl.frames() == [(1.0, 2.0)]

    def test_single_rank_balance_is_exactly_one(self):
        """One rank: load imbalance must be exactly 1.0 (max == mean)
        with no division blowups, and it is its own critical path."""
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 4.0)
        _ev(tr, 0, "recv", 1.0, 2.0)
        roll = Timeline.from_trace(tr).rollup()
        assert len(roll.ranks) == 1
        assert roll.load_imbalance == 1.0
        assert roll.critical_path_rank == 0
        assert roll.ranks[0].compute == pytest.approx(3.0)

    def test_single_rank_zero_busy_time(self):
        """A rank that spent its whole window blocked: mean busy is 0,
        the imbalance factor must fall back to 1.0, not divide by 0."""
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 2.0)
        _ev(tr, 0, "recv", 0.0, 2.0)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.ranks[0].busy == 0.0
        assert roll.load_imbalance == 1.0

    def test_collective_only_trace(self):
        """A trace holding nothing but collective spans: all non-idle
        time classifies as collective, compute absorbs the rest, and
        the comm/compute ratio stays finite while compute exists."""
        tr = synthetic_trace()
        for r in (0, 1):
            _ev(tr, r, "rank", 0.0, 4.0)
            _ev(tr, r, "barrier", 0.0, 1.0)
            _ev(tr, r, "allreduce", 1.0, 2.0)
            _ev(tr, r, "bcast", 2.0, 3.0)
        roll = Timeline.from_trace(tr).rollup()
        for rb in roll.ranks:
            assert rb.collective == pytest.approx(3.0)
            assert rb.blocked == 0.0
            assert rb.halo == 0.0
            assert rb.compute == pytest.approx(1.0)
        assert roll.comm_compute_ratio == pytest.approx(6.0 / 2.0)
        assert roll.load_imbalance == 1.0

    def test_collective_covering_whole_window(self):
        """Collectives filling the entire window: compute is 0 and the
        comm/compute ratio degrades to inf instead of raising."""
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 2.0)
        _ev(tr, 0, "allreduce", 0.0, 2.0)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.ranks[0].compute == 0.0
        assert roll.comm_compute_ratio == float("inf")


class TestObserveTraceHistograms:
    def test_durations_feed_category_histograms(self):
        from repro.obs import MetricsRegistry, observe_trace_histograms
        reg = MetricsRegistry()
        tr = _two_rank_trace()
        observe_trace_histograms(reg, tr)
        snap = reg.snapshot()
        assert snap["runtime.blocked_s"]["count"] == 2   # two recvs
        assert snap["runtime.halo_s"]["count"] == 3      # pack/unpack
        assert snap["runtime.collective_s"]["count"] == 1
        assert snap["runtime.recv_wait_s"]["count"] == 2
        assert snap["runtime.blocked_s"]["sum"] == pytest.approx(3.0)

    def test_envelopes_ignored(self):
        from repro.obs import MetricsRegistry, observe_trace_histograms
        reg = MetricsRegistry()
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 10.0)
        _ev(tr, 0, "exchange", 0.0, 1.0, tag=1)
        observe_trace_histograms(reg, tr)
        assert reg.snapshot() == {}


class TestTraceIntegration:
    def test_trace_timeline_shortcut(self):
        tl = _two_rank_trace().timeline()
        assert isinstance(tl, Timeline)
        assert tl.size == 2

    def test_rank_window_prefers_rank_event(self):
        tr = synthetic_trace()
        _ev(tr, 0, "recv", 2.0, 3.0)
        _ev(tr, 0, "rank", 1.0, 5.0)
        assert Timeline.from_trace(tr).rank_window(0) == (1.0, 5.0)
