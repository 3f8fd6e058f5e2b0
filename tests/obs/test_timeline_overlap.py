"""Timeline accounting for the nonblocking exchange's overlap events.

The ``overlap`` span is the in-flight window *under* interior compute:
it must be booked in its own column — never subtracted from compute,
never added to comm — and drive the hidden-halo-fraction roll-up.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Timeline, observe_trace_histograms
from repro.runtime.trace import Trace
from tests.obs.synth import put as _ev
from tests.obs.synth import synthetic_trace


def _overlapped_trace() -> Trace:
    """One rank, 10 s window: 3 s in-flight overlap, 1 s residual wait."""
    tr = synthetic_trace()
    _ev(tr, 0, "rank", 0.0, 10.0)
    _ev(tr, 0, "halo_pack", 0.5, 1.0)
    _ev(tr, 0, "overlap", 1.0, 4.0, tag=1)
    _ev(tr, 0, "recv", 4.0, 5.0, peer=1)
    _ev(tr, 0, "halo_unpack", 5.0, 5.5)
    _ev(tr, 0, "exchange", 0.5, 5.5, tag=1)
    return tr


class TestOverlapRollup:
    def test_overlap_booked_separately(self):
        roll = Timeline.from_trace(_overlapped_trace()).rollup()
        r0 = roll.ranks[0]
        assert r0.overlap == pytest.approx(3.0)
        # compute = total - blocked - halo (pack+unpack) - ... but NOT
        # minus overlap: the rank computed its interior during it
        assert r0.compute == pytest.approx(10.0 - 1.0 - 1.0)
        assert r0.blocked == pytest.approx(1.0)
        # hidden time is not communication wall-clock
        assert r0.comm == pytest.approx(1.0 + 1.0)

    def test_hidden_halo_fraction(self):
        roll = Timeline.from_trace(_overlapped_trace()).rollup()
        assert roll.hidden_halo_fraction == pytest.approx(3.0 / 4.0)
        assert "hidden halo fraction 0.75" in roll.table()
        assert roll.as_dict()["hidden_halo_fraction"] \
            == pytest.approx(0.75)
        assert roll.as_dict()["ranks"][0]["overlap"] == pytest.approx(3.0)

    def test_fraction_zero_without_overlap_events(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 4.0)
        _ev(tr, 0, "recv", 1.0, 2.0, peer=1)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.hidden_halo_fraction == 0.0
        assert "hidden halo fraction" not in roll.table()

    def test_fully_hidden_fraction_is_one(self):
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 4.0)
        _ev(tr, 0, "overlap", 1.0, 2.0, tag=1)
        roll = Timeline.from_trace(tr).rollup()
        assert roll.hidden_halo_fraction == pytest.approx(1.0)


class TestHistograms:
    def test_overlap_durations_feed_their_own_histogram(self):
        reg = MetricsRegistry()
        observe_trace_histograms(reg, _overlapped_trace())
        snap = reg.snapshot()
        assert snap["runtime.overlap_s"]["count"] == 1
        assert snap["runtime.overlap_s"]["max"] == pytest.approx(3.0)
        # overlap must not leak into the blocked histogram
        assert snap["runtime.blocked_s"]["count"] == 1


class TestFrameInference:
    def test_overlapped_exchange_envelope_still_delimits_frames(self):
        # finish() records the same "exchange" envelope as the blocking
        # path, so frame inference keeps working on overlapped runs
        tr = synthetic_trace()
        _ev(tr, 0, "rank", 0.0, 10.0)
        for f in range(3):
            t = f * 3.0
            _ev(tr, 0, "overlap", t + 0.5, t + 1.5, tag=1)
            _ev(tr, 0, "exchange", t + 0.2, t + 2.0, tag=1)
        frames = Timeline.from_trace(tr).frames()
        assert len(frames) == 3
