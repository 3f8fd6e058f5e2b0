"""Cross-process trace merging: the epoch handshake.

``Trace.epoch_ns`` is captured per process and ``perf_counter`` clocks
are not guaranteed comparable across processes — merging worker events
onto the caller's trace without normalizing would put them on the wrong
clock.  These tests drive :class:`EpochProbe`/:func:`epoch_shift`
/:meth:`Trace.absorb` with deliberately skewed clocks and assert the
merged spans come out monotone and non-negative.  The end-to-end version
over real worker processes lives in ``tests/runtime/test_procexec.py``.
"""

import time

from repro.runtime.trace import EpochProbe, Trace, epoch_shift


def _skewed_worker_trace(skew: float) -> tuple[Trace, EpochProbe]:
    """A 'worker' trace whose clock runs *skew* seconds off the
    caller's: epoch fields are shifted as if sampled on another clock."""
    trace = Trace()
    probe = EpochProbe(epoch_ns=trace.epoch_ns + int(skew * 1e9),
                       sampled_at=time.perf_counter() + skew)
    return trace, probe


def _stamp(trace: Trace, seconds: float) -> int:
    """The absolute stamp that decodes to *seconds* on *trace*."""
    return trace.epoch_ns + round(seconds * 1e9)


class TestHandshake:
    def test_identical_clocks_shift_by_elapsed_time_only(self):
        parent = Trace()
        time.sleep(0.01)
        worker = Trace()
        probe = EpochProbe.sample(worker)
        shift = epoch_shift(probe, time.perf_counter(), parent)
        # worker epoch is later than parent epoch; same clock, so the
        # shift is just the (positive) spawn delay
        assert 0.0 < shift < 5.0
        assert abs(shift - (worker.epoch_ns - parent.epoch_ns) / 1e9) < 0.05

    def test_cross_clock_skew_is_cancelled(self):
        # worker clock runs 1000 s ahead of the parent's: raw epochs are
        # not comparable, but the handshake measures the offset and the
        # shift lands events back on the parent's clock
        parent = Trace()
        for skew in (1000.0, -1000.0):
            _worker, probe = _skewed_worker_trace(skew)
            received_at = time.perf_counter()
            shift = epoch_shift(probe, received_at, parent)
            # the worker's "now" (epoch-relative 0) must map close to
            # the parent's now, regardless of skew
            assert abs(shift - parent.now()) < 0.5

    def test_merged_spans_are_monotone_and_non_negative(self):
        parent = Trace()
        parent.writer(0)("send", 1, 8, 0, 0,
                         _stamp(parent, 0.001), _stamp(parent, 0.002))
        worker = Trace()  # spawned after the parent: later epoch
        probe = EpochProbe.sample(worker)
        shift = epoch_shift(probe, time.perf_counter(), parent)
        write = worker.writer(1)
        write("recv", 0, 8, 0, 0, _stamp(worker, 0.0), _stamp(worker, 0.003))
        write("rank", None, 0, None, 0,
              _stamp(worker, 0.0), _stamp(worker, 0.010))
        parent.absorb(worker.events, worker.epoch_ns, shift)
        merged = parent.snapshot()
        assert len(merged) == 3
        for e in merged:
            assert e.t0 >= 0.0, f"{e.kind} landed before the epoch"
            assert e.t1 >= e.t0, f"{e.kind} span runs backwards"
        # worker events land after the moment the parent epoch started,
        # each exactly `shift` later than on the worker's own epoch
        absorbed = [e for e in merged if e.rank == 1]
        assert [e.kind for e in absorbed] == ["recv", "rank"]
        assert abs(absorbed[1].t1 - (0.010 + shift)) < 1e-6

    def test_absorb_rebases_every_record(self):
        # no record is exempt from the rebase: a zero-length marker at
        # the worker's epoch lands `shift` after the parent's
        parent = Trace()
        worker = Trace(epoch_ns=parent.epoch_ns - 7)
        worker.writer(0)("pipeline_send", 1, 0, 3, 0,
                         worker.epoch_ns, worker.epoch_ns)
        parent.absorb(worker.events, worker.epoch_ns, shift=5.0)
        (event,) = parent.snapshot()
        assert event.t0 == event.t1 == 5.0

    def test_absorb_respects_disabled_traces(self):
        parent = Trace(enabled=False)
        worker = Trace()
        worker.writer(0)("send", 1, 8, 0, 0, 1, 2)
        parent.absorb(worker.events, worker.epoch_ns, 0.0)
        assert parent.events == []
