"""Flight recorder ring semantics: ordering, wraparound, shared attach.

Ring rows have one writer — the rank's :meth:`Trace.writer` — so every
test here records through it and reads the ring back with ``tail``.
"""

from repro.obs.flight import KIND_CODES, KIND_NAMES, FlightRecorder
from repro.obs.health import Telemetry
from repro.runtime.trace import Trace


def _writer(tele: Telemetry, rank: int = 0, trace: Trace | None = None):
    return (trace or Trace()).writer(rank, tele.rank_view(rank))


class TestRing:
    def test_tail_is_oldest_first(self):
        tele = Telemetry(1, slots=8)
        write = _writer(tele)
        for i in range(5):
            write("send", 1, 10 * i, i, 0, i, i)
        tail = tele.flight.tail(0)
        assert [e.tag for e in tail] == [0, 1, 2, 3, 4]
        assert all(e.kind == "send" for e in tail)
        assert tele.flight.pushed(0) == 5

    def test_wraparound_keeps_last_n(self):
        tele = Telemetry(1, slots=4)
        write = _writer(tele)
        for i in range(10):
            write("recv", 0, 0, i, 0, i, i)
        tail = tele.flight.tail(0)
        assert len(tail) == 4
        assert [e.tag for e in tail] == [6, 7, 8, 9]
        # cursor keeps counting, so the drop count is recoverable
        assert tele.flight.pushed(0) - len(tail) == 6

    def test_negative_peer_and_tag_decode_to_none(self):
        tele = Telemetry(1)
        _writer(tele)("barrier", None, 0, None, 7, 1, 2)
        ev = tele.flight.tail(0)[0]
        assert ev.peer is None
        assert ev.tag is None
        assert ev.wait_s == 7e-9

    def test_rows_are_independent_per_rank(self):
        tele = Telemetry(3, slots=4)
        _writer(tele, 1)("barrier", None, 0, None, 0, 1, 2)
        assert tele.flight.tail(0) == []
        assert tele.flight.tail(2) == []
        assert [e.kind for e in tele.flight.tail(1)] == ["barrier"]

    def test_timestamps_rebase_against_epoch_plus_shift(self):
        import time
        tele = Telemetry(1)
        now = time.perf_counter_ns()
        _writer(tele)("send", 1, 8, 0, 0, now, now)
        ev_raw = tele.flight.tail(0)[0]
        ev_shifted = tele.flight.tail(0, shift_s=100.0)[0]
        assert ev_shifted.t1 - ev_raw.t1 == 100.0
        assert 0.0 <= ev_raw.t1 < 5.0  # epoch stamped at reset

    def test_tail_decodes_to_the_log_s_events(self):
        trace = Trace()
        tele = Telemetry(1, slots=8)
        tele.begin(trace.epoch_ns)
        write = _writer(tele, trace=trace)
        write("send", 1, 64, 5, 64, trace.epoch_ns + 10, trace.epoch_ns + 10)
        write("allreduce", None, 16, None, 2500,
              trace.epoch_ns + 20, trace.epoch_ns + 3000)
        assert tele.flight.tail(0) == trace.snapshot()

    def test_kind_table_round_trips(self):
        assert KIND_NAMES[0] == ""  # 0 must stay the empty-slot marker
        for name, code in KIND_CODES.items():
            assert KIND_NAMES[code] == name


class TestSharedMemory:
    def test_attach_sees_creator_pushes_and_vice_versa(self):
        tele = Telemetry(2, slots=8, shared=True)
        try:
            other = Telemetry.attach_world(tele.spec())
            _writer(tele, 0)("send", 1, 64, 5, 0, 1, 1)
            _writer(other, 1)("recv", 0, 64, 5, 0, 1, 1)
            assert [e.kind for e in other.flight.tail(0)] == ["send"]
            assert [e.kind for e in tele.flight.tail(1)] == ["recv"]
            other.close()
        finally:
            tele.close()

    def test_local_recorder_has_no_name(self):
        rec = FlightRecorder(1)
        assert rec.name is None
        rec.close()
