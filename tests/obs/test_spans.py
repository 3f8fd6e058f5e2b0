"""Spans, the active-profiler plumbing, and the metrics registry."""

import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
    activate,
    counter,
    current,
    span,
)
from repro.obs.spans import phase_table


class TestProfiler:
    def test_span_records_interval(self):
        prof = Profiler()
        with prof.span("work", cat="compile") as sp:
            sp.args["items"] = 3
        spans = prof.spans()
        assert len(spans) == 1
        assert spans[0].name == "work"
        assert spans[0].cat == "compile"
        assert spans[0].t1 >= spans[0].t0 >= 0.0
        assert spans[0].args == {"items": 3}

    def test_span_recorded_on_exception(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.span("doomed"):
                raise ValueError("boom")
        assert [s.name for s in prof.spans()] == ["doomed"]
        assert prof.spans()[0].t1 >= prof.spans()[0].t0

    def test_total_filters_by_cat(self):
        prof = Profiler()
        with prof.span("a", cat="compile"):
            pass
        with prof.span("b", cat="execute"):
            pass
        assert prof.total("compile") <= prof.total()
        assert prof.total("nothing") == 0.0

    def test_phase_table_lists_each_span(self):
        prof = Profiler()
        with prof.span("lex", cat="compile") as sp:
            sp.args["lines"] = 7
        table = phase_table(prof.spans())
        assert "lex" in table
        assert "lines=7" in table
        assert "total" in table

    def test_concurrent_adds_are_lossless(self):
        prof = Profiler()

        def worker():
            for _ in range(200):
                with prof.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(prof.spans()) == 8 * 200


class TestActiveProfiler:
    def test_no_active_profiler_is_a_noop(self):
        assert current() is None
        with span("orphan") as sp:
            sp.args["x"] = 1  # must not raise
        counter("orphan.count").inc()  # null sink

    def test_activate_routes_spans(self):
        prof = Profiler()
        with activate(prof):
            assert current() is prof
            with span("phase-1", cat="compile"):
                pass
            counter("c").inc(5)
        assert current() is None
        assert [s.name for s in prof.spans()] == ["phase-1"]
        assert prof.metrics.snapshot()["c"] == 5

    def test_threads_do_not_inherit_activation(self):
        prof = Profiler()
        seen = []

        def worker():
            seen.append(current())

        with activate(prof):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [None]

    def test_nested_activation_restores_outer(self):
        outer, inner = Profiler("outer"), Profiler("inner")
        with activate(outer):
            with activate(inner):
                with span("deep"):
                    pass
            assert current() is outer
        assert [s.name for s in inner.spans()] == ["deep"]
        assert outer.spans() == []


class TestMetrics:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_and_running_max(self):
        g = Gauge("g")
        g.set(1.0)
        assert g.value == 1.0
        g.max(3.0)
        g.max(2.0)
        assert g.value == 3.0

    def test_histogram_stats(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == 7.0
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_registry_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        assert list(reg.snapshot()) == ["a", "b"]
