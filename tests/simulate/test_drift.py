"""Drift report: predicted-vs-observed category shares of one plan."""

import pytest

from repro.apps.sprayer import sprayer_source
from repro.core import AutoCFD
from repro.simulate import ClusterSim
from repro.simulate.drift import (CATEGORIES, HOST_MACHINE, HOST_NETWORK,
                                  drift_report)

FRAMES = 4
DECK = "2.5 30"


@pytest.fixture(scope="module")
def compiled():
    # eps=0: every frame executes, so both sides cover FRAMES frames
    src = sprayer_source(n=40, m=16, iters=FRAMES, eps=0.0)
    return AutoCFD.from_source(src).compile(partition=(2, 1))


def simulate(plan):
    return ClusterSim(plan, HOST_MACHINE, HOST_NETWORK, chunks=1,
                      record_timeline=True).run(FRAMES)


@pytest.fixture(scope="module")
def par(compiled):
    return compiled.run_parallel(input_text=DECK)


@pytest.fixture(scope="module")
def report(compiled, par):
    return drift_report(par, simulate(compiled.plan))


class TestDriftReport:
    def test_all_categories_present(self, report):
        assert set(report.categories) == set(CATEGORIES)
        for c in report.categories.values():
            for key in ("predicted_pct", "observed_pct", "drift_pp"):
                assert isinstance(c[key], float)

    def test_shares_sum_to_100(self, report):
        pred = sum(c["predicted_pct"] for c in report.categories.values())
        obs = sum(c["observed_pct"] for c in report.categories.values())
        assert pred == pytest.approx(100.0, abs=1e-6)
        assert obs == pytest.approx(100.0, abs=1e-6)

    def test_drift_is_share_difference(self, report):
        for c in report.categories.values():
            assert c["drift_pp"] == pytest.approx(
                c["observed_pct"] - c["predicted_pct"])

    def test_totals_positive(self, report):
        assert report.observed_s > 0.0
        assert report.predicted_s > 0.0

    def test_max_drift_and_dict(self, report):
        d = report.as_dict()
        assert d["categories"] == report.categories
        assert d["max_drift_pp"] == report.max_drift_pp
        assert report.max_drift_pp >= 0.0

    def test_table_renders_every_category(self, report):
        text = report.table()
        for cat in CATEGORIES:
            assert cat in text
        assert "max drift" in text


class TestOverlapAgreement:
    def test_hidden_halo_fraction_is_zero_on_both_sides(self, compiled,
                                                        par):
        # overlap "auto" declines every split on the thread executor
        # (nothing is in flight once begin() returns) and the model
        # simulates the plan's own decisions, so neither side hides any
        # exchange
        assert compiled.plan.overlap == "auto"
        assert not any(d.enabled for d in compiled.plan.overlap_decisions)
        observed = par.timeline().rollup().hidden_halo_fraction
        predicted = simulate(compiled.plan).rollup().hidden_halo_fraction
        assert observed == predicted == 0.0


class TestDegradedDrift:
    def test_fault_share_is_observed_and_never_predicted(self, compiled,
                                                         tmp_path):
        # the runtime injects faults; the cluster model replays
        # fault-free runs, so only the observed side has a fault share
        from repro.faults import FaultEvent, FaultPlan, run_recovered
        plan = FaultPlan(events=[
            FaultEvent("straggler", 0, frame=2, frames=2, seconds=0.02),
            FaultEvent("crash", 1, frame=3)], seed=0)
        par, attempts, _injector = run_recovered(
            compiled.plan, compiled.spmd_cu, fault_plan=plan,
            ckpt_dir=str(tmp_path), input_text=DECK)
        assert len(attempts) == 2
        report = drift_report(par, simulate(compiled.plan))
        assert report.categories["fault"]["observed_pct"] > 0.0
        assert report.categories["fault"]["predicted_pct"] == 0.0


class TestTrafficComparison:
    def test_per_rank_sent_bytes_model_vs_observed(self, report):
        assert len(report.traffic) == 2
        for row in report.traffic:
            assert row["predicted_sent"] > 0
            assert row["observed_sent"] > 0
            # both sides model the same face messages over the same
            # frames; agreement within an order of magnitude is the
            # sanity floor (the runtime ships real array payloads, the
            # model counts face bytes)
            assert row["ratio"] is not None
            assert 0.1 < row["ratio"] < 10.0

    def test_traffic_renders_in_table_and_dict(self, report):
        assert "sent(model)" in report.table()
        assert report.as_dict()["traffic"] == report.traffic
