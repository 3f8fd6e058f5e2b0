"""Model-vs-measured drift: a ClusterSim prediction against a real run.

The paper validates its cluster model by comparing predicted and
measured time breakdowns.  :func:`drift_report` does the same for two
finished executions of one plan — a real parallel run and a simulated
one recorded with ``record_timeline=True`` — as per-category **shares**
of rank time (compute, halo, collective, blocked, fault) plus the bytes
each rank sent.  Shares, not seconds: the simulator runs on a machine
model, the runtime on whatever host runs the command.

The runtime's ``send`` time folds into ``halo``: the simulator charges
all neighbor-exchange cost to the exchange itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.simulate.machine import MachineModel, NodeModel
from repro.simulate.network import NetworkModel

CATEGORIES = ("compute", "halo", "collective", "blocked", "fault")

#: host-like calibration for the simulated side: the in-process runtime
#: has microsecond hand-off latency and memory-bandwidth "links", nothing
#: like the PVM-era Ethernet the default models describe
HOST_MACHINE = MachineModel(NodeModel(flop_time=2.0e-9))
HOST_NETWORK = NetworkModel(latency=2.0e-5, bandwidth=2.0e9,
                            shared_medium=False)


@dataclass
class DriftReport:
    """Predicted-vs-observed breakdown shares of one plan's two runs."""

    observed_s: float
    predicted_s: float
    #: category -> {"predicted_pct", "observed_pct", "drift_pp"}
    categories: dict
    #: per rank: bytes the runtime's sends carried against the bytes of
    #: the simulator's modeled messages, and their ratio
    traffic: list

    @property
    def max_drift_pp(self) -> float:
        """Largest absolute per-category drift (percentage points)."""
        return max(abs(c["drift_pp"]) for c in self.categories.values())

    def as_dict(self) -> dict:
        return {**asdict(self), "max_drift_pp": self.max_drift_pp}

    def table(self) -> str:
        lines = [f"{'category':<12s} {'predicted':>10s} {'observed':>10s} "
                 f"{'drift':>9s}"]
        for cat, c in self.categories.items():
            lines.append(f"{cat:<12s} {c['predicted_pct']:>9.1f}% "
                         f"{c['observed_pct']:>9.1f}% "
                         f"{c['drift_pp']:>+8.1f}pp")
        lines.append(
            f"max drift {self.max_drift_pp:.1f}pp "
            f"(observed {self.observed_s * 1e3:.1f} ms on this host, "
            f"predicted {self.predicted_s * 1e3:.1f} ms on the model)")
        lines.append(f"{'rank':>4s} {'sent(model)':>12s} "
                     f"{'sent(real)':>12s} {'ratio':>6s}")
        for row in self.traffic:
            ratio = row["ratio"]
            lines.append(
                f"{row['rank']:>4d} {row['predicted_sent']:>11d}B "
                f"{row['observed_sent']:>11d}B "
                f"{'-' if ratio is None else format(ratio, '.2f'):>6s}")
        return "\n".join(lines)


def _shares(seconds: dict[str, float]) -> dict[str, float]:
    total = sum(seconds.values())
    return {cat: 100.0 * s / total if total > 0 else 0.0
            for cat, s in seconds.items()}


def drift_report(par, sim_out) -> DriftReport:
    """Compare a :class:`~repro.codegen.runner.ParallelResult` with the
    :class:`~repro.simulate.SimResult` of the same plan.

    The predicted shares are read from the simulator's recorded spans,
    i.e. its explicitly simulated frames; the modeled schedule is
    frame-periodic, so their shape is the whole run's.  The sent-bytes
    columns are whole-run totals on both sides and compare like with
    like only when *sim_out* covers the frames *par* executed.
    """
    observed = dict.fromkeys(CATEGORIES, 0.0)
    rollup = par.rollup()
    for r in rollup.ranks:
        observed["compute"] += r.compute
        observed["halo"] += r.halo + r.send
        observed["collective"] += r.collective
        observed["blocked"] += r.blocked
        observed["fault"] += r.fault
    predicted = dict.fromkeys(CATEGORIES, 0.0)
    for s in sim_out.spans:
        if s.cat in predicted:
            predicted[s.cat] += s.dur

    obs_pct, pred_pct = _shares(observed), _shares(predicted)
    categories = {cat: {"predicted_pct": pred_pct[cat],
                        "observed_pct": obs_pct[cat],
                        "drift_pp": obs_pct[cat] - pred_pct[cat]}
                  for cat in CATEGORIES}
    sent = [0] * len(sim_out.sent_bytes)
    for e in par.trace.messages():
        sent[e.rank] += e.nbytes
    traffic = [{"rank": rank, "observed_sent": real, "predicted_sent": model,
                "ratio": real / model if model else None}
               for rank, (real, model)
               in enumerate(zip(sent, sim_out.sent_bytes))]
    return DriftReport(
        observed_s=max((r.total for r in rollup.ranks), default=0.0),
        predicted_s=sim_out.total_time,
        categories=categories, traffic=traffic)
