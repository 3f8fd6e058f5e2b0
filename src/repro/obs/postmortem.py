"""Automated postmortems: turn a dead world into a named diagnosis.

When a run dies — deadlock, injected crash, real ``SIGKILL``, or an
exhausted recovery budget — :func:`build_postmortem` correlates what the
live telemetry captured: per-rank heartbeat rows name the divergence
frame and each rank's final state; flight-recorder tails (rebased onto
the launcher's clock via the epoch-shift handshake) show every rank's
final moments; the checkpoint store names the latest frame all ranks
share; the fault injector lists which planned events actually fired;
and the deadlock detector's wait-for cycle is lifted out of the error
text.  The result is one JSON document (``postmortem_<sha>.json``)
that ``acfd postmortem`` re-renders for humans.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

__all__ = ["build_postmortem", "write_postmortem", "load_postmortem",
           "render_postmortem"]

SCHEMA = "acfd-postmortem-v1"

_CYCLE_RE = re.compile(r"wait-for cycle ((?:rank \d+(?: -> )?)+)")
_FAILED_RE = re.compile(r"rank (\d+) failed")
_DIED_RE = re.compile(r"rank (\d+) worker process died")
_CRASH_RE = re.compile(r"injected crash on rank (\d+)(?: at frame (\d+))?")


def _classify(error: BaseException) -> dict:
    """Name the failure kind and the first implicated rank."""
    text = str(error)
    tname = type(error).__name__
    kind = "comm"
    if "deadlock detected" in text or tname == "RuntimeDeadlockError":
        kind = "deadlock"
    if "injected crash" in text:
        kind = "crash"
    if "worker process died" in text or "WorkerDied" in text:
        kind = "killed"
    if "recovery exhausted" in text:
        kind = "recovery-exhausted"
    rank = None
    for pat in (_DIED_RE, _CRASH_RE, _FAILED_RE):
        m = pat.search(text)
        if m:
            rank = int(m.group(1))
            break
    return {"kind": kind, "rank": rank, "type": tname, "error": text}


def _wait_cycle(text: str) -> list[int]:
    m = _CYCLE_RE.search(text)
    if not m:
        return []
    return [int(r) for r in re.findall(r"\d+", m.group(1))]


def _flight_entry(ev) -> dict:
    """One flight-tail event as the document stores it (``extra`` is the
    record's kind-dependent slot: ``saved_bytes`` for sends, wait
    nanoseconds otherwise; ``t_s`` is the completion stamp)."""
    extra = ev.saved_bytes if ev.kind == "send" else round(ev.wait_s * 1e9)
    return {"kind": ev.kind, "peer": ev.peer, "nbytes": ev.nbytes,
            "tag": ev.tag, "extra": extra, "t_s": round(ev.t1, 6)}


def build_postmortem(*, error: BaseException, size: int,
                     telemetry=None, store=None, injector=None,
                     attempts=None) -> dict:
    """Correlate everything the run left behind into one report.

    Args:
        error: the exception that ended the run (its text carries the
            deadlock diagnosis / dead-rank attribution).
        size: world size.
        telemetry: the run's :class:`~repro.obs.health.Telemetry`
            (heartbeats + flight tails), if one was attached.
        store: the :class:`~repro.faults.checkpoint.CheckpointStore`
            used by the run, for recovery-frontier naming.
        injector: the :class:`~repro.faults.inject.FaultInjector`, for
            the fired-fault record.
        attempts: chaos-recovery :class:`AttemptLog` list, if any.
    """
    cause = _classify(error)
    report: dict = {"schema": SCHEMA, "created": time.time(),
                    "size": size, "cause": cause,
                    "wait_cycle": _wait_cycle(cause["error"])}

    ranks: list[dict] = []
    tails: dict[int, list] = {}
    if telemetry is not None:
        samples = telemetry.samples()
        ranks = [s.as_dict() for s in samples]
        tails = telemetry.tails()
        frames = [s.frame for s in samples if s.frame is not None]
        # the divergence frame: where the laggard stopped vs the frontier
        report["divergence_frame"] = min(frames) if frames else None
        report["frontier_frame"] = max(frames) if frames else None
    report["ranks"] = ranks

    dead = cause["rank"]
    if dead is not None and ranks and 0 <= dead < len(ranks):
        row = ranks[dead]
        neighbors = sorted({ev.peer for ev in tails.get(dead, ())
                            if ev.peer is not None})
        report["dead_rank"] = {
            "rank": dead, "last_frame": row["frame"],
            "last_state": row["state"], "last_beat_s": row["t_s"],
            "ckpt_frame": row["ckpt_frame"], "neighbors": neighbors}
    report["flight"] = {str(r): [_flight_entry(ev) for ev in evs]
                        for r, evs in tails.items()}

    if store is not None:
        report["checkpoint"] = {
            "latest_common_frame": store.latest_common_frame(size),
            "per_rank": {str(r): store.frames(r) for r in range(size)}}
    if injector is not None:
        report["faults"] = injector.fired()
    if attempts:
        report["attempts"] = [
            {"restore_frame": a.restore_frame,
             "wall_s": round(a.wall_s, 6), "error": a.error}
            for a in attempts]
    return report


def write_postmortem(report: dict, directory: str = ".") -> str:
    """Write ``postmortem_<sha>.json`` (content-addressed) and return
    its path."""
    blob = json.dumps(report, indent=2, sort_keys=True)
    sha = hashlib.sha1(blob.encode()).hexdigest()[:12]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"postmortem_{sha}.json")
    with open(path, "w") as fh:
        fh.write(blob + "\n")
    return path


def load_postmortem(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fmt_frame(v) -> str:
    return "-" if v is None else str(v)


def render_postmortem(report: dict, *, tail_events: int = 8) -> str:
    """Human rendering of a postmortem document (``acfd postmortem``)."""
    cause = report.get("cause", {})
    lines = [f"postmortem: {cause.get('kind', '?')} in a "
             f"{report.get('size', '?')}-rank world",
             f"  error: {cause.get('error', '?')}"]
    cycle = report.get("wait_cycle") or []
    if cycle:
        lines.append("  wait-for cycle: "
                     + " -> ".join(f"rank {r}" for r in cycle))
    dead = report.get("dead_rank")
    if dead:
        lines.append(
            f"  dead rank {dead['rank']}: last state {dead['last_state']}"
            f", last heartbeat frame {_fmt_frame(dead['last_frame'])}"
            f", last checkpoint {_fmt_frame(dead['ckpt_frame'])}"
            f", neighbors {dead['neighbors']}")
    if report.get("divergence_frame") is not None:
        lines.append(f"  divergence frame {report['divergence_frame']} "
                     f"(frontier {report['frontier_frame']})")
    ckpt = report.get("checkpoint")
    if ckpt:
        lines.append("  latest common checkpoint frame: "
                     f"{_fmt_frame(ckpt.get('latest_common_frame'))}")
    faults = report.get("faults") or []
    for f in faults:
        lines.append(f"  fault fired: {f}")
    ranks = report.get("ranks") or []
    if ranks:
        lines.append(f"  {'rank':>4} {'state':<10} {'frame':>6} "
                     f"{'ckpt':>5} {'sent':>10} {'recv':>10} {'beat':>7}")
        for r in ranks:
            lines.append(
                f"  {r['rank']:>4} {r['state']:<10} "
                f"{_fmt_frame(r['frame']):>6} "
                f"{_fmt_frame(r['ckpt_frame']):>5} "
                f"{r['sent_bytes']:>10} {r['recv_bytes']:>10} "
                f"{r['beat']:>7}")
    flight = report.get("flight") or {}
    focus = ([str(dead["rank"])] + [str(n) for n in dead["neighbors"]]
             if dead else sorted(flight))
    for key in focus:
        evs = flight.get(key) or []
        if not evs:
            continue
        lines.append(f"  flight tail, rank {key} "
                     f"(last {min(tail_events, len(evs))} of {len(evs)}):")
        for ev in evs[-tail_events:]:
            peer = "" if ev["peer"] is None else f" peer={ev['peer']}"
            tag = "" if ev["tag"] is None else f" tag={ev['tag']}"
            lines.append(f"    t={ev['t_s']:.6f}s {ev['kind']}{peer}"
                         f"{tag} nbytes={ev['nbytes']} "
                         f"extra={ev['extra']}")
    return "\n".join(lines)
