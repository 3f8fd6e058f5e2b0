"""Live per-rank health telemetry: heartbeat board + flight recorder.

The :class:`HealthBoard` is a lock-light ``int64`` grid — one row per
rank, one writer per row — publishing what each rank is doing *right
now*: run state (compute/blocked/halo/collective), frame number,
mailbox depth, BufferPool occupancy, last checkpoint frame, and
cumulative sent/recv traffic.  Thread worlds keep it in a plain numpy
array; process worlds back it with ``multiprocessing.shared_memory`` so
the launcher (and ``acfd top`` in another terminal) reads it even when
a worker is wedged in a syscall or already dead.

:class:`Telemetry` bundles a board with a :class:`~repro.obs.flight.
FlightRecorder` and the per-rank epoch shifts the launcher learns from
the procexec hello handshake, so samples and flight tails come out
rebased onto one clock.  The per-rank handle (:class:`RankTelemetry`) is
what the runtime holds on the hot path: a handful of cached numpy row
views, no locks, no allocation.  It publishes run-state transitions
itself; everything that is an *event* — the flight-ring row, the
traffic counters, the frame and checkpoint cells — is written by the
rank's :meth:`repro.runtime.trace.Trace.writer` through those views, in
the same call that appends the record to the trace log.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.flight import (FlightRecorder, _attach_shm, _create_shm,
                              _unlink_shm)
from repro.runtime.trace import TraceEvent

__all__ = [
    "HealthBoard", "HealthSample", "RankTelemetry", "Telemetry",
    "STATE_NAMES", "render_health_table", "health_alerts",
    "publish_live", "find_live", "unpublish_live", "serve_metrics",
]

#: run-state codes (row slot 1)
STATE_NAMES = ("init", "compute", "blocked", "halo", "collective",
               "done", "failed")
S_INIT, S_COMPUTE, S_BLOCKED, S_HALO, S_COLLECTIVE, S_DONE, S_FAILED = \
    range(7)

# row slot layout
_BEAT, _STATE, _FRAME, _DEPTH, _POOL, _CKPT = range(6)
_SENT_B, _RECV_B, _SENT_N, _RECV_N, _T_NS, _EPOCH = range(6, 12)
_SLOTS = 12


@dataclass(frozen=True)
class HealthSample:
    """One decoded board row (a point-in-time heartbeat)."""

    rank: int
    beat: int
    state: str
    frame: int | None
    mailbox_depth: int
    pool_outstanding: int
    ckpt_frame: int | None
    sent_bytes: int
    recv_bytes: int
    sent_msgs: int
    recv_msgs: int
    #: raw writer-clock stamp of the last beat
    t_ns: int
    #: last beat in seconds on the launcher's epoch (shift-rebased)
    t_s: float = 0.0
    #: seconds since the last beat, on the reader's clock
    age_s: float = 0.0

    def as_dict(self) -> dict:
        return {"rank": self.rank, "beat": self.beat,
                "state": self.state, "frame": self.frame,
                "mailbox_depth": self.mailbox_depth,
                "pool_outstanding": self.pool_outstanding,
                "ckpt_frame": self.ckpt_frame,
                "sent_bytes": self.sent_bytes,
                "recv_bytes": self.recv_bytes,
                "sent_msgs": self.sent_msgs,
                "recv_msgs": self.recv_msgs,
                "t_s": round(self.t_s, 6),
                "age_s": round(self.age_s, 6)}


class HealthBoard:
    """``(size, 12)`` int64 heartbeat grid, local or shared-memory."""

    SLOTS = _SLOTS

    def __init__(self, size: int, *, shared: bool = False):
        self.size = size
        nbytes = 8 * size * _SLOTS
        if shared:
            self.shm = _create_shm(nbytes)
            self.cells = np.ndarray((size, _SLOTS), dtype=np.int64,
                                    buffer=self.shm.buf)
        else:
            self.shm = None
            self.cells = np.zeros((size, _SLOTS), dtype=np.int64)
        self.reset()

    @classmethod
    def attach(cls, name: str, size: int) -> "HealthBoard":
        board = cls.__new__(cls)
        board.size = size
        board.shm = _attach_shm(name)
        board.cells = np.ndarray((size, _SLOTS), dtype=np.int64,
                                 buffer=board.shm.buf)
        return board

    @property
    def name(self) -> str | None:
        return None if self.shm is None else self.shm.name

    def reset(self) -> None:
        self.cells[:] = 0
        self.cells[:, _FRAME] = -1
        self.cells[:, _CKPT] = -1
        now = time.perf_counter_ns()
        self.cells[:, _T_NS] = now
        self.cells[:, _EPOCH] = now

    def sample(self, rank: int, shift_s: float = 0.0) -> HealthSample:
        row = [int(v) for v in self.cells[rank]]
        state = row[_STATE]
        t_ns = row[_T_NS]
        return HealthSample(
            rank=rank, beat=row[_BEAT],
            state=STATE_NAMES[state] if 0 <= state < len(STATE_NAMES)
            else f"?{state}",
            frame=None if row[_FRAME] < 0 else row[_FRAME],
            mailbox_depth=row[_DEPTH], pool_outstanding=row[_POOL],
            ckpt_frame=None if row[_CKPT] < 0 else row[_CKPT],
            sent_bytes=row[_SENT_B], recv_bytes=row[_RECV_B],
            sent_msgs=row[_SENT_N], recv_msgs=row[_RECV_N],
            t_ns=t_ns,
            t_s=(t_ns - row[_EPOCH]) * 1e-9 + shift_s,
            age_s=(time.perf_counter_ns() - t_ns) * 1e-9)

    def close(self, unlink: bool = False) -> None:
        self.cells = None
        if self.shm is not None:
            self.shm.close()
            if unlink:
                try:
                    _unlink_shm(self.shm)
                except FileNotFoundError:
                    pass
            self.shm = None


class RankTelemetry:
    """One rank's handle on its board row and flight ring.

    Held by the Communicator on the hot path — every method is a few
    numpy element writes, no locks.  Exactly one writer per rank: the
    state methods below and the rank's trace writer, which fills
    ``ring`` / ``hdr`` and the event-derived cells of ``row``.
    """

    __slots__ = ("rank", "_board", "_flight", "row", "hdr", "ring",
                 "_mailbox", "_pool")

    def __init__(self, rank: int, board: HealthBoard,
                 flight: FlightRecorder):
        self.rank = rank
        self._board = board
        self._flight = flight
        #: this rank's board cells, ring header (cursor, epoch_ns) and
        #: ``(slots, 7)`` ring rows
        self.row = board.cells[rank]
        self.hdr = flight.hdr[rank]
        self.ring = flight.ring[rank]
        self._mailbox = None
        self._pool = None

    def start(self, epoch_ns: int) -> None:
        """Stamp the writer's clock epoch and enter the compute state
        (call once per attempt, after the launcher reset the board)."""
        row = self.row
        row[_EPOCH] = epoch_ns
        self.hdr[1] = epoch_ns
        row[_STATE] = S_COMPUTE
        row[_T_NS] = time.perf_counter_ns()
        row[_BEAT] += 1

    def bind(self, mailbox=None, pool=None) -> None:
        """Attach the objects whose occupancy each beat samples."""
        self._mailbox = mailbox
        self._pool = pool

    def enter(self, state: int) -> int:
        """Transition to *state*; returns the previous state code."""
        row = self.row
        prev = int(row[_STATE])
        if self._mailbox is not None:
            row[_DEPTH] = self._mailbox.pending
        if self._pool is not None:
            row[_POOL] = self._pool.outstanding
        row[_STATE] = state
        row[_T_NS] = time.perf_counter_ns()
        row[_BEAT] += 1
        return prev

    def finish(self, ok: bool) -> None:
        row = self.row
        row[_STATE] = S_DONE if ok else S_FAILED
        row[_T_NS] = time.perf_counter_ns()
        row[_BEAT] += 1

    def release(self) -> None:
        """Drop the numpy views so the backing segment can close."""
        self.row = self.hdr = self.ring = None
        self._board = self._flight = None


class Telemetry:
    """Board + flight recorder + clock shifts for one world.

    Created by whoever launches the world (CLI, chaos harness, tests);
    ``shared=True`` backs both structures with shared memory so process
    workers attach by name (:meth:`spec` / :meth:`attach`) and the data
    outlives any single worker.
    """

    def __init__(self, size: int, *, shared: bool = False,
                 slots: int = 64):
        self.size = size
        self.shared = shared
        self.board = HealthBoard(size, shared=shared)
        self.flight = FlightRecorder(size, slots, shared=shared)
        #: rank -> seconds to add to writer-epoch-relative times to land
        #: them on the launcher's epoch (0.0 for thread worlds)
        self.shifts: dict[int, float] = {}
        self._views: dict[int, RankTelemetry] = {}
        self._owner = True

    # -- lifecycle -------------------------------------------------------------

    def begin(self, epoch_ns: int | None = None) -> None:
        """Reset all rows for a fresh attempt (one Telemetry can span
        chaos-recovery restarts)."""
        self.board.reset()
        self.flight.reset()
        if epoch_ns is not None:
            self.board.cells[:, _EPOCH] = epoch_ns
            self.flight.hdr[:, 1] = epoch_ns
        self.shifts.clear()

    def close(self, unlink: bool | None = None) -> None:
        for view in self._views.values():
            view.release()
        self._views.clear()
        if unlink is None:
            unlink = self._owner
        self.board.close(unlink=unlink)
        self.flight.close(unlink=unlink)

    # -- writers ---------------------------------------------------------------

    def rank_view(self, rank: int) -> RankTelemetry:
        view = self._views.get(rank)
        if view is None:
            view = RankTelemetry(rank, self.board, self.flight)
            self._views[rank] = view
        return view

    # -- process-worker attach -------------------------------------------------

    def spec(self) -> dict:
        """Picklable attach recipe for process workers."""
        if not self.shared:
            raise ValueError("telemetry is not shared-memory backed; "
                             "create it with shared=True for the "
                             "process executor")
        return {"size": self.size, "slots": self.flight.slots,
                "board": self.board.name, "flight": self.flight.name}

    @classmethod
    def attach(cls, spec: dict, rank: int) -> RankTelemetry:
        """Worker-side: attach one rank's writer handle."""
        board = HealthBoard.attach(spec["board"], spec["size"])
        flight = FlightRecorder.attach(spec["flight"], spec["size"],
                                       spec["slots"])
        return RankTelemetry(rank, board, flight)

    @classmethod
    def attach_world(cls, spec: dict) -> "Telemetry":
        """Reader-side (``acfd top``): attach the whole world read-only.
        Closing an attached view never unlinks the segments."""
        tele = cls.__new__(cls)
        tele.size = spec["size"]
        tele.shared = True
        tele.board = HealthBoard.attach(spec["board"], spec["size"])
        tele.flight = FlightRecorder.attach(spec["flight"], spec["size"],
                                            spec["slots"])
        tele.shifts = {}
        tele._views = {}
        tele._owner = False
        return tele

    # -- readers ---------------------------------------------------------------

    def samples(self) -> list[HealthSample]:
        return [self.board.sample(r, self.shifts.get(r, 0.0))
                for r in range(self.size)]

    def tails(self) -> dict[int, list[TraceEvent]]:
        """Per-rank flight tails, timestamps rebased via the recorded
        epoch shifts onto the launcher's clock."""
        return {r: self.flight.tail(r, self.shifts.get(r, 0.0))
                for r in range(self.size)}

    def done(self) -> bool:
        states = self.board.cells[:, _STATE]
        return bool(np.all((states == S_DONE) | (states == S_FAILED)))


# -- live rendering ----------------------------------------------------------------


def health_alerts(samples: list[HealthSample], *, lag: int = 2,
                  stall_s: float = 1.0) -> list[str]:
    """Straggler / stall / failure alerts over one board snapshot."""
    alerts: list[str] = []
    frames = [s.frame for s in samples
              if s.frame is not None and s.state not in ("done", "failed")]
    frontier = max(frames) if frames else None
    for s in samples:
        if s.state == "failed":
            alerts.append(f"rank {s.rank}: FAILED at frame {s.frame}")
            continue
        if (frontier is not None and s.frame is not None
                and s.state not in ("done", "failed")
                and frontier - s.frame >= lag):
            alerts.append(f"rank {s.rank}: straggler — frame {s.frame} "
                          f"vs frontier {frontier}")
        if s.state == "blocked" and s.age_s >= stall_s:
            alerts.append(f"rank {s.rank}: blocked {s.age_s:.1f}s "
                          f"(mailbox depth {s.mailbox_depth})")
    return alerts


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}GB"


def render_health_table(samples: list[HealthSample],
                        alerts: list[str] | None = None) -> str:
    """The ``acfd top`` / ``--live`` per-rank table."""
    lines = [f"{'rank':>4} {'state':<10} {'frame':>6} {'ckpt':>5} "
             f"{'mbox':>5} {'pool':>5} {'sent':>9} {'recv':>9} "
             f"{'beat':>7} {'age':>7}"]
    for s in samples:
        lines.append(
            f"{s.rank:>4} {s.state:<10} "
            f"{'-' if s.frame is None else s.frame:>6} "
            f"{'-' if s.ckpt_frame is None else s.ckpt_frame:>5} "
            f"{s.mailbox_depth:>5} {s.pool_outstanding:>5} "
            f"{_fmt_bytes(s.sent_bytes):>9} "
            f"{_fmt_bytes(s.recv_bytes):>9} "
            f"{s.beat:>7} {s.age_s:>6.1f}s")
    if alerts is None:
        alerts = health_alerts(samples)
    for a in alerts:
        lines.append(f"  ! {a}")
    return "\n".join(lines)


class LiveRenderer(threading.Thread):
    """Background thread printing board snapshots during ``--live``."""

    def __init__(self, telemetry: Telemetry, interval: float = 0.5,
                 out=None):
        super().__init__(name="acfd-live", daemon=True)
        self.telemetry = telemetry
        self.interval = interval
        self.out = out
        # NB: not "_stop" — that name is Thread internals
        self._halt = threading.Event()

    def run(self) -> None:
        import sys
        out = self.out if self.out is not None else sys.stderr
        while not self._halt.wait(self.interval):
            samples = self.telemetry.samples()
            print(render_health_table(samples), file=out, flush=True)
            if self.telemetry.done():
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)


# -- discovery files (``acfd top`` attaches to a foreign run) ----------------------

_LIVE_PREFIX = "acfd-live-"


def publish_live(telemetry: Telemetry, path: str | None = None) -> str:
    """Advertise a shared telemetry world for ``acfd top``."""
    if path is None:
        path = os.path.join(tempfile.gettempdir(),
                            f"{_LIVE_PREFIX}{os.getpid()}.json")
    doc = {"spec": telemetry.spec(), "pid": os.getpid(),
           "started": time.time()}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)
    return path


def find_live() -> str | None:
    """Newest live-run discovery file on this host, if any."""
    tmpdir = tempfile.gettempdir()
    best, best_mtime = None, -1.0
    try:
        names = os.listdir(tmpdir)
    except OSError:
        return None
    for name in names:
        if not (name.startswith(_LIVE_PREFIX) and name.endswith(".json")):
            continue
        full = os.path.join(tmpdir, name)
        try:
            mtime = os.stat(full).st_mtime
        except OSError:
            continue
        if mtime > best_mtime:
            best, best_mtime = full, mtime
    return best


def unpublish_live(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# -- /metrics over HTTP ------------------------------------------------------------


def health_exposition(telemetry: Telemetry, prefix: str = "acfd") -> str:
    """Board snapshot as Prometheus gauge lines."""
    rows = []
    gauges = (("health_state", "run-state code (0=init 1=compute "
               "2=blocked 3=halo 4=collective 5=done 6=failed)"),
              ("health_frame", "last frame mark"),
              ("health_mailbox_depth", "queued messages at last beat"),
              ("health_pool_outstanding", "BufferPool buffers in flight"),
              ("health_ckpt_frame", "last checkpointed frame"),
              ("health_sent_bytes", "cumulative bytes sent"),
              ("health_recv_bytes", "cumulative bytes received"),
              ("health_beat", "heartbeat counter"))
    samples = telemetry.samples()
    values = {
        "health_state": lambda s: STATE_NAMES.index(s.state)
        if s.state in STATE_NAMES else -1,
        "health_frame": lambda s: -1 if s.frame is None else s.frame,
        "health_mailbox_depth": lambda s: s.mailbox_depth,
        "health_pool_outstanding": lambda s: s.pool_outstanding,
        "health_ckpt_frame": lambda s: -1 if s.ckpt_frame is None
        else s.ckpt_frame,
        "health_sent_bytes": lambda s: s.sent_bytes,
        "health_recv_bytes": lambda s: s.recv_bytes,
        "health_beat": lambda s: s.beat,
    }
    from repro.obs.metrics import prom_escape_help, prom_escape_label
    for metric, help_text in gauges:
        full = f"{prefix}_{metric}"
        rows.append(f"# HELP {full} {prom_escape_help(help_text)}")
        rows.append(f"# TYPE {full} gauge")
        for s in samples:
            rows.append(f'{full}{{rank="{prom_escape_label(s.rank)}"}} '
                        f'{values[metric](s)}')
    return "\n".join(rows) + "\n"


def serve_metrics(registry, port: int = 0, *, telemetry=None,
                  host: str = "127.0.0.1"):
    """Serve ``registry.expose_text()`` (plus live health gauges when a
    *telemetry* is given) on ``http://host:port/metrics`` from a daemon
    thread.  Returns the server; ``server_address[1]`` is the bound
    port (useful with ``port=0``), ``shutdown()`` stops it."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            text = registry.expose_text()
            if telemetry is not None:
                text += health_exposition(telemetry)
            body = text.encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # silence per-request stderr spam
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    thread = threading.Thread(target=server.serve_forever,
                              name="acfd-metrics", daemon=True)
    thread.start()
    return server
