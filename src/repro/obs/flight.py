"""Crash-surviving flight recorder: a bounded per-rank event ring.

The trace log (:mod:`repro.runtime.trace`) is complete but lives in the
worker's heap — a rank that dies by real ``SIGKILL`` takes its events
with it.  The flight recorder keeps only the *last N* records per rank,
but keeps them in a flat ``int64`` block that can be backed by
``multiprocessing.shared_memory``: the launcher (or ``acfd postmortem``)
reads a dead worker's final moments straight out of the segment, no
cooperation from the corpse required.

Layout (all ``int64``, single segment)::

    header[rank] = (cursor, epoch_ns)          # 2 words per rank
    ring[rank][slot] = (kind, peer, nbytes, tag, extra, t0_ns, t1_ns)

A ring row is a trace record less its rank, in the record encoding of
:mod:`repro.runtime.trace` (``kind`` as its
:data:`~repro.runtime.trace.KIND_CODES` code, ``None`` as -1), and it is
written by the same call that extends the log with the record — the
rank's :meth:`repro.runtime.trace.Trace.writer`; this module only
allocates the rings and reads them back, handing its rows to the one
record decoder, :func:`~repro.runtime.trace.decode`.  ``cursor`` counts
writes forever; ``cursor % slots`` is the write position, so readers
recover both order and drop count.  The stamps are the writer's
``perf_counter_ns`` — :meth:`FlightRecorder.tail` rebases them against
``epoch_ns`` plus the launcher-recorded epoch shift to land every rank
on one clock (the same handshake the trace merge uses) and returns the
same :class:`~repro.runtime.trace.TraceEvent` objects
``Trace.snapshot()`` does.  Each ring row has exactly one writer (its
rank), so no locks; torn reads of an in-flight slot are acceptable for a
diagnostic artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.runtime.trace import (CODE, KIND_CODES, KIND_NAMES, RANK,
                                 TraceEvent, decode)

__all__ = ["FlightRecorder", "KIND_CODES", "KIND_NAMES"]

_HDRW = 2   # header words per rank: cursor, epoch_ns
_EVW = 7    # event words: kind, peer, nbytes, tag, extra, t0_ns, t1_ns


def _untrack(shm) -> None:
    """Drop *shm* from the resource tracker.  Creator and attachers all
    talk to one tracker process whose cache is a *set*: any attacher's
    unregister would silently erase the creator's entry, so the only
    consistent scheme is to keep telemetry segments out of the tracker
    entirely and balance the unlink by hand (see :func:`_unlink_shm`)."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _attach_shm(name: str):
    from multiprocessing import shared_memory
    shm = shared_memory.SharedMemory(name=name)
    _untrack(shm)
    return shm


def _create_shm(nbytes: int):
    from multiprocessing import shared_memory
    shm = shared_memory.SharedMemory(create=True, size=nbytes)
    _untrack(shm)
    return shm


def _unlink_shm(shm) -> None:
    """Unlink an untracked segment without tracker noise —
    ``SharedMemory.unlink`` always unregisters, so re-register first."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    shm.unlink()


class FlightRecorder:
    """Fixed-size per-rank event rings, optionally in shared memory."""

    def __init__(self, size: int, slots: int = 64, *,
                 shared: bool = False):
        self.size = size
        self.slots = slots
        nbytes = 8 * size * (_HDRW + slots * _EVW)
        if shared:
            self.shm = _create_shm(nbytes)
            buf = self.shm.buf
        else:
            self.shm = None
            buf = np.zeros(nbytes // 8, dtype=np.int64)
        self.hdr = np.ndarray((size, _HDRW), dtype=np.int64, buffer=buf)
        self.ring = np.ndarray((size, slots, _EVW), dtype=np.int64,
                               buffer=buf, offset=8 * size * _HDRW)
        self.reset()

    @classmethod
    def attach(cls, name: str, size: int, slots: int) -> "FlightRecorder":
        """Attach to an existing shared recorder (no reset)."""
        rec = cls.__new__(cls)
        rec.size = size
        rec.slots = slots
        rec.shm = _attach_shm(name)
        buf = rec.shm.buf
        rec.hdr = np.ndarray((size, _HDRW), dtype=np.int64, buffer=buf)
        rec.ring = np.ndarray((size, slots, _EVW), dtype=np.int64,
                              buffer=buf, offset=8 * size * _HDRW)
        return rec

    @property
    def name(self) -> str | None:
        return None if self.shm is None else self.shm.name

    def reset(self) -> None:
        self.hdr[:] = 0
        self.ring[:] = 0
        now = time.perf_counter_ns()
        self.hdr[:, 1] = now

    def pushed(self, rank: int) -> int:
        """Total events ever written by *rank* (>= len(tail))."""
        return int(self.hdr[rank, 0])

    def epoch_ns(self, rank: int) -> int:
        return int(self.hdr[rank, 1])

    def tail(self, rank: int, shift_s: float = 0.0) -> list[TraceEvent]:
        """Decode *rank*'s ring oldest-first, rebasing timestamps to
        seconds since the ring's ``epoch_ns`` plus *shift_s*."""
        cur = int(self.hdr[rank, 0])
        epoch = int(self.hdr[rank, 1])
        rows = self.ring[rank, np.arange(max(0, cur - self.slots), cur)
                         % self.slots]
        table = np.insert(rows, RANK, rank, axis=1)  # rows as records
        kind = table[:, CODE]
        # an empty or torn slot holds no kind
        return decode(table[(kind > 0) & (kind < len(KIND_NAMES))], epoch,
                      shift_s)

    def close(self, unlink: bool = False) -> None:
        # drop array views first: SharedMemory.close() refuses while
        # exported buffers are alive
        self.hdr = None
        self.ring = None
        if self.shm is not None:
            self.shm.close()
            if unlink:
                try:
                    _unlink_shm(self.shm)
                except FileNotFoundError:
                    pass
            self.shm = None
