"""Hand-placed trace events for the timeline tests."""

from repro.runtime.trace import Trace


def synthetic_trace() -> Trace:
    """A trace whose epoch is 0, so stamps given in seconds decode to
    themselves."""
    return Trace(epoch_ns=0)


def put(trace: Trace, rank, kind, t0, t1, tag=None, peer=None, nbytes=0,
        extra=0) -> None:
    """Write one event spanning [t0, t1) seconds through *rank*'s writer."""
    trace.writer(rank)(kind, peer, nbytes, tag, extra,
                       round(t0 * 1e9), round(t1 * 1e9))
