"""One workload in one fresh interpreter (spawned by run.py).

Thread-executor solves wander inside one interpreter (allocator state)
while fresh interpreters agree, so run.py starts several of these per
workload, one at a time, and pools their samples.  The single argument
is a JSON spec; the single line printed is the JSON result.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this interpreter plus its live rank workers."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for proc in multiprocessing.active_children():
        with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total


def main(spec: dict) -> dict:
    import solve as S
    from workloads import BY_NAME

    workload = BY_NAME[spec["workload"]]
    quick = spec["quick"]
    if workload.executor == "thread":
        # Rank threads share the GIL.  Left on two cores they either
        # convoy on it (30k voluntary context switches and 2.1 s per
        # sprayer solve) or not (1.1 s), as the scheduler happens to
        # place them, and flip between the two mid-run.  One core makes
        # the solve unimodal.  Process workloads keep every core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if spec["trace"]:
        import traced
        return traced.run(workload, spec)

    sources = S.sources_for(workload, quick)
    deck = workload.program.deck(spec["seed"])

    def op():
        return S.solve(workload, sources, deck)

    def check(done):
        return S.verify(done, spec["oracle"], spec["sync_pairs"])

    warm = S.measure(op, check, count=1)
    # time.time() is the one clock both processes share
    setup_s = time.time() - spec["spawned_at"]
    setup_slowdown = warm[0]["host_slowdown"]
    samples = S.measure(op, check, spec["seconds"],
                        count=3 if quick else None)
    return {"setup_s": setup_s, "setup_slowdown": setup_slowdown,
            "warmup": warm, "samples": samples,
            "peak_rss_kb": peak_rss_kb()}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
