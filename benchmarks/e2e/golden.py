"""Rewrite golden.json from this checkout.

    PYTHONPATH=src python3 benchmarks/e2e/golden.py

The benchmark compares parallel grids with the sequential grids of the
same checkout, which cannot see a change that breaks both alike.  The
digests written here pin the seed-0 sequential grids, and every
workload's (syncs_before, syncs_after) pairs (Table 1's numbers on
compile_table1), to the commit they were taken at.
Rewrite them only in a change whose purpose is to alter the numerics or
the synchronization counts, and say so there.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy

import solve as S
from workloads import WORKLOADS

if __name__ == "__main__":
    record = {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "grids": {w.program.key: S.oracle(w, 0, False)
                  for w in WORKLOADS},
        "sync_pairs": {
            w.name: S.sync_pairs(S.solve(w, S.sources_for(w, False),
                                         w.program.deck(0)).results)
            for w in WORKLOADS},
    }
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
