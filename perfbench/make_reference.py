"""Record the reference output of every case in every workload's pool.

    PYTHONPATH=src python3 perfbench/make_reference.py

writes perfbench/reference.json, which the gate compares against. Run it
only to re-record on purpose: the file pins the outputs of the commit that
recorded it, and a later commit is checked against that. The identity
workload needs no entry: an exact residual must be 0 by itself.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    out = {"note": "outputs recorded per case; see README.md, 'Output gate'",
           "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed=0)
        if not wl.pooled:
            continue
        refs = {}
        t0 = perf_counter()
        try:
            for spec in wl.pool():
                refs[workloads.case_key(spec)] = wl.summary(wl.run(spec))
        finally:
            wl.cleanup()
        out["workloads"][name] = refs
        print(f"{name}: {len(refs)} cases in {perf_counter() - t0:.1f} s",
              file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
