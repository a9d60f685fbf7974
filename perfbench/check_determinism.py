"""The benchmark's own test: the deterministic counters repeat exactly.

Runs the traced benchmark twice per workload with the same seed and fails
(exit 1) unless both runs are correct and report identical counters:

    python3 perfbench/check_determinism.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-p2", "exact-sweep", "pipelines")
COUNTERS = ("exact.graph_calls", "exact.keys", "bounds.emitted", "bounds.validations", "splits.items")
SEED = 7
SECONDS = 1  # one round: the counters come from the first traced pass


def traced_result(workload):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=os.path.dirname(HERE)).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ok = True
    for wl in WORKLOADS:
        a, b = traced_result(wl), traced_result(wl)
        ca = {k: a["metrics"][k]["value"] for k in COUNTERS}
        cb = {k: b["metrics"][k]["value"] for k in COUNTERS}
        same = ca == cb and a["correct"] and b["correct"]
        ok &= same
        print(f"{wl:12s} {'ok' if same else 'FAIL'} {ca}" + ("" if same else f" vs {cb}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
