"""Record the benchmark's baseline: run every workload once per seed
0-9 and write the medians, quartiles and spreads of its end-to-end
metrics (and of the raw, not speed-corrected times), the per-layer
metrics of a traced run at seed 0, and the environment, to baseline.json.

    python3 perfbench/baseline.py

The file is written afresh, so every entry comes from one commit on one
machine.  The spread of a metric is the distance between its first and
third quartiles as a share of its median; BENCHMARK.json bounds are
chosen from it.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from importlib import metadata
from pathlib import Path

from run import ROOT, THREAD_VARS, measure
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
SEEDS = list(range(10))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def environment(seconds: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
        "blas_threads": {var: 1 for var in THREAD_VARS},
        "run_seconds": seconds,
    }


def main() -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"environment": environment(seconds), "workloads": {}}
    for workload in WORKLOADS:
        runs, layers = [], None
        for seed in SEEDS:
            tally, values, traced = measure(workload, seed, seconds, trace=seed == SEEDS[0])
            if tally.failed:
                sys.exit(f"{workload} seed {seed}: outputs incorrect: {tally.problems[:5]}")
            runs.append(values)
            layers = layers or traced
        entry = {
            "seeds": SEEDS,
            "traced_seed": SEEDS[0],
            "end_to_end": {name: summary([r[name] for r in runs]) for name in runs[0]},
            "per_layer": layers,
        }
        record["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:<13} {name:<12} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}", flush=True)
    BASELINE.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
