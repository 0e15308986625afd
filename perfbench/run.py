"""Benchmark for the gamemac CLI: time to solution, set-up time, peak
memory and throughput, with every output checked.

    python3 perfbench/run.py --workload chsh-sweep --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

Each repetition runs the workload's CLI commands in a fresh Python process
(child.py) against this checkout's src/.  Repetitions start until
--seconds have passed, at least MIN_REPS; more fresh processes only import
`gamemac.cli` until SETUP_SAMPLES set-up times are in hand.  wall_s sums,
over the workload's commands, the low median of each command's times over
the repetitions; the other metrics are medians over repetitions (over
set-up samples for setup_s).  Times are speed-corrected by child.py's
SpeedProbe (the raw wall time is printed as well).  With --trace 1
one more repetition runs traced and the per-layer metrics come from it.  The last line of stdout
is one JSON object: correct, attempted, failed (output checks) and
metrics.  The process exits 2 without a result when the program cannot
be found or started.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Tally, check_command
from workloads import WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
# Every command runs at least twice per run, so that one slow outlier
# (see workloads.py) never sets a metric.
MIN_REPS = 2
CHILD_TIMEOUT_S = 150
# One BLAS/OpenMP thread: the workloads are single-threaded Python, and a
# threaded matmul in pt-scale would otherwise take both shared cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

class ProgramUnavailable(RuntimeError):
    """The checkout's gamemac cannot be imported or run."""


def spawn(spec: dict) -> dict:
    """Run child.py with one spec; return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ProgramUnavailable(f"workload process exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ProgramUnavailable(f"workload process failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["gamemac"]).resolve().is_relative_to(SRC):
        raise ProgramUnavailable(f"gamemac imported from {result['gamemac']}, not {SRC}")
    return result


def check_rep(rep: dict, tally: Tally) -> int:
    """Check one repetition's outputs into tally; return operations done."""
    ops = 0
    for out in rep["outputs"]:
        if out["error"]:
            tally.expect(False, f"{' '.join(out['args'])}: {out['error']}")
        result = check_command(out["args"], out["exit_code"], out["stdout"])
        tally.add(result)
        ops += result.ops
    return ops


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict, dict | None]:
    """Run a workload for `seconds`; return its output checks, the medians
    of the end-to-end metrics plus `wall_raw_s` and `setup_raw_s` (not
    speed-corrected), and with `trace` the per-layer metrics."""
    spawn({"import_only": True})  # warm-up: compiles bytecode, not measured
    tally = Tally()
    reps = []
    begin = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - begin < seconds:
        rep = spawn({"commands": commands(workload, seed, len(reps)), "trace": False})
        rep["ops"] = check_rep(rep, tally)
        reps.append(rep)
    setups = list(reps)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn({"import_only": True}))

    def command_sum(key: str) -> float:
        """The workload's time: for each of its commands the low median
        of that command's times over the repetitions, summed."""
        per_command = zip(*([out[key] for out in rep["outputs"]] for rep in reps))
        return sum(statistics.median_low(times) for times in per_command)

    wall_s = command_sum("wall_s")
    values = {
        "wall_s": wall_s,
        "setup_s": statistics.median(rep["setup_s"] for rep in setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "ops_per_s": statistics.median(rep["ops"] for rep in reps) / wall_s,
        "wall_raw_s": command_sum("raw_s"),
        "setup_raw_s": statistics.median(rep["setup_raw_s"] for rep in setups),
    }
    layers = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = str(OUT / f"{workload}.spans.npz")
        traced = spawn({"commands": commands(workload, seed), "trace": True, "spans": spans})
        check_rep(traced, tally)
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_s"]
        # against the untraced repetition with the same CLI seeds
        layers["trace.overhead_s"] = traced["wall_s"] - reps[0]["wall_s"]
    print(f"{workload}: seed {seed}, {len(reps)} repetition(s), {len(setups)} set-up samples")
    return tally, values, layers


def report(values: dict, tally: Tally, units: dict[str, str]) -> None:
    for name, unit in units.items():
        print(f"  {name:<12} {values[name]:>12.4f} {unit}")
    print(f"  {'raw wall':<12} {values['wall_raw_s']:>12.4f} s (not speed-corrected)")
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':<12} {ratio:>12.4f} ratio ({tally.failed} of {tally.attempted} output checks failed)")
    for problem in tally.problems[:20]:
        print(f"    FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gamemac" / "cli.py").is_file():
        print(f"error: no gamemac sources under {SRC}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    metrics = {}
    try:
        for name in names:
            tally, values, layers = measure(name, args.seed, args.seconds, bool(args.trace))
            report(values, tally, units)
            total.add(tally)
            prefix = f"{name}." if args.workload == "all" else ""
            found, declared = (layers, spec["per_layer"]) if args.trace else (values, spec["end_to_end"])
            metrics.update({prefix + m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in declared})
    except ProgramUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
