"""Check that speed-corrected times still show, at full size, a slowdown
the program itself causes.

    python3 perfbench/sensitivity.py

It copies src/ to out/sensitivity/src and appends to the copy's
capacity.py a wrapper that makes maximize_over_pi evaluate its objective
once more on every fifth call: 20% more objective calls and the same
results.  It then runs chsh-sweep at seeds 0-4, run.MIN_REPS repetitions
per run, on the original and on the copy in turn, so each pair shares its CLI
seeds and its machine conditions.  It prints the median rise of wall_s
and of the raw wall time next to the rise predicted from a traced run of
the original: 0.2 times the objective's share of the traced wall time.
"""

from __future__ import annotations

import shutil
import statistics

import run

WORKLOAD = "chsh-sweep"
SEEDS = range(5)
EXTRA_SHARE = 0.2
INFLATE = """

_maximize_over_pi = maximize_over_pi


def maximize_over_pi(objective, *args, **kwargs):
    calls = [0]

    def inflated(pi):
        calls[0] += 1
        if calls[0] % 5 == 0:
            objective(pi)
        return objective(pi)

    return _maximize_over_pi(inflated, *args, **kwargs)
"""


def measure(src, seed: int, trace: bool = False) -> tuple[dict, dict | None]:
    run.SRC = src
    tally, values, layers = run.measure(WORKLOAD, seed, 0, trace)
    if tally.failed:
        raise SystemExit(f"outputs incorrect: {tally.problems[:5]}")
    return values, layers


def main() -> None:
    original = run.SRC
    copy = run.OUT / "sensitivity" / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(original, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "gamemac" / "capacity.py", "a") as fh:
        fh.write(INFLATE)

    _, layers = measure(original, 0, trace=True)
    objective_s = layers["capacity.objective.evals"] / layers["capacity.objective.evals_per_s"]
    predicted = EXTRA_SHARE * objective_s / layers["trace.wall_s"]

    rises = {"wall_s": [], "wall_raw_s": []}
    for seed in SEEDS:
        base, _ = measure(original, seed)
        more, _ = measure(copy, seed)
        for name, values in rises.items():
            values.append(more[name] / base[name] - 1)
        print(f"seed {seed}: wall_s {base['wall_s']:.3f} -> {more['wall_s']:.3f} s, "
              f"raw {base['wall_raw_s']:.3f} -> {more['wall_raw_s']:.3f} s", flush=True)
    print(f"predicted rise {predicted:.3f} (objective share {objective_s / layers['trace.wall_s']:.3f})")
    for name, values in rises.items():
        print(f"median rise of {name}: {statistics.median(values):.3f} "
              f"(range {min(values):.3f} to {max(values):.3f})")


if __name__ == "__main__":
    main()
