"""The benchmark's workloads: `gamemac` CLI argument lists.

Each workload fixes its input size; the seed only reaches the CLI's own
`--seed` flag.  The optimizer's restarts, and with them its work, depend
on that seed by up to 25% (CHSH L-exact took 174k-226k objective calls
over seven seeds), so the sweeps run one eta per command, each with its
own seed: a repetition then averages over three seeds instead of one,
with the rows and the work of the single multi-eta command.  A few seeds
take far longer (one chsh-sweep command in fifteen made 84k-108k objective
calls instead of about 60k); run.py's per-command low median over at least
two repetitions keeps them from setting wall_s.  README.md
records why each workload exists and which layer metrics should move it.
"""

from __future__ import annotations


def _sweep(game: str, etas: str, resources: str) -> list[str]:
    return ["sweep", "--game", game, "--channel-type", "2", "--eta-grid", etas,
            "--resources", resources]


WORKLOADS: dict[str, list[list[str]]] = {
    "chsh-sweep": [
        _sweep("chsh", f"{eta}:{eta}:1", "L-exact,Q-lower,NS-exact,L-bound")
        for eta in ("0.5", "0.75", "1")
    ],
    "bound-grid": [_sweep("mpp:4", "1:1:1", "L-bound")] + [
        _sweep("magic-square", f"{eta}:{eta}:1", "L-bound") for eta in ("0.5", "1")
    ],
    "verify-suite": [
        ["verify", "--count", "300"],
    ],
    "pt-scale": [
        _sweep("mpp:8", "0.5:1:3", "NS-exact,Q-exact"),
    ],
}


def commands(workload: str, seed: int, rep: int = 0) -> list[list[str]]:
    """The CLI calls of repetition `rep` of a run with `seed`: call i gets
    `--seed 1000*seed + 10*rep + i`, so no two calls of a run share one."""
    base = 1000 * seed + 10 * rep
    return [args + ["--seed", str(base + i)] for i, args in enumerate(WORKLOADS[workload])]
