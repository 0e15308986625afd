"""Command-line experiment runner.

A thin shell over the capacity module: every capacity it prints, in
`sweep`, `table` and `vertex-bound`, is a row of `capacity.sweep`.  This
layer parses configuration, formats output and sets exit codes.  One error
boundary, the `main` group, turns library errors into a one-line `Error:`
and exit code 1, never a traceback.  Floating-point output uses 10
significant digits so runs are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import capacity, verify
from .capacity import OptimizerConfig
from .correlations import EnumerationCapExceeded, box_to_csv, builtin_box
from .games import game_by_name

REFERENCE_TABLE = {
    # (eta_w=1, eta_l=0) type-II channels: resource -> the paper's value
    "chsh": {"L-exact": 1.44, "L-bound": 1.63},
    "magic-square": {"L-bound": 2.93, "Q-exact": 3.17},
    "mpp:3": {"L-bound": 2.72, "Q-exact": 3.00},
}


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def load_config(path: str) -> dict[str, str]:
    """Flat `key = value` config; '#' starts a comment.  A key outside
    _CONFIG_KEYS is an error that names its `file:line`."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.ClickException(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise click.ClickException(
                    f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(_CONFIG_KEYS)}"
                )
            out[key] = value
    return out


def parse_eta_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        grid = np.linspace(float(a), float(b), int(n))
    except ValueError as exc:
        raise click.ClickException(f"eta-grid must be a:b:n, got {spec!r}") from exc
    if int(n) < 1 or grid.min() < 0 or grid.max() > 1:
        raise click.ClickException(f"eta-grid {spec!r} must stay within [0, 1] with n >= 1")
    return grid


def _merged(config_path, **flags):
    values = load_config(config_path) if config_path else {}
    for key, val in flags.items():
        if val is not None:
            values[key.replace("_", "-")] = val
    return values


def _parsed(values, key: str, convert):
    """values[key] through int or float; a bad value names its key."""
    try:
        return convert(values[key])
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise click.ClickException(f"{key} must be {kind}, got {values[key]!r}") from None


# config key -> OptimizerConfig field and its type
_OPTIMIZER_KEYS = {
    "restarts": ("restarts", int),
    "tolerance": ("tolerance", float),
    "seed": ("seed", int),
}

_CONFIG_KEYS = ("game", "channel-type", "eta-grid", "resources", "out", *_OPTIMIZER_KEYS)


def _build_cfg(values) -> OptimizerConfig:
    return OptimizerConfig(**{
        name: _parsed(values, key, convert)
        for key, (name, convert) in _OPTIMIZER_KEYS.items()
        if key in values
    })


class _Cli(click.Group):
    """The one error boundary: a library error, or an OSError on a path
    given from outside, ends any command with its message as a
    ClickException, `Error: ...` and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OverflowError, MemoryError, OSError, EnumerationCapExceeded) as exc:
            raise click.ClickException(str(exc) or type(exc).__name__) from None


@click.group(cls=_Cli)
def main():
    """Sum-capacities of nonlocal-game-based multiple access channels."""


@main.command("sweep")
@click.option("--game", "game_name", default=None)
@click.option("--channel-type", type=click.Choice(["1", "2"]), default=None)
@click.option("--eta-grid", default=None, help="a:b:n linspace over eta")
@click.option("--resources", default=None, help="comma-separated resource list")
@click.option("--seed", default=None)
@click.option("--out", default=None, help="output CSV path (default stdout)")
@click.option("--config", "config_path", default=None, type=click.Path(exists=True))
@click.option("--vertex-file", default=None, type=click.Path(exists=True))
def cmd_sweep(game_name, channel_type, eta_grid, resources, seed, out, config_path, vertex_file):
    """Capacity sweep over an eta grid; emits CSV."""
    values = _merged(
        config_path,
        game=game_name,
        channel_type=channel_type,
        eta_grid=eta_grid,
        resources=resources,
        seed=seed,
        out=out,
    )
    for required in ("game", "channel-type", "eta-grid", "resources"):
        if required not in values:
            raise click.ClickException(f"missing required field: {required}")
    game = game_by_name(values["game"])
    ctype = _parsed(values, "channel-type", int)
    if ctype not in (1, 2):
        raise click.ClickException(f"channel-type must be 1 or 2, got {ctype}")
    etas = parse_eta_grid(values["eta-grid"])
    res_list = [r.strip() for r in values["resources"].split(",") if r.strip()]
    if vertex_file:
        res_list = [
            f"vertex-file:{vertex_file}" if r == "vertex-file" else r for r in res_list
        ]
    rows = capacity.sweep(game, ctype, etas, res_list, _build_cfg(values))
    lines = ["eta,resource,kind,value,diagnostic"]
    for r in rows:
        lines.append(f"{_fmt(r.eta)},{r.resource},{r.kind},{_fmt(r.value)},{r.diagnostic}")
    text = "\n".join(lines) + "\n"
    if values.get("out"):
        with open(values["out"], "w") as fh:
            fh.write(text)
        click.echo(f"wrote {len(rows)} rows to {values['out']}")
    else:
        click.echo(text, nl=False)


@main.command("verify")
@click.option("--seed", default=0, show_default=True)
@click.option("--count", default=1000, show_default=True, help="random triples per game")
def cmd_verify(seed, count):
    """Run the randomized identity suite and pseudo-telepathy checks."""
    checks = verify.run_verification(seed=int(seed), count=int(count))
    click.echo(verify.format_report(checks), nl=False)
    if any(not c.passed for c in checks):
        sys.exit(1)


@main.command("table")
@click.option("--seed", default=0, show_default=True)
def cmd_table(seed):
    """Recompute the (eta_w=1, eta_l=0) comparison table from sweep rows.

    Its L-exact row is the d-message capacity over deterministic encoders,
    not the product-input sum-capacity of the MAC."""
    cfg = OptimizerConfig(seed=int(seed))
    click.echo("game          resource  computed      reference  delta")
    for name, refs in REFERENCE_TABLE.items():
        for r in capacity.sweep(game_by_name(name), 2, [1.0], list(refs), cfg):
            ref = refs[r.resource]
            click.echo(
                f"{name:<13} {r.resource:<9} {_fmt(r.value):<13} {ref:<10.2f} {r.value - ref:+.4f}"
            )


@main.command("game-value")
@click.argument("game_name")
def cmd_game_value(game_name):
    """Brute-force classical game value and one optimal strategy."""
    game = game_by_name(game_name)
    omega, strategies = capacity.bruteforce_classical_game_value(game)
    click.echo(f"game {game.name}: omega*_L = {_fmt(omega)}")
    for k, strat in enumerate(strategies, 1):
        click.echo(f"  player {k}: answers {list(strat)} for questions 0..{game.d - 1}")


@main.command("box-export")
@click.argument("box_name")
@click.option("--out", required=True, type=click.Path())
def cmd_box_export(box_name, out):
    """Export a built-in box (pr, tsirelson, magic-square, mpp:<n>) as CSV."""
    box = builtin_box(box_name)
    box_to_csv(box, out)
    click.echo(f"wrote {box.name} box to {out}")


@main.command("vertex-bound")
@click.option("--game", "game_name", required=True)
@click.option("--channel-type", type=click.Choice(["1", "2"]), required=True)
@click.option("--eta", type=float, required=True)
@click.option("--vertex-file", required=True, type=click.Path(exists=True))
@click.option("--seed", default=0, show_default=True)
@click.option("--resource-label", default="file", show_default=True)
def cmd_vertex_bound(game_name, channel_type, eta, vertex_file, seed, resource_label):
    """Lower-bound the sum-capacity by the best E* rate over a box CSV: the
    one row of a `vertex-file:` sweep at eta, labelled resource-label."""
    cfg = OptimizerConfig(seed=int(seed))
    (row,) = capacity.sweep(
        game_by_name(game_name), int(channel_type), [eta], [f"vertex-file:{vertex_file}"], cfg
    )
    click.echo(f"{row.kind} ({resource_label}): {_fmt(row.value)} via {row.diagnostic}")


if __name__ == "__main__":
    main()
