"""Command-line experiment runner.

A thin shell over the capacity module: every capacity it prints, in
`sweep` and `table`, is a row of `capacity.sweep`.  This
layer parses configuration, formats output and sets exit codes.  One error
boundary, the `main` group, turns library errors into a one-line `Error:`
and exit code 1, never a traceback.  Floating-point output uses 10
significant digits so runs are byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import sys
import warnings

import click
import numpy as np

from . import capacity, verify
from .capacity import OptimizerConfig
from .correlations import EnumerationCapExceeded, box_to_csv, builtin_box, utf8_lines
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
    """Flat `key = value` config, read as UTF-8; '#' starts a comment.  A key
    outside _CONFIG_KEYS, a key set twice or a line that is not UTF-8 is an
    error that names its `file:line`."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in utf8_lines(path):
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
        if key in out:
            raise click.ClickException(
                f"{path}:{lineno}: key {key!r} is already set on line {first_line[key]}"
            )
        out[key], first_line[key] = value, lineno
    return out


def parse_eta_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise click.ClickException(f"eta-grid must be a:b:n, got {spec!r}") from exc
    # written so that a NaN endpoint fails too; linspace keeps both endpoints
    if not (n >= 1 and 0 <= a <= 1 and 0 <= b <= 1):
        raise click.ClickException(f"eta-grid {spec!r} must stay within [0, 1] with n >= 1")
    return np.linspace(a, b, n)


def _parsed(values, key: str, convert):
    """values[key] through int or float; a bad value names its key."""
    try:
        return convert(values[key])
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise click.ClickException(f"{key} must be {kind}, got {values[key]!r}") from None


# config key, which is also its OptimizerConfig field -> the field's type
_OPTIMIZER_KEYS = {"restarts": int, "tolerance": float, "seed": int}

_CONFIG_KEYS = ("game", "channel-type", "eta-grid", "resources", "out", *_OPTIMIZER_KEYS)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    click.echo(f"Warning: {message}", err=True)


class _Cli(click.Group):
    """The one error boundary: a library error, or an OSError on a path
    given from outside, ends any command with its message as a
    ClickException, `Error: ...` and exit code 1.  A library warning is
    printed to stderr as one `Warning: ...` line."""

    def invoke(self, ctx):
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            try:
                return super().invoke(ctx)
            except (
                ValueError, OverflowError, MemoryError, OSError, EnumerationCapExceeded
            ) as exc:
                raise click.ClickException(str(exc) or type(exc).__name__) from None


@click.group(cls=_Cli)
def main():
    """Sum-capacities of nonlocal-game-based multiple access channels."""


@main.command("sweep")
@click.option("--game")
@click.option("--channel-type", type=click.Choice(["1", "2"]))
@click.option("--eta-grid", help="a:b:n linspace over eta")
@click.option("--resources", help="comma-separated, e.g. NS-exact,vertex-file:<path>")
@click.option("--seed", type=int)
@click.option("--out", help="output CSV path (default stdout)")
@click.option(
    "--config", "config_path", type=click.Path(exists=True),
    help=f"key = value file; keys {', '.join(_CONFIG_KEYS)}; flags override it",
)
def cmd_sweep(config_path, **flags):
    """Capacity sweep over an eta grid; emits CSV."""
    values = {
        **(load_config(config_path) if config_path else {}),
        **{key.replace("_", "-"): val for key, val in flags.items() if val is not None},
    }
    for required in ("game", "channel-type", "eta-grid", "resources"):
        if required not in values:
            raise click.ClickException(f"missing required field: {required}")
    game = game_by_name(values["game"])
    ctype = _parsed(values, "channel-type", int)
    if ctype not in (1, 2):
        raise click.ClickException(f"channel-type must be 1 or 2, got {ctype}")
    etas = parse_eta_grid(values["eta-grid"])
    res_list = [r.strip() for r in values["resources"].split(",") if r.strip()]
    cfg = OptimizerConfig(**{
        key: _parsed(values, key, convert)
        for key, convert in _OPTIMIZER_KEYS.items()
        if key in values
    })
    rows = capacity.sweep(game, ctype, etas, res_list, cfg)
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
    checks = verify.run_verification(seed=seed, count=count)
    click.echo(verify.format_report(checks), nl=False)
    if any(not c.passed for c in checks):
        sys.exit(1)


@main.command("table")
@click.option("--seed", default=0, show_default=True)
def cmd_table(seed):
    """Recompute the (eta_w=1, eta_l=0) comparison table from sweep rows.

    Its L-exact row is the d-message capacity over deterministic encoders,
    not the product-input sum-capacity of the MAC."""
    cfg = OptimizerConfig(seed=seed)
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


if __name__ == "__main__":
    main()
