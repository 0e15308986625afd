"""Command-line experiment runner.

A thin shell over the capacity module: every capacity it prints, in
`sweep` and `table`, is a row of `capacity.sweep`.  This
layer parses configuration, formats output and sets exit codes.  One error
boundary, `main`, turns library errors into a one-line `Error:` and exit
code 1, never a traceback; an argument the parser refuses exits with code 2.
Floating-point output uses 10 significant digits so runs are
byte-reproducible under a fixed seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

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


class CliError(Exception):
    """A refused command: one `Error: ...` line on stderr and exit code 1;
    for an argument the parser refuses, its usage line first and code 2."""

    def __init__(self, message: str, usage: str = "", exit_code: int = 1):
        super().__init__(message)
        self.usage, self.exit_code = usage, exit_code


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
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CliError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(_CONFIG_KEYS)}"
            )
        if key in out:
            raise CliError(f"{path}:{lineno}: key {key!r} is already set on line {first_line[key]}")
        out[key], first_line[key] = value, lineno
    return out


def parse_eta_grid(spec: str) -> np.ndarray:
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise CliError(f"eta-grid must be a:b:n, got {spec!r}") from exc
    # written so that a NaN endpoint fails too; linspace keeps both endpoints
    if not (n >= 1 and 0 <= a <= 1 and 0 <= b <= 1):
        raise CliError(f"eta-grid {spec!r} must stay within [0, 1] with n >= 1")
    return np.linspace(a, b, n)


def _parsed(values, key: str, convert):
    """values[key] through int or float; a bad value names its key."""
    try:
        return convert(values[key])
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise CliError(f"{key} must be {kind}, got {values[key]!r}") from None


# config key, which is also its OptimizerConfig field -> the field's type
_OPTIMIZER_KEYS = {"restarts": int, "tolerance": float, "seed": int}

_CONFIG_KEYS = ("game", "channel-type", "eta-grid", "resources", "out", *_OPTIMIZER_KEYS)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, also of each subcommand, that expands no option
    prefix, has `--help` but no `-h`, and raises a usage error as a CliError
    with exit code 2 where ArgumentParser would exit, so that `main` alone
    decides how a run ends."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def error(self, message):
        raise CliError(message, self.format_usage(), exit_code=2)


class _Once(argparse.Action):
    """Stores an option's value.  A subcommand's options default to
    SUPPRESS, absent until given, so an option already present was given
    twice: a usage error, never a silent last-wins."""

    def __call__(self, parser, namespace, values, option_string=None):
        if hasattr(namespace, self.dest):
            raise argparse.ArgumentError(self, "given twice")
        setattr(namespace, self.dest, values)


def _existing_path(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


PARSER = _Parser(
    prog="gamemac", description="Sum-capacities of nonlocal-game-based multiple access channels."
)
SUBCOMMANDS = PARSER.add_subparsers(metavar="COMMAND", required=True)
_INTEGER = {"type": int, "metavar": "INTEGER"}


def _subcommand(name: str, options: dict[str, dict]):
    """Registers the decorated function as subcommand `name` of PARSER,
    called with the options given on the command line: a flag
    ("--out") or a positional ("name") -> its add_argument keywords."""

    def register(run):
        sub = SUBCOMMANDS.add_parser(
            name, help=run.__doc__.split("\n", 1)[0], description=run.__doc__,
            argument_default=argparse.SUPPRESS,
        )
        sub.register("action", None, _Once)  # the action of every option without one
        for flag, kwargs in options.items():
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run)
        return run

    return register


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"Warning: {message}", file=sys.stderr)


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command line (sys.argv[1:] when args is None).

    The one error boundary: a library error, or an OSError on a path given
    from outside, ends any command as a CliError, and a library warning is
    printed to stderr as one `Warning: ...` line.  In standalone mode a
    CliError prints its usage line, if any, and `Error: ...` to stderr and
    exits with its code; otherwise it is raised.

    A command line that starts with a command's name is parsed by that
    command's own parser alone, as PARSER's subparsers action would
    parse it, and an argument it leaves over is PARSER's usage error;
    any other line (`--help`, an unknown command, none) goes to PARSER."""
    args = sys.argv[1:] if args is None else list(args)
    try:
        sub = SUBCOMMANDS.choices.get(args[0]) if args else None
        if sub is None:
            options = vars(PARSER.parse_args(args))
        else:
            namespace, extras = sub.parse_known_args(args[1:])
            if extras:
                PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
            options = vars(namespace)
        run = options.pop("run")
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            try:
                run(**options)
            except (
                ValueError, OverflowError, MemoryError, OSError, EnumerationCapExceeded
            ) as exc:
                raise CliError(str(exc) or type(exc).__name__) from None
    except CliError as exc:
        if not standalone_mode:
            raise
        sys.stderr.write(f"{exc.usage}Error: {exc}\n")
        sys.exit(exc.exit_code)


@_subcommand("sweep", {
    "--game": {},
    "--channel-type": {"choices": ("1", "2")},
    "--eta-grid": {"help": "a:b:n linspace over eta"},
    "--resources": {"help": "comma-separated, e.g. NS-exact,vertex-file:<path>"},
    "--seed": _INTEGER,
    "--out": {"help": "output CSV path (default stdout)"},
    "--config": {
        "type": _existing_path, "metavar": "PATH",
        "help": f"key = value file; keys {', '.join(_CONFIG_KEYS)}; flags override it",
    },
})
def cmd_sweep(config=None, **flags):
    """Capacity sweep over an eta grid; emits CSV."""
    values = {
        **(load_config(config) if config else {}),
        **{key.replace("_", "-"): val for key, val in flags.items()},
    }
    for required in ("game", "channel-type", "eta-grid", "resources"):
        if required not in values:
            raise CliError(f"missing required field: {required}")
    game = game_by_name(values["game"])
    ctype = _parsed(values, "channel-type", int)
    if ctype not in (1, 2):
        raise CliError(f"channel-type must be 1 or 2, got {ctype}")
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
        print(f"wrote {len(rows)} rows to {values['out']}")
    else:
        sys.stdout.write(text)


@_subcommand("verify", {
    "--seed": {**_INTEGER, "help": "default 0"},
    "--count": {**_INTEGER, "help": "random triples per game, default 1000"},
})
def cmd_verify(seed=0, count=1000):
    """Run the randomized identity suite and pseudo-telepathy checks."""
    checks = verify.run_verification(seed=seed, count=count)
    sys.stdout.write(verify.format_report(checks))
    if any(not c.passed for c in checks):
        sys.exit(1)


@_subcommand("table", {"--seed": {**_INTEGER, "help": "default 0"}})
def cmd_table(seed=0):
    """Recompute the (eta_w=1, eta_l=0) comparison table from sweep rows.

    Its L-exact row is the d-message capacity over deterministic encoders,
    not the product-input sum-capacity of the MAC."""
    cfg = OptimizerConfig(seed=seed)
    print("game          resource  computed      reference  delta")
    for name, refs in REFERENCE_TABLE.items():
        for r in capacity.sweep(game_by_name(name), 2, [1.0], list(refs), cfg):
            ref = refs[r.resource]
            print(f"{name:<13} {r.resource:<9} {_fmt(r.value):<13} {ref:<10.2f} {r.value - ref:+.4f}")


@_subcommand("game-value", {"name": {"metavar": "GAME"}})
def cmd_game_value(name):
    """Brute-force classical game value and one optimal strategy."""
    game = game_by_name(name)
    omega, strategies = capacity.bruteforce_classical_game_value(game)
    print(f"game {game.name}: omega*_L = {_fmt(omega)}")
    for k, strat in enumerate(strategies, 1):
        print(f"  player {k}: answers {list(strat)} for questions 0..{game.d - 1}")


@_subcommand("box-export", {"name": {"metavar": "BOX"}, "--out": {"required": True}})
def cmd_box_export(name, out):
    """Export a built-in box (pr, tsirelson, magic-square, mpp:<n>) as CSV."""
    box = builtin_box(name)
    box_to_csv(box, out)
    print(f"wrote {box.name} box to {out}")


if __name__ == "__main__":
    main()
