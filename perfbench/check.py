"""Output checks for the benchmark's CLI workloads.

Every reference is taken from outside the code under test.  The exact
pseudo-telepathy value log2(Δ) - f(Δ, η) is computed here from its closed
form, and the other references are values recorded when the benchmark was
defined (they did not vary over seeds 0-3 by more than 4.4e-16).  A sweep
CSV is parsed by (eta, resource) and only the `value` column is compared,
numerically: the `kind` and `diagnostic` columns and the byte layout are
free to change, so relabelling a result or renaming its argmax does not
fail a run, while a wrong number does.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

EXACT_TOL = 1e-9  # closed-form values
FLOOR_TOL = 1e-6  # recorded lower values may rise but not fall by more than this
BOUND_TOL = 0.01  # recorded upper bounds, the reference table's tolerance
ORDER_TOL = 1e-9  # L-exact <= L-bound, Q-lower <= NS-exact, value <= ceiling

# (game, eta, resource) -> value that a correct run may exceed but not undercut.
FLOORS = {
    ("chsh", 0.5, "L-exact"): 0.3281978483,
    ("chsh", 0.75, "L-exact"): 0.7218438624,
    ("chsh", 1.0, "L-exact"): 1.435280943,
    ("chsh", 0.5, "Q-lower"): 0.3328154563,
    ("chsh", 0.75, "Q-lower"): 0.7309693545,
    ("chsh", 1.0, "Q-lower"): 1.326497774,
}

# (game, eta) -> recorded L-bound value, matched within BOUND_TOL.
BOUNDS = {
    ("chsh", 0.5): 0.3465772588,
    ("chsh", 0.75): 0.7922153077,
    ("chsh", 1.0): 1.627638829,
    ("mpp:4", 1.0): 3.657345371,
    ("magic-square", 0.5): 0.7622023803,
    ("magic-square", 1.0): 2.928351264,
}

# `gamemac verify` draws its --count triples for each of these games and
# checks four propositions on them; it checks the pseudo-telepathy boxes
# of PT_BOXES and the constant branch noise of every game's channel.
VERIFY_GAMES = ("chsh", "magic-square", "mpp:3")
PT_BOXES = ("pr", "magic-square", "mpp:3")
PROPOSITIONS = (
    "I(X;Y) = I(M;Y) + I(X;Y|M)",
    "deterministic I(M;Y) = I(X;Y)",
    "I(X;Y) = H(Y) - f_l + w(f_l - f_w)",
    "rates <= log(delta) - f_w",
)
PT_CHECKS = ("wins every question tuple", "normalization", "no-signaling", "uniform outputs over support")
# The 27 checks a verify run makes, by name; each must appear exactly once.
VERIFY_CHECKS = frozenset(
    [f"{game}: {prop}" for game in VERIFY_GAMES for prop in PROPOSITIONS]
    + [f"{box}: {check}" for box in PT_BOXES for check in PT_CHECKS]
    + [f"{game}: constant branch noise" for game in VERIFY_GAMES]
)

_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")
_CHECK_LINE = re.compile(r"(PASS|FAIL)  (.+): residual \S+ \(tol \S+\)")


@dataclass
class Tally:
    """Checks attempted and failed, plus the operations a command completed."""

    attempted: int = 0
    failed: int = 0
    ops: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ops += other.ops
        self.problems.extend(other.problems)


def message_count(game: str) -> int:
    """Δ = d^n, the number of joint messages of a built-in game."""
    if game == "chsh":
        return 2**2
    if game == "magic-square":
        return 3**2
    if game.startswith("mpp:"):
        return 2 ** int(game.split(":", 1)[1])
    raise ValueError(f"no alphabet known for game {game!r}")


def noise_f(delta: int, eta: float) -> float:
    """Output entropy in bits of a delta-ary depolarizing branch."""

    def h(p: float) -> float:
        return -p * math.log2(p) if p > 0 else 0.0

    return h((1 + (delta - 1) * eta) / delta) + (delta - 1) * h((1 - eta) / delta)


def eta_grid(spec: str) -> list[float]:
    """The a:b:n linspace the CLI sweeps, computed independently."""
    a, b, n = spec.split(":")
    lo, hi, count = float(a), float(b), int(n)
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def check_sweep(args: list[str], exit_code: int, stdout: str) -> Tally:
    """Check a type-II `sweep` CSV against closed forms, references and ordering."""
    opts = dict(zip(args[1::2], args[2::2]))
    if opts["--channel-type"] != "2":
        raise ValueError("references exist only for type-II sweeps")
    game = opts["--game"]
    resources = opts["--resources"].split(",")
    etas = eta_grid(opts["--eta-grid"])
    delta = message_count(game)
    tally = Tally()
    tally.expect(exit_code == 0, f"sweep exited with {exit_code}")

    values: dict[tuple[int, str], float] = {}
    for lineno, row in enumerate(csv.DictReader(io.StringIO(stdout)), 2):
        try:
            eta, res, value = float(row["eta"]), row["resource"], float(row["value"])
        except (KeyError, TypeError, ValueError):
            tally.expect(False, f"line {lineno}: malformed row {row}")
            continue
        slot = next((j for j, e in enumerate(etas) if abs(e - eta) <= 1e-9), None)
        if slot is None or res not in resources or (slot, res) in values:
            tally.expect(False, f"line {lineno}: unexpected or repeated row ({eta}, {res})")
            continue
        values[slot, res] = value
    tally.ops = len(values)

    for slot, eta in enumerate(etas):
        key_eta = round(eta, 9)
        ceiling = math.log2(delta) - noise_f(delta, eta)
        for res in resources:
            where = f"{game} eta={key_eta:g} {res}"
            value = values.get((slot, res))
            if value is None:
                tally.expect(False, f"{where}: row missing")
                continue
            tally.expect(value <= ceiling + ORDER_TOL, f"{where}: {value} above log2 Δ - f_w = {ceiling}")
            if res in ("NS-exact", "Q-exact"):
                ok = abs(value - ceiling) <= EXACT_TOL
                tally.expect(ok, f"{where}: {value} != log2 Δ - f_w = {ceiling}")
            elif res in ("L-exact", "Q-lower"):
                floor = FLOORS.get((game, key_eta, res))
                ok = floor is not None and value >= floor - FLOOR_TOL
                tally.expect(ok, f"{where}: {value} below recorded {floor}")
            elif res == "L-bound":
                ref = BOUNDS.get((game, key_eta))
                ok = ref is not None and abs(value - ref) <= BOUND_TOL
                tally.expect(ok, f"{where}: {value} not within {BOUND_TOL} of recorded {ref}")
            else:
                tally.expect(False, f"{where}: no reference for this resource")
        for low, high in (("L-exact", "L-bound"), ("Q-lower", "NS-exact")):
            if (slot, low) in values and (slot, high) in values:
                ok = values[slot, low] <= values[slot, high] + ORDER_TOL
                tally.expect(ok, f"{game} eta={key_eta:g}: {low} above {high}")
    return tally


def check_verify(args: list[str], exit_code: int, stdout: str) -> Tally:
    """Check a `verify` report: exit code 0, every recorded check present
    once by name, every check line PASS, and a summary counting them all.
    The triples of a game count as operations only when all four of its
    proposition checks are present."""
    opts = dict(zip(args[1::2], args[2::2]))
    lines = stdout.splitlines()
    checks = lines[:-1]
    tally = Tally()
    tally.expect(exit_code == 0, f"verify exited with {exit_code}")
    names = []
    for line in checks:
        match = _CHECK_LINE.fullmatch(line)
        tally.expect(match is not None and match[1] == "PASS", f"verify: {line}")
        if match is not None:
            names.append(match[2])
    for name in sorted(VERIFY_CHECKS):
        tally.expect(names.count(name) == 1, f"verify: check {name!r} made {names.count(name)} times")
    summary = _SUMMARY.fullmatch(lines[-1]) if lines else None
    ok = summary is not None and summary[1] == summary[2] == str(len(checks))
    tally.expect(ok, f"verify summary {lines[-1:]} does not report {len(checks)} passes")
    done = [g for g in VERIFY_GAMES if all(f"{g}: {prop}" in names for prop in PROPOSITIONS)]
    tally.ops = int(opts["--count"]) * len(done)
    return tally


def check_command(args: list[str], exit_code: int, stdout: str) -> Tally:
    if args[0] == "sweep":
        return check_sweep(args, exit_code, stdout)
    if args[0] == "verify":
        return check_verify(args, exit_code, stdout)
    raise ValueError(f"no check for command {args[0]!r}")
