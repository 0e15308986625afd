"""Correlation boxes for (n, d, D) Bell scenarios and the E* encoder lift.

A box stores the dense table P(a_1..a_n | q_1..q_n) with flattened
big-endian tuple indices (see games.pack_tuple).  An encoder stores
P(x | m) in the (n, d, d*D) encoding scenario, with per-player channel
symbols q_k*D + a_k.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .games import (
    NonlocalGame, ReadOnly, chsh_game, frozen_array, game_by_name, input_indices, local_map_indices,
    local_maps, magic_square_game, mpp_game, pack_tuple,
)

NORMALIZATION_TOL = 1e-12
NO_SIGNALING_TOL = 1e-10

DEFAULT_ENUMERATION_CAP = 10**7


class EnumerationCapExceeded(RuntimeError):
    """Raised instead of silently truncating a vertex enumeration."""


class CorrelationBox(ReadOnly):
    """P(a | q) of an (n, d, D) scenario: table has shape (d^n, D^n)."""

    def __init__(self, n: int, d: int, D: int, table: np.ndarray, name: str = "box"):
        expected = (d**n, D**n)
        table = frozen_array(table, float)
        if table.shape != expected:
            raise ValueError(f"box table shape {table.shape}, expected {expected}")
        vars(self).update(n=n, d=d, D=D, table=table, name=name)

    def normalization_error(self) -> float:
        """Largest negative entry or row-sum deviation from 1; NaN if the
        table holds a NaN."""
        rows = np.abs(self.table.sum(axis=1) - 1.0).max()
        return float(np.max([0.0, -self.table.min(), rows]))

    def no_signaling_error(self) -> float:
        """Max deviation of any party's answer marginal across other questions.

        For each party k, the marginal P(a_k | q) (see answer_marginals)
        must not depend on the other parties' questions.  NaN if the table
        holds a NaN.
        """
        marg = answer_marginals(self).reshape((self.d,) * self.n + (self.n, self.D))
        worst = 0.0
        for k in range(self.n):
            by_q_k = np.moveaxis(marg[..., k, :], k, 0).reshape(self.d, -1, self.D)
            worst = np.maximum(worst, (by_q_k.max(axis=1) - by_q_k.min(axis=1)).max())
        return float(worst)


class Encoder(ReadOnly):
    """P(x | m) stored by its support: message m puts probability
    probs[m, j] on channel input cols[m, j]; repeated inputs add.
    cols (d^n, k) holds channel-input indices, probs (d^n, k) the
    probabilities P(x = cols[m, j] | m)."""

    def __init__(self, n: int, d: int, D: int, cols: np.ndarray, probs: np.ndarray, name: str = "encoder"):
        cols, probs = frozen_array(cols, np.intp), frozen_array(probs, float)
        if cols.ndim != 2 or cols.shape[0] != d**n or probs.shape != cols.shape:
            raise ValueError(
                f"encoder support shapes {cols.shape} and {probs.shape}, "
                f"expected two equal (d^n, k) = ({d**n}, k)"
            )
        vars(self).update(n=n, d=d, D=D, cols=cols, probs=probs, name=name)
        check_encoder_support(cols, probs, self.inputs)

    @property
    def inputs(self) -> int:
        """Channel input alphabet size (d*D)^n."""
        return (self.d * self.D) ** self.n

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Dense P(x | m), shape (d^n, (d*D)^n), read-only; built on first use.
        Repeated inputs of a row are added in support order."""
        rows = self.cols.shape[0]
        flat = np.arange(rows)[:, None] * self.inputs + self.cols
        table = np.bincount(flat.ravel(), self.probs.ravel(), minlength=rows * self.inputs)
        table = table.reshape(rows, self.inputs)
        table.setflags(write=False)
        return table


def check_encoder_support(cols: np.ndarray, probs: np.ndarray, inputs: int) -> None:
    """Raise ValueError unless every input in cols lies in [0, inputs) and
    each row of probs (its last axis) is stochastic within
    NORMALIZATION_TOL.  Shapes (..., k); Encoder's support is (d^n, k)."""
    if cols.size and (cols.min() < 0 or cols.max() >= inputs):
        raise ValueError(f"encoder inputs must lie in [0, {inputs})")
    err = np.abs(probs.sum(axis=-1) - 1.0).max()
    if not (err <= NORMALIZATION_TOL and probs.min() >= -NORMALIZATION_TOL):
        raise ValueError(f"encoder rows are not stochastic (err {err})")


class ValidationReport:
    def __init__(self, normalization_error: float, no_signaling_error: float):
        self.normalization_error = normalization_error
        self.no_signaling_error = no_signaling_error

    def ok(self) -> bool:
        return (
            self.normalization_error <= NORMALIZATION_TOL
            and self.no_signaling_error <= NO_SIGNALING_TOL
        )


def validate_box(box: CorrelationBox) -> ValidationReport:
    """Report max violation magnitudes; never mutates the box."""
    return ValidationReport(box.normalization_error(), box.no_signaling_error())


def deterministic_box(n: int, d: int, D: int, strategies) -> CorrelationBox:
    """Box from per-party answer functions a_k = g_k(q_k), given as tuples."""
    table = np.zeros((d**n, D**n))
    table[np.arange(d**n), local_map_indices(strategies, D)] = 1.0
    return CorrelationBox(n, d, D, table, name="deterministic")


def local_deterministic_power(n: int, d: int, D: int) -> tuple[int, int]:
    """(base, exponent) of the (D^d)^n local deterministic boxes, so a cap
    check (see `refuse_over_cap`) never forms the count."""
    return D**d, n


def local_deterministic_count(n: int, d: int, D: int) -> int:
    base, exponent = local_deterministic_power(n, d, D)
    return base**exponent


def _power_text(base: int, exponent: int) -> str:
    """base**exponent (base >= 2) in full up to 15 digits, past that its
    order of magnitude, as "about 6.9e69" (two leading digits, truncated),
    since float(count) overflows past 1e308 and str(count) is refused past
    4,300 digits.  A count past 15 digits is never formed: exponent *
    log10(base), in decimal arithmetic 20 digits past its point, gives its
    digits.  The two-digit lead is rounded to 12 places before it is
    truncated, so an exact one, as the 16 of 16 * 10**14, is not read as
    15.99..., and kept under 100: one that rounds to 100 is 99.99..., as
    the logarithm of a power of 10 is exact."""
    from decimal import Context  # only an over-cap error line needs it

    ctx = Context(prec=len(str(exponent * base.bit_length())) + 20)
    log10 = ctx.multiply(exponent, ctx.log10(base))
    if log10 < 15:
        return str(base**exponent)
    e = int(log10)
    lead = min(int(round(ctx.power(10, ctx.subtract(log10, e - 1)), 12)), 99)
    return f"about {lead / 10:.1f}e{e}"


def refuse_over_cap(
    base: int, exponent: int, subject: str, items: str, advice: str = "", cap: int | None = None
) -> None:
    """Refuse, never truncate, an enumeration of base**exponent items
    (base, exponent >= 0): raise EnumerationCapExceeded when that count is
    over cap, by default DEFAULT_ENUMERATION_CAP.  The count is never
    formed, so a huge exponent is refused at once: a base of 2 or more is
    over any cap after cap.bit_length() factors, and the error line (see
    `_power_text`) reads the count from its exponent."""
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if base ** min(exponent, cap.bit_length()) > cap:
        raise EnumerationCapExceeded(
            f"{subject} has {_power_text(base, exponent)} {items}, over the cap of {cap}{advice}"
        )


def local_deterministic_boxes(n: int, d: int, D: int):
    """Yield all (D^d)^n local deterministic boxes, or refuse loudly."""
    refuse_over_cap(
        *local_deterministic_power(n, d, D), f"({n},{d},{D}) scenario", "local deterministic boxes"
    )
    for strategies in local_maps(n, d, D):
        yield deterministic_box(n, d, D, strategies)


def uniform_over_wins(game: NonlocalGame, name: str) -> CorrelationBox:
    """Box answering each question uniformly over the game's winning
    answers: the win table divided by its row sums."""
    win = game.win_table()
    table = win / win.sum(axis=1, keepdims=True)
    table.setflags(write=False)  # owned and frozen, so the box keeps it uncopied
    return CorrelationBox(game.n, game.d, game.D, table, name=name)


def _builtin_game(game: NonlocalGame) -> NonlocalGame:
    """game_by_name(game.name), or game itself when it has that game's
    dimensions and predicate function; ValueError for a name it refuses."""
    try:
        ref = game_by_name(game.name)
    except ValueError:
        raise ValueError(f"no built-in pseudo-telepathy box for {game.name}") from None
    return game if (ref.n, ref.d, ref.D, ref._wins) == (game.n, game.d, game.D, game._wins) else ref


def pseudo_telepathy_box(game: NonlocalGame) -> CorrelationBox:
    """The built-in perfect box for a game, the one rule of pr_box,
    magic_square_box and mpp_box: uniform over the winning answers of the
    built-in game of its name (`_builtin_game`, which lends game's own win
    table when it can), named pr for CHSH and after the game otherwise."""
    ref = _builtin_game(game)
    return uniform_over_wins(ref, "pr" if ref.name == "chsh" else ref.name)


def _box_resource(name: str) -> str:
    """The resource a built-in box needs, by its name: NS for pr, Q for the
    quantum boxes, whose strategies tests/test_correlations.py checks
    (test_{tsirelson,magic_square,mpp}_box_matches_*)."""
    return "Q" if name in ("tsirelson", "magic-square") or name.startswith("mpp:") else "NS"


def pr_box() -> CorrelationBox:
    """The extremal no-signaling (2,2,2) box: uniform over the answers that
    win CHSH, a1 XOR a2 = q1 AND q2."""
    return pseudo_telepathy_box(chsh_game())


def tsirelson_box() -> CorrelationBox:
    """Quantum (2,2,2) box at the maximal CHSH win probability cos²(π/8).

    P(a | q) = (1 + (-1)^(a1 XOR a2 XOR q1 q2)/√2)/4 (Tsirelson 1980), that
    is (1 + (2W - 1)/√2)/4 with W the CHSH win table: the statistics of
    σ_z / σ_x against (σ_z + σ_x)/√2 / (σ_z - σ_x)/√2 on the Bell state
    (|00> + |11>)/√2, eigenvalue +1 read as answer 0.
    """
    win = chsh_game().win_table()
    return CorrelationBox(2, 2, 2, (1 + (2 * win - 1) / np.sqrt(2)) / 4, name="tsirelson")


def magic_square_box() -> CorrelationBox:
    """Quantum (2,3,8) box winning the magic square game with probability 1:
    uniform over the 8 winning answer pairs of each question, the
    statistics of the Mermin-Peres strategy on two shared Bell pairs
    (Brassard, Broadbent & Tapp, "Quantum pseudo-telepathy", 2005)."""
    return pseudo_telepathy_box(magic_square_game())


def mpp_box(n: int) -> CorrelationBox:
    """Quantum (n,2,2) box winning the MPP game with certainty: uniform over
    the winning answers of each question, the statistics of the GHZ
    strategy (each player phases |1> by e^{iπ q_k/2}, applies Hadamard and
    measures; Brassard, Broadbent & Tapp 2005).  mpp_game refuses n < 2."""
    return pseudo_telepathy_box(mpp_game(n))


# Table entries of the largest box `builtin_box` builds: mpp:10's 2^20.
# Exporting it took 5-8 s and 160 MB peak RSS and wrote a 41 MB file (2-core
# Intel Xeon), and each step of n takes 4x.
_BUILTIN_BOX_CAP = 2**20


def builtin_box(name: str) -> CorrelationBox:
    """Built-in box pr, tsirelson, magic-square or mpp:<n>; ValueError
    for any other name.  A table of over _BUILTIN_BOX_CAP entries is
    refused (EnumerationCapExceeded) before anything is built."""
    builders = {"pr": pr_box, "tsirelson": tsirelson_box, "magic-square": magic_square_box}
    if name in builders:
        return builders[name]()
    if name.startswith("mpp:"):
        game = game_by_name(name)
        refuse_over_cap(game.d * game.D, game.n, f"{name} box", "table entries", cap=_BUILTIN_BOX_CAP)
        return mpp_box(game.n)
    raise ValueError(f"unknown box {name!r}")


def e_star(box: CorrelationBox) -> Encoder:
    """Lift a box into an encoder: play the game with the message as question.

    P(x | m) = box(a | m) when the question part of x echoes m, else 0;
    the support of row m is the inputs (m, a) for every answer tuple a.
    """
    n, d, D = box.n, box.d, box.D
    return Encoder(n, d, D, input_indices(n, d, D), box.table, name=f"e*({box.name})")


def box_win_probabilities(box: CorrelationBox, game: NonlocalGame) -> np.ndarray:
    """Per-question win probability of the box's answers: each table row
    summed over its winning answers, with no masked copy of the table."""
    if (box.n, box.d, box.D) != (game.n, game.d, game.D):
        raise ValueError("box and game scenarios differ")
    return np.add.reduce(box.table, axis=1, where=game.win_table())


def answer_marginals(box: CorrelationBox) -> np.ndarray:
    """P(a_k = v | q) of every question tuple q, party k and answer v, shape
    (d^n, n, D): the table times the indicator of each answer tuple's
    digits, one matrix product for every party."""
    digits = np.indices((box.D,) * box.n).reshape(box.n, -1, 1)  # digit k of answer tuple a
    indicator = (digits == np.arange(box.D)).transpose(1, 0, 2).reshape(box.D**box.n, -1)
    return (box.table @ indicator.astype(float)).reshape(-1, box.n, box.D)


def support_marginal_uniformity_error(box: CorrelationBox) -> float:
    """Max deviation of each party's answer marginal from uniform-over-support.

    The support is taken per (party, question tuple); entries below 1e-12
    are treated as impossible answers.
    """
    rows = answer_marginals(box).reshape(-1, box.D)
    support = rows > 1e-12
    target = 1.0 / np.maximum(support.sum(axis=1, keepdims=True), 1)
    return float(np.abs(rows - target)[support].max(initial=0.0))


def box_to_csv(box: CorrelationBox, path) -> None:
    """Write the box as CSV: header `n,d,D`, then a row `q_1..q_n,a_1..a_n,p`
    for every nonzero entry, in table order.  The digits are the entry's
    index into the table reshaped to one axis per question and answer digit."""
    t = box.table.reshape((box.d,) * box.n + (box.D,) * box.n)
    with open(path, "w") as fh:
        fh.write(f"{box.n},{box.d},{box.D}\n")
        for digits in zip(*np.nonzero(t)):
            fh.write(",".join(map(str, digits)) + f",{t[digits]:.17g}\n")


def utf8_lines(path):
    """Yield (line number, line) of a UTF-8 text file, read with universal
    newlines; a line that is not UTF-8 is a ValueError at its `file:line`."""
    # undecodable bytes become lone surrogates, which no valid line encodes
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            yield lineno, line


def boxes_from_csv(path) -> list[CorrelationBox]:
    """Read one or more boxes; each block starts with its own `n,d,D` header,
    with n >= 2.

    Question digits must lie in [0, d), answer digits in [0, D),
    probabilities must be finite, and no (q, a) pair may repeat within a
    block; a violation, or a line that is not UTF-8, is reported with its
    `file:line`.  Every question row of a block must be a distribution
    within NORMALIZATION_TOL; a block that is not is reported with the
    `file:line` of its header.
    """
    boxes: list[CorrelationBox] = []
    current: tuple[int, int, int] | None = None
    table: np.ndarray | None = None
    seen: set[tuple[int, int]] = set()
    header = ""

    def flush():
        nonlocal table
        if current is not None and table is not None:
            n, d, D = current
            box = CorrelationBox(n, d, D, table, name="csv")
            err = box.normalization_error()
            if not err <= NORMALIZATION_TOL:
                raise ValueError(f"{header}: box rows are not distributions (error {err:.3g})")
            boxes.append(box)
        table = None

    for lineno, raw in utf8_lines(path):
        line = raw.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        cells = line.split(",")
        is_header = len(cells) == 3
        try:
            digits = tuple(int(c) for c in (cells if is_header else cells[:-1]))
            p = None if is_header else float(cells[-1])
        except ValueError:
            raise ValueError(f"{where}: non-numeric cell in {line!r}") from None
        if not (is_header or math.isfinite(p)):
            raise ValueError(f"{where}: probability {cells[-1].strip()!r} is not finite")
        if is_header:
            flush()
            current, header = digits, where
            n, d, D = current
            if min(current) < 1:
                raise ValueError(f"{where}: n, d, D must be positive, got {current}")
            if n < 2:
                raise ValueError(f"{where}: a box needs n >= 2 parties, got n={n}")
            table = np.zeros((d**n, D**n))
            seen = set()
            continue
        if current is None:
            raise ValueError(f"{where}: data row before n,d,D header")
        n, d, D = current
        if len(cells) != 2 * n + 1:
            raise ValueError(f"{where}: expected {2 * n + 1} cells for n={n}, got {len(cells)}")
        q, a = digits[:n], digits[n:]
        if not all(0 <= x < d for x in q):
            raise ValueError(f"{where}: question {q} has a digit outside [0, {d})")
        if not all(0 <= x < D for x in a):
            raise ValueError(f"{where}: answer {a} has a digit outside [0, {D})")
        key = (pack_tuple(q, d), pack_tuple(a, D))
        if key in seen:
            raise ValueError(f"{where}: repeated row for question {q}, answer {a}")
        seen.add(key)
        table[key] = p
    flush()
    if not boxes:
        raise ValueError(f"{path}: no boxes found")
    return boxes

