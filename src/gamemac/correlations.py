"""Correlation boxes for (n, d, D) Bell scenarios and the E* encoder lift.

A box stores the dense table P(a_1..a_n | q_1..q_n) with flattened
big-endian tuple indices (see games.pack_tuple).  An encoder stores
P(x | m) in the (n, d, d*D) encoding scenario, with per-player channel
symbols q_k*D + a_k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qkernel
from .games import (
    NonlocalGame, chsh_game, game_by_name, input_indices, local_map_indices, local_maps, pack_tuple
)

NORMALIZATION_TOL = 1e-12
NO_SIGNALING_TOL = 1e-10

DEFAULT_ENUMERATION_CAP = 10**7


class EnumerationCapExceeded(RuntimeError):
    """Raised instead of silently truncating a vertex enumeration."""


@dataclass(frozen=True, eq=False)
class CorrelationBox:
    n: int
    d: int
    D: int
    table: np.ndarray  # shape (d^n, D^n)
    name: str = "box"

    def __post_init__(self):
        expected = (self.d**self.n, self.D**self.n)
        if self.table.shape != expected:
            raise ValueError(f"box table shape {self.table.shape}, expected {expected}")
        self.table.setflags(write=False)

    def normalization_error(self) -> float:
        """Largest negative entry or row-sum deviation from 1; NaN if the
        table holds a NaN."""
        rows = np.abs(self.table.sum(axis=1) - 1.0).max()
        return float(np.max([0.0, -self.table.min(), rows]))

    def no_signaling_error(self) -> float:
        """Max deviation of any party's answer marginal across other questions.

        For each party k, the marginal P(a_k | q) must not depend on the
        other parties' questions.  NaN if the table holds a NaN.
        """
        shape_q = (self.d,) * self.n
        shape_a = (self.D,) * self.n
        t = self.table.reshape(shape_q + shape_a)
        worst = 0.0
        for k in range(self.n):
            other_a = tuple(self.n + j for j in range(self.n) if j != k)
            marg = t.sum(axis=other_a)  # (d,)*n + (D,) with party k's answer last
            other_q = tuple(j for j in range(self.n) if j != k)
            spread = marg.max(axis=other_q) - marg.min(axis=other_q)
            worst = np.maximum(worst, spread.max())
        return float(worst)


@dataclass(frozen=True, eq=False)
class Encoder:
    """P(x | m) stored by its support: message m puts probability
    probs[m, j] on channel input cols[m, j]; repeated inputs add."""

    n: int
    d: int
    D: int
    cols: np.ndarray  # shape (d^n, k): channel-input indices
    probs: np.ndarray  # shape (d^n, k): P(x = cols[m, j] | m)
    name: str = "encoder"

    def __post_init__(self):
        cols = np.asarray(self.cols, dtype=np.intp)
        probs = np.asarray(self.probs, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != self.d**self.n or probs.shape != cols.shape:
            raise ValueError(
                f"encoder support shapes {cols.shape} and {probs.shape}, "
                f"expected two equal (d^n, k) = ({self.d**self.n}, k)"
            )
        if cols.size and (cols.min() < 0 or cols.max() >= self.inputs):
            raise ValueError(f"encoder inputs must lie in [0, {self.inputs})")
        err = np.abs(probs.sum(axis=1) - 1.0).max()
        if not (err <= NORMALIZATION_TOL and probs.min() >= -NORMALIZATION_TOL):
            raise ValueError(f"encoder rows are not stochastic (err {err})")
        for name, arr in (("cols", cols), ("probs", probs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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


@dataclass
class ValidationReport:
    normalization_error: float
    no_signaling_error: float

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


def local_deterministic_count(n: int, d: int, D: int) -> int:
    return (D**d) ** n


def refuse_over_cap(count: int, subject: str, items: str, advice: str = "") -> None:
    """Refuse, never truncate, an enumeration of count items: raise
    EnumerationCapExceeded when count is over DEFAULT_ENUMERATION_CAP."""
    if count > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{subject} has {count} {items}, over the cap of {DEFAULT_ENUMERATION_CAP}{advice}"
        )


def local_deterministic_boxes(n: int, d: int, D: int):
    """Yield all (D^d)^n local deterministic boxes, or refuse loudly."""
    refuse_over_cap(
        local_deterministic_count(n, d, D), f"({n},{d},{D}) scenario", "local deterministic boxes"
    )
    for strategies in local_maps(n, d, D):
        yield deterministic_box(n, d, D, strategies)


def pr_box() -> CorrelationBox:
    """The extremal no-signaling (2,2,2) box: uniform over the answers that
    win CHSH, a1 XOR a2 = q1 AND q2."""
    return CorrelationBox(2, 2, 2, 0.5 * chsh_game().win_table(), name="pr")


def tsirelson_box() -> CorrelationBox:
    """Quantum (2,2,2) box at the maximal CHSH win probability cos²(π/8).

    Maximally entangled state; party 1 measures σ_z / σ_x, party 2
    measures -(σ_z+σ_x)/√2 / (-σ_z+σ_x)/√2.  Party 2's outcome labels
    are flipped relative to the raw +1->0 convention; with the raw
    labels the box wins with probability sin²(π/8) instead.
    """
    phi = qkernel.state_vector(np.array([1, 0, 0, 1]) / np.sqrt(2))
    obs_a = [qkernel.PAULI_Z, qkernel.PAULI_X]
    s2 = np.sqrt(2)
    obs_b = [-(qkernel.PAULI_Z + qkernel.PAULI_X) / s2, (-qkernel.PAULI_Z + qkernel.PAULI_X) / s2]
    table = np.zeros((4, 4))
    for q1 in range(2):
        for q2 in range(2):
            joint = qkernel.projective_binary_measurement(phi, obs_a[q1], obs_b[q2])
            for a1 in range(2):
                for a2 in range(2):
                    table[q1 * 2 + q2, a1 * 2 + a2] = joint[a1, 1 - a2]
    return CorrelationBox(2, 2, 2, table, name="tsirelson")


_MS_SQRT2 = 1 / np.sqrt(2)
_MS_U = [
    _MS_SQRT2 * np.array([[1j, 0, 0, 1], [0, -1j, 1, 0], [0, 1j, 1, 0], [1, 0, 0, 1j]]),
    0.5 * np.array([[1j, 1, 1, 1j], [-1j, 1, -1, 1j], [1j, 1, -1, -1j], [-1j, 1, 1, -1j]]),
    0.5 * np.array([[-1, -1, -1, 1], [1, 1, -1, 1], [1, -1, 1, 1], [1, -1, -1, -1]]),
]
_MS_V = [
    0.5 * np.array([[1j, -1j, 1, 1], [-1j, -1j, 1, -1], [1, 1, -1j, 1j], [-1j, 1j, 1, 1]]),
    0.5 * np.array([[-1, 1j, 1, 1j], [1, 1j, 1, -1j], [1, -1j, 1, 1j], [-1, -1j, 1, -1j]]),
    _MS_SQRT2 * np.array([[1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0]]),
]


def _ms_shared_state() -> np.ndarray:
    # (|00>|11> - |01>|10> - |10>|01> + |11>|00>)/2, party 1 on high qubits
    psi = np.zeros(16, dtype=complex)
    psi[0b0011] = 0.5
    psi[0b0110] = -0.5
    psi[0b1001] = -0.5
    psi[0b1100] = 0.5
    return qkernel.state_vector(psi)


def magic_square_box() -> CorrelationBox:
    """Quantum (2,3,8) box winning the magic square game with probability 1.

    Both parties rotate their two qubits of the shared four-qubit state
    with the question-indexed unitaries and measure in the computational
    basis; the two measured bits become (a^0, a^1), in qubit order, and
    a^2 completes the parity (even for party 1, odd for party 2).
    """
    psi = _ms_shared_state()
    us = [qkernel.unitary(u) for u in _MS_U]
    vs = [qkernel.unitary(v) for v in _MS_V]
    table = np.zeros((9, 64))
    for q1 in range(3):
        for q2 in range(3):
            rotated = qkernel.apply_local_unitary(psi, us[q1], 0, 2)
            rotated = qkernel.apply_local_unitary(rotated, vs[q2], 2, 2)
            probs = qkernel.measurement_distribution(rotated, [2, 2])
            for o1 in range(4):
                for o2 in range(4):
                    b0_1, b1_1 = (o1 >> 1) & 1, o1 & 1
                    b0_2, b1_2 = (o2 >> 1) & 1, o2 & 1
                    a1 = b0_1 | (b1_1 << 1) | ((b0_1 ^ b1_1) << 2)
                    a2 = b0_2 | (b1_2 << 1) | ((1 ^ b0_2 ^ b1_2) << 2)
                    table[q1 * 3 + q2, a1 * 8 + a2] += probs[o1, o2]
    return CorrelationBox(2, 3, 8, table, name="magic-square")


def mpp_box(n: int) -> CorrelationBox:
    """Quantum (n,2,2) box from the GHZ state winning the MPP game.

    Each player phases |1> by e^{iπ q_k/2}, applies Hadamard, and
    measures; see mpp_game for the predicate this wins with certainty.
    Player k's step is applied once to the states of every question
    prefix (q_1..q_k-1), giving those of every prefix (q_1..q_k): n
    batched steps in all, each the same arithmetic as
    qkernel.apply_local_unitary.
    """
    if n < 2:
        raise ValueError(f"mpp box needs n >= 2, got {n}")
    ghz = np.zeros(2**n, dtype=complex)
    ghz[0] = ghz[-1] = _MS_SQRT2
    states = qkernel.state_vector(ghz)[None]  # (prefixes, 2^n)
    steps = np.stack(
        [qkernel.HADAMARD @ np.diag([1.0, np.exp(1j * np.pi * q / 2)]) for q in (0, 1)]
    )
    for k in range(n):
        work = states.reshape(len(states), 2**k, 2, -1)
        states = np.einsum("qij,pajb->pqaib", steps, work).reshape(2 * len(states), -1)
    return CorrelationBox(n, 2, 2, np.abs(states) ** 2, name=f"mpp:{n}")


def builtin_box(name: str) -> CorrelationBox:
    """Built-in box pr, tsirelson, magic-square or mpp:<n>; ValueError otherwise."""
    builders = {"pr": pr_box, "tsirelson": tsirelson_box, "magic-square": magic_square_box}
    if name in builders:
        return builders[name]()
    if name.startswith("mpp:"):
        return mpp_box(game_by_name(name).n)
    raise ValueError(f"unknown box {name!r}")


def e_star(box: CorrelationBox) -> Encoder:
    """Lift a box into an encoder: play the game with the message as question.

    P(x | m) = box(a | m) when the question part of x echoes m, else 0;
    the support of row m is the inputs (m, a) for every answer tuple a.
    """
    n, d, D = box.n, box.d, box.D
    return Encoder(n, d, D, input_indices(n, d, D), box.table, name=f"e*({box.name})")


def box_win_probabilities(box: CorrelationBox, game: NonlocalGame) -> np.ndarray:
    """Per-question win probability of the box's answers."""
    if (box.n, box.d, box.D) != (game.n, game.d, game.D):
        raise ValueError("box and game scenarios differ")
    return (box.table * game.win_table()).sum(axis=1)


def support_marginal_uniformity_error(box: CorrelationBox) -> float:
    """Max deviation of each party's answer marginal from uniform-over-support.

    The support is taken per (party, question tuple); entries below 1e-12
    are treated as impossible answers.
    """
    worst = 0.0
    t = box.table.reshape((box.d,) * box.n + (box.D,) * box.n)
    for k in range(box.n):
        other_a = tuple(box.n + j for j in range(box.n) if j != k)
        marg = t.sum(axis=other_a)  # question axes + party k answer axis
        rows = marg.reshape(-1, box.D)
        support = rows > 1e-12
        target = 1.0 / np.maximum(support.sum(axis=1, keepdims=True), 1)
        worst = max(worst, float(np.abs(rows - target)[support].max(initial=0.0)))
    return worst


def box_to_csv(box: CorrelationBox, path) -> None:
    """Write the box as CSV: header `n,d,D`, then a row `q_1..q_n,a_1..a_n,p`
    for every nonzero entry, in table order.  The digits are the entry's
    index into the table reshaped to one axis per question and answer digit."""
    t = box.table.reshape((box.d,) * box.n + (box.D,) * box.n)
    with open(path, "w") as fh:
        fh.write(f"{box.n},{box.d},{box.D}\n")
        for digits in zip(*np.nonzero(t)):
            fh.write(",".join(map(str, digits)) + f",{t[digits]:.17g}\n")


def boxes_from_csv(path) -> list[CorrelationBox]:
    """Read one or more boxes; each block starts with its own `n,d,D` header.

    Question digits must lie in [0, d), answer digits in [0, D),
    probabilities must be finite, and no (q, a) pair may repeat within a
    block; a violation is reported with its `file:line`.  Every question
    row of a block must be a distribution within NORMALIZATION_TOL; a
    block that is not is reported with the `file:line` of its header.
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

    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
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
                table = np.zeros((d**n, D**n))
                seen = set()
                continue
            if current is None:
                raise ValueError(f"{where}: data row before n,d,D header")
            n, d, D = current
            if len(cells) != 2 * n + 1:
                raise ValueError(
                    f"{where}: expected {2 * n + 1} cells for n={n}, got {len(cells)}"
                )
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

