"""Two-branch MACs built from nonlocal games.

The channel maps x = ((q_1,a_1),...,(q_n,a_n)) to y in {0..d-1}^n and
behaves as one noisy channel when x wins the game and another when it
loses.  Conditional output entropy is constant within each branch
(f_w on winning rows, f_l on losing rows), with f_w < f_l required.
All entropies are in bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .games import NonlocalGame, input_indices, input_win_mask
from .infotheory import entropy

_ROW_TOL = 1e-12


def noise_f(delta: int, eta: float) -> float:
    """Conditional output entropy of a delta-ary depolarizing branch.

    The branch outputs the echoed symbol with weight eta + (1-eta)/delta
    and each other symbol with weight (1-eta)/delta.
    """
    if delta < 2:
        raise ValueError(f"delta must be >= 2, got {delta}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    peak = (1 + (delta - 1) * eta) / delta
    rest = (1 - eta) / delta
    out = 0.0
    if peak > 0:
        out -= peak * np.log2(peak)
    if rest > 0:
        out -= (delta - 1) * rest * np.log2(rest)
    return float(out)


@dataclass(frozen=True, eq=False)
class MacChannel:
    """P(y | x) = profile_{win(x)}[(y - q(x)) mod Δ], with Δ = d^n.

    A profile is a distribution over the cyclic offset of y from the
    echoed question tuple q(x).  Every row is a cyclic shift of one
    profile, so checking the profiles checks the rows, and the branch
    entropies f_w, f_l are the entropies of the two profiles.
    """

    game: NonlocalGame
    win_profile: np.ndarray  # shape (Δ,)
    lose_profile: np.ndarray  # shape (Δ,)
    f_w: float = field(init=False)
    f_l: float = field(init=False)

    def __post_init__(self):
        for label, f in (("win", "f_w"), ("lose", "f_l")):
            prof = np.array(getattr(self, f"{label}_profile"), dtype=float)
            if prof.shape != (self.delta,):
                raise ValueError(f"{label} profile must have length {self.delta}")
            if not (abs(prof.sum() - 1.0) <= _ROW_TOL and prof.min() >= 0):
                raise ValueError(f"{label} profile is not a distribution")
            prof.setflags(write=False)
            object.__setattr__(self, f"{label}_profile", prof)
            object.__setattr__(self, f, entropy(prof))
        check_branch_order(self.f_w, self.f_l)

    @property
    def delta(self) -> int:
        return self.game.d**self.game.n

    @functools.cached_property
    def _circulants(self) -> np.ndarray:
        """Shape (2Δ, Δ): row b*Δ + q is profile_b[(y - q) mod Δ], the row
        P(y | x) of every input x with win bit b (0 losing, 1 winning) and
        echoed question index q, that is of slot b*Δ + q (see input_slots).
        The echo rows of both profiles, C-contiguous and read-only; only
        `L-exact`, `best_vertex_rate_at_pi` and `matrix` build them."""
        rows = echo_rows(np.stack([self.lose_profile, self.win_profile])).reshape(-1, self.delta)
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense P(y | x), shape ((d*D)^n, Δ), read-only; built on first use."""
        matrix = self._circulants[input_slots(self.game)]
        matrix.setflags(write=False)
        return matrix

    @functools.cached_property
    def _peaks(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
        """(c, S, P[S]) of the losing, then the winning profile P: c = P[1] and
        S the offsets where P differs from c, {0} or empty iff P is depolarizing."""
        profiles = (self.lose_profile, self.win_profile)
        return tuple((p[1], s := np.flatnonzero(p != p[1]), p[s]) for p in profiles)

    def output_law(self, weights: np.ndarray) -> np.ndarray:
        """Output law (..., Δ) of weights (..., 2Δ) on the slots (see input_slots):
        the weighted sum of the 2Δ circulant rows, without them.  Branch b adds
        c (sum(w) - sum_o roll(w, o)) + sum_o P[o] roll(w, o) over o in S (see
        `_peaks`), O(Δ |S|); one slot of weight 1 gives its row bit for bit."""
        delta, q = self.delta, 0.0
        for (c, offsets, peaks), w in zip(self._peaks, (weights[..., :delta], weights[..., delta:])):
            # roll(w, o): the last o weights, then the others
            rolled = [np.concatenate([w[..., delta - o :], w[..., : delta - o]], axis=-1) for o in offsets]
            q = q + c * (w.sum(axis=-1, keepdims=True) - sum(rolled)) + sum(map(np.multiply, peaks, rolled))
        return q

    def kernel(self, cols: np.ndarray, probs: np.ndarray) -> np.ndarray:
        """P(y | m) of the encoder with support (cols, probs) (see
        correlations.Encoder), without the dense matrix.  Row m is the mix
        of the 2Δ circulant rows with weight probs[m, j] on the slot of
        cols[m, j], so the support is summed onto (row, slot) and passed to
        `output_law`."""
        slots = input_slots(self.game)
        if cols.shape != probs.shape or cols.ndim != 2:
            raise ValueError(f"support shapes {cols.shape} and {probs.shape} differ or are not 2-D")
        if cols.size and (cols.min() < 0 or cols.max() >= slots.size):
            raise ValueError(f"support inputs must lie in [0, {slots.size}), the channel's inputs")
        rows = cols.shape[0]
        flat = np.arange(rows)[:, None] * 2 * self.delta + slots[cols]
        sums = np.bincount(flat.ravel(), probs.ravel(), minlength=rows * 2 * self.delta)
        return self.output_law(sums.reshape(rows, -1))


@functools.lru_cache(maxsize=8)
def input_slots(game: NonlocalGame) -> np.ndarray:
    """Slot b*Δ + q of every channel input, with b its win bit and q its
    question index: its row P(y | x) is echo row q of profile b (see
    echo_rows), row b*Δ + q of `MacChannel._circulants`, and the slot is
    its weight's index in `MacChannel.output_law`.  Read-only; kept for the
    last few games, so a game's channels and their callers share it, also
    when a caller visits its games twice."""
    slots = input_win_mask(game) * game.d**game.n
    slots[input_indices(game.n, game.d, game.D)] += np.arange(game.d**game.n)[:, None]
    slots.setflags(write=False)
    return slots


def two_branch_mac(game: NonlocalGame, win_profile, lose_profile) -> MacChannel:
    """Generic two-branch channel from per-branch noise profiles; see
    MacChannel for the profile convention."""
    return MacChannel(game, win_profile, lose_profile)


def depolarizing_mac(game: NonlocalGame, eta_w: float, eta_l: float) -> MacChannel:
    """Depolarizing two-branch channel: echo with probability eta, else uniform."""
    lose, win = depolarizing_profiles(game.d**game.n, eta_w, eta_l)
    return two_branch_mac(game, win, lose)


def depolarizing_profiles(delta: int, eta_w, eta_l) -> np.ndarray:
    """Profiles of depolarizing branches, shape (2, ..., delta) for eta_w
    and eta_l of shape (...): [0] losing (eta_l), [1] winning (eta_w), each
    (1 - eta)/delta plus eta at offset 0.  Raises ValueError unless
    0 <= eta_l < eta_w <= 1 everywhere."""
    etas = np.array([eta_l, eta_w], dtype=float)
    ok = (0.0 <= etas[0]) & (etas[0] < etas[1]) & (etas[1] <= 1.0)
    if not ok.all():
        i = np.argmin(ok)
        eta_l, eta_w = etas[0].flat[i], etas[1].flat[i]
        raise ValueError(f"need 0 <= eta_l < eta_w <= 1, got ({eta_w}, {eta_l})")
    profiles = np.repeat(((1 - etas) / delta)[..., None], delta, axis=-1)
    profiles[..., 0] += etas
    return profiles


def echo_rows(profiles: np.ndarray) -> np.ndarray:
    """Echo-offset rows of profiles (..., Δ), shape (..., Δ, Δ), with
    [..., q, y] = profiles[..., (y - q) mod Δ]: the row P(y | x) of an
    input x with echoed question index q.  A fresh array."""
    steps = np.arange(profiles.shape[-1])
    return profiles[..., (steps - steps[:, None]) % steps.size]


def check_branch_order(f_w, f_l) -> None:
    """Raise ValueError unless f_w < f_l everywhere: the winning branch
    must be less noisy."""
    ok = np.less(f_w, f_l)
    if not ok.all():
        i = np.argmin(ok)
        f_w, f_l = np.broadcast_arrays(f_w, f_l)
        raise ValueError(
            f"winning branch must be less noisy: f_w={f_w.flat[i]} >= f_l={f_l.flat[i]}"
        )


def type_i(game: NonlocalGame, eta: float) -> MacChannel:
    """Noiseless on winning, depolarizing with parameter eta on losing."""
    if not 0.0 <= eta < 1.0:
        raise ValueError(f"type-I needs 0 <= eta < 1, got {eta}")
    return depolarizing_mac(game, 1.0, eta)


def type_ii(game: NonlocalGame, eta: float) -> MacChannel:
    """Depolarizing with parameter eta on winning, fully noisy on losing."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"type-II needs 0 < eta <= 1, got {eta}")
    return depolarizing_mac(game, eta, 0.0)

