"""Nonlocal games as plain data: alphabet sizes plus a total winning predicate.

A game has n players, d questions per player, and D answers per player.
Question/answer tuples are encoded as dense integers 0..d-1 / 0..D-1.
Flattened tuple indices are big-endian with player 1 in the most
significant position.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Predicate = Callable[[Sequence[int], Sequence[int]], bool]


def pack_tuple(values: Sequence[int], base: int) -> int:
    """Flatten a tuple to an integer, player 1 as the high-order digit."""
    idx = 0
    for v in values:
        idx = idx * base + v
    return idx


class ReadOnly:
    """Base of the package's read-only records.  A record's `__init__` fills
    its instance dict (`vars(self).update(...)`); after that, assigning or
    deleting an attribute raises AttributeError.  functools.cached_property
    writes the instance dict directly, so it still caches.  Records compare
    and hash by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NonlocalGame:
    """An (n, d, D) nonlocal game with a total winning predicate.

    The predicate must be defined on every question/answer tuple; there
    are no promise restrictions.  Multi-bit answers (magic square) are
    packed as integers with bit j holding the j-th answer bit.

    wins(q, a) takes two length-n sequences of per-player digits and must
    also accept numpy integer arrays as digits: `win_table` calls it once,
    with q[k] of shape (d^n, 1) and a[k] of shape (1, D^n), and expects a
    result that broadcasts to (d^n, D^n) and is nonzero where the tuple
    wins.  Integer arithmetic (`+ & ^ | >> %`, `==`) and numpy indexing
    meet this; `if`, `and`/`or` and indexing a Python list by a digit do not.
    A result that is already an owned, writeable bool array of shape
    (d^n, D^n), as the built-in chsh and mpp predicates return, becomes
    the table itself, frozen read-only, not copied; any other result is
    copied into a new bool table.
    """

    def __init__(self, name: str, n: int, d: int, D: int, wins: Predicate):
        if n < 2 or d < 2 or D < 2:
            raise ValueError(f"invalid game dimensions n={n}, d={d}, D={D}")
        self.name = name
        self.n = n
        self.d = d
        self.D = D
        self._wins = wins
        self._table: np.ndarray | None = None

    def wins(self, questions: Sequence[int], answers: Sequence[int]) -> bool:
        return bool(self._wins(questions, answers))

    def win_table(self) -> np.ndarray:
        """Read-only boolean array of shape (d^n, D^n): win_table[q_idx,
        a_idx]; one predicate call on the broadcast digits of every pair."""
        if self._table is None:
            shape = (self.d**self.n, self.D**self.n)
            q = np.indices((self.d,) * self.n).reshape(self.n, -1, 1)
            a = np.indices((self.D,) * self.n).reshape(self.n, 1, -1)
            table = self._wins(tuple(q), tuple(a))
            owned = isinstance(table, np.ndarray) and table.flags.owndata and table.flags.writeable
            if not (owned and table.dtype == bool and table.shape == shape):
                table = np.broadcast_to(table, shape).astype(bool)
            table.setflags(write=False)
            self._table = table
        return self._table

    def __repr__(self):
        return f"NonlocalGame({self.name!r}, n={self.n}, d={self.d}, D={self.D})"


def _chsh_wins(q, a):
    return (a[0] ^ a[1]) == (q[0] & q[1])


def chsh_game() -> NonlocalGame:
    """CHSH: win iff a1 XOR a2 = q1 AND q2."""
    return NonlocalGame("chsh", n=2, d=2, D=2, wins=_chsh_wins)


def _magic_square_wins(q, a):
    def parity(x):
        return (x ^ (x >> 1) ^ (x >> 2)) & 1

    overlap = ((a[0] >> q[1]) ^ (a[1] >> q[0])) & 1
    return (parity(a[0]) ^ 1) & parity(a[1]) & (overlap ^ 1)


def magic_square_game() -> NonlocalGame:
    """Mermin-Peres magic square as a (2, 3, 8) game.

    Player 1 fills row q1 (even parity), player 2 fills column q2 (odd
    parity), and the entries must agree at the overlap cell: player 1's
    bit at position q2 equals player 2's bit at position q1.  Answers are
    packed with bit j = j-th entry of the row/column.
    """
    return NonlocalGame("magic-square", n=2, d=3, D=8, wins=_magic_square_wins)


def _mpp_wins(q, a):
    # even sq needs sum(a) = sq/2 (mod 2), so the losing answer parity is
    # (sq/2 mod 2) ^ 1; odd sq has none (2 or 3, never a parity).  One
    # comparison broadcasts, so win_table forms a single (d^n, D^n) array.
    sq = sum(q)
    lose = (((sq >> 1) & 1) ^ 1) + 2 * (sq & 1)
    return (sum(a) & 1) != lose


def mpp_game(n: int) -> NonlocalGame:
    """Multi-player parity game on n >= 2 players.

    Odd question parity always wins; with even parity the answer parity
    must be 0 when the question sum is divisible by 4, else 1.
    """
    if n < 2:
        raise ValueError(f"mpp game needs n >= 2, got {n}")
    return NonlocalGame(f"mpp:{n}", n=n, d=2, D=2, wins=_mpp_wins)


def game_by_name(name: str) -> NonlocalGame:
    """Resolve "chsh", "magic-square", or "mpp:<n>"."""
    if name == "chsh":
        return chsh_game()
    if name == "magic-square":
        return magic_square_game()
    if name.startswith("mpp:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"{name!r}: expected mpp:<n> with an integer n") from None
        return mpp_game(n)
    raise ValueError(f"unknown game {name!r}")


def input_indices(n: int, d: int, D: int) -> np.ndarray:
    """Channel-input index x of every (question, answer) tuple pair.

    Returns shape (d^n, D^n), read-only and owning its data: entry [q_idx,
    a_idx] is x flattened big-endian over the per-player symbols
    q_k*D + a_k, that is the question part's offset plus the answer part's,
    one outer sum of two per-tuple offset vectors.
    """
    questions = answers = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        questions = (questions[:, None] * (d * D) + np.arange(0, d * D, D)).ravel()
        answers = (answers[:, None] * (d * D) + np.arange(D)).ravel()
    x = np.add.outer(questions, answers)
    x.setflags(write=False)
    return x


def input_win_mask(game: NonlocalGame) -> np.ndarray:
    """Win membership of channel inputs x = ((q_1,a_1),...,(q_n,a_n)).

    The returned boolean vector has length (d*D)^n, indexed by x.
    """
    mask = np.empty((game.d * game.D) ** game.n, dtype=bool)
    mask[input_indices(game.n, game.d, game.D)] = game.win_table()
    return mask


def local_maps(n: int, d: int, base: int) -> np.ndarray:
    """Every tuple of per-player maps {0..d-1} -> {0..base-1}, shape
    (base^(d n), n, d), in the order of
    itertools.product(itertools.product(range(base), repeat=d), repeat=n)."""
    return np.indices((base,) * (d * n)).reshape(d * n, -1).T.reshape(-1, n, d)


def local_map_indices(maps, base: int) -> np.ndarray:
    """Index of (maps[0][i_0], ..., maps[n-1][i_{n-1}]) in base `base`, for
    every input tuple i in big-endian order; maps has shape (..., n, d)
    and the result (..., d^n), in the smallest unsigned dtype that holds
    base^n - 1 and base.  The digits are added in one player at a time,
    so no (..., n, d^n) array of symbols is formed."""
    maps = np.asarray(maps)
    n, d = maps.shape[-2:]
    digits = np.indices((d,) * n).reshape(n, -1)
    index = np.zeros(maps.shape[:-2] + (d**n,), dtype=np.min_scalar_type(max(base**n - 1, base)))
    for k in range(n):
        index *= base
        np.add(index, maps[..., k, digits[k]], out=index, casting="unsafe")  # digits < base
    return index
