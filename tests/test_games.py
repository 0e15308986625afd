import tracemalloc
from itertools import product

import numpy as np
import pytest

from gamemac.games import (
    NonlocalGame,
    chsh_game,
    game_by_name,
    input_indices,
    input_win_mask,
    local_map_indices,
    local_maps,
    magic_square_game,
    mpp_game,
    pack_tuple,
)
from gamemac.channels import input_slots


def test_pack_unpack_roundtrip():
    for base, n in [(2, 2), (3, 2), (4, 3), (6, 2)]:
        for idx in range(base**n):
            assert pack_tuple(np.unravel_index(idx, (base,) * n), base) == idx


def test_pack_is_big_endian():
    # player 1 occupies the high-order digit
    assert pack_tuple((1, 0), 2) == 2
    assert pack_tuple((0, 1), 2) == 1
    assert pack_tuple((2, 1), 3) == 7


def test_chsh_predicate_examples():
    g = chsh_game()
    assert g.wins((0, 0), (0, 0))
    assert g.wins((0, 1), (1, 1))
    assert g.wins((1, 1), (0, 1))
    assert not g.wins((1, 1), (0, 0))
    assert not g.wins((0, 0), (0, 1))


def test_chsh_win_table_counts():
    # each question pair admits exactly half the answer pairs: 8 wins of 16
    table = chsh_game().win_table()
    assert table.shape == (4, 4)
    assert table.sum() == 8
    assert (table.sum(axis=1) == 2).all()


def test_magic_square_predicate():
    g = magic_square_game()
    # row 000 (even parity), column bits agreeing at the overlap
    q = (0, 0)
    a1 = 0b000
    a2 = 0b010  # bits (0,1,0): odd parity, bit 0 matches row bit 0
    assert g.wins(q, (a1, a2))
    # parity violation loses regardless of the overlap
    assert not g.wins(q, (0b001, 0b001))
    # overlap mismatch loses even with good parities
    assert not g.wins(q, (0b000, 0b111))


def test_magic_square_overlap_condition():
    g = magic_square_game()
    # player 1's bit at position q2 must equal player 2's bit at position q1
    q = (1, 2)
    a1 = 0b110  # bits (0,1,1): even parity, bit at q2=2 is 1
    a2_good = 0b010  # bits (0,1,0): odd parity, bit at q1=1 is 1
    a2_bad = 0b001  # bits (1,0,0): odd parity, bit at q1=1 is 0
    assert g.wins(q, (a1, a2_good))
    assert not g.wins(q, (a1, a2_bad))


def test_magic_square_win_table_counts():
    # exhaustive enumeration: 8 winning pairs per question tuple, 72 total
    table = magic_square_game().win_table()
    assert table.shape == (9, 64)
    assert table.sum() == 72
    assert (table.sum(axis=1) == 8).all()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mpp_odd_question_parity_always_wins(n):
    g = mpp_game(n)
    for q in product(range(2), repeat=n):
        if sum(q) % 2 == 1:
            for a in product(range(2), repeat=n):
                assert g.wins(q, a)


def test_mpp_even_parity_predicate():
    g = mpp_game(3)
    # sum q = 0 mod 4: answer parity must be even
    assert g.wins((0, 0, 0), (0, 0, 0))
    assert g.wins((0, 0, 0), (1, 1, 0))
    assert not g.wins((0, 0, 0), (1, 0, 0))
    # sum q = 2 mod 4: answer parity must be odd
    assert g.wins((1, 1, 0), (1, 0, 0))
    assert not g.wins((1, 1, 0), (0, 0, 0))


def test_mpp_rejects_single_player():
    with pytest.raises(ValueError):
        mpp_game(1)


def test_game_by_name():
    assert game_by_name("chsh").name == "chsh"
    assert game_by_name("magic-square").D == 8
    g = game_by_name("mpp:4")
    assert (g.n, g.d, g.D) == (4, 2, 2)
    with pytest.raises(ValueError):
        game_by_name("ghz")


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        NonlocalGame("bad", n=1, d=2, D=2, wins=lambda q, a: True)


def test_input_win_mask_matches_predicate():
    g = chsh_game()
    mask = input_win_mask(g)
    assert mask.shape == (16,)
    for xi in range(16):
        s1, s2 = np.unravel_index(xi, (4, 4))
        q = (s1 // 2, s2 // 2)
        a = (s1 % 2, s2 % 2)
        assert mask[xi] == g.wins(q, a)


def test_input_slots_carry_the_question_index():
    g = magic_square_game()
    questions = input_slots(g) % 9  # slot = win * 9 + question index
    assert questions.shape == (24**2,)
    # symbol = q*8 + a per player, base 24
    xi = pack_tuple((2 * 8 + 5, 1 * 8 + 3), 24)
    assert questions[xi] == pack_tuple((2, 1), 3)


def test_win_table_is_cached():
    g = chsh_game()
    assert g.win_table() is g.win_table()


def test_local_map_indices_batches_over_leading_axes():
    maps = np.random.default_rng(3).integers(0, 4, size=(5, 3, 2))
    batched = local_map_indices(maps, 4)
    assert batched.shape == (5, 2**3) and batched.dtype == np.uint8  # holds 4^3 - 1
    for one, expected in zip(maps, batched):
        assert (local_map_indices(one, 4) == expected).all()
        # input tuple i = (i_1, i_2, i_3) maps to (one[0][i_1], one[1][i_2], one[2][i_3])
        i = (1, 0, 1)
        assert expected[pack_tuple(i, 2)] == pack_tuple([one[k][i[k]] for k in range(3)], 4)


@pytest.mark.parametrize("n, d, base", [(1, 2, 2), (2, 2, 4), (3, 2, 4), (1, 3, 8), (3, 1, 5), (2, 3, 2)])
def test_local_maps_match_itertools_product(n, d, base):
    expected = list(product(product(range(base), repeat=d), repeat=n))
    maps = local_maps(n, d, base)
    assert maps.shape == (base ** (d * n), n, d)
    assert maps.tolist() == [[list(m) for m in maps_k] for maps_k in expected]


def _former_chsh(q, a):
    return (a[0] ^ a[1]) == (q[0] & q[1])


def _former_magic_square(q, a):
    b1 = [(a[0] >> j) & 1 for j in range(3)]
    b2 = [(a[1] >> j) & 1 for j in range(3)]
    return sum(b1) % 2 == 0 and sum(b2) % 2 == 1 and b1[q[1]] == b2[q[0]]


def _former_mpp(q, a):
    sq = sum(q)
    if sq % 2 == 1:
        return True
    return sum(a) % 2 == (0 if sq % 4 == 0 else 1)


@pytest.mark.parametrize(
    "game, former",
    [(chsh_game(), _former_chsh), (magic_square_game(), _former_magic_square)]
    + [(mpp_game(n), _former_mpp) for n in range(2, 7)],
    ids=lambda v: getattr(v, "name", ""),
)
def test_win_table_matches_per_tuple_loop(game, former):
    # the former predicates and the former (question, answer) loop
    expected = np.zeros((game.d**game.n, game.D**game.n), dtype=bool)
    for q in product(range(game.d), repeat=game.n):
        for a in product(range(game.D), repeat=game.n):
            expected[pack_tuple(q, game.d), pack_tuple(a, game.D)] = former(q, a)
            assert game.wins(q, a) is bool(former(q, a))
    table = game.win_table()
    assert table.dtype == bool and not table.flags.writeable
    assert (table == expected).all()


def _integer_mpp(q, a):
    # the mpp predicate as it was when it returned integers: on win_table's
    # broadcast digits it formed (d^n, D^n) int64 temporaries
    sq = sum(q)
    return (sq & 1) | ((sum(a) ^ (sq >> 1) ^ 1) & 1)


@pytest.mark.parametrize("n", range(2, 12))
def test_mpp_win_table_matches_the_integer_predicate(n):
    game = mpp_game(n)
    reference = NonlocalGame("reference", n, 2, 2, _integer_mpp)
    assert np.array_equal(game.win_table(), reference.win_table())
    if n <= 4:
        for q in product(range(2), repeat=n):
            for a in product(range(2), repeat=n):
                assert game.wins(q, a) is bool(_integer_mpp(q, a))


def test_mpp_win_table_broadcasts_only_bools():
    # the integer predicate peaked at 16 bool tables' worth at mpp:11
    game = mpp_game(11)
    tracemalloc.start()
    try:
        table = game.win_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


def test_mpp_win_table_peaks_near_one_table():
    # one broadcast comparison, kept as the table: no second (d^n, D^n) array
    game = mpp_game(11)
    tracemalloc.start()
    try:
        table = game.win_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * table.nbytes


def test_win_table_keeps_an_owned_bool_result_and_copies_the_rest():
    owned = np.zeros((4, 4), dtype=bool)
    game = NonlocalGame("owned", 2, 2, 2, lambda q, a: owned)
    assert game.win_table() is owned and not owned.flags.writeable
    # a view, a non-bool array, a broadcast result and a read-only array are copied
    base = np.ones((4, 8), dtype=bool)
    frozen = np.ones((4, 4), dtype=bool)
    frozen.setflags(write=False)
    for result in (base[:, :4], np.ones((4, 4), dtype=np.int64), np.ones((4, 1), dtype=bool), frozen):
        table = NonlocalGame("copied", 2, 2, 2, lambda q, a: result).win_table()
        assert table is not result and not np.shares_memory(table, result)
        assert table.dtype == bool and table.shape == (4, 4) and table.all()
        assert not table.flags.writeable
    assert base.flags.writeable


@pytest.mark.parametrize("make", [chsh_game, lambda: mpp_game(3)], ids=["chsh", "mpp:3"])
def test_builtin_predicates_hand_their_table_over(make):
    # chsh and mpp return an owned, writeable bool array, which becomes the table
    game = make()
    results = []
    predicate = game._wins
    game._wins = lambda q, a: results.append(predicate(q, a)) or results[-1]
    assert game.win_table() is results[0]


@pytest.mark.parametrize("n, d, D", [(2, 2, 2), (2, 3, 8), (3, 2, 2), (4, 3, 2), (8, 2, 2)])
def test_input_indices_match_the_transpose_definition(n, d, D):
    # x = ((q_1, a_1), ..., (q_n, a_n)) flattened big-endian, regrouped as (q, a)
    x = np.arange((d * D) ** n).reshape((d, D) * n)
    expected = x.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d**n, D**n)
    got = input_indices(n, d, D)
    assert got.dtype == np.intp and got.shape == expected.shape and (got == expected).all()
    assert got.flags.owndata and not got.flags.writeable
