import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamemac.channels import (
    MacChannel,
    depolarizing_mac,
    depolarizing_profiles,
    echo_rows,
    input_slots,
    noise_f,
    two_branch_mac,
    type_i,
    type_ii,
)
from gamemac.capacity import pseudo_telepathy_capacity
from gamemac.verify import constant_noise_residual
from gamemac.correlations import CorrelationBox, Encoder, e_star, mpp_box, pr_box
from gamemac.games import (
    NonlocalGame,
    chsh_game,
    input_indices,
    input_win_mask,
    local_map_indices,
    mpp_game,
    pack_tuple,
)
from gamemac.infotheory import ProductDistribution, entropy, sum_rate


def test_noise_f_endpoints():
    for delta in (2, 4, 8, 9):
        assert noise_f(delta, 1.0) == 0.0
        assert noise_f(delta, 0.0) == pytest.approx(np.log2(delta), abs=1e-12)


def test_noise_f_against_explicit_row():
    # second path: build the branch distribution and take its entropy
    for delta, eta in [(4, 0.5), (9, 0.3), (8, 0.85)]:
        row = np.full(delta, (1 - eta) / delta)
        row[0] += eta
        assert noise_f(delta, eta) == pytest.approx(entropy(row), abs=1e-12)


def test_noise_f_monotone_in_eta():
    etas = np.linspace(0.0, 1.0, 21)
    vals = [noise_f(4, e) for e in etas]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_noise_f_rejects_bad_args():
    with pytest.raises(ValueError):
        noise_f(1, 0.5)
    with pytest.raises(ValueError):
        noise_f(4, 1.5)


def test_depolarizing_rows():
    game = chsh_game()
    ch = depolarizing_mac(game, 0.8, 0.2)
    win = input_win_mask(game)
    questions = input_slots(game) % 4
    for xi in (0, 5, 11):
        eta = 0.8 if win[xi] else 0.2
        expected = np.full(4, (1 - eta) / 4)
        expected[questions[xi]] += eta
        assert np.allclose(ch.matrix[xi], expected)


def test_depolarizing_branch_entropies():
    ch = depolarizing_mac(chsh_game(), 0.9, 0.1)
    assert ch.f_w == pytest.approx(noise_f(4, 0.9))
    assert ch.f_l == pytest.approx(noise_f(4, 0.1))
    assert constant_noise_residual(ch) <= 1e-12
    assert ch.delta == 4


def test_depolarizing_requires_noisier_losing_branch():
    game = chsh_game()
    with pytest.raises(ValueError):
        depolarizing_mac(game, 0.3, 0.3)
    with pytest.raises(ValueError):
        depolarizing_mac(game, 0.2, 0.5)


def test_type_i_and_type_ii_profiles():
    game = chsh_game()
    t1 = type_i(game, 0.4)
    assert (t1.win_profile == [1, 0, 0, 0]).all()
    assert t1.lose_profile == pytest.approx([0.55, 0.15, 0.15, 0.15], abs=1e-15)
    assert t1.f_w == 0.0
    t2 = type_ii(game, 0.4)
    assert t2.win_profile == pytest.approx([0.55, 0.15, 0.15, 0.15], abs=1e-15)
    assert (t2.lose_profile == 0.25).all()
    assert t2.f_l == 2.0
    with pytest.raises(ValueError):
        type_i(game, 1.0)
    with pytest.raises(ValueError):
        type_ii(game, 0.0)


def test_two_branch_accepts_non_depolarizing_noise():
    game = chsh_game()
    win_profile = np.array([0.9, 0.1, 0.0, 0.0])
    lose_profile = np.array([0.4, 0.3, 0.2, 0.1])
    ch = two_branch_mac(game, win_profile, lose_profile)
    assert ch.f_w == pytest.approx(entropy(win_profile))
    assert ch.f_l == pytest.approx(entropy(lose_profile))
    assert constant_noise_residual(ch) <= 1e-12
    # the profile is anchored at the echoed question tuple
    win = input_win_mask(game)
    xi = int(np.flatnonzero(win)[3])
    peak = input_slots(game)[xi] % 4
    assert ch.matrix[xi, peak] == pytest.approx(0.9)


def test_two_branch_profile_validation():
    game = chsh_game()
    good = np.full(4, 0.25)
    with pytest.raises(ValueError):
        two_branch_mac(game, np.array([0.5, 0.5]), good)
    with pytest.raises(ValueError):
        two_branch_mac(game, np.array([0.5, 0.2, 0.2, 0.2]), good)


def test_channel_matrix_is_stochastic_and_frozen():
    ch = type_ii(mpp_game(3), 0.7)
    assert ch.matrix.shape == (4**3, 2**3)
    assert np.allclose(ch.matrix.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 1.0


def test_mac_channel_rejects_wrong_branch_order():
    ch = type_ii(chsh_game(), 0.5)
    with pytest.raises(ValueError):
        MacChannel(chsh_game(), ch.lose_profile, ch.win_profile)



def test_branch_entropies_are_derived_not_settable():
    ch = type_ii(chsh_game(), 0.5)
    with pytest.raises(TypeError):
        MacChannel(chsh_game(), ch.win_profile, ch.lose_profile, f_w=0.0, f_l=2.0)
    with pytest.raises(TypeError):
        Encoder(2, 2, 2, np.zeros((4, 1)), np.ones((4, 1)), deterministic=True)
    # the sum-capacity formulas read f_w, f_l: they are the profiles' entropies
    skewed = two_branch_mac(chsh_game(), [0.7, 0.1, 0.1, 0.1], [0.25] * 4)
    for ch in (ch, type_i(mpp_game(3), 0.3), skewed):
        assert ch.f_w == entropy(ch.win_profile) and ch.f_l == entropy(ch.lose_profile)


def test_data_types_compare_and_hash_by_identity():
    # array fields make value equality ambiguous; each object equals only itself
    ch, box, enc = type_ii(chsh_game(), 0.5), pr_box(), e_star(pr_box())
    assert (ch == type_ii(chsh_game(), 0.5)) is False
    assert (box == pr_box()) is False
    assert (enc == e_star(pr_box())) is False
    for obj in (ch, box, enc):
        assert obj == obj
    assert len({ch, ch, box, enc}) == 3


def test_records_are_read_only_and_still_cache():
    from gamemac.capacity import OptimizerConfig
    from gamemac.verify import _Triples

    ch, box, enc = type_ii(chsh_game(), 0.5), pr_box(), e_star(pr_box())
    triples = _Triples(chsh_game(), enc, *np.zeros((5, 1)))
    records = [
        (ch, "f_w"), (box, "table"), (enc, "cols"), (ProductDistribution.uniform(2, 2), "factors"),
        (OptimizerConfig(), "seed"), (triples, "etas"),
    ]
    for record, name in records:
        kept = getattr(record, name)
        for attempt in (lambda: setattr(record, name, 0), lambda: setattr(record, "new", 0)):
            with pytest.raises(AttributeError, match="cannot assign"):
                attempt()
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
        assert getattr(record, name) is kept and not hasattr(record, "new")
    # functools.cached_property writes the instance dict, past __setattr__
    assert ch.matrix is ch.matrix and ch._peaks is ch._peaks and enc.table is enc.table


def test_output_law_adds_its_offsets_in_place():
    # Δ = 256 with 255 peak offsets per profile: a list of every rolled
    # copy would hold 2 x 255 arrays of 1 MiB
    import tracemalloc

    rng = np.random.default_rng(0)
    win_profile, lose_profile = sorted(rng.dirichlet(np.full(256, 0.5), size=2), key=entropy)
    ch = MacChannel(mpp_game(8), win_profile, lose_profile)
    assert all(offsets.size == 255 for _, offsets, _ in ch._peaks)
    weights = np.eye(2 * ch.delta)
    tracemalloc.start()
    try:
        law = ch.output_law(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert law.tobytes() == ch._circulants.tobytes()


def test_depolarizing_mac_validates_each_channel_once(monkeypatch):
    calls = []
    check = MacChannel.__init__
    monkeypatch.setattr(MacChannel, "__init__", lambda self, *args: calls.append(self) or check(self, *args))
    channels = [depolarizing_mac(chsh_game(), 0.9, 0.2), type_i(chsh_game(), 0.4), type_ii(chsh_game(), 0.4)]
    assert len(calls) == len(channels) and all(a is b for a, b in zip(calls, channels))


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)
SCENARIOS = [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2), (2, 3, 3), (3, 2, 3)]


def _random_channel(scenario, seed):
    """A game with a random win table and a channel with random profiles."""
    n, d, D = scenario
    rng = np.random.default_rng(seed)
    table = rng.random((d**n, D**n)) < 0.5
    game = NonlocalGame("random", n, d, D, lambda q, a: table[pack_tuple(q, d), pack_tuple(a, D)])
    win_profile, lose_profile = sorted(rng.dirichlet(np.full(d**n, 0.5), size=2), key=entropy)
    return MacChannel(game, win_profile, lose_profile), rng


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_index_maps_match_tuple_definitions(scenario, seed):
    ch, _ = _random_channel(scenario, seed)
    game = ch.game
    n, d, D = scenario
    win, slots = input_win_mask(game), input_slots(game)
    assert win.shape == slots.shape == ((d * D) ** n,)
    for xi in range(win.size):
        syms = np.unravel_index(xi, (d * D,) * n)
        q = tuple(s // D for s in syms)
        wins = game.wins(q, tuple(s % D for s in syms))
        assert win[xi] == wins
        assert slots[xi] == wins * d**n + pack_tuple(q, d)


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_matrix_rows_are_shifted_profiles(scenario, seed):
    ch, _ = _random_channel(scenario, seed)
    win, questions = input_win_mask(ch.game), input_slots(ch.game) % ch.delta
    for xi in range(win.size):
        profile = ch.win_profile if win[xi] else ch.lose_profile
        assert (ch.matrix[xi] == np.roll(profile, questions[xi])).all()


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_win_table_matches_per_tuple_loop(scenario, seed):
    ch, _ = _random_channel(scenario, seed)
    game = ch.game
    expected = np.zeros((game.d**game.n, game.D**game.n), dtype=bool)
    for q in product(range(game.d), repeat=game.n):
        for a in product(range(game.D), repeat=game.n):
            expected[pack_tuple(q, game.d), pack_tuple(a, game.D)] = game.wins(q, a)
    assert (game.win_table() == expected).all()


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_dense_product(scenario, seed):
    ch, rng = _random_channel(scenario, seed)
    inputs = ch.matrix.shape[0]
    dense = rng.dirichlet(np.full(inputs, 0.3), size=5)
    sparse = np.where(rng.random(dense.shape) < 0.2, dense, 0.0)
    cols = np.tile(np.arange(inputs), (5, 1))
    for table in (dense, sparse):
        assert np.abs(ch.kernel(cols, table) - table @ ch.matrix).max() <= 1e-14


@PROPERTY
@given(
    size=st.sampled_from([(2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (6, 2), (4, 3), (7, 2), (5, 3), (8, 2)]),
    depolarizing=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_output_law_matches_the_circulant_product(size, depolarizing, seed):
    # Δ from 4 to 256; the depolarizing profiles include a point mass
    # (eta = 1) and a uniform one (eta = 0), whose sets of peak offsets are
    # {0} and empty
    (n, d), rng = size, np.random.default_rng(seed)
    game = NonlocalGame("any", n, d, 2, lambda q, a: True)
    if depolarizing:
        eta_w = rng.choice([1.0, rng.random()])
        ch = depolarizing_mac(game, eta_w, rng.choice([0.0, eta_w * rng.random()]))
    else:
        win_profile, lose_profile = sorted(rng.dirichlet(np.full(d**n, 0.5), size=2), key=entropy)
        ch = MacChannel(game, win_profile, lose_profile)
    weights = rng.dirichlet(np.full(2 * ch.delta, 0.3), size=4)
    weights[0, : ch.delta] = 0.0  # a branch of all-zero weight, as a perfect box gives
    weights[1:][rng.random(weights[1:].shape) < 0.3] = 0.0
    assert np.abs(ch.output_law(weights) - weights @ ch._circulants).max() <= 1e-14
    assert ch.output_law(np.eye(2 * ch.delta)).tobytes() == ch._circulants.tobytes()
    # the E* slot weights of a vertex file's boxes, t constant at 0, 1, 0.75
    # and a uniform draw, then a uniform draw and a mix of the four per message
    delta = ch.delta
    levels = np.array([0.0, 1.0, 0.75, rng.random()])
    t = np.concatenate(
        [np.repeat(levels, delta).reshape(4, delta), rng.random((1, delta)), rng.choice(levels, (1, delta))]
    )[..., None]
    eye = np.eye(delta)
    lose, win = ch._circulants.reshape(2, delta, delta)
    kernels = ch.output_law(np.concatenate([(1 - t) * eye, t * eye], axis=-1))
    assert kernels.tobytes() == (t * win + (1 - t) * lose).tobytes()


def _former_lift(box):
    """The dense E* table as it was built before encoders kept their support."""
    n, d, D = box.n, box.d, box.D
    table = np.zeros((d**n, (d * D) ** n))
    table[np.arange(d**n)[:, None], input_indices(n, d, D)] = box.table
    return table


@PROPERTY
@given(scenario=st.sampled_from(SCENARIOS), seed=st.integers(0, 2**32 - 1))
def test_kernel_of_support_matches_dense_encoder(scenario, seed):
    ch, rng = _random_channel(scenario, seed)
    n, d, D = scenario
    rows, inputs = d**n, (d * D) ** n
    table = rng.dirichlet(np.full(D**n, 0.5), size=rows)
    table[rng.random(table.shape) < 0.3] = 0.0
    table[table.sum(axis=1) == 0, 0] = 1.0
    box = CorrelationBox(n, d, D, table / table.sum(axis=1, keepdims=True))
    star = e_star(box)
    assert (star.table == _former_lift(box)).all()
    vertex_cols = local_map_indices(rng.integers(0, d * D, size=(n, d)), d * D)[:, None]
    vertex = Encoder(n, d, D, vertex_cols, np.ones((rows, 1)))
    # a mixture whose support repeats inputs within a row
    cols = rng.integers(0, inputs, size=(rows, 6))
    cols[:, 3:] = cols[:, :3]
    mixture = Encoder(n, d, D, cols, rng.dirichlet(np.ones(6), size=rows))
    expected = np.zeros((rows, inputs))
    for m, j in product(range(rows), range(6)):
        expected[m, cols[m, j]] += mixture.probs[m, j]
    assert np.abs(mixture.table - expected).max() <= 1e-15
    for enc in (star, vertex, mixture):
        assert np.abs(ch.kernel(enc.cols, enc.probs) - enc.table @ ch.matrix).max() <= 1e-14


@pytest.mark.parametrize("shape", [(4,), (8,), (9,), (256,), (2, 5, 8)])
def test_circulants_match_the_index_definition(shape):
    # (2, B, Δ) is how verify stacks the profiles of B channels
    profiles = np.random.default_rng(shape[-1]).random(shape)
    steps = np.arange(shape[-1])
    expected = profiles[..., (steps[None, :] - steps[:, None]) % shape[-1]]
    rows = echo_rows(profiles)
    assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
    assert not np.shares_memory(rows, profiles)


def test_channel_circulants_are_contiguous_and_read_only():
    ch = type_ii(mpp_game(3), 0.7)
    rows, steps = ch._circulants, np.arange(8)
    assert rows.shape == (16, 8) and rows.flags.c_contiguous and not rows.flags.writeable
    # row b*Δ + q is profile_b[(y - q) mod Δ], losing rows first
    expected = np.stack([ch.lose_profile, ch.win_profile])[:, (steps[None, :] - steps[:, None]) % 8]
    assert rows.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0.0


def test_kernel_rejects_wrong_width():
    ch = type_ii(chsh_game(), 0.5)
    with pytest.raises(ValueError):
        ch.kernel(np.full((4, 1), 16), np.ones((4, 1)))  # the channel has 16 inputs
    with pytest.raises(ValueError):
        ch.kernel(np.zeros((4, 2), dtype=np.intp), np.ones((4, 1)))


def test_large_channel_builds_without_dense_matrix():
    ch = type_ii(mpp_game(10), 0.5)
    assert ch.delta == 2**10
    assert "matrix" not in ch.__dict__
    # one input, x = ((q_k, a_k))_k with q = (1,1,0,...,0) and a = 0: a losing row
    q, a = (1, 1) + (0,) * 8, (0,) * 10
    x = pack_tuple([2 * qk + ak for qk, ak in zip(q, a)], 4)
    assert not ch.game.wins(q, a)
    kernel = ch.kernel(np.array([[x]]), np.ones((1, 1)))
    assert (kernel[0] == np.roll(ch.lose_profile, pack_tuple(q, 2))).all()
    assert "matrix" not in ch.__dict__ and "_circulants" not in ch.__dict__


def test_e_star_sum_rate_at_mpp10_scale():
    # the dense encoder would be 1,024 x 4^10 floats (8.6 GB), the matrix 4^10 x 1,024
    ch, box = type_ii(mpp_game(10), 0.5), mpp_box(10)
    enc = e_star(box)
    rate = sum_rate(ProductDistribution.uniform(10, 2), enc, ch)
    assert rate == pytest.approx(10 - ch.f_w, abs=1e-9)
    result = pseudo_telepathy_capacity(ch, box)
    assert result.kind == "exact" and result.value == 10 - ch.f_w
    assert "table" not in enc.__dict__
    assert "matrix" not in ch.__dict__


def test_channels_of_one_game_share_read_only_input_maps():
    game = chsh_game()
    ch, other = type_ii(game, 0.5), depolarizing_mac(game, 0.9, 0.2)
    assert ch.f_w == entropy(ch.win_profile) and ch.f_l == 2.0
    assert ch.f_w == pytest.approx(noise_f(4, 0.5), abs=1e-12)
    mine, theirs = input_slots(ch.game), input_slots(other.game)
    assert mine is theirs and not mine.flags.writeable


def test_profiles_are_copied_and_frozen():
    profile = np.full(4, 0.25)
    ch = MacChannel(chsh_game(), np.array([1.0, 0, 0, 0]), profile)
    assert not ch.lose_profile.flags.writeable
    assert profile.flags.writeable
    # a read-only view is kept only when the array it views is read-only too
    for frozen in (False, True):
        profiles = np.array([[1.0, 0, 0, 0], [0.25] * 4])
        profiles.setflags(write=not frozen)
        win, lose = profiles
        lose.setflags(write=False)
        ch = MacChannel(chsh_game(), win, lose)
        assert np.shares_memory(ch.lose_profile, profiles) == frozen
        assert not ch.win_profile.flags.writeable and not ch.lose_profile.flags.writeable


def test_a_depolarizing_channel_keeps_its_profiles_uncopied():
    # at Δ = 2^20 a copy of both profiles and entropy's two Δ-sized
    # temporaries once took the peak to 48 MiB for 16 MiB kept
    tracemalloc.start()
    try:
        ch = type_ii(mpp_game(20), 0.5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 17 * 2**20 and peak <= 32 * 2**20, (kept, peak)
    lose, win = depolarizing_profiles(2**20, 0.5, 0.0)
    assert ch.win_profile.tobytes() == win.tobytes() and ch.lose_profile.tobytes() == lose.tobytes()
    assert (ch.f_w, ch.f_l) == (entropy(win), entropy(lose))
