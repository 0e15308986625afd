import random

import numpy as np
import pytest

from gamemac import capacity, channels, verify
from gamemac.channels import depolarizing_mac, type_ii
from gamemac.correlations import e_star, tsirelson_box
from gamemac.games import chsh_game, input_win_mask, magic_square_game, mpp_game, pack_tuple
from gamemac.infotheory import (
    ProductDistribution,
    compose,
    conditional_mutual_information,
    mutual_information,
    prop3_rate,
)


def test_random_vertex_encoder_is_deterministic():
    rng = np.random.default_rng(1)
    enc = verify.random_vertex_encoder(chsh_game(), rng)
    assert enc.cols.shape[1] == 1
    assert ((enc.table == 0) | (enc.table == 1)).all()
    assert (enc.table.sum(axis=1) == 1).all()


@pytest.mark.parametrize("game", [chsh_game(), magic_square_game(), mpp_game(3)])
def test_random_vertex_encoder_applies_its_maps(game):
    # same draw as the encoder: one map m_k -> channel symbol per player
    n, d, dD = game.n, game.d, game.d * game.D
    maps = np.random.default_rng(4).integers(0, dD, size=(n, d))
    table = verify.random_vertex_encoder(game, np.random.default_rng(4)).table
    for mi in range(d**n):
        m = np.unravel_index(mi, (d,) * n)
        xi = pack_tuple([int(maps[k][m[k]]) for k in range(n)], dD)
        assert table[mi, xi] == 1.0


class _TopUniform:
    """A generator stub whose uniform(lo, hi) returns numpy's formula at the
    top draw u = 1 - 2^-53, and records its arguments."""

    def __init__(self):
        self.calls = []

    def uniform(self, lo, hi):
        self.calls.append((lo, hi))
        return lo + (hi - lo) * (1 - 2.0**-53)


def test_random_channel_keeps_eta_w_below_one(monkeypatch):
    etas = []

    def record(game, eta_w, eta_l):
        etas.append((eta_w, eta_l))
        return depolarizing_mac(game, eta_w, eta_l)

    monkeypatch.setattr(verify, "depolarizing_mac", record)
    rng = _TopUniform()
    verify.random_channel(chsh_game(), rng)
    (eta_w, eta_l), = etas
    assert rng.calls == [(0.0, 0.7), (eta_l + 0.1, 1.0)]  # the same two generator calls
    assert rng.uniform(eta_l + 0.1, 1.0) == 1.0  # the uncapped draw reaches the top edge
    assert eta_l < 0.7 and eta_l + 0.1 <= eta_w < 1.0
    assert eta_w == np.nextafter(1.0, 0.0)


def test_random_mixture_encoder_is_stochastic():
    rng = np.random.default_rng(2)
    box_encoder = e_star(capacity.pseudo_telepathy_box(chsh_game()))
    enc = verify.random_mixture_encoder(chsh_game(), rng, box_encoder)
    assert np.allclose(enc.table.sum(axis=1), 1.0)
    assert enc.table.min() >= 0


def test_proposition_residuals_build_the_box_once(monkeypatch):
    built = []
    original = capacity.pseudo_telepathy_box
    monkeypatch.setattr(
        capacity, "pseudo_telepathy_box", lambda game: built.append(game.name) or original(game)
    )
    verify.proposition_residuals(mpp_game(3), seed=0, count=60)
    assert built == ["mpp:3"]


def test_proposition_residuals_small():
    checks = verify.proposition_residuals(chsh_game(), seed=0, count=30)
    assert len(checks) == 4
    for c in checks:
        assert c.passed, f"{c.name}: residual {c.residual}"


@pytest.mark.parametrize("count", [0, -3])
def test_proposition_residuals_refuses_empty_count(count):
    with pytest.raises(ValueError, match="count"):
        verify.proposition_residuals(chsh_game(), seed=0, count=count)


def test_proposition_residuals_refuses_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -4"):
        verify.proposition_residuals(chsh_game(), seed=-4, count=3)


def test_proposition_residuals_seeded():
    a = verify.proposition_residuals(chsh_game(), seed=7, count=10)
    b = verify.proposition_residuals(chsh_game(), seed=7, count=10)
    assert [c.residual for c in a] == [c.residual for c in b]


GAMES = [chsh_game(), magic_square_game(), mpp_game(3)]


def _triples(game, seed, count):
    box_encoder = e_star(capacity.pseudo_telepathy_box(game))
    return verify._draw_triples(game, random.Random(seed), count, box_encoder)


def _replaced(triples, **fields):
    """triples with the given fields replaced; the others are shared."""
    return verify._Triples(**{**vars(triples), **fields})


def _encoder(triples, i):
    """Triple i's encoder, built as one Encoder object."""
    p = int(triples.parts[i])
    vertices = triples.vertex_cols[i, : min(p, verify._MIXTURE_VERTICES)]
    return verify._mixture(triples.game, vertices, triples.weights[i, :p], triples.box_encoder)


def _channel(triples, i):
    """Triple i's channel, built as one MacChannel object."""
    return depolarizing_mac(triples.game, *triples.etas[i].tolist())


def _assert_quantities_match_compose(triples):
    i_xy, i_my, i_xy_m, rate, ceiling = verify._triple_quantities(triples)
    for i in range(triples.parts.size):
        pi = ProductDistribution(tuple(triples.factors[i]))
        enc, ch = _encoder(triples, i), _channel(triples, i)
        joint = compose(pi, enc, ch)
        assert abs(i_xy[i] - mutual_information(joint, (1,), (2,))) <= 1e-12
        assert abs(i_my[i] - mutual_information(joint, (0,), (2,))) <= 1e-12
        assert abs(i_xy_m[i] - conditional_mutual_information(joint, (1,), (2,), (0,))) <= 1e-12
        assert abs(rate[i] - prop3_rate(pi, enc, ch)) <= 1e-12
        assert abs(ceiling[i] - (np.log2(ch.delta) - ch.f_w)) <= 1e-12


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_batched_quantities_match_compose(game):
    triples = _triples(game, 3, 40)
    for i in range(40):
        assert (_encoder(triples, i).cols.shape[1] == 1) == (i % 3 == 0)
    _assert_quantities_match_compose(triples)


def _hand_triples(game, vertex_cols, weights, etas=(0.9, 0.2)):
    """A _Triples with the given vertex inputs (count, 4, d^n) and part
    weights (count, 5); a weight on the box part makes it a 5-part mixture."""
    count = len(weights)
    weights = np.asarray(weights, dtype=float)
    return verify._Triples(
        game,
        e_star(capacity.pseudo_telepathy_box(game)),
        np.random.default_rng(5).dirichlet(np.ones(game.d), size=(count, game.n)),
        np.asarray(vertex_cols),
        weights,
        np.where(weights[:, -1] > 0, 5, 4),
        np.tile(etas, (count, 1)),
    )


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_repeated_inputs_are_merged(game):
    M = game.d**game.n
    box = e_star(capacity.pseudo_telepathy_box(game))
    support = verify._box_support(box)
    # every row: all mass on one input, through four entries
    equal = np.broadcast_to(np.random.default_rng(6).integers(0, box.inputs, M), (4, M))
    # vertex inputs that the box part also puts mass on
    overlap = np.stack([support[0][:, 0], support[0][:, 1], support[0][:, 0], equal[0]])
    triples = _hand_triples(
        game,
        [equal, equal, overlap, overlap],
        [[0.1, 0.2, 0.3, 0.4, 0], [0.1, 0.2, 0.3, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4, 0],
         [0.3, 0.1, 0.2, 0.1, 0.3]],
    )
    _assert_quantities_match_compose(triples)
    # the merged support is the dense table, added in the same order
    tm, x, probs = verify._merged_support(triples, range(4), support, box.inputs)
    for i in range(4):
        table = np.zeros((M, box.inputs))
        mine = tm // M == i
        table[tm[mine] % M, x[mine]] = probs[mine]
        assert np.array_equal(table, _encoder(triples, i).table)


def test_stacked_supports_keep_the_constructors_checks():
    game = chsh_game()
    M = game.d**game.n
    cols = np.zeros((2, 4, M), dtype=int)
    short = _hand_triples(game, cols, [[0.2, 0.2, 0.2, 0.2, 0.1], [0.25] * 4 + [0]])
    with pytest.raises(ValueError, match="not stochastic"):
        verify._triple_quantities(short)
    flat = _hand_triples(game, cols, [[0.25] * 4 + [0]] * 2, etas=(0.5, 0.5))
    with pytest.raises(ValueError, match="eta_l < eta_w"):
        verify._triple_quantities(flat)


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_proposition_residuals_build_no_object_per_triple(game, monkeypatch):
    calls = []

    def count(name):
        original = getattr(verify, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)

    count("depolarizing_mac")
    count("Encoder")
    verify.proposition_residuals(game, 0, 300)
    assert calls == []


def test_draw_triples_law():
    count = 3000
    triples = _triples(mpp_game(3), 11, count)
    vertex = np.arange(count) % 3 == 0
    assert np.array_equal(triples.parts == 1, vertex)
    assert set(triples.parts[~vertex].tolist()) <= {4, 5}
    w = triples.weights
    assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (w[vertex] == [1, 0, 0, 0, 0]).all()
    assert ((w > 0) == (np.arange(5) < triples.parts[:, None])).all()
    f = triples.factors
    assert f.shape == (count, 3, 2) and f.min() >= 0
    assert np.allclose(f.sum(axis=2), 1.0, rtol=0, atol=1e-12)
    eta_w, eta_l = triples.etas.T
    assert (0 <= eta_l).all() and (eta_l < 0.7).all()
    assert (eta_l + 0.1 <= eta_w).all() and (eta_w < 1).all()
    mixtures = triples.parts[~vertex]
    share, sigma = np.mean(mixtures == 5), np.sqrt(0.3 * 0.7 / mixtures.size)
    assert abs(share - 0.3) <= 5 * sigma


def test_draw_triples_calls_do_not_grow_with_count():
    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            self.calls += 1
            return getattr(self.rng, name)

    box_encoder = e_star(capacity.pseudo_telepathy_box(chsh_game()))
    calls = []
    for count in (1, 10, 1000):
        rng = Counting(random.Random(0))
        verify._draw_triples(chsh_game(), rng, count, box_encoder)
        calls.append(rng.calls)
    assert calls[0] == calls[1] == calls[2]


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_chunk_budget_does_not_change_residuals(game, monkeypatch):
    count = 40
    default = verify.proposition_residuals(game, 2, count)
    sizes = []
    original = verify._chunk_quantities
    monkeypatch.setattr(
        verify,
        "_chunk_quantities",
        lambda triples, chunk, *rest: sizes.append(len(chunk)) or original(triples, chunk, *rest),
    )
    for budget, expected in ((1, [1] * count), (10**9, [count])):
        sizes.clear()
        monkeypatch.setattr(verify, "_CHUNK_ELEMENTS", budget)
        checks = verify.proposition_residuals(game, 2, count)
        assert sizes == expected
        for a, b in zip(checks, default):
            assert a.name == b.name
            assert abs(a.residual - b.residual) <= 1e-14


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_chunks_give_equal_residuals_and_check_the_last_triple(game, monkeypatch):
    count, residuals = 60, []
    for budget in (1, verify._CHUNK_ELEMENTS, 10**9):
        monkeypatch.setattr(verify, "_CHUNK_ELEMENTS", budget)
        residuals.append([c.residual for c in verify.proposition_residuals(game, 4, count)])
        triples = _triples(game, 4, count)
        etas = triples.etas.copy()
        etas[-1] = (0.5, 0.5)
        with pytest.raises(ValueError, match="eta_l < eta_w"):
            verify._triple_quantities(_replaced(triples, etas=etas))
        weights = triples.weights.copy()
        weights[-1, 0] += 0.01  # every row of the last triple sums to 1.01
        with pytest.raises(ValueError, match="not stochastic"):
            verify._triple_quantities(_replaced(triples, weights=weights))
    assert residuals[0] == residuals[1] == residuals[2]


def test_constant_noise_residual_flags_uneven_rows():
    # fault injection: one losing row of the dense matrix (fully noisy,
    # 2 bits) is replaced by a noiseless one, 2 bits away from f_l
    game = chsh_game()
    ch, broken = type_ii(game, 1.0), type_ii(game, 1.0)
    matrix = ch.matrix.copy()
    matrix[np.flatnonzero(~input_win_mask(game))[0]] = ch.win_profile
    broken.__dict__["matrix"] = matrix  # where cached_property keeps the matrix
    assert verify.constant_noise_residual(ch) <= 1e-12
    assert verify.constant_noise_residual(broken) > 0.1


def test_pseudo_telepathy_checks_flag_imperfect_box():
    checks = verify.pseudo_telepathy_checks(chsh_game(), tsirelson_box())
    win_check = checks[0]
    assert not win_check.passed
    assert win_check.residual == pytest.approx(np.sin(np.pi / 8) ** 2, abs=1e-10)


def test_run_verification_all_pass():
    checks = verify.run_verification(seed=0, count=20)
    assert len(checks) == 27
    assert all(c.passed for c in checks)


def test_run_verification_builds_each_games_input_maps_once(monkeypatch):
    # the suite visits its three games twice: propositions, then boxes
    built = []
    original = channels.input_win_mask
    monkeypatch.setattr(channels, "input_win_mask", lambda game: built.append(game.name) or original(game))
    channels.input_slots.cache_clear()
    checks = verify.run_verification(seed=0, count=20)
    assert built == ["chsh", "magic-square", "mpp:3"]
    # report order: four identities per game, then five checks per box
    prefixes = ["chsh:"] * 4 + ["magic-square:"] * 4 + ["mpp:3:"] * 4
    prefixes += ["pr:"] * 4 + ["chsh:"] + ["magic-square:"] * 5 + ["mpp:3:"] * 5
    assert [c.name[: len(p)] for c, p in zip(checks, prefixes)] == prefixes and len(checks) == 27


def test_format_report():
    checks = [verify.Check("ok", 1e-12, 1e-10), verify.Check("bad", 1.0, 1e-10)]
    text = verify.format_report(checks)
    assert "PASS  ok" in text
    assert "FAIL  bad" in text
    assert "1/2 checks passed" in text
