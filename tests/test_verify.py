import numpy as np
import pytest

from gamemac import capacity, verify
from gamemac.channels import MacChannel, type_ii
from gamemac.correlations import e_star, tsirelson_box
from gamemac.games import chsh_game, magic_square_game, mpp_game, pack_tuple, unpack_index
from gamemac.infotheory import (
    compose,
    conditional_mutual_information,
    mutual_information,
    prop3_rate,
)


def test_random_vertex_encoder_is_deterministic():
    rng = np.random.default_rng(1)
    enc = verify.random_vertex_encoder(chsh_game(), rng)
    assert enc.deterministic
    assert ((enc.table == 0) | (enc.table == 1)).all()
    assert (enc.table.sum(axis=1) == 1).all()


@pytest.mark.parametrize("game", [chsh_game(), magic_square_game(), mpp_game(3)])
def test_random_vertex_encoder_applies_its_maps(game):
    # same draws as the encoder: one map m_k -> channel symbol per player
    n, d, dD = game.n, game.d, game.d * game.D
    rng = np.random.default_rng(4)
    maps = [rng.integers(0, dD, size=d) for _ in range(n)]
    table = verify.random_vertex_encoder(game, np.random.default_rng(4)).table
    for mi in range(d**n):
        m = unpack_index(mi, d, n)
        xi = pack_tuple([int(maps[k][m[k]]) for k in range(n)], dD)
        assert table[mi, xi] == 1.0


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


def test_proposition_residuals_seeded():
    a = verify.proposition_residuals(chsh_game(), seed=7, count=10)
    b = verify.proposition_residuals(chsh_game(), seed=7, count=10)
    assert [c.residual for c in a] == [c.residual for c in b]


def _reference_triples(game, seed, count):
    # the public helpers in the per-triple order: pi, encoder, channel
    rng = np.random.default_rng(seed)
    box_encoder = e_star(capacity.pseudo_telepathy_box(game))
    out = []
    for i in range(count):
        pi = verify.random_product_distribution(game, rng)
        enc = (
            verify.random_vertex_encoder(game, rng)
            if i % 3 == 0
            else verify.random_mixture_encoder(game, rng, box_encoder)
        )
        out.append((pi, enc, verify.random_channel(game, rng)))
    return out, box_encoder


GAMES = [chsh_game(), magic_square_game(), mpp_game(3)]


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_batched_draw_matches_public_helpers(game):
    reference, box_encoder = _reference_triples(game, 5, 30)
    triples = verify._draw_triples(game, np.random.default_rng(5), 30, box_encoder)
    for i, (pi, enc, ch) in enumerate(reference):
        assert np.array_equal(triples.factors[i], np.array(pi.factors))
        batched = triples.encoder(i)
        assert batched.deterministic == enc.deterministic == (i % 3 == 0)
        assert np.array_equal(batched.table, enc.table)
        assert tuple(triples.etas[i]) == (ch.eta_w, ch.eta_l)


@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_batched_quantities_match_compose(game):
    reference, box_encoder = _reference_triples(game, 3, 40)
    triples = verify._draw_triples(game, np.random.default_rng(3), 40, box_encoder)
    i_xy, i_my, i_xy_m, rate, ceiling = verify._triple_quantities(triples)
    for i, (pi, enc, ch) in enumerate(reference):
        joint = compose(pi, enc, ch)
        assert abs(i_xy[i] - mutual_information(joint, (1,), (2,))) <= 1e-12
        assert abs(i_my[i] - mutual_information(joint, (0,), (2,))) <= 1e-12
        assert abs(i_xy_m[i] - conditional_mutual_information(joint, (1,), (2,), (0,))) <= 1e-12
        assert abs(rate[i] - prop3_rate(pi, enc, ch)) <= 1e-12
        assert abs(ceiling[i] - (np.log2(ch.delta) - ch.f_w)) <= 1e-12


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


def test_constant_noise_residual_flags_uneven_rows():
    # fault injection: the losing rows' entropy (2 bits, fully noisy) drifts
    # from the declared f_l
    ch = type_ii(chsh_game(), 1.0)
    broken = MacChannel(chsh_game(), ch.win_profile, ch.lose_profile, f_w=ch.f_w, f_l=1.5)
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


def test_format_report():
    checks = [verify.Check("ok", 1e-12, 1e-10), verify.Check("bad", 1.0, 1e-10)]
    text = verify.format_report(checks)
    assert "PASS  ok" in text
    assert "FAIL  bad" in text
    assert "1/2 checks passed" in text
