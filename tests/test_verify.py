import numpy as np
import pytest

from gamemac import capacity, verify
from gamemac.channels import MacChannel, type_ii
from gamemac.correlations import e_star, tsirelson_box
from gamemac.games import chsh_game, magic_square_game, mpp_game, pack_tuple, unpack_index


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


def test_proposition_residuals_seeded():
    a = verify.proposition_residuals(chsh_game(), seed=7, count=10)
    b = verify.proposition_residuals(chsh_game(), seed=7, count=10)
    assert [c.residual for c in a] == [c.residual for c in b]


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
