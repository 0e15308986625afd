import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import given, settings
from hypothesis import strategies as st

import warnings
from itertools import product

from gamemac.channels import depolarizing_mac, noise_f, type_ii
from gamemac.correlations import Encoder, deterministic_box, e_star, pr_box, tsirelson_box
from gamemac import infotheory
from gamemac.games import chsh_game, input_win_mask
from gamemac.infotheory import (
    ProductDistribution,
    compose,
    conditional_mutual_information,
    entropy,
    input_distribution,
    message_output_kernel,
    mutual_information,
    prop3_rate,
    sum_rate,
    win_probability,
)
from gamemac.verify import random_mixture_encoder, random_vertex_encoder


def test_product_distribution_basics():
    pi = ProductDistribution((np.array([0.25, 0.75]), np.array([0.5, 0.5])))
    assert pi.n == 2 and pi.d == 2
    assert np.allclose(pi.joint(), [0.125, 0.125, 0.375, 0.375])
    assert np.allclose(ProductDistribution.uniform(2, 3).joint(), 1 / 9)


def test_product_distribution_rejects_off_simplex():
    with pytest.raises(ValueError):
        ProductDistribution((np.array([0.5, 0.6]),))
    with pytest.raises(ValueError):
        ProductDistribution((np.array([-0.1, 1.1]),))


def test_entropy_known_values():
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert type(entropy(np.array([0.5, 0.5]))) is float  # axis=None: one float
    assert entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-12)
    assert entropy(np.array([0.25, 0.75])) == pytest.approx(
        -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75)), abs=1e-15
    )


def _compacted_entropy(p, axis):
    """Entropies along axis as the kernel formed them before its in-place
    form: p log p of the support scattered into a zero array, then summed."""
    p = np.asarray(p, dtype=float)
    support = p > 0
    nz = p[support]
    plogp = np.zeros(p.shape)
    plogp[support] = nz * np.log2(nz)
    return -plogp.sum(axis=axis)


def _assert_same_entropies(p, axis):
    got, expected = np.asarray(entropy(p, axis=axis)), _compacted_entropy(p, axis)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


@pytest.mark.parametrize("seed", range(4))
def test_entropy_along_axes_matches_the_compacted_form(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(9), size=(6, 40))
    p[rng.random(p.shape) < 0.3] = 0.0
    p[rng.random(p.shape) < 0.05] = -0.25
    p[rng.random(p.shape) < 0.05] = np.nan
    p[0, 0] = 0.0
    # C-ordered, permuted (not C-ordered) and strided layouts
    for arr in (p, p.transpose(2, 1, 0), p[:, ::-3]):
        for axis in (0, 1, 2, -1, (1, 2), (0, 2), None):
            _assert_same_entropies(arr, axis)


def test_entropy_across_its_log_chunks_matches_the_compacted_form():
    # p log p is formed _ENTROPY_CHUNK entries at a time; these cross its boundaries
    rng = np.random.default_rng(5)
    chunk = infotheory._ENTROPY_CHUNK
    p = rng.random((3, chunk + 7))
    p[rng.random(p.shape) < 0.2] = 0.0
    p[0, -1] = np.nan
    for arr in (p, p.T, p[:, ::2], p[0, : chunk + 1], p[0, :chunk]):
        for axis in (*range(arr.ndim), None):
            _assert_same_entropies(arr, axis)


def test_entropy_of_a_read_only_circulant_view_matches_the_compacted_form():
    profiles = np.random.default_rng(9).dirichlet(np.ones(8), size=(2, 5))
    profiles[1, :, 3] = 0.0
    # [..., q, y] = profiles[..., (y - q) mod 8]: row q starts at entry 8 of
    # the doubled profile and steps back one entry per row
    doubled = np.concatenate([profiles, profiles], axis=-1)[..., 8:]
    step = doubled.strides[-1]
    view = as_strided(doubled, (2, 5, 8, 8), doubled.strides[:-1] + (-step, step), writeable=False)
    steps = np.arange(8)
    assert view.tobytes() == profiles[..., (steps - steps[:, None]) % 8].tobytes()
    assert not view.flags.writeable
    for axis in (3, (2, 3), None):
        _assert_same_entropies(view, axis)


def test_entropy_of_zero_rows_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(entropy(np.zeros((3, 4)), axis=1), np.zeros(3))
        rows = np.array([[0.0, -1.0, np.nan, 0.0], [0.0, 0.5, 0.5, 0.0]])
        assert np.array_equal(entropy(rows, axis=1), [0.0, 1.0])


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_entropy_bounds(seed, size):
    p = np.random.default_rng(seed).dirichlet(np.ones(size))
    h = entropy(p)
    assert -1e-12 <= h <= np.log2(size) + 1e-12


def test_mutual_information_independent_and_copy():
    p = np.outer([0.3, 0.7], [0.5, 0.5])
    assert mutual_information(p, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)
    copy = np.diag([0.5, 0.5])
    assert mutual_information(copy, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_mutual_information_nonnegative_and_symmetric(seed):
    p = np.random.default_rng(seed).dirichlet(np.ones(12)).reshape(3, 4)
    i_ab = mutual_information(p, (0,), (1,))
    i_ba = mutual_information(p, (1,), (0,))
    assert i_ab >= -1e-12
    assert i_ab == pytest.approx(i_ba, abs=1e-12)


def test_conditional_mi_on_markov_chain():
    # X -> Y -> Z with Z a copy of Y: I(X;Z|Y) = 0
    rng = np.random.default_rng(3)
    pxy = rng.dirichlet(np.ones(6)).reshape(2, 3)
    joint = np.zeros((2, 3, 3))
    for y in range(3):
        joint[:, y, y] = pxy[:, y]
    assert conditional_mutual_information(joint, (0,), (2,), (1,)) == pytest.approx(0.0, abs=1e-12)


def test_compose_axes_and_mass():
    pi = ProductDistribution.uniform(2, 2)
    enc = e_star(pr_box())
    ch = type_ii(chsh_game(), 0.6)
    joint = compose(pi, enc, ch)
    assert joint.shape == (4, 16, 4)
    assert joint.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(joint.sum(axis=(1, 2)), pi.joint())
    assert np.allclose(joint.sum(axis=(0, 2)), input_distribution(pi, enc))


def test_compose_dimension_mismatch():
    from gamemac.games import mpp_game

    enc = e_star(pr_box())
    ch = type_ii(mpp_game(3), 0.6)
    with pytest.raises(ValueError):
        compose(ProductDistribution.uniform(2, 2), enc, ch)


def test_sum_rate_equals_joint_mi():
    rng = np.random.default_rng(11)
    game = chsh_game()
    pi = ProductDistribution(tuple(rng.dirichlet(np.ones(2)) for _ in range(2)))
    enc = random_mixture_encoder(game, rng, e_star(pr_box()))
    ch = depolarizing_mac(game, 0.9, 0.2)
    joint = compose(pi, enc, ch)
    assert sum_rate(pi, enc, ch) == pytest.approx(
        mutual_information(joint, (0,), (2,)), abs=1e-12
    )
    kernel = message_output_kernel(enc, ch)
    assert np.allclose(pi.joint()[:, None] * kernel, joint.sum(axis=1))


def test_pr_encoder_sum_rate_closed_form():
    # perfect box through a type-II channel: 2 - f(4, eta) at uniform messages
    enc = e_star(pr_box())
    for eta in (0.3, 0.65, 1.0):
        ch = type_ii(chsh_game(), eta)
        rate = sum_rate(ProductDistribution.uniform(2, 2), enc, ch)
        assert rate == pytest.approx(2.0 - noise_f(4, eta), abs=1e-12)


def test_win_probability_examples():
    game = chsh_game()
    pi = ProductDistribution.uniform(2, 2)
    assert win_probability(pi, e_star(pr_box()), game) == pytest.approx(1.0, abs=1e-12)
    assert win_probability(pi, e_star(tsirelson_box()), game) == pytest.approx(
        np.cos(np.pi / 8) ** 2, abs=1e-12
    )


def test_best_echo_encoder_wins_three_quarters():
    # exhaust the 16 message-echoing deterministic encoders (per-sender
    # answer maps a_k = g_k(m_k)); these are the E* lifts of local boxes,
    # so none beats the classical game value at uniform messages
    game = chsh_game()
    pi = ProductDistribution.uniform(2, 2)
    best = max(
        win_probability(pi, e_star(deterministic_box(2, 2, 2, (g1, g2))), game)
        for g1 in product(range(2), repeat=2)
        for g2 in product(range(2), repeat=2)
    )
    assert best == pytest.approx(0.75, abs=1e-15)


def test_unrestricted_encoder_can_always_win():
    # without the echo structure a deterministic encoder may pin the
    # channel input to one fixed winning tuple; the price is zero rate
    game = chsh_game()
    xi = int(np.flatnonzero(input_win_mask(game))[0])
    enc = Encoder(2, 2, 2, np.full((4, 1), xi), np.ones((4, 1)))
    pi = ProductDistribution.uniform(2, 2)
    assert win_probability(pi, enc, game) == 1.0
    ch = type_ii(chsh_game(), 1.0)
    assert sum_rate(pi, enc, ch) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_prop3_rate_matches_channel_input_mi(seed):
    rng = np.random.default_rng(seed)
    game = chsh_game()
    pi = ProductDistribution(tuple(rng.dirichlet(np.ones(2)) for _ in range(2)))
    enc = (
        random_vertex_encoder(game, rng)
        if seed % 2
        else random_mixture_encoder(game, rng, e_star(pr_box()))
    )
    ch = depolarizing_mac(game, rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.4))
    joint = compose(pi, enc, ch)
    assert prop3_rate(pi, enc, ch) == pytest.approx(
        mutual_information(joint, (1,), (2,)), abs=1e-10
    )
