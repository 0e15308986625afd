import gc
import random
import re
import tracemalloc
import warnings
from functools import lru_cache
from itertools import combinations, permutations, product
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamemac import capacity, correlations, games
from gamemac.capacity import (
    _block_averages,
    _canonical_maps,
    _Draws,
    _echo_rate,
    _kernel_mi_objective,
    _prepare_symmetric_encoder,
    _representatives,
    _subset_bound_objective,
    OptimizerConfig,
    PT_CROSS_CHECK_TOL,
    PseudoTelepathyHypothesisError,
    best_vertex_rate_at_pi,
    bruteforce_classical_game_value,
    channel_for,
    classical_capacity_exact,
    classical_upper_bound,
    maximize_over_pi,
    pseudo_telepathy_box,
    pseudo_telepathy_capacity,
    quantum_lower_bound_chsh,
    resource_dependent_bound,
    sum_rate_objective,
    sweep,
    vertex_count,
    vertex_file_bound,
)
from gamemac.channels import (
    MacChannel, depolarizing_mac, input_slots, noise_f, two_branch_mac, type_i, type_ii,
)
from gamemac.correlations import (
    CorrelationBox,
    EnumerationCapExceeded,
    box_to_csv,
    box_win_probabilities,
    builtin_box,
    e_star,
    local_deterministic_boxes,
    pr_box,
    support_marginal_uniformity_error,
    tsirelson_box,
)
from gamemac.games import (
    NonlocalGame,
    chsh_game,
    game_by_name,
    local_map_indices,
    local_maps,
    magic_square_game,
    mpp_game,
    pack_tuple,
)
from gamemac.infotheory import ProductDistribution, entropy, product_joint, sum_rate

CFG = OptimizerConfig(seed=0)
DATA = Path(__file__).parent / "data"
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def chsh_type2_full():
    """Exact classical result for the noiseless-on-win/fully-noisy-on-loss channel."""
    return classical_capacity_exact(type_ii(chsh_game(), 1.0), CFG)


def test_maximize_over_pi_recovers_entropy_max():
    # I(M;M) = H(M), maximal (2 bits) at uniform pi
    objective = _kernel_mi_objective(np.eye(4))
    val, pi, diag = maximize_over_pi(objective, 2, 2, CFG)
    assert val == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(pi.joint(), 0.25, atol=1e-5)
    at_uniform = objective((np.full((1, 2, 2), 0.5), np.zeros(1, dtype=int)))[0][0]
    assert val >= at_uniform
    assert diag["gap"] <= CFG.tolerance
    assert diag["grid_points"] == 0


def test_maximize_over_pi_keeps_the_best_of_a_row_whose_value_fell():
    # row 0 peaks at call 3 and falls at call 4, row 1 peaks at call 1 and
    # falls at once; call c steps every row to factors (c/10, 1 - c/10), so
    # row 0's best factors are call 2's output, which call 4's input has
    # moved past
    values = {1: [1.0, 5.0], 2: [2.0, 1.0], 3: [9.0, 1.0], 4: [2.5, 1.0]}
    inputs = []

    def objective(batch):
        F, _ = batch
        inputs.append(F.copy())
        c = len(inputs)
        v, g = np.array(values[c]), np.full(len(F), 1.0 if c < 4 else 0.0)
        return v, g, lambda on: np.tile([c / 10, 1 - c / 10], (len(on), 1, 1))

    value, pi, diag = maximize_over_pi(objective, 1, 2, OptimizerConfig(restarts=2))
    assert value == 9.0 and np.array_equal(pi.factors[0], [0.2, 0.8])
    assert (diag["winner"], diag["gap"], diag["iterations"], diag["capped"]) == (0, 1.0, 8, 0)
    assert np.array_equal(inputs[3][0], [[0.3, 0.7]])  # what the objective saw, before the write-back
    # row 1 alone: its best is its start, restored over call 2's output
    values.update({1: [1.0, 5.0], 2: [2.0, 1.0], 3: [3.0, 1.0], 4: [2.5, 1.0]})
    inputs.clear()
    value, pi, diag = maximize_over_pi(objective, 1, 2, OptimizerConfig(restarts=2))
    assert value == 5.0 and np.array_equal(pi.factors[0], _ascent_starts(1, 2, OptimizerConfig(restarts=2))[1, 0])
    assert diag["winner"] == 1


def test_maximize_over_pi_steps_the_rows_that_go_on_before_it_writes_into_f():
    # call c stops row c % B of its B live rows, and every row's value falls
    # at even calls, so the fallen rows' best is written into that call's F
    calls, cfg = [], OptimizerConfig(restarts=3)  # per call: its F, a copy taken at the call, the rows stepped

    def objective(batch):
        F, _ = batch
        c = len(calls) + 1
        gaps = np.ones(len(F))
        gaps[c % len(F)] = 0.0
        call = {"F": F, "copy": F.copy(), "stepped": None}
        calls.append(call)

        def step(on):
            assert call["stepped"] is None  # at most once
            assert on.size and (np.diff(on) > 0).all()
            assert np.array_equal(on, np.flatnonzero(gaps > cfg.tolerance))
            assert np.array_equal(F, call["copy"])  # nothing written into F yet
            call["stepped"] = on
            return np.tile([c / 10, 1 - c / 10], (len(on), 1, 1))

        return np.full(len(F), -1.0 if c % 2 == 0 else float(c)), gaps, step

    value, _, diag = maximize_over_pi(objective, 1, 2, cfg)
    assert [len(call["F"]) for call in calls] == [3, 2, 1]  # no call after the last start stops
    assert [call["stepped"] if call["stepped"] is None else list(call["stepped"]) for call in calls] == [
        [0, 2], [1], None
    ]
    assert not np.array_equal(calls[1]["F"], calls[1]["copy"])  # written after its step
    assert (value, diag["iterations"], diag["capped"]) == (3.0, 6, 0)


def test_maximize_over_pi_deterministic_across_runs():
    kernel = np.random.default_rng(3).dirichlet(np.ones(4), size=4)
    a = maximize_over_pi(_kernel_mi_objective(kernel), 2, 2, CFG)
    b = maximize_over_pi(_kernel_mi_objective(kernel), 2, 2, CFG)
    assert a[0] == b[0]
    assert all(np.array_equal(x, y) for x, y in zip(a[1].factors, b[1].factors))
    assert a[2] == b[2]


def _draws(seed, size):
    return _Draws.seeded(random.Random(seed), size)


def test_draws_repeat_under_one_seed_and_differ_across_seeds():
    def block(seed):
        draws = _draws(seed, 40)
        return draws.uniform(10), draws.exponential(10), draws.dirichlet((2, 5)), draws.integers(7, 10)

    for a, b in zip(block(3), block(3)):
        assert np.array_equal(a, b)
    assert not any(np.array_equal(a, b) for a, b in zip(block(3), block(4)))


def test_draws_stay_in_range_at_the_top_edge():
    top = np.full(8, 2**53 - 1, dtype=np.uint64)
    for m in (1, 2, 3, 12, 2048):
        assert (_Draws(top).integers(m, 8) == m - 1).all()
        assert np.array_equal(_Draws(top * 0).integers(m, 8), np.zeros(8))
    assert np.isfinite(_Draws(top).exponential(8)).all()
    # verify's ranges: [0, 0.7), and [eta_l + 0.1, 1) for eta_l across [0, 0.7)
    lo = np.linspace(0.1, 0.8, 4001)[:-1]
    edge = _Draws(np.full(lo.size, 2**53 - 1, dtype=np.uint64)).uniform(lo.size, lo, 1.0)
    assert (edge < 1.0).all() and (edge >= lo).all()
    assert (lo + (1.0 - lo) * (1 - 2.0**-53) >= 1.0).any()  # the rounding the cap removes
    assert (_Draws(top).uniform(8, 0.0, 0.7) < 0.7).all()
    assert (_Draws(top * 0).uniform(8, 0.2, 1.0) == 0.2).all()
    with pytest.raises(ValueError, match="2048"):
        _Draws(top).integers(2049, 8)
    with pytest.raises(ValueError):  # more draws than the block holds
        _Draws(top).uniform(9)


def _ascent_starts(n, d, cfg):
    """The starts maximize_over_pi hands its objective in the first step."""
    seen = []

    def objective(batch):
        F, _ = batch
        seen.append(F.copy())
        zeros = np.zeros(len(F))
        return zeros, zeros, lambda on: F.take(on, 0)

    maximize_over_pi(objective, n, d, cfg)
    return seen[0]


def test_ascent_starts_are_product_distributions():
    starts = _ascent_starts(3, 4, OptimizerConfig(restarts=50, seed=5))
    assert starts.shape == (50, 3, 4)
    assert np.isfinite(starts).all() and (starts >= 0).all()
    assert np.allclose(starts.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert (starts[0] == 0.25).all()
    assert np.array_equal(starts, _ascent_starts(3, 4, OptimizerConfig(restarts=50, seed=5)))
    assert not np.array_equal(starts, _ascent_starts(3, 4, OptimizerConfig(restarts=50, seed=6)))
    assert _ascent_starts(2, 3, OptimizerConfig(restarts=1)).shape == (1, 2, 3)


def test_ascent_starts_follow_the_dirichlet_law():
    # each entry of a Dirichlet(1) factor over d values is Beta(1, d - 1):
    # E[x^k] = k! / (d (d + 1) ... (d + k - 1)).  Any exchangeable law has
    # mean 1/d, so the second moment is checked too.  The seed is fixed.
    n, d, R = 2, 3, 2001
    draws = _ascent_starts(n, d, OptimizerConfig(restarts=R, seed=0))[1:].reshape(-1, d)
    m2, m4 = 2 / (d * (d + 1)), 24 / (d * (d + 1) * (d + 2) * (d + 3))
    for x, mean, var in ((draws, 1 / d, m2 - 1 / d**2), (draws**2, m2, m4 - m2**2)):
        assert (np.abs(x.mean(axis=0) - mean) <= 5 * np.sqrt(var / len(draws))).all()


def test_optimizer_config_validation():
    for tolerance in (0.0, -1e-9, float("inf"), float("nan"), True, "1e-9", None):
        refusal = f"^tolerance must be a finite positive number, got {re.escape(repr(tolerance))}$"
        with pytest.raises(ValueError, match=refusal):
            OptimizerConfig(tolerance=tolerance)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1)


@pytest.mark.parametrize("field", ["restarts", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "3", None])
def test_optimizer_config_refuses_a_non_integer_count(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        OptimizerConfig(**{field: value})


def test_optimizer_config_accepts_numpy_integers():
    cfg = OptimizerConfig(restarts=np.int64(3), seed=np.uint8(7))
    assert (type(cfg.restarts), type(cfg.seed)) == (int, int)
    assert np.array_equal(_ascent_starts(2, 2, cfg), _ascent_starts(2, 2, OptimizerConfig(restarts=3, seed=7)))


def test_vertex_counts():
    assert vertex_count(chsh_game()) == 256
    assert vertex_count(magic_square_game()) == 24**3 * 24**3


@lru_cache
def _vertex_rows(name):
    """Reference: the channel input every vertex sends for each message,
    one row per vertex in `product` order of the per-sender maps."""
    game = game_by_name(name)
    n, d, dD = game.n, game.d, game.d * game.D
    per = list(product(range(dD), repeat=d))
    messages = list(product(range(d), repeat=n))
    return np.array(
        [[pack_tuple([maps[k][m[k]] for k in range(n)], dD) for m in messages] for maps in product(per, repeat=n)]
    )


@pytest.mark.parametrize("name, count", [("chsh", 68), ("mpp:3", 216), ("mpp:4", 1296)])
def test_representatives_one_per_orbit(name, count):
    game = game_by_name(name)
    ch = type_ii(game, 0.6)
    vertices, slots, _ = _representatives(game)
    assert len(vertices) == count
    assert (np.diff(vertices) > 0).all()
    if name != "mpp:4":
        # each kernel is its vertex's rows of the dense matrix, bit for bit
        assert np.array_equal(ch._circulants[slots], ch.matrix[_vertex_rows(name)[vertices]])


@pytest.mark.parametrize(
    "n, d, base", [(2, 2, 4), (3, 2, 4), (4, 2, 4), (1, 3, 4), (2, 3, 2), (3, 1, 5), (2, 1, 6), (3, 2, 3)]
)
def test_canonical_maps_match_the_filtered_local_maps(n, d, base):
    # reference: every local_maps row, kept when each player's map is non-decreasing
    maps = local_maps(n, d, base)
    kept = np.flatnonzero((np.diff(maps, axis=-1) >= 0).all(axis=(1, 2)))
    indices, rows = _canonical_maps(n, d, base)
    assert np.array_equal(indices, kept)
    assert np.array_equal(rows, maps[kept])


def test_representatives_form_no_intp_map_index():
    # mpp:5's (100,000, 32) map index, once intp, set a 29.2 MiB peak; it
    # now holds (dD)^n - 1 = 1,023 in uint16, and the slots fit uint8
    ch = type_ii(mpp_game(5), 1.0)
    input_slots(ch.game)
    tracemalloc.start()
    try:
        vertices, slots, _ = _representatives(ch.game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slots.dtype == np.uint8 and len(vertices) == 7776
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("name", ["chsh", "mpp:2", "mpp:3", "mpp:4"])
def test_representatives_match_the_filtered_local_maps(name):
    # reference: the canonical rows filtered from the full enumeration, first of equal slots
    game = game_by_name(name)
    ch, dD = type_ii(game, 0.6), game.d * game.D
    maps = local_maps(game.n, game.d, dD)
    canonical = np.flatnonzero((np.diff(maps, axis=-1) >= 0).all(axis=(1, 2)))
    slots = input_slots(game)[local_map_indices(maps[canonical], dD)]
    first = np.sort(np.unique(slots, axis=0, return_index=True)[1])
    vertices, got, _ = _representatives(game)
    assert np.array_equal(vertices, canonical[first])
    assert np.array_equal(got, slots[first])


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("name", ["chsh", "mpp:3"])
def test_best_vertex_rate_matches_every_vertex_kernel(name, seed):
    # reference: I(M;Y) of every vertex's ch.matrix kernel at one random pi
    game = game_by_name(name)
    rng = np.random.default_rng(seed)
    ch = type_ii(game, float(rng.uniform(0.1, 1.0)))
    pi = ProductDistribution(tuple(rng.dirichlet(np.ones(game.d)) for _ in range(game.n)))
    pm = pi.joint()
    kernels = ch.matrix[_vertex_rows(name)]
    rates = entropy(pm @ kernels, axis=-1) - entropy(kernels, axis=-1) @ pm
    assert abs(best_vertex_rate_at_pi(ch, pi) - rates.max()) <= 1e-12


def test_classical_exact_chsh_value(chsh_type2_full):
    # frozen from the vertex enumeration; the coarse reference is 1.44
    assert chsh_type2_full.value == pytest.approx(1.4352809, abs=1e-4)
    assert chsh_type2_full.kind == "exact"
    assert chsh_type2_full.resource == "L"
    assert chsh_type2_full.argmax_encoder.startswith("vertex:")
    assert chsh_type2_full.diagnostics["vertices"] == 256


def test_classical_exact_beats_every_vertex_at_its_pi(chsh_type2_full):
    ch = type_ii(chsh_game(), 1.0)
    best_at_pi = best_vertex_rate_at_pi(ch, chsh_type2_full.argmax_pi)
    assert best_at_pi == pytest.approx(chsh_type2_full.value, abs=1e-9)


def test_classical_exact_refuses_magic_square():
    with pytest.raises(EnumerationCapExceeded) as err:
        classical_capacity_exact(type_ii(magic_square_game(), 1.0), CFG)
    assert "classical_upper_bound" in str(err.value)


def test_best_vertex_rate_cap():
    with pytest.raises(EnumerationCapExceeded):
        best_vertex_rate_at_pi(
            type_ii(magic_square_game(), 1.0), ProductDistribution.uniform(2, 3)
        )


def test_bruteforce_game_values():
    omega, strats = bruteforce_classical_game_value(chsh_game())
    assert omega == 0.75
    assert len(strats) == 2
    # the returned strategy actually achieves the value
    game = chsh_game()
    wins = sum(
        game.wins(q, (strats[0][q[0]], strats[1][q[1]])) for q in product(range(2), repeat=2)
    )
    assert wins / 4 == omega
    assert bruteforce_classical_game_value(magic_square_game())[0] == 8 / 9
    assert bruteforce_classical_game_value(mpp_game(3))[0] == 7 / 8


@pytest.mark.parametrize(
    "name, omega, strategies",
    [
        ("chsh", 0.75, ((0, 0), (0, 0))),
        ("magic-square", 8 / 9, ((0, 0, 3), (4, 4, 1))),
        ("mpp:3", 0.875, ((0, 0), (0, 0), (0, 1))),
        ("mpp:4", 0.875, ((0, 0), (0, 0), (0, 0), (1, 1))),
    ],
)
def test_bruteforce_returns_first_maximiser(name, omega, strategies):
    # values and first maximisers in `product` order, recorded from a
    # per-strategy loop over every strategy tuple
    assert bruteforce_classical_game_value(game_by_name(name)) == (omega, strategies)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 3),
    d=st.integers(2, 3),
    D=st.integers(2, 3),
    density=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bruteforce_matches_full_enumeration(n, d, D, density, seed):
    # sparse and dense tables make many optimal strategy tuples, so the
    # first maximiser in `product` order is what is compared
    table = np.random.default_rng(seed).random((d**n, D**n)) < density
    game = NonlocalGame("random", n, d, D, lambda q, a: table[pack_tuple(q, d), pack_tuple(a, D)])
    # reference: count the questions every strategy tuple wins
    w = table.reshape((d,) * n + (D,) * n)
    per = np.array(list(product(range(D), repeat=d)))
    counts = np.zeros((len(per),) * n, dtype=np.int64)
    for q in np.ndindex((d,) * n):
        counts += w[q][np.ix_(*(per[:, q_k] for q_k in q))]
    best = np.unravel_index(np.argmax(counts), counts.shape)
    expected = (counts[best] / d**n, tuple(tuple(int(a) for a in per[s]) for s in best))
    assert bruteforce_classical_game_value(game) == expected


def test_mpp_game_value_formula():
    # 3/4 + 2^-(ceil(n/2)+1): the brute force's value bit for bit, and the
    # one classical_upper_bound takes
    for n in range(2, 10):
        omega = 0.75 + 2.0 ** -(-(-n // 2) + 1)
        assert bruteforce_classical_game_value(mpp_game(n))[0] == omega
        bound = classical_upper_bound(type_ii(mpp_game(n), 0.5), OptimizerConfig(restarts=1))
        assert bound.diagnostics["omega_star"] == omega


def test_sweep_computes_the_game_value_once():
    # the magic square's predicate behind another function: no closed form
    game = NonlocalGame("square", 2, 3, 8, lambda q, a: games._magic_square_wins(q, a))
    bruteforce_classical_game_value.cache_clear()
    rows = sweep(game, 2, [0.2, 0.6, 1.0], ["L-bound"], CFG)
    assert [r.diagnostic for r in rows] == ["omega*=0.8888888889"] * 3
    info = bruteforce_classical_game_value.cache_info()
    assert (info.misses, info.hits) == (1, 3)  # searched in the prepare; each row reads it


def _other_predicate(q, a):
    return games._mpp_wins(q, a) | (q[0] == 0)  # wins more than Mermin's game


def _chsh_or_first_question(q, a):
    return games._chsh_wins(q, a) | (q[0] == 0)  # a player-2 map wins every question


@pytest.mark.parametrize(
    "game, searches, omega",
    [
        (NonlocalGame("mpp:4", 4, 2, 2, _other_predicate), True, 0.9375),
        (NonlocalGame("ghz", 4, 2, 2, games._mpp_wins), False, 0.875),
        (NonlocalGame("square", 2, 3, 8, games._magic_square_wins), False, 8 / 9),
        (NonlocalGame("bell", 2, 2, 2, games._chsh_wins), False, 0.75),
        (NonlocalGame("chsh", 2, 2, 2, _chsh_or_first_question), True, 1.0),
        (NonlocalGame("magic-square", 2, 3, 8, lambda q, a: games._magic_square_wins(q, a)), True, 8 / 9),
    ],
    ids=[
        "another-predicate-named-mpp:4",
        "mermin-predicate-named-ghz",
        "magic-square-predicate-named-square",
        "chsh-predicate-named-bell",
        "another-predicate-named-chsh",
        "wrapped-predicate-named-magic-square",
    ],
)
def test_l_bound_game_value_follows_the_predicate_not_the_name(monkeypatch, game, searches, omega):
    searched = []
    real = capacity.bruteforce_classical_game_value
    monkeypatch.setattr(capacity, "bruteforce_classical_game_value", lambda g: searched.append(g) or real(g))
    bound = classical_upper_bound(type_ii(game, 0.5), OptimizerConfig(restarts=1))
    assert searched == ([game] if searches else [])
    assert (game._table is None) != searches  # the closed form builds no win table
    assert bound.diagnostics["omega_star"] == real(game)[0] == omega


@pytest.mark.parametrize("name, omega", [("chsh", 0.75), ("magic-square", 8 / 9)])
def test_closed_form_game_values_are_the_search_bit_for_bit(name, omega):
    closed = capacity._classical_value(game_by_name(name))
    assert closed.hex() == bruteforce_classical_game_value(game_by_name(name))[0].hex() == omega.hex()


def _tied_rows(kinds: list[str], delta: int, rng) -> np.ndarray:
    """One row (Δ,) per kind: a random law, the uniform law, a random law
    times 10 rounded to two decimals (ties and zeros), or the product law of
    one binary factor for every sender (ties within each weight class; a
    random law unless Δ is a power of two)."""
    rows = []
    for kind in kinds:
        if kind == "uniform":
            rows.append(np.full(delta, 1.0 / delta))
        elif kind == "rounded":
            rows.append(np.round(rng.dirichlet(np.ones(delta)) * 10, 2))
        elif kind == "product" and delta & (delta - 1) == 0:
            n = delta.bit_length() - 1
            rows.append(product_joint(np.tile(rng.dirichlet(np.ones(2)), (1, n, 1)))[0])
        else:
            rows.append(rng.dirichlet(np.ones(delta)))
    return np.stack(rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    delta=st.sampled_from([2, 4, 9, 16, 63, 64, 65, 128, 256]),
    kinds=st.lists(st.sampled_from(["random", "uniform", "rounded", "product"]), min_size=1, max_size=6),
    which=st.sampled_from(["0", "1", "Δ-1", "Δ", "any"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_mask_is_the_stable_sort_set(delta, kinds, which, seed):
    rng = np.random.default_rng(seed)
    pm = _tied_rows(kinds, delta, rng)
    r = {"0": 0, "1": 1, "Δ-1": delta - 1, "Δ": delta, "any": int(rng.integers(1, delta + 1))}[which]
    mask = capacity._top_mask(pm, r)
    expected = np.zeros(pm.shape)
    np.put_along_axis(expected, np.argsort(-pm, axis=-1, kind="stable")[:, :r], 1.0, axis=-1)
    assert mask.dtype == float and np.array_equal(mask, expected)


def test_subset_step_on_tied_rows_matches_the_frozen_step():
    # mpp:6, Δ = 64, with rows whose masses all tie
    ch = type_ii(mpp_game(6), 0.6)
    rng = np.random.default_rng(6)
    for r_max in (1, round(capacity._classical_value(ch.game) * ch.delta), ch.delta):
        F = rng.dirichlet(np.ones(2), size=(20, 6))
        F[:4] = 0.5  # uniform rows: all 64 masses tie
        args = (ch, r_max)
        _assert_steps_match(_subset_bound_objective(*args), _frozen_subset_bound_objective(*args), F, np.zeros(20, int))


def test_bruteforce_cap():
    # 4^12 strategy tuples: refused before any work
    with pytest.raises(EnumerationCapExceeded):
        bruteforce_classical_game_value(mpp_game(12))


def test_classical_upper_bound_chsh():
    ch = type_ii(chsh_game(), 1.0)
    result = classical_upper_bound(ch, CFG)
    assert result.value == pytest.approx(1.6276, abs=1e-3)
    assert result.kind == "paper-bound"
    assert result.diagnostics["omega_star"] == 0.75
    assert result.diagnostics["r_max"] == 3


def test_classical_upper_bound_dominates_exact(chsh_type2_full):
    bound = classical_upper_bound(type_ii(chsh_game(), 1.0), CFG)
    assert bound.value >= chsh_type2_full.value - 1e-9


@lru_cache
def _former_grid(n, d, step):
    """Joint law of every product of per-sender factors on the simplex
    lattice of spacing step: the grid the bound's ascent replaced."""
    k = round(1 / step)
    per = [np.array(c) / k for c in product(range(k + 1), repeat=d) if sum(c) == k]
    rows = []
    for combo in product(per, repeat=n):
        pm = combo[0]
        for f in combo[1:]:
            pm = np.outer(pm, f).ravel()
        rows.append(pm)
    return np.array(rows)


@PROPERTY
@given(name=st.sampled_from(["chsh", "magic-square", "mpp:3"]), eta=st.floats(0.1, 1.0))
def test_classical_upper_bound_dominates_former_grid(name, eta):
    # the ascent never ends below the product grid it replaced
    game = game_by_name(name)
    ch = type_ii(game, eta)
    bound = classical_upper_bound(ch, CFG)
    pms = _former_grid(game.n, game.d, 0.05 if game.d == 2 else 0.1)
    h = -(pms * np.log2(np.where(pms > 0, pms, 1.0))).sum(axis=1)
    top = -np.sort(-pms, axis=1)[:, : bound.diagnostics["r_max"]].sum(axis=1)
    grid = h + (ch.f_l - ch.f_w) * top - ch.f_l
    assert bound.value >= grid.max() - 1e-12


@PROPERTY
@given(eta=st.floats(0.1, 1.0), seed=st.integers(0, 2**32 - 1))
def test_chsh_optima_beat_random_pi(eta, seed):
    ch = type_ii(chsh_game(), eta)
    rng = np.random.default_rng(seed)
    pi = ProductDistribution(tuple(rng.dirichlet(np.ones(2)) for _ in range(2)))
    assert classical_capacity_exact(ch, CFG).value >= best_vertex_rate_at_pi(ch, pi) - 1e-12
    q_rate = sum_rate(pi, e_star(tsirelson_box()), ch)
    assert quantum_lower_bound_chsh(ch).value >= q_rate - 1e-12


@PROPERTY
@given(
    name=st.sampled_from(["chsh", "magic-square", "mpp:3"]),
    eta=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_sweep_never_lowers_the_value(name, eta, seed):
    game = game_by_name(name)
    ch = type_ii(game, eta)
    rng = np.random.default_rng(seed)
    F = rng.dirichlet(np.ones(game.d), size=(4, game.n))
    kernel = rng.dirichlet(np.full(5, 0.5), size=game.d**game.n)
    r_max = int(rng.integers(1, ch.delta + 1))
    group = np.zeros(len(F), dtype=int)
    for objective in (_kernel_mi_objective(kernel), _subset_bound_objective(ch, r_max)):
        before, gaps, swept = _step_every_row(objective, F, group)
        after = objective((swept, group))[0]
        assert (after >= before - 1e-12).all()
        assert (gaps >= -1e-12).all()


@PROPERTY
@given(shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]), seed=st.integers(0, 2**32 - 1))
def test_mi_gap_bounds_any_single_factor_change(shape, seed):
    n, d = shape
    rng = np.random.default_rng(seed)
    F = rng.dirichlet(np.ones(d), size=(4, n))
    objective = _kernel_mi_objective(rng.dirichlet(np.full(5, 0.5), size=d**n))
    group = np.zeros(len(F), dtype=int)
    before, gaps, _ = objective((F, group))
    for k in range(n):
        moved = F.copy()
        moved[:, k] = rng.dirichlet(np.ones(d), size=4)
        assert (objective((moved, group))[0] <= before + gaps + 1e-12).all()


@PROPERTY
@given(n=st.sampled_from([2, 3]), groups=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_grouped_ascent_matches_one_kernel_runs(n, groups, seed):
    # kernels of the chsh (n = 2) and mpp:3 (n = 3) shapes: d = 2, Δ = 2^n outputs
    rng = np.random.default_rng(seed)
    kernels = rng.dirichlet(np.ones(2**n), size=(groups, 2**n))
    cfg = OptimizerConfig(restarts=6, seed=int(rng.integers(0, 1000)))
    with patch.object(capacity, "MAX_ITERATIONS", 100):
        alone = [maximize_over_pi(_kernel_mi_objective(k), n, 2, cfg) for k in kernels]
        best, pi, diag = maximize_over_pi(_kernel_mi_objective(kernels), n, 2, cfg, groups=groups)
    # the per-candidate loop a grouped call replaces: later wins only beyond rounding
    pick = 0
    for g, (value1, _, _) in enumerate(alone):
        if value1 > alone[pick][0] + 1e-12:
            pick = g
    value1, pi1, diag1 = alone[pick]
    assert diag["group"] == pick
    assert best == value1
    assert all(np.array_equal(a, b) for a, b in zip(pi.factors, pi1.factors))
    assert (diag["gap"], diag["winner"]) == (diag1["gap"], diag1["winner"])
    for key in ("iterations", "capped"):
        assert diag[key] == sum(a[2][key] for a in alone)


def test_grouped_ascent_over_copies_of_one_kernel_picks_the_first():
    kernel = np.random.default_rng(3).dirichlet(np.ones(8), size=8)
    value1, pi1, diag1 = maximize_over_pi(_kernel_mi_objective(kernel), 3, 2, CFG)
    copies = 5
    value, pi, diag = maximize_over_pi(
        _kernel_mi_objective(np.stack([kernel] * copies)), 3, 2, CFG, groups=copies
    )
    assert diag["group"] == 0
    assert value == value1
    assert all(np.array_equal(a, b) for a, b in zip(pi.factors, pi1.factors))
    assert (diag["gap"], diag["winner"]) == (diag1["gap"], diag1["winner"])
    assert diag["iterations"] == copies * diag1["iterations"]


def test_grouped_ascent_builds_one_product_distribution(monkeypatch):
    built = []
    original = capacity.ProductDistribution
    monkeypatch.setattr(capacity, "ProductDistribution", lambda *a: built.append(a) or original(*a))
    kernels = np.random.default_rng(5).dirichlet(np.ones(4), size=(8, 4))
    maximize_over_pi(_kernel_mi_objective(kernels), 2, 2, CFG, groups=8)
    assert len(built) == 1


@PROPERTY
@given(shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]), seed=st.integers(0, 2**32 - 1))
def test_extrapolated_step_never_lowers_the_value_and_converges(shape, seed):
    n, d = shape
    rng = np.random.default_rng(seed)
    objective = _kernel_mi_objective(rng.dirichlet(np.ones(d**n), size=d**n))
    F = rng.dirichlet(np.ones(d), size=(8, n))
    group = np.zeros(len(F), dtype=int)
    before, _, stepped = _step_every_row(objective, F, group)
    assert (objective((stepped, group))[0] >= before - 1e-12).all()
    _, _, diag = maximize_over_pi(objective, n, d, CFG)
    assert diag["capped"] == 0
    assert diag["gap"] <= CFG.tolerance


def test_capped_counts_starts_that_ran_out_of_steps():
    kernels = np.random.default_rng(7).dirichlet(np.ones(4), size=(3, 4))
    cfg = OptimizerConfig(restarts=5)
    with patch.object(capacity, "MAX_ITERATIONS", 1):
        _, _, diag = maximize_over_pi(_kernel_mi_objective(kernels), 2, 2, cfg, groups=3)
    assert diag["capped"] == 5 * 3
    assert diag["iterations"] == 5 * 3


# ---------------------------------------------------------------------------
# the objectives' inner step against the form it replaced
# ---------------------------------------------------------------------------


def _einsum_block_average(x, F, k):
    """The einsum form of block k of `_block_averages`, kept as its reference."""
    R, n, d = F.shape
    operands = [x.reshape((R,) + (d,) * n), [n, *range(n)]]
    for j in range(n):
        if j != k:
            operands += [F[:, j], [n, j]]
    return np.einsum(*operands, [n, k])


def _frozen_kernel_mi_objective(kernels, slots=None):
    """`_kernel_mi_objective` as it stood before its matmul block averages:
    einsum block averages, H(q) by `entropy`, SQUAREM norms by
    np.linalg.norm; with the step-back off the simplex written as a loop
    over rows and halvings."""
    if slots is None:
        slots = np.arange(kernels.size // kernels.shape[-1]).reshape(-1, kernels.shape[-2])
        kernels = kernels.reshape(-1, kernels.shape[-1])
    h_rows = entropy(kernels, axis=-1)

    def objective(batch):
        F0, group = batch
        n = F0.shape[1]
        rows = slots[group]
        K, h = kernels[rows], h_rows[rows]

        def divergences(pm):
            q = np.matmul(pm[:, None, :], K)[:, 0]
            log_q = np.log2(np.where(q > 0, q, 1.0))
            return -h - np.matmul(K, log_q[..., None])[..., 0], q

        def sweep(F, certify=False):
            F = F.copy()
            pm = product_joint(F)
            div, q = divergences(pm)
            values = entropy(q, axis=-1) - (pm * h).sum(-1)
            scores = [_einsum_block_average(div, F, k) for k in range(n if certify else 1)]
            gaps = np.max([g.max(axis=-1) for g in scores], axis=0) - values if certify else None
            for k in range(n):
                score = scores[0] if k == 0 else _einsum_block_average(divergences(product_joint(F))[0], F, k)
                w = F[:, k] * np.exp2(score - score.max(axis=-1, keepdims=True))
                F[:, k] = w / w.sum(axis=-1, keepdims=True)
            return values, gaps, F

        values, gaps, F1 = sweep(F0, certify=True)
        value1, _, F2 = sweep(F1)
        r, v = F1 - F0, F2 - 2.0 * F1 + F0
        r_norm, v_norm = (np.linalg.norm(x, axis=(1, 2)) for x in (r, v))
        alpha = -np.maximum(r_norm / np.where(v_norm > 0, v_norm, np.inf), 1.0)
        a = alpha[:, None, None]
        F_ext = F0 - 2.0 * a * r + a * a * v
        take = (alpha < -1.0) & (F_ext > 0).all(axis=(1, 2))
        for i in np.flatnonzero((alpha < -1.0) & ~take):
            for j in range(1, 5):  # halve alpha + 1 until the point is inside, at most 4 times
                b = -1.0 + (alpha[i] + 1.0) / 2**j
                point = F0[i] - 2.0 * b * r[i] + b * b * v[i]
                if (point > 0).all():
                    F_ext[i], take[i] = point, True
                    break
        F_ext[~take] = F2[~take]
        F_ext[take] /= F_ext[take].sum(axis=-1, keepdims=True)
        value_ext, _, F3 = sweep(F_ext)
        stepped = np.where((value_ext >= value1)[:, None, None], F3, F2)
        return values, gaps, lambda on: stepped[on]

    return objective


def _frozen_subset_bound_objective(ch, r_max):
    """`_subset_bound_objective` as it stood before: einsum block averages,
    the top set by np.put_along_axis, each joint formed anew."""
    spread = ch.f_l - ch.f_w

    def top_set(F):
        pm = product_joint(F)
        top = np.argsort(-pm, axis=-1, kind="stable")[:, :r_max]
        mask = np.zeros(pm.shape)
        np.put_along_axis(mask, top, 1.0, axis=-1)
        return mask

    def objective(batch):
        F = batch[0].copy()
        n = F.shape[1]
        mask = top_set(F)
        h = entropy(F, axis=-1)
        values = h.sum(axis=-1) + spread * (mask * product_joint(F)).sum(axis=-1) - ch.f_l
        gaps = np.zeros(F.shape[0])
        for k in range(n):
            a = _einsum_block_average(mask, F, k)
            block = h[:, k] + spread * (F[:, k] * a).sum(axis=-1)
            gaps = np.maximum(gaps, np.logaddexp2.reduce(spread * a, axis=-1) - block)
        for k in range(n):
            if k:
                mask = top_set(F)
            w = np.exp2(spread * _einsum_block_average(mask, F, k))
            F[:, k] = w / w.sum(axis=-1, keepdims=True)
        return values, gaps, lambda on: F[on]

    return objective


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), d=st.integers(2, 3), rows=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_block_average_matches_einsum_and_keeps_rows_independent(n, d, rows, seed):
    # n = 1 is the pruning shape (one sender of Δ messages): nothing is summed out
    # every block alone (the updates' calls) against all blocks (the
    # certificates'): the shared right-hand chain changes no bit
    rng = np.random.default_rng(seed)
    F = rng.dirichlet(np.ones(d), size=(rows, n))
    x = rng.random((rows, d**n))
    x_bytes, F_bytes = x.tobytes(), F.tobytes()
    every = _block_averages(x, F)
    assert every.shape == (rows, n, d)
    for k in range(n):
        block = _block_averages(x, F, k)
        assert block.shape == (rows, d)
        one_row = np.stack([_block_averages(x[r : r + 1], F[r : r + 1], k)[0] for r in range(rows)])
        assert np.array_equal(block, every[:, k])
        assert np.array_equal(one_row, block)
        assert np.abs(block - _einsum_block_average(x, F, k)).max() <= 1e-15
    assert x.tobytes() == x_bytes and F.tobytes() == F_bytes


def _step_every_row(objective, F, group):
    """objective's values and gaps at F, and F after one step of every row."""
    values, gaps, step = objective((F, group))
    return values, gaps, step(np.arange(len(F)))


def _assert_steps_match(objective, frozen, F, group, steps=3):
    """Both objectives from the same F, `steps` times, each from the new F."""
    for _ in range(steps):
        new, old = _step_every_row(objective, F, group), _step_every_row(frozen, F, group)
        for a, b in zip(new, old):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        F = new[2]


STEP_GAMES = ["chsh", "magic-square", "mpp:3", "mpp:4"]


@pytest.mark.parametrize("shape", ["grouped", "stacked", "pruning"])
@pytest.mark.parametrize("name", STEP_GAMES)
def test_mi_step_matches_the_frozen_step(name, shape):
    # grouped: the L-exact ascent's basis rows and slots; stacked: one (Δ, Y)
    # kernel per group, as vertex files pass; pruning: one sender of Δ messages
    game = game_by_name(name)
    ch = type_ii(game, 0.3)
    rng = np.random.default_rng(STEP_GAMES.index(name))
    slots = rng.integers(0, 2 * ch.delta, size=(24 if shape == "pruning" else 3, ch.delta))
    args = (ch._circulants[slots],) if shape == "stacked" else (ch._circulants, slots)
    n, d = (1, ch.delta) if shape == "pruning" else (game.n, game.d)
    group = np.arange(24) if shape == "pruning" else np.repeat(np.arange(3), 8)
    F = rng.dirichlet(np.ones(d), size=(24, n))
    _assert_steps_match(_kernel_mi_objective(*args), _frozen_kernel_mi_objective(*args), F, group)


@pytest.mark.parametrize("name", STEP_GAMES)
def test_subset_step_matches_the_frozen_step(name):
    game = game_by_name(name)
    ch = type_ii(game, 0.6)
    rng = np.random.default_rng(STEP_GAMES.index(name))
    group = np.zeros(20, dtype=int)
    for r_max in (0, 1, round(bruteforce_classical_game_value(game)[0] * ch.delta), ch.delta):
        F = rng.dirichlet(np.ones(game.d), size=(20, game.n))
        _assert_steps_match(_subset_bound_objective(ch, r_max), _frozen_subset_bound_objective(ch, r_max), F, group)


def _exact_outcome(ch):
    """Everything classical_capacity_exact reports, the factors as bytes."""
    r = classical_capacity_exact(ch, CFG)
    return r.value, r.argmax_encoder, r.diagnostics, [f.tobytes() for f in r.argmax_pi.factors]


@pytest.mark.parametrize("name", ["chsh", "mpp:3", "mpp:4"])
def test_pruning_chunks_change_no_result(monkeypatch, name):
    ch = type_ii(game_by_name(name), 0.5)
    results = []
    for budget in (1, 10**9):  # one row per objective call; every row in one call
        monkeypatch.setattr(capacity, "_PRUNE_CHUNK_ELEMENTS", budget)
        results.append(_exact_outcome(ch))
    assert results[0] == results[1]


# (game, channel type, eta, seed): type-II and type-I channels, and random
# two-branch channels whose pruning runs 73 (chsh) and 15 (mpp:3) steps with
# no plain step, 52 and 18 with two
PLAIN_STEP_CHANNELS = [
    *((name, 2, eta, None) for name in ("chsh", "mpp:3", "mpp:4") for eta in (0.1, 0.5, 1.0)),
    *((name, 1, 0.5, None) for name in ("chsh", "mpp:3", "mpp:4")),
    ("chsh", None, None, 2),
    ("mpp:3", None, None, 2),
]


@pytest.mark.parametrize("name, channel_type, eta, seed", PLAIN_STEP_CHANNELS)
def test_plain_pruning_steps_change_no_result(monkeypatch, name, channel_type, eta, seed):
    # every pruning step brackets a representative's capacity between its
    # value and its Blahut-Arimoto bound, so plain sweeps and SQUAREM steps
    # keep the same survivors, and so every reported number
    if seed is None:
        ch = channel_for(game_by_name(name), channel_type, eta)
    else:
        ch = _random_channel(name, seed)
    default = _exact_outcome(ch)
    for plain_steps in (0, capacity.MAX_ITERATIONS):  # every step SQUAREM; every step plain
        monkeypatch.setattr(capacity, "_PLAIN_PRUNE_STEPS", plain_steps)
        assert _exact_outcome(ch) == default


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    channels=st.lists(st.tuples(st.sampled_from([1, 2]), st.floats(0.05, 0.95)), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@pytest.mark.parametrize("name", ["chsh", "mpp:3"])
def test_kept_vertex_table_changes_no_row(name, channels, seed):
    # warm: every channel on one game, type-I and type-II η in any order,
    # whose vertex table and orbit map are built once and kept, the map
    # growing from channel to channel; cold: each channel on a fresh game,
    # its table and map built anew.  The random two-branch channel takes
    # the keep-every-row orbit path.
    game, random_ch = game_by_name(name), _random_channel(name, seed)
    capacity._representatives.cache_clear()
    capacity._orbit_of.cache_clear()
    warm = [_exact_outcome(channel_for(game, channel_type, eta)) for channel_type, eta in channels]
    warm.append(_exact_outcome(two_branch_mac(game, random_ch.win_profile, random_ch.lose_profile)))
    assert capacity._representatives.cache_info().misses == capacity._orbit_of.cache_info().misses == 1
    cold = [_exact_outcome(channel_for(game_by_name(name), channel_type, eta)) for channel_type, eta in channels]
    assert warm == [*cold, _exact_outcome(random_ch)]


def test_l_exact_sweep_builds_the_vertex_table_once(monkeypatch):
    calls = []
    real = capacity._canonical_maps
    monkeypatch.setattr(capacity, "_canonical_maps", lambda *args: calls.append(args) or real(*args))
    rows = sweep(chsh_game(), 2, [0.2, 0.6, 1.0], ["L-exact"], CFG)
    assert len(rows) == 3 and len(calls) == 1


def _objective_cases(shape, groups, name, eta, rng):
    """Both I(M;Y) objectives over grouped slots of a random basis, of
    shape (n, d), and the subset bound of a channel of game `name`: each
    with its (n, d) and group count."""
    n, d = shape
    basis = rng.dirichlet(np.full(5, 0.5), size=2 * d**n)
    slots = rng.integers(0, len(basis), size=(groups, d**n))
    ch = type_ii(game_by_name(name), eta)
    subset = _subset_bound_objective(ch, round(capacity._classical_value(ch.game) * ch.delta))
    cases = [(_kernel_mi_objective(basis, slots, extrapolate), n, d, groups) for extrapolate in (True, False)]
    return cases + [(subset, ch.game.n, ch.game.d, 1)]


OBJECTIVE_CASES = dict(
    shape=st.sampled_from([(1, 4), (2, 2), (2, 3), (3, 2)]),
    groups=st.integers(1, 4),
    name=st.sampled_from(["chsh", "mpp:3", "magic-square"]),
    eta=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)


@PROPERTY
@given(**OBJECTIVE_CASES)
def test_objectives_never_write_to_their_factors(shape, groups, name, eta, seed):
    # maximize_over_pi keeps F as its best so far by reference, so no call,
    # whether its step is never called or steps every row or some rows, may
    # write to F or return a view of it; (1, 4) is the pruning's shape, one
    # sender of Δ messages
    rng = np.random.default_rng(seed)
    for objective, n, d, g in _objective_cases(shape, groups, name, eta, rng):
        F = rng.dirichlet(np.ones(d), size=(7, n))
        group = rng.integers(0, g, size=len(F))
        before = F.tobytes()
        for on in (None, np.arange(len(F)), np.array([1, 4, 5])):
            values, gaps, step = objective((F, group))
            outs = (values, gaps) if on is None else (values, gaps, step(on))
            assert F.tobytes() == before
            assert not any(np.shares_memory(out, F) for out in outs)


@PROPERTY
@given(**OBJECTIVE_CASES)
def test_a_step_of_some_rows_is_those_rows_of_a_step_of_every_row(shape, groups, name, eta, seed):
    # the ascent steps its live starts, fewer as they stop, and the pruning
    # every row, then the undecided ones; rows are independent bit for bit
    rng = np.random.default_rng(seed)
    for objective, n, d, g in _objective_cases(shape, groups, name, eta, rng):
        F = rng.dirichlet(np.ones(d), size=(7, n))
        group = rng.integers(0, g, size=len(F))
        values, gaps, every = _step_every_row(objective, F, group)
        some = np.sort(rng.choice(len(F), size=int(rng.integers(1, len(F))), replace=False))
        for on in (some, np.array([len(F) - 1]), np.arange(len(F))):
            assert objective((F, group))[2](on).tobytes() == every[on].tobytes()
        # a step never called: the same values and gaps, and one block average, the certificate's
        with patch.object(capacity, "_block_averages", wraps=capacity._block_averages) as averages:
            evaluated, certified, _ = objective((F, group))
        assert averages.call_count == 1
        assert evaluated.tobytes() == values.tobytes() and certified.tobytes() == gaps.tobytes()


def _stepping_every_row(objective):
    """objective whose step steps every row, then picks the rows asked for."""

    def wrapped(batch):
        values, gaps, step = objective(batch)
        return values, gaps, lambda rows: step(np.arange(len(batch[0])))[rows]

    return wrapped


@PROPERTY
@given(**OBJECTIVE_CASES)
def test_continue_rule_changes_no_ascent(shape, groups, name, eta, seed):
    # the starts stop at different steps, so the ascent steps every row, some
    # rows and, once all have stopped, none
    rng = np.random.default_rng(seed)
    cfg = OptimizerConfig(restarts=6, seed=seed % 1000)
    for objective, n, d, g in _objective_cases(shape, groups, name, eta, rng):
        as_is = maximize_over_pi(objective, n, d, cfg, g)
        every = maximize_over_pi(_stepping_every_row(objective), n, d, cfg, g)
        assert as_is[0].hex() == every[0].hex() and as_is[2] == every[2]
        assert [f.tobytes() for f in as_is[1].factors] == [f.tobytes() for f in every[1].factors]


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["chsh", "mpp:3"]),
    channel_type=st.sampled_from([1, 2]),
    eta=st.floats(0.05, 0.95),
)
def test_continue_rule_changes_no_exact_capacity(name, channel_type, eta):
    # the pruning's rows (every row at step 0, the undecided ones after)
    # and the grouped ascent's, against every row stepped
    ch = channel_for(game_by_name(name), channel_type, eta)
    as_is = _exact_outcome(ch)
    original = capacity._kernel_mi_objective
    with patch.object(
        capacity, "_kernel_mi_objective", lambda *args: _stepping_every_row(original(*args))
    ):
        assert _exact_outcome(ch) == as_is


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    delta=st.integers(2, 32),
    outputs=st.integers(2, 32),
    sparse=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_plain_step_is_the_first_sweep_and_never_lowers_the_rate(delta, outputs, sparse, seed):
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.ones(outputs), size=delta)
    if sparse:  # zero about half of each row but its largest entry
        kernel *= (rng.random(kernel.shape) < 0.5) | (kernel == kernel.max(axis=1, keepdims=True))
        kernel /= kernel.sum(axis=1, keepdims=True)
    F = np.concatenate([np.full((1, 1, delta), 1.0 / delta), rng.dirichlet(np.ones(delta), size=(7, 1))])
    group = np.zeros(len(F), dtype=int)
    values, gaps, stepped = _step_every_row(_kernel_mi_objective(kernel, extrapolate=False), F, group)
    squarem = _kernel_mi_objective(kernel)((F, group))
    assert values.tobytes() == squarem[0].tobytes() and gaps.tobytes() == squarem[1].tobytes()
    assert (_kernel_mi_objective(kernel, extrapolate=False)((stepped, group))[0] >= values - 1e-15).all()


def test_pruning_never_gathers_every_kernel_at_once():
    # mpp:5's first pruning step once gathered all 7,776 representatives'
    # (32, 32) kernels, 63.7 MB, for a tracemalloc peak of 92.8 MB
    ch = type_ii(mpp_game(5), 1.0)
    ch._circulants
    tracemalloc.start()
    try:
        result = classical_capacity_exact(ch, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.argmax_encoder == "vertex:139814"
    assert peak < 7776 * 32 * 32 * 8


# Values of the plain Blahut-Arimoto ascent this step replaced, seed 0:
# (game, eta) -> (L-exact value, its vertex, Q-lower value or None)
FORMER_ASCENT = {
    ("chsh", 0.1): (0.015319251846211968, "vertex:34", 0.014986336521687793),
    ("chsh", 0.3): (0.1251906186817906, "vertex:34", 0.1253810992609532),
    ("chsh", 0.5): (0.3281978483338648, "vertex:34", 0.3328154563075647),
    ("chsh", 0.75): (0.7218438624401722, "vertex:34", 0.7309693545154923),
    ("chsh", 1.0): (1.4352809428676363, "vertex:34", 1.3264977737608123),
    ("mpp:3", 0.1): (0.03869972227862961, "vertex:547", None),
    ("mpp:3", 0.5): (0.6915570893669942, "vertex:547", None),
    ("mpp:3", 1.0): (2.605346777001006, "vertex:547", None),
}


@pytest.mark.parametrize("name, eta", list(FORMER_ASCENT))
def test_ascent_matches_former_values(name, eta):
    value, vertex, q_value = FORMER_ASCENT[name, eta]
    ch = type_ii(game_by_name(name), eta)
    result = classical_capacity_exact(ch, CFG)
    assert abs(result.value - value) <= 1e-10
    assert result.argmax_encoder == vertex
    assert result.diagnostics["capped"] == 0
    assert result.diagnostics["gap"] <= CFG.tolerance
    if q_value is not None:
        q = quantum_lower_bound_chsh(ch)
        assert abs(q.value - q_value) <= 1e-10
        assert abs(q.diagnostics["direct_sum_rate"] - q.value) <= PT_CROSS_CHECK_TOL


@pytest.mark.parametrize("name, steps", [("chsh", 300), ("mpp:3", 600)])
def test_step_back_bounds_the_ascent_steps_at_low_eta(name, steps):
    # at type-II η = 0.1 extrapolated points often leave the simplex; taking
    # F2 there, the ascent ran 431 steps over 20 starts on chsh and 936 on
    # mpp:3, and stepping alpha back toward -1 runs 205 and 425
    result = classical_capacity_exact(type_ii(game_by_name(name), 0.1), CFG)
    assert result.diagnostics["iterations"] <= steps
    assert result.diagnostics["gap"] <= CFG.tolerance


def _random_channel(name, seed):
    """Two-branch channel with random profiles: one sorted to peak at the
    echoed question tuple, the other unsorted; the lower-entropy one wins."""
    game = game_by_name(name)
    rng = np.random.default_rng(seed)
    peaked = -np.sort(-rng.dirichlet(np.ones(game.d**game.n)))
    other = rng.dirichlet(np.ones(game.d**game.n))
    profiles = (peaked, other) if entropy(peaked) < entropy(other) else (other, peaked)
    return two_branch_mac(game, *profiles)


SOUNDNESS_CHANNELS = [
    *((name, eta, None) for name in ("chsh", "mpp:3") for eta in (0.1, 0.5, 1.0)),
    ("chsh", None, 1),
    ("mpp:3", None, 2),
    ("mpp:3", None, 15),
]


@pytest.mark.parametrize("name, eta, seed", SOUNDNESS_CHANNELS)
def test_pruning_keeps_the_unpruned_maximum(name, eta, seed):
    # reference: one grouped ascent over every representative, none pruned
    ch = type_ii(game_by_name(name), eta) if seed is None else _random_channel(name, seed)
    vertices, slots, _ = _representatives(ch.game)
    value, _, diag = maximize_over_pi(
        _kernel_mi_objective(ch._circulants, slots), ch.game.n, ch.game.d, CFG, groups=len(vertices)
    )
    result = classical_capacity_exact(ch, CFG)
    assert abs(result.value - value) <= 1e-12
    assert result.argmax_encoder == f"vertex:{vertices[diag['group']]}"
    assert result.diagnostics["representatives"] == len(vertices)
    assert result.diagnostics["candidates"] < len(vertices)


def test_classical_exact_finds_the_vertex_a_grid_dropped():
    # a coarse-then-fine grid prefilter ranked vertex 563 out and reported
    # 0.8448723661 here, 4.6e-4 bits below the unpruned ascent's maximum
    result = classical_capacity_exact(_random_channel("mpp:3", 15), CFG)
    assert abs(result.value - 0.8453350674443052) <= 1e-10
    assert result.argmax_encoder == "vertex:563"


def test_classical_exact_mpp4_without_the_dense_matrix():
    ch = type_ii(mpp_game(4), 1.0)
    result = classical_capacity_exact(ch, CFG)
    assert abs(result.value - 3.379605076705) <= 1e-9
    assert result.diagnostics["vertices"] == 65536
    assert "matrix" not in vars(ch)


def test_vertex_kernels_are_never_formed(monkeypatch):
    monkeypatch.setattr(MacChannel, "kernel", lambda *args: pytest.fail("a vertex kernel was formed"))
    ch = type_ii(mpp_game(3), 0.5)
    result = classical_capacity_exact(ch, CFG)
    assert abs(best_vertex_rate_at_pi(ch, result.argmax_pi) - result.value) <= 1e-12


def _survivor_reference(monkeypatch, ch):
    """classical_capacity_exact(ch) and, as reference, the value and label of
    one grouped ascent over every survivor of its pruning, none deduped."""
    seen = []
    real = capacity._orbit_firsts
    monkeypatch.setattr(
        capacity, "_orbit_firsts", lambda ch, slots, moves: seen.append(slots) or real(ch, slots, moves)
    )
    result = classical_capacity_exact(ch, CFG)
    [slots] = seen
    value, _, diag = maximize_over_pi(
        _kernel_mi_objective(ch._circulants, slots), ch.game.n, ch.game.d, CFG, groups=len(slots)
    )
    vertex_of = {row.tobytes(): v for v, row in zip(*_representatives(ch.game)[:2])}
    return result, value, f"vertex:{vertex_of[slots[diag['group']].tobytes()]}"


# (survivors of pruning, orbits ascended)
PINNED_ORBITS = {("chsh", 2, 0.5): (4, 1), ("mpp:4", 2, 0.1): (112, 5)}


@pytest.mark.filterwarnings("ignore:type-I eta=1.0 clamped")
@pytest.mark.parametrize("channel_type", [1, 2])
@pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("name", ["chsh", "mpp:2", "mpp:3", "mpp:4"])
def test_orbit_dedupe_keeps_the_survivors_maximum(monkeypatch, name, eta, channel_type):
    ch = channel_for(game_by_name(name), channel_type, eta)
    result, value, label = _survivor_reference(monkeypatch, ch)
    assert abs(result.value - value) <= 1e-12
    assert result.argmax_encoder == label
    counts = result.diagnostics["candidates"], result.diagnostics["orbits"]
    assert 1 <= counts[1] <= counts[0]
    assert counts == PINNED_ORBITS.get((name, channel_type, eta), counts)


def _off_peak_pair(name, shift):
    """Depolarizing type-II profiles at η = 0.6, with `shift` moved between
    two off-peak offsets of the winning one: not depolarizing."""
    game = game_by_name(name)
    ch = type_ii(game, 0.6)
    win = ch.win_profile.copy()
    win[1:3] += shift, -shift
    return two_branch_mac(game, win, ch.lose_profile)


@pytest.mark.parametrize(
    "make, name, arg",
    [(_random_channel, "chsh", 1), (_random_channel, "mpp:3", 2), (_off_peak_pair, "chsh", 0.01),
     (_off_peak_pair, "mpp:3", 0.01)],
)
def test_orbit_dedupe_falls_back_off_depolarizing_channels(monkeypatch, make, name, arg):
    # the reference is the former L-exact: every survivor ascended
    result, value, label = _survivor_reference(monkeypatch, make(name, arg))
    assert result.diagnostics["orbits"] == result.diagnostics["candidates"] > 1
    assert result.value == value
    assert result.argmax_encoder == label


def _relabelled(slots, game, senders, orders, outputs):
    """slots (Δ,) after a sender permutation, a relabelling of each sender's
    messages and a relabelling of the echoed questions, from tuples."""
    delta = game.d**game.n
    out = []
    for m in product(range(game.d), repeat=game.n):
        moved = pack_tuple([orders[k][m[senders[k]]] for k in range(game.n)], game.d)
        win, question = divmod(int(slots[moved]), delta)
        out.append(win * delta + outputs[question])
    return np.array(out, dtype=slots.dtype)


@PROPERTY
@given(data=st.data())
@pytest.mark.parametrize("name", ["chsh", "mpp:3", "mpp:4"])
def test_orbit_firsts_ignore_relabellings(name, data):
    game = game_by_name(name)
    n, d, delta, dD = game.n, game.d, game.d**game.n, game.d * game.D
    ch = type_ii(game, data.draw(st.floats(0.05, 1.0)))
    maps = np.reshape(data.draw(st.lists(st.integers(0, dD - 1), min_size=n * d, max_size=n * d)), (n, d))
    slots = input_slots(game)[local_map_indices(maps, dD)]
    senders = data.draw(st.permutations(range(n)))
    orders = [data.draw(st.permutations(range(d))) for _ in range(n)]
    outputs = data.draw(st.permutations(range(delta)))
    other = _relabelled(slots, game, senders, orders, outputs)
    moves = _representatives(game)[2]
    assert np.array_equal(capacity._orbit_firsts(ch, np.stack([slots, other]), moves), [0])
    assert np.array_equal(capacity._orbit_firsts(ch, np.stack([other, slots]), moves), [0])


@pytest.mark.parametrize("name", ["chsh", "mpp:3"])
def test_orbit_firsts_match_the_least_relabelled_pattern(name):
    # reference: a row's key is the lexicographically least first-occurrence
    # pattern over every tuple-built relabelling; the first row of each key is kept
    game = game_by_name(name)
    delta = game.d**game.n
    ch = type_ii(game, 0.6)
    _, slots, moves = _representatives(game)

    def pattern(row):
        first = {}
        return tuple(s // delta * delta + first.setdefault(s % delta, m) for m, s in enumerate(row.tolist()))

    relabellings = [
        (senders, orders)
        for senders in permutations(range(game.n))
        for orders in product(permutations(range(game.d)), repeat=game.n)
    ]
    identity = tuple(range(delta))
    keys = [min(pattern(_relabelled(row, game, s, o, identity)) for s, o in relabellings) for row in slots]
    firsts = [i for i, key in enumerate(keys) if keys.index(key) == i]
    assert np.array_equal(capacity._orbit_firsts(ch, slots, moves), firsts)
    assert len(firsts) < len(slots)


def test_resource_bound_with_perfect_resource_hits_ceiling():
    # max_omega = 1 makes the bound log2(delta) - f_w exactly
    ch = type_ii(chsh_game(), 0.7)
    val = resource_dependent_bound(ch, 1.0)
    assert val == pytest.approx(2.0 - ch.f_w, abs=1e-9)


def test_resource_bound_monotone_in_omega():
    ch = type_ii(chsh_game(), 0.9)
    vals = [resource_dependent_bound(ch, w) for w in (0.5, 0.75, 1.0)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_subset_mass_matches_exhaustive_subsets():
    # sorted top-r mass equals the max over all r-subsets
    rng = np.random.default_rng(5)
    pm = rng.dirichlet(np.ones(4))
    for r in (1, 2, 3):
        sorted_mass = np.sort(pm)[::-1][:r].sum()
        brute = max(sum(pm[list(s)]) for s in combinations(range(4), r))
        assert sorted_mass == pytest.approx(brute, abs=1e-15)


@pytest.mark.parametrize(
    "game,delta",
    [(chsh_game(), 4), (magic_square_game(), 9), (mpp_game(3), 8)],
)
def test_pseudo_telepathy_capacity_closed_form(game, delta):
    box = pseudo_telepathy_box(game)
    for eta in (0.4, 0.75, 1.0):
        ch = type_ii(game, eta)
        result = pseudo_telepathy_capacity(ch, box)
        assert result.value == pytest.approx(np.log2(delta) - noise_f(delta, eta), abs=1e-12)
        assert result.kind == "exact"
        assert abs(result.diagnostics["direct_sum_rate"] - result.value) <= 1e-9


def test_pseudo_telepathy_resources():
    chsh = type_ii(chsh_game(), 0.8)
    assert pseudo_telepathy_capacity(chsh, pr_box()).resource == "NS"
    ms = type_ii(magic_square_game(), 0.8)
    assert pseudo_telepathy_capacity(ms, pseudo_telepathy_box(magic_square_game())).resource == "Q"


def test_pseudo_telepathy_resource_reads_the_table_not_the_name():
    # the PR box under the Tsirelson box's name: no quantum strategy reaches
    # it (Tsirelson's bound), so it stays NS
    renamed = CorrelationBox(2, 2, 2, pr_box().table, name="tsirelson")
    result = pseudo_telepathy_capacity(type_ii(chsh_game(), 1.0), renamed)
    assert (result.kind, result.resource, result.value) == ("exact", "NS", 2.0)
    # a built-in quantum box's table is Q under any name
    for game in (magic_square_game(), mpp_game(3)):
        box = pseudo_telepathy_box(game)
        mine = CorrelationBox(box.n, box.d, box.D, box.table, name="mine")
        assert pseudo_telepathy_capacity(type_ii(game, 0.8), mine).resource == "Q"
    # a game with no built-in box labels every box NS, whatever its name
    custom = NonlocalGame("custom", 2, 2, 2, games._chsh_wins)
    named = CorrelationBox(2, 2, 2, pr_box().table, name="mpp:2")
    assert pseudo_telepathy_capacity(type_ii(custom, 0.8), named).resource == "NS"


def test_pseudo_telepathy_refuses_a_signaling_box():
    # wins CHSH on every question with uniform marginals on their support,
    # but party 1's answer 0 is sure at q = 00 and a coin at q = 01
    table = np.zeros((4, 4))  # [q1 q2, a1 a2]
    table[0b00, 0b00] = 1.0
    table[[0b01, 0b10], :] = 0.5 * np.isin(np.arange(4), [0b00, 0b11])
    table[0b11, [0b01, 0b10]] = 0.5
    box = CorrelationBox(2, 2, 2, table, name="signaling")
    assert box.no_signaling_error() == 0.5
    ch = type_ii(chsh_game(), 1.0)
    with pytest.raises(
        PseudoTelepathyHypothesisError, match=r"^box 'signaling' signals: no-signaling error 0\.5 exceeds 1e-10$"
    ):
        pseudo_telepathy_capacity(ch, box)
    # the win check still comes first, with its own message
    table[0b11] = np.eye(4)[0b00]
    with pytest.raises(PseudoTelepathyHypothesisError, match="box 'losing' does not win chsh"):
        pseudo_telepathy_capacity(ch, CorrelationBox(2, 2, 2, table, name="losing"))


def test_pseudo_telepathy_rejects_imperfect_box():
    ch = type_ii(chsh_game(), 0.8)
    with pytest.raises(
        PseudoTelepathyHypothesisError,
        match=r"box 'tsirelson' does not win chsh on every question tuple \(max deviation 0\.14",
    ):
        pseudo_telepathy_capacity(ch, tsirelson_box())
    with pytest.raises(ValueError, match="box and game scenarios differ"):
        pseudo_telepathy_capacity(type_ii(mpp_game(3), 0.8), pr_box())


def test_pseudo_telepathy_rejects_nonuniform_support():
    # a signal-free box that wins CHSH but skews its output marginal
    table = np.zeros((4, 4))
    for q1 in range(2):
        for q2 in range(2):
            target = q1 & q2
            # weight 0.75/0.25 between the two winning answer pairs
            table[q1 * 2 + q2, 0 * 2 + (0 ^ target)] = 0.75
            table[q1 * 2 + q2, 1 * 2 + (1 ^ target)] = 0.25
    skewed = CorrelationBox(2, 2, 2, table, name="skewed")
    with pytest.raises(PseudoTelepathyHypothesisError) as err:
        pseudo_telepathy_capacity(type_ii(chsh_game(), 0.8), skewed)
    assert "uniform" in str(err.value)


def test_quantum_lower_bound_chsh():
    result = quantum_lower_bound_chsh(type_ii(chsh_game(), 1.0))
    assert result.kind == "lower-bound"
    assert result.resource == "Q"
    # noiseless winning branch: rate = 2 - f(4, cos^2(pi/8)) at uniform pi
    expected = 2.0 - noise_f(4, np.cos(np.pi / 8) ** 2)
    assert result.value == pytest.approx(expected, abs=1e-12)


@PROPERTY
@given(
    profiles=st.tuples(*(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4) for _ in "wl")),
    channel_type=st.sampled_from([1, 2]),
    eta=st.floats(0.05, 0.95),
)
def test_quantum_lower_bound_matches_the_ascent(profiles, channel_type, eta):
    # each closed form is the ascent's maximum over pi for its E* encoder:
    # E*(tsirelson) for Q-lower, E*(pr) for the PR box's pseudo-telepathy row
    a, b = (np.array(p) / sum(p) for p in profiles)
    channels = [channel_for(chsh_game(), channel_type, eta)]
    if entropy(a) != entropy(b):
        channels.append(two_branch_mac(chsh_game(), *sorted((a, b), key=entropy)))
    for ch in channels:
        q_lower, perfect = quantum_lower_bound_chsh(ch), pseudo_telepathy_capacity(ch, pr_box())
        for result, box in ((q_lower, tsirelson_box()), (perfect, pr_box())):
            ascent, _, _ = maximize_over_pi(sum_rate_objective(e_star(box), ch), 2, 2, CFG)
            assert ascent - 1e-12 <= result.value <= ascent + 1e-9
        assert perfect.value == np.log2(ch.delta) - ch.f_w
        # the prepare derives each row's kind and resource from its box
        assert (perfect.kind, perfect.resource) == ("exact", "NS")
        assert (q_lower.kind, q_lower.resource) == ("lower-bound", "Q")


@pytest.mark.parametrize("eta_w, eta_l", [(1.0, 0.0), (0.8, 0.0), (1.0, 0.4), (0.7, 0.2)])
def test_quantum_lower_bound_is_the_effective_depolarizing_value(eta_w, eta_l):
    # mixing two depolarizing profiles gives one, of eta_eff = w eta_w + (1 - w) eta_l
    w = np.cos(np.pi / 8) ** 2
    ch = depolarizing_mac(chsh_game(), eta_w, eta_l)
    value = quantum_lower_bound_chsh(ch).value
    assert abs(value - (2.0 - noise_f(4, w * eta_w + (1 - w) * eta_l))) <= 1e-12


def test_q_lower_sweep_runs_no_ascent_and_checks_the_box_once(monkeypatch):
    def no_ascent(*args, **kwargs):
        raise AssertionError("Q-lower ran maximize_over_pi")

    calls = []

    def counted(name):
        original = getattr(capacity, name)
        monkeypatch.setattr(capacity, name, lambda *a: calls.append(name) or original(*a))

    monkeypatch.setattr(capacity, "maximize_over_pi", no_ascent)
    for name in ("e_star", "box_win_probabilities", "_echo_rate"):
        counted(name)
    etas = (0.2, 0.6, 1.0)
    rows = sweep(chsh_game(), 2, etas, ["Q-lower"], CFG)
    assert [(r.kind, r.diagnostic) for r in rows] == [("lower-bound", "e*(tsirelson)")] * 3
    assert calls.count("e_star") == 1
    assert calls.count("box_win_probabilities") == 1
    # one direct cross-check per (eta, Q-lower) row
    assert calls.count("_echo_rate") == 3


def test_symmetric_encoder_refuses_unequal_wins():
    # a local deterministic box wins three question tuples of four
    local = next(local_deterministic_boxes(2, 2, 2))
    with pytest.raises(
        PseudoTelepathyHypothesisError, match="box 'deterministic' wins chsh with probabilities up to"
    ):
        _prepare_symmetric_encoder(local, chsh_game(), "NS", perfect=False)


def test_closed_form_refuses_a_direct_rate_that_disagrees(monkeypatch):
    # one cross-check serves NS-exact, Q-exact and Q-lower: a direct rate
    # 1e-6 off the closed form, far past PT_CROSS_CHECK_TOL, is refused
    closed = []

    def off_by_a_micro_bit(ch, pm, t, levels):
        row = t[0] * ch.win_profile + (1 - t[0]) * ch.lose_profile
        closed.append(float(np.log2(ch.delta)) - entropy(row))
        return closed[-1] + 1e-6

    monkeypatch.setattr(capacity, "_echo_rate", off_by_a_micro_bit)
    for resource in ("NS-exact", "Q-lower"):
        closed.clear()
        with pytest.raises(PseudoTelepathyHypothesisError) as refused:
            sweep(chsh_game(), 2, [0.6], [resource], CFG)
        assert str(refused.value) == (
            f"closed form {closed[0]} disagrees with direct sum rate {closed[0] + 1e-6}"
        )


def test_maximize_over_pi_reports_best_certified_winner():
    # CHSH E*(tsirelson) at eta = 0.95: starts tie up to rounding, and the winner
    # once was an earlier iterate with gap 1.2e-8 against a 1e-10 tolerance
    objective = sum_rate_objective(e_star(tsirelson_box()), type_ii(chsh_game(), 0.95))
    value, _, diag = maximize_over_pi(objective, 2, 2, CFG)
    assert diag["gap"] <= CFG.tolerance
    assert abs(value - 1.1861381026252487) <= 1e-12


def test_sum_rate_objective_refuses_a_scenario_mismatch():
    with pytest.raises(ValueError, match=r"encoder scenario \(2,2,2\) .* channel game \(3,2,2\)"):
        sum_rate_objective(e_star(pr_box()), type_ii(mpp_game(3), 0.5))


def test_quantum_lower_bound_requires_chsh():
    with pytest.raises(ValueError):
        quantum_lower_bound_chsh(type_ii(mpp_game(3), 1.0))


def test_vertex_file_bound_matches_exact_for_local_vertices(tmp_path, chsh_type2_full):
    # all 16 local vertices through E* reproduce the exact classical value
    path = tmp_path / "local.csv"
    with open(path, "w") as fh:
        for box in local_deterministic_boxes(2, 2, 2):
            fh.write(f"{box.n},{box.d},{box.D}\n")
            for qi in range(4):
                ai = int(np.argmax(box.table[qi]))
                q = np.unravel_index(qi, (2, 2))
                a = np.unravel_index(ai, (2, 2))
                fh.write(f"{q[0]},{q[1]},{a[0]},{a[1]},1\n")
    ch = type_ii(chsh_game(), 1.0)
    result = vertex_file_bound(ch, path, CFG)
    assert result.diagnostics["boxes"] == 16
    assert result.value <= chsh_type2_full.value + 1e-9
    assert result.value >= chsh_type2_full.value - 1e-3


def test_vertex_file_bound_pr_vertex(tmp_path):
    path = tmp_path / "pr.csv"
    box_to_csv(pr_box(), path)
    ch = type_ii(chsh_game(), 0.9)
    result = vertex_file_bound(ch, path, CFG)
    assert result.value == pytest.approx(2.0 - noise_f(4, 0.9), abs=1e-6)
    assert result.resource == "file"


def test_vertex_file_bound_picks_the_per_box_winner(tmp_path):
    # Tsirelson beats every local box at η = 0.5 and 0.8 but not at η = 1,
    # where eight local boxes tie; the grouped ascent must pick the index
    # the former one-box-at-a-time loop picked
    boxes = [*local_deterministic_boxes(2, 2, 2), tsirelson_box()]
    path = tmp_path / "boxes.csv"
    with open(path, "w") as fh:
        for i, box in enumerate(boxes):
            box_to_csv(box, tmp_path / f"{i}.csv")
            fh.write((tmp_path / f"{i}.csv").read_text())
    for eta in (0.5, 0.8, 1.0):
        ch = type_ii(chsh_game(), eta)
        best = None
        for i, box in enumerate(boxes):
            val, _, _ = maximize_over_pi(sum_rate_objective(e_star(box), ch), 2, 2, CFG)
            if best is None or val > best[0] + 1e-12:
                best = (val, i)
        result = vertex_file_bound(ch, path, CFG)
        assert result.argmax_encoder == f"vertex-file:{best[1]}"
        assert result.value == best[0]
        assert result.kind == "lower-bound"


def test_sweep_reads_a_vertex_file_once(tmp_path, monkeypatch):
    parts = [tmp_path / "pr.csv", tmp_path / "tsirelson.csv"]
    box_to_csv(pr_box(), parts[0])
    box_to_csv(tsirelson_box(), parts[1])
    path = tmp_path / "boxes.csv"
    path.write_text("".join(part.read_text() for part in parts))
    etas = (0.4, 0.7, 1.0)
    alone = [vertex_file_bound(type_ii(chsh_game(), eta), path, CFG) for eta in etas]
    reads = []
    original = capacity.boxes_from_csv
    monkeypatch.setattr(capacity, "boxes_from_csv", lambda p: reads.append(p) or original(p))
    rows = sweep(chsh_game(), 2, etas, [f"vertex-file:{path}"], CFG)
    assert len(reads) == 1
    assert [(r.kind, r.value, r.diagnostic) for r in rows] == [
        (a.kind, a.value, a.argmax_encoder) for a in alone
    ]


def test_vertex_file_bound_scenario_mismatch(tmp_path):
    path = tmp_path / "pr.csv"
    box_to_csv(pr_box(), path)
    with pytest.raises(ValueError):
        vertex_file_bound(type_ii(magic_square_game(), 0.9), path, CFG)


def test_vertex_file_bound_rejects_signaling_box(tmp_path):
    # box 1 lets party 2's answer copy party 1's question
    path = tmp_path / "boxes.csv"
    box_to_csv(pr_box(), path)
    with open(path, "a") as fh:
        fh.write("2,2,2\n0,0,0,0,1\n0,1,0,0,1\n1,0,0,1,1\n1,1,0,1,1\n")
    with pytest.raises(ValueError, match="vertex 1 signals"):
        vertex_file_bound(type_ii(chsh_game(), 0.9), path, CFG)


def test_channel_for_clamps_degenerate_eta():
    # the clamp margin must survive double precision on every Δ, so the
    # derived branch entropies stay ordered at both degenerate endpoints
    games = ("chsh", "magic-square", "mpp:3", "mpp:8")
    for name, (channel_type, eta) in product(games, ((1, 1.0), (2, 0.0))):
        with pytest.warns(UserWarning):
            ch = channel_for(game_by_name(name), channel_type, eta)
        assert ch.f_w < ch.f_l, (name, channel_type)
        assert ch.f_w == entropy(ch.win_profile) and ch.f_l == entropy(ch.lose_profile)
    # only the degenerate endpoint is clamped: type_i and type_ii refuse the rest
    for channel_type, eta in ((1, 1.5), (2, -0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="type-I+ needs"):
                channel_for(chsh_game(), channel_type, eta)
    with pytest.raises(ValueError):
        channel_for(chsh_game(), 3, 0.5)


def _row_fields(row):
    return row.resource, row.kind, row.value.hex(), row.diagnostic


def test_channel_for_clamps_a_type_ii_eta_whose_branches_round_together():
    # near 0 both branch entropies can round to log2 Δ: such an eta is
    # clamped as eta = 0 is, and an eta that type_ii builds is left as it is
    clamped = set()
    for name, eta in product(("chsh", "mpp:3", "magic-square"), (1e-300, 1e-12, 1e-8)):
        game = game_by_name(name)
        with pytest.warns(UserWarning, match=r"^type-II eta=0\.0 clamped above 0 \(degenerate f_w = f_l\)$"):
            at_zero = sweep(game, 2, [0.0], ["NS-exact", "L-bound"], CFG)
        try:
            direct = type_ii(game, eta)
        except ValueError:
            clamped.add((name, eta))
            with pytest.warns(UserWarning) as caught:
                ch = channel_for(game, 2, eta)
            assert [str(w.message) for w in caught] == [f"type-II eta={eta} clamped above 0 (degenerate f_w = f_l)"]
            assert np.array_equal(ch.win_profile, type_ii(game, capacity._ETA_CLAMP).win_profile)
            with pytest.warns(UserWarning, match="clamped above 0"):
                rows = sweep(game, 2, [eta], ["NS-exact", "L-bound"], CFG)
            assert [row.eta for row in rows] == [eta, eta]
            assert list(map(_row_fields, rows)) == list(map(_row_fields, at_zero))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ch = channel_for(game, 2, eta)
            assert ch.win_profile.tobytes() == direct.win_profile.tobytes()
    # the etas the refusal once hit on every game, and chsh's 1e-8
    assert {(name, eta) for name in ("chsh", "mpp:3", "magic-square") for eta in (1e-300, 1e-12)} < clamped
    assert ("chsh", 1e-8) in clamped


def test_sweep_rows_and_errors():
    rows = sweep(chsh_game(), 2, [0.5, 1.0], ["NS-exact", "L-bound"], CFG)
    assert len(rows) == 4
    assert rows[0].resource == "NS-exact"
    assert rows[0].value == pytest.approx(2.0 - noise_f(4, 0.5), abs=1e-12)
    assert rows[3].kind == "paper-bound"
    with pytest.raises(ValueError):
        sweep(chsh_game(), 2, [0.5], ["Q-exact"], CFG)
    with pytest.raises(ValueError):
        sweep(chsh_game(), 2, [0.5], ["bogus"], CFG)


def test_sweep_refuses_a_bare_string_of_resources(monkeypatch):
    calls = []
    monkeypatch.setattr(capacity, "channel_for", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^resources must be a list of names, got the string 'NS-exact'; expected"):
        sweep(chsh_game(), 2, [0.5], "NS-exact", CFG)
    assert calls == []


@pytest.mark.parametrize(
    "game, resources, message",
    [
        (chsh_game(), "L-exact,Q-exact", "chsh has no built-in quantum pseudo-telepathy box"),
        (mpp_game(3), "L-exact,Q-lower", "quantum lower bound is defined for CHSH channels, got mpp:3"),
        (mpp_game(3), "L-exact,vertex-file:{pr}", "vertex 0 has scenario (2,2,2), channel needs (3,2,2)"),
        # a 4-player game named mpp:3 gets the 3-player built-in box
        (NonlocalGame("mpp:3", 4, 2, 2, mpp_game(3)._wins), "L-exact,NS-exact", "box and game scenarios differ"),
    ],
    ids=["Q-exact-on-chsh", "Q-lower-on-mpp3", "vertex-file-on-mpp3", "NS-exact-on-a-4-player-mpp3"],
)
def test_sweep_refuses_a_game_mismatch_before_any_row(tmp_path, monkeypatch, game, resources, message):
    calls = []
    monkeypatch.setattr(capacity, "classical_capacity_exact", lambda *args: calls.append(args))
    box_to_csv(pr_box(), tmp_path / "pr.csv")
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(game, 2, [0.5], resources.format(pr=tmp_path / "pr.csv").split(","), CFG)
    assert calls == []


def test_every_sweep_resource_is_documented_and_listed():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Resources understood by `sweep`:")[1].split("\n\n")[0]
    with pytest.raises(ValueError, match="no resource given") as refused:
        sweep(chsh_game(), 2, [0.5], [], CFG)
    listed = str(refused.value).split("expected one or more of ")[1].split(", ")
    for name in [*capacity._RESOURCES, "vertex-file:<path>"]:
        assert f"`{name}`" in paragraph, name
        assert name in listed, name


def test_pseudo_telepathy_box_refuses_only_unknown_names():
    # mpp:60 has a built-in box, too large to allocate: numpy's own error
    with pytest.raises(ValueError, match="array is too big"):
        pseudo_telepathy_box(mpp_game(60))
    game = NonlocalGame("foo", 2, 2, 2, lambda q, a: (a[0] ^ a[1]) == (q[0] & q[1]))
    with pytest.raises(ValueError, match="no built-in pseudo-telepathy box for foo"):
        pseudo_telepathy_box(game)


@pytest.mark.parametrize("name, predicate", [("mpp:5", "_mpp_wins"), ("magic-square", "_magic_square_wins")])
def test_sweep_evaluates_the_game_predicate_once(monkeypatch, name, predicate):
    # magic-square's built-in box is built from the sweep's own win table;
    # mpp:5 reads its parity rule from one call and builds no table
    calls = []
    original = getattr(games, predicate)
    monkeypatch.setattr(games, predicate, lambda q, a: calls.append(name) or original(q, a))
    rows = sweep(game_by_name(name), 2, (0.4, 1.0), ["NS-exact", "Q-exact"], CFG)
    assert [r.kind for r in rows] == ["exact"] * 4
    assert calls == [name]


@pytest.mark.parametrize("n", [8, 10])
def test_perfect_box_sweep_peak_memory_stays_near_one_box_table(n):
    # the ceiling of the dense route (the box table's Δ·D^n floats and E*'s
    # support indices, with no Δ²-sized copy on top); mpp:n now takes the
    # parity route, held far lower by the test below
    capacity._builtin_perfect_box.cache_clear()
    tracemalloc.start()
    try:
        sweep(mpp_game(n), 2, [0.5, 0.75, 1], ["NS-exact", "Q-exact"], CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**n * 2**n * 8


def test_perfect_box_sweep_keeps_no_box_once_it_returns():
    # the cache of the last game's closed form keeps its resource label,
    # E*'s name, t and the uniform message law (Δ floats each), not the
    # Δ x D^n box table (8 MB at mpp:10), E*'s support or the 1 MB bool win
    # table: the parity route builds none of them
    capacity._builtin_perfect_box.cache_clear()
    tracemalloc.start()
    try:
        sweep(mpp_game(10), 2, [0.5, 1], ["NS-exact", "Q-exact"], CFG)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 4 * 2**10 * 8


@pytest.mark.parametrize("n", range(2, 11))
def test_parity_hypotheses_match_the_dense_box(n):
    # the oracle: the built-in box, its win probabilities and its marginals
    game = mpp_game(n)
    t, marginal_error = capacity._parity_hypotheses(game)
    box = pseudo_telepathy_box(game)
    assert np.array_equal(t, box_win_probabilities(box, game))
    assert marginal_error == support_marginal_uniformity_error(box)


def test_parity_hypotheses_hold_one_byte_per_question_digit():
    # n·2^n uint8 digits (1 MB at mpp:16) and t's 2^n floats; int64 digits
    # alone would take 8·n·2^n bytes
    n, game = 16, mpp_game(16)
    tracemalloc.start()
    try:
        capacity._parity_hypotheses(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * 2**n


def test_perfect_box_cap_falls_between_mpp22_and_mpp23(monkeypatch):
    # mpp:22 passes the size check and reaches the parity route; mpp:23 does not
    class Reached(Exception):
        pass

    def reached(game):
        raise Reached(game.name)

    monkeypatch.setattr(capacity, "_parity_hypotheses", reached)
    capacity._builtin_perfect_box.cache_clear()
    with pytest.raises(Reached, match="mpp:22"):
        capacity._builtin_perfect_box(mpp_game(22))
    with pytest.raises(EnumerationCapExceeded, match=f"mpp:23 perfect-box row has {2**23} outputs"):
        capacity._builtin_perfect_box(mpp_game(23))


@pytest.mark.parametrize(
    "game, resources, refusal",
    [
        # the magic square's 191,102,976 vertices, refused in L-exact's
        # prepare before the Q-exact row listed first is solved
        (magic_square_game(), ["Q-exact", "L-exact"], "magic-square encoding scenario has 191102976 "),
        # a game with no closed-form omega*_L whose 16^6 strategy tuples
        # are over the game-value search's cap, refused in L-bound's prepare
        (NonlocalGame("square-16", 2, 3, 16, lambda q, a: a[0] == a[1]), ["L-bound"],
         "square-16 has 16777216 deterministic strategy tuples"),
    ],
    ids=["L-exact", "L-bound"],
)
def test_classical_caps_refuse_before_any_row(monkeypatch, game, resources, refusal):
    # every row starts by building its channel
    monkeypatch.setattr(capacity, "channel_for", lambda *args: pytest.fail("a row was computed"))
    with pytest.raises(EnumerationCapExceeded, match=refusal):
        sweep(game, 2, [0.5], resources, CFG)


def test_l_bound_cap_falls_between_mpp17_and_mpp18(monkeypatch):
    # mpp:17 passes the size check and reaches the ascent; mpp:18 does not
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(capacity, "maximize_over_pi", reached)
    with pytest.raises(Reached):
        sweep(mpp_game(17), 2, [0.5], ["L-bound"], CFG)
    with pytest.raises(EnumerationCapExceeded, match=f"mpp:18 L-bound row has {2**18} outputs"):
        sweep(mpp_game(18), 2, [0.5], ["L-bound"], CFG)


def test_classical_upper_bound_refuses_over_cap_before_the_ascent(monkeypatch):
    # a direct call takes the check of L-bound's prepare: a two-η mpp:18
    # sweep's ascent took 183 s
    monkeypatch.setattr(capacity, "maximize_over_pi", lambda *args, **kwargs: pytest.fail("the ascent ran"))
    with pytest.raises(EnumerationCapExceeded, match=f"mpp:18 L-bound row has {2**18} outputs"):
        classical_upper_bound(type_ii(mpp_game(18), 0.5), CFG)


def test_mpp_sweep_builds_no_box_win_table_or_encoder(monkeypatch):
    def refuse(name):
        return lambda *args: pytest.fail(f"{name} ran")

    monkeypatch.setattr(NonlocalGame, "win_table", refuse("win_table"))
    # pseudo_telepathy_box reads uniform_over_wins in correlations
    monkeypatch.setattr(correlations, "uniform_over_wins", refuse("uniform_over_wins"))
    for module in (correlations, capacity):
        for name in ("e_star", "box_win_probabilities"):
            monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(capacity, "support_marginal_uniformity_error", refuse("marginal check"))
    monkeypatch.setattr(correlations, "answer_marginals", refuse("answer_marginals"))
    capacity._builtin_perfect_box.cache_clear()
    game, etas = mpp_game(12), (0.3, 0.8)
    rows = sweep(game, 2, etas, ["NS-exact", "Q-exact"], CFG)
    assert [r.value for r in rows] == [np.log2(2**12) - type_ii(game, eta).f_w for eta in etas for _ in "NQ"]
    assert {(r.kind, r.diagnostic) for r in rows} == {("exact", "e*(mpp:12)")}


def test_mpp_perfect_box_sweep_peak_memory_is_linear_in_delta():
    # the dense route's float box table alone is 134 MB here;
    # the parity route holds the n x Δ question digits and O(Δ) more
    n = 12
    capacity._builtin_perfect_box.cache_clear()
    tracemalloc.start()
    try:
        sweep(mpp_game(n), 2, [0.5, 0.75, 1], ["NS-exact", "Q-exact"], CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * 2**n * 8


@pytest.mark.parametrize(
    "name, resources",
    [
        ("chsh", ["NS-exact", "Q-lower"]),
        ("magic-square", ["NS-exact", "Q-exact"]),
        ("mpp:3", ["NS-exact", "Q-exact"]),
        ("mpp:8", ["NS-exact", "Q-exact"]),
        # E* kernels of a vertex file are output laws of their slot weights too
        ("chsh", [f"vertex-file:{DATA / 'pr_tsirelson_boxes.csv'}", "NS-exact"]),
    ],
)
def test_perfect_box_sweeps_build_no_circulants_or_matrix(monkeypatch, name, resources):
    for dense in ("_circulants", "matrix"):
        monkeypatch.setattr(
            MacChannel, dense, property(lambda ch, dense=dense: pytest.fail(f"{dense} was built"))
        )
    rows = sweep(game_by_name(name), 1, [0.0, 0.6], resources, CFG)
    assert len(rows) == 4 and all(np.isfinite(r.value) for r in rows)


@pytest.mark.parametrize(
    "name, resources",
    [("chsh", ["L-exact", "L-bound"]), ("mpp:3", ["L-exact", "L-bound"]), ("magic-square", ["L-bound"])],
)
@pytest.mark.parametrize("channel_type", [1, 2])
def test_classical_sweeps_build_no_matrix(monkeypatch, name, resources, channel_type):
    # L-exact reads the circulants; neither row builds the dense matrix
    monkeypatch.setattr(MacChannel, "matrix", property(lambda ch: pytest.fail("matrix was built")))
    rows = sweep(game_by_name(name), channel_type, [0.6], resources, CFG)
    assert len(rows) == len(resources) and all(np.isfinite(r.value) for r in rows)


@pytest.mark.parametrize("name", ["chsh", "magic-square", *(f"mpp:{n}" for n in range(2, 7))])
def test_pseudo_telepathy_box_of_a_built_in_game_is_the_built_in_box(name):
    box, expected = pseudo_telepathy_box(game_by_name(name)), builtin_box("pr" if name == "chsh" else name)
    assert box.name == expected.name and box.table.tobytes() == expected.table.tobytes()


@pytest.mark.parametrize("name, label", [("chsh", "NS"), ("magic-square", "Q"), ("mpp:3", "Q"), ("mpp:12", "Q")])
def test_builtin_perfect_box_rows_carry_its_label(name, label):
    # the label is the built-in box's: NS for the PR box, Q for the quantum
    # boxes; mpp:12 takes the parity route, with no box
    capacity._builtin_perfect_box.cache_clear()
    game = game_by_name(name)
    resource, solve = capacity._builtin_perfect_box(game)
    rows = [solve(channel_for(game, channel_type, 0.5))[0] for channel_type in (1, 2)]
    assert resource == label
    assert [(r.kind, r.resource) for r in rows] == [("exact", label)] * 2


def test_mermin_predicate_under_another_name_has_no_perfect_box():
    game = NonlocalGame("ghz", 3, 2, 2, games._mpp_wins)
    with pytest.raises(ValueError, match="^no built-in pseudo-telepathy box for ghz$"):
        sweep(game, 2, [0.5], ["NS-exact"], CFG)


def test_pseudo_telepathy_box_ignores_a_game_that_only_borrows_a_built_in_name():
    fake = NonlocalGame("mpp:3", 3, 2, 2, lambda q, a: (sum(a) & 1) == 0)
    assert pseudo_telepathy_box(fake).table.tobytes() == builtin_box("mpp:3").table.tobytes()
    with pytest.raises(PseudoTelepathyHypothesisError, match="box 'mpp:3' does not win mpp:3"):
        sweep(fake, 2, [0.5], ["NS-exact"], CFG)


@pytest.mark.parametrize("name", ["chsh", "magic-square", "mpp:2", "mpp:3", "mpp:7"])
def test_pseudo_telepathy_box_reads_the_built_in_win_table_once(name):
    # the built-in game object lends its own win table; a same-named game
    # whose predicate is a copy of the built-in one leaves its table unbuilt
    # and gets the built-in box bit for bit, from the built-in game's table
    game = game_by_name(name)
    box = pseudo_telepathy_box(game)
    assert game._table is not None
    copy = NonlocalGame(name, game.n, game.d, game.D, lambda q, a: game._wins(q, a))
    copied, expected = pseudo_telepathy_box(copy), builtin_box(box.name)
    assert copy._table is None
    for b in (box, copied):
        assert b.name == expected.name and b.table.tobytes() == expected.table.tobytes()


@pytest.mark.parametrize("name", ["foo", "mpp:x", "mpp:1", "pr", "tsirelson"])
def test_pseudo_telepathy_box_refuses_every_name_game_by_name_refuses(name):
    # pr and tsirelson are built-in boxes, not games: no perfect box of theirs
    game = NonlocalGame(name, 2, 2, 2, chsh_game()._wins)
    with pytest.raises(ValueError, match=f"^no built-in pseudo-telepathy box for {re.escape(name)}$"):
        pseudo_telepathy_box(game)


@pytest.mark.parametrize("resources", [["L-exact", "L-exact"], ["NS-exact", "L-bound", "NS-exact"]])
def test_sweep_refuses_a_resource_named_twice(monkeypatch, resources):
    calls = []
    monkeypatch.setattr(capacity, "channel_for", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"resource '{resources[-1]}' given twice; expected one"):
        sweep(chsh_game(), 2, [0.5], resources, CFG)
    assert calls == []


def test_sweep_checks_the_box_once_and_cross_checks_every_row(monkeypatch):
    calls = []

    def counted(name):
        original = getattr(capacity, name)
        monkeypatch.setattr(capacity, name, lambda *a: calls.append(name) or original(*a))

    for name in ("box_win_probabilities", "support_marginal_uniformity_error", "_echo_rate"):
        counted(name)
    game = magic_square_game()
    etas = (0.4, 0.7, 1.0)
    rows = sweep(game, 2, etas, ["NS-exact", "Q-exact"], CFG)
    assert [r.value for r in rows] == [np.log2(9) - type_ii(game, eta).f_w for eta in etas for _ in "NQ"]
    assert [r.value for r in rows] == pytest.approx(
        [np.log2(9) - noise_f(9, eta) for eta in etas for _ in "NQ"], abs=1e-12
    )
    assert calls.count("box_win_probabilities") == 1
    assert calls.count("support_marginal_uniformity_error") == 1
    # one direct cross-check per (eta, prepared solve)
    assert calls.count("_echo_rate") == 3
    # a direct call runs every check
    calls.clear()
    pseudo_telepathy_capacity(type_ii(game, 0.7), pseudo_telepathy_box(game))
    assert sorted(calls) == ["_echo_rate", "box_win_probabilities", "support_marginal_uniformity_error"]


def test_mpp_sweep_calls_the_predicate_once_and_cross_checks_every_row(monkeypatch):
    # the parity route: one predicate call over the 8 question tuples and
    # two answer tuples, then one direct cross-check per channel
    shapes, echoes = [], []
    real_wins, real_echo = games._mpp_wins, capacity._echo_rate
    monkeypatch.setattr(games, "_mpp_wins", lambda q, a: shapes.append(np.broadcast(*q, *a).shape) or real_wins(q, a))
    monkeypatch.setattr(capacity, "_echo_rate", lambda *a: echoes.append(a) or real_echo(*a))
    capacity._builtin_perfect_box.cache_clear()
    game, etas = mpp_game(3), (0.4, 0.7, 1.0)
    rows = sweep(game, 2, etas, ["NS-exact", "Q-exact"], CFG)
    assert [r.value for r in rows] == [np.log2(8) - type_ii(game, eta).f_w for eta in etas for _ in "NQ"]
    assert [r.value for r in rows] == pytest.approx([3 - noise_f(8, eta) for eta in etas for _ in "NQ"], abs=1e-12)
    assert shapes == [(8, 2)] and game._table is None
    assert len(echoes) == 3


@pytest.mark.parametrize(
    "name, channel_type, etas",
    [("mpp:3", 1, (0.0, 0.3, 0.6, 0.9)), ("magic-square", 2, (0.1, 0.4, 0.7, 1.0))],
)
def test_resources_sharing_a_box_share_one_solve_per_channel(monkeypatch, name, channel_type, etas):
    calls = []
    original = capacity._echo_rate
    monkeypatch.setattr(capacity, "_echo_rate", lambda *a: calls.append(a) or original(*a))
    rows = sweep(game_by_name(name), channel_type, etas, ["NS-exact", "Q-exact"], CFG)
    assert len(calls) == len(etas)
    assert [(r.eta, r.resource) for r in rows] == [(eta, res) for eta in etas for res in ("NS-exact", "Q-exact")]
    for ns, q in zip(rows[::2], rows[1::2]):
        assert (ns.value, ns.kind, ns.diagnostic) == (q.value, q.kind, q.diagnostic)


def test_resources_with_different_boxes_each_cross_check(monkeypatch):
    # NS-exact reads the PR box, Q-lower the Tsirelson box: two solves per eta
    calls = []
    original = capacity._echo_rate
    monkeypatch.setattr(capacity, "_echo_rate", lambda *a: calls.append(a) or original(*a))
    rows = sweep(chsh_game(), 2, (0.2, 0.6, 1.0), ["NS-exact", "Q-lower"], CFG)
    assert len(calls) == 6
    assert [r.kind for r in rows] == ["exact", "lower-bound"] * 3


ECHO_CHANNELS = {
    "type-I": lambda game: type_i(game, 0.4),
    "type-II": lambda game: type_ii(game, 0.7),
    "random": lambda game: _random_channel(game.name, 3),
}


@pytest.mark.parametrize("channel", list(ECHO_CHANNELS))
@pytest.mark.parametrize("box_name", ["pr", "tsirelson", "magic-square", *(f"mpp:{n}" for n in range(2, 7))])
def test_echo_rate_matches_the_dense_sum_rate(box_name, channel):
    # reference: I(M;Y) of the E* encoder's kernel P(y|m), one Δ x Δ product
    box = builtin_box(box_name)
    game = game_by_name("chsh" if box_name in ("pr", "tsirelson") else box_name)
    ch, enc = ECHO_CHANNELS[channel](game), e_star(box)
    t = box_win_probabilities(box, game)
    rng = np.random.default_rng(11)
    random_pi = ProductDistribution(tuple(rng.dirichlet(np.ones(game.d)) for _ in range(game.n)))
    for pi in (ProductDistribution.uniform(game.n, game.d), random_pi):
        pm = pi.joint()
        assert abs(_echo_rate(ch, pm, t, np.unique(t, return_inverse=True)) - sum_rate(pi, enc, ch)) <= 1e-12


@pytest.mark.parametrize("name", ["chsh", "mpp:3", "mpp:4", "random mpp:3"])
def test_circulant_rows_are_the_vertex_kernels(name):
    ch = _random_channel("mpp:3", 7) if name.startswith("random") else type_ii(game_by_name(name), 0.6)
    game, dD = ch.game, ch.game.d * ch.game.D
    vertices, slots, _ = _representatives(game)
    cols = local_map_indices(local_maps(game.n, game.d, dD)[vertices], dD).reshape(-1, 1)
    kernels = ch.kernel(cols, np.ones(cols.shape)).reshape(len(vertices), ch.delta, ch.delta)
    assert np.array_equal(ch._circulants[slots], kernels)


def test_sweep_q_exact_for_magic_square():
    rows = sweep(magic_square_game(), 2, [0.8], ["Q-exact"], CFG)
    assert rows[0].value == pytest.approx(np.log2(9) - noise_f(9, 0.8), abs=1e-12)
