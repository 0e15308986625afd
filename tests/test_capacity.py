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

from gamemac import capacity, games
from gamemac.capacity import (
    _ascend,
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
    EnumerationCapExceeded,
    box_to_csv,
    box_win_probabilities,
    builtin_box,
    e_star,
    local_deterministic_boxes,
    pr_box,
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
from gamemac.infotheory import ProductDistribution, entropy, sum_rate

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
    """The starts _ascend hands its objective in the first step."""
    seen = []

    def objective(batch):
        F, _ = batch
        seen.append(F.copy())
        zeros = np.zeros(len(F))
        return zeros, zeros, F

    _ascend(objective, 1, n, d, cfg)
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
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1)


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
    vertices, slots = _representatives(ch)
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


@pytest.mark.parametrize("name", ["chsh", "mpp:2", "mpp:3", "mpp:4"])
def test_representatives_match_the_filtered_local_maps(name):
    # reference: the canonical rows filtered from the full enumeration, first of equal slots
    game = game_by_name(name)
    ch, dD = type_ii(game, 0.6), game.d * game.D
    maps = local_maps(game.n, game.d, dD)
    canonical = np.flatnonzero((np.diff(maps, axis=-1) >= 0).all(axis=(1, 2)))
    slots = input_slots(game)[local_map_indices(maps[canonical], dD)]
    first = np.sort(np.unique(slots, axis=0, return_index=True)[1])
    vertices, got = _representatives(ch)
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
    # 3/4 + 2^-(ceil(n/2)+1), checked by brute force for small n
    for n in (2, 3, 4):
        omega, _ = bruteforce_classical_game_value(mpp_game(n))
        assert omega == 0.75 + 2.0 ** -(-(-n // 2) + 1)


def test_sweep_computes_the_game_value_once():
    bruteforce_classical_game_value.cache_clear()
    rows = sweep(mpp_game(3), 2, [0.2, 0.6, 1.0], ["L-bound"], CFG)
    assert [r.diagnostic for r in rows] == ["omega*=0.875"] * 3
    info = bruteforce_classical_game_value.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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
        before, gaps, swept = objective((F, group))
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
        grouped = _ascend(_kernel_mi_objective(kernels), groups, n, 2, cfg)
        best, _, best_diag = maximize_over_pi(_kernel_mi_objective(kernels), n, 2, cfg, groups=groups)
    for (value, pi, diag), (value1, pi1, diag1) in zip(grouped, alone):
        assert abs(value - value1) <= 1e-12
        assert all(np.array_equal(a, b) for a, b in zip(pi.factors, pi1.factors))
        assert (diag["gap"], diag["winner"], diag["iterations"]) == (
            diag1["gap"], diag1["winner"], diag1["iterations"]
        )
    # the per-candidate loop a grouped call replaces: later wins only beyond rounding
    pick = 0
    for g, (value1, _, _) in enumerate(alone):
        if value1 > alone[pick][0] + 1e-12:
            pick = g
    assert best_diag["group"] == pick
    assert best == alone[pick][0]
    assert best_diag["iterations"] == sum(a[2]["iterations"] for a in alone)


@PROPERTY
@given(shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]), seed=st.integers(0, 2**32 - 1))
def test_extrapolated_step_never_lowers_the_value_and_converges(shape, seed):
    n, d = shape
    rng = np.random.default_rng(seed)
    objective = _kernel_mi_objective(rng.dirichlet(np.ones(d**n), size=d**n))
    F = rng.dirichlet(np.ones(d), size=(8, n))
    group = np.zeros(len(F), dtype=int)
    before, _, stepped = objective((F, group))
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
    vertices, slots = _representatives(ch)
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
    monkeypatch.setattr(capacity, "_orbit_firsts", lambda ch, slots: seen.append(slots) or real(ch, slots))
    result = classical_capacity_exact(ch, CFG)
    [slots] = seen
    value, _, diag = maximize_over_pi(
        _kernel_mi_objective(ch._circulants, slots), ch.game.n, ch.game.d, CFG, groups=len(slots)
    )
    vertex_of = {row.tobytes(): v for v, row in zip(*_representatives(ch))}
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
    assert np.array_equal(capacity._orbit_firsts(ch, np.stack([slots, other])), [0])
    assert np.array_equal(capacity._orbit_firsts(ch, np.stack([other, slots])), [0])


@pytest.mark.parametrize("name", ["chsh", "mpp:3"])
def test_orbit_firsts_match_the_least_relabelled_pattern(name):
    # reference: a row's key is the lexicographically least first-occurrence
    # pattern over every tuple-built relabelling; the first row of each key is kept
    game = game_by_name(name)
    delta = game.d**game.n
    ch = type_ii(game, 0.6)
    slots = _representatives(ch)[1]

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
    assert np.array_equal(capacity._orbit_firsts(ch, slots), firsts)
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
    from gamemac.correlations import CorrelationBox

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
    # the closed form is the ascent's maximum over pi for E*(tsirelson)
    a, b = (np.array(p) / sum(p) for p in profiles)
    channels = [channel_for(chsh_game(), channel_type, eta)]
    if entropy(a) != entropy(b):
        channels.append(two_branch_mac(chsh_game(), *sorted((a, b), key=entropy)))
    for ch in channels:
        ascent, _, _ = maximize_over_pi(sum_rate_objective(e_star(tsirelson_box()), ch), 2, 2, CFG)
        value = quantum_lower_bound_chsh(ch).value
        assert ascent - 1e-12 <= value <= ascent + 1e-9


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
        _prepare_symmetric_encoder(local, chsh_game(), "lower-bound", "L")


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
    from gamemac.games import unpack_index

    path = tmp_path / "local.csv"
    with open(path, "w") as fh:
        for box in local_deterministic_boxes(2, 2, 2):
            fh.write(f"{box.n},{box.d},{box.D}\n")
            for qi in range(4):
                ai = int(np.argmax(box.table[qi]))
                q = unpack_index(qi, 2, 2)
                a = unpack_index(ai, 2, 2)
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


@pytest.mark.parametrize(
    "game, resources, message",
    [
        (chsh_game(), "L-exact,Q-exact", "chsh has no built-in quantum pseudo-telepathy box"),
        (mpp_game(3), "L-exact,Q-lower", "quantum lower bound is defined for CHSH channels, got mpp:3"),
        (mpp_game(3), "L-exact,vertex-file:{pr}", "vertex 0 has scenario (2,2,2), channel needs (3,2,2)"),
    ],
    ids=["Q-exact-on-chsh", "Q-lower-on-mpp3", "vertex-file-on-mpp3"],
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
    # the built-in box is built from the sweep's own win table
    calls = []
    original = getattr(games, predicate)
    monkeypatch.setattr(games, predicate, lambda q, a: calls.append(name) or original(q, a))
    rows = sweep(game_by_name(name), 2, (0.4, 1.0), ["NS-exact", "Q-exact"], CFG)
    assert [r.kind for r in rows] == ["exact"] * 4
    assert calls == [name]


@pytest.mark.parametrize("n", [8, 10])
def test_perfect_box_sweep_peak_memory_stays_near_one_box_table(n):
    # the box table holds Δ·D^n floats; E*'s support indices take as many
    # again, and no Δ²-sized temporary or copy may come on top of the two
    capacity._builtin_perfect_box.cache_clear()
    tracemalloc.start()
    try:
        sweep(mpp_game(n), 2, [0.5, 0.75, 1], ["NS-exact", "Q-exact"], CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**n * 2**n * 8


@pytest.mark.parametrize(
    "name, resources",
    [
        ("chsh", ["NS-exact", "Q-lower"]),
        ("magic-square", ["NS-exact", "Q-exact"]),
        ("mpp:3", ["NS-exact", "Q-exact"]),
        ("mpp:8", ["NS-exact", "Q-exact"]),
        # E* kernels of a vertex file are read from the circulant view too
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


@pytest.mark.parametrize("name", ["chsh", "magic-square", *(f"mpp:{n}" for n in range(2, 7))])
def test_pseudo_telepathy_box_of_a_built_in_game_is_the_built_in_box(name):
    box, expected = pseudo_telepathy_box(game_by_name(name)), builtin_box("pr" if name == "chsh" else name)
    assert box.name == expected.name and box.table.tobytes() == expected.table.tobytes()


def test_pseudo_telepathy_box_ignores_a_game_that_only_borrows_a_built_in_name():
    fake = NonlocalGame("mpp:3", 3, 2, 2, lambda q, a: (sum(a) & 1) == 0)
    assert pseudo_telepathy_box(fake).table.tobytes() == builtin_box("mpp:3").table.tobytes()
    with pytest.raises(PseudoTelepathyHypothesisError, match="box 'mpp:3' does not win mpp:3"):
        sweep(fake, 2, [0.5], ["NS-exact"], CFG)


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
    game = mpp_game(3)
    etas = (0.4, 0.7, 1.0)
    rows = sweep(game, 2, etas, ["NS-exact", "Q-exact"], CFG)
    assert [r.value for r in rows] == [np.log2(8) - type_ii(game, eta).f_w for eta in etas for _ in "NQ"]
    assert [r.value for r in rows] == pytest.approx([3 - noise_f(8, eta) for eta in etas for _ in "NQ"], abs=1e-12)
    assert calls.count("box_win_probabilities") == 1
    assert calls.count("support_marginal_uniformity_error") == 1
    # one direct cross-check per (eta, resource) row
    assert calls.count("_echo_rate") == 6
    # a direct call runs every check
    calls.clear()
    pseudo_telepathy_capacity(type_ii(game, 0.7), pseudo_telepathy_box(game))
    assert sorted(calls) == ["_echo_rate", "box_win_probabilities", "support_marginal_uniformity_error"]


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
        assert abs(_echo_rate(ch, pi.joint(), t) - sum_rate(pi, enc, ch)) <= 1e-12


@pytest.mark.parametrize("name", ["chsh", "mpp:3", "mpp:4", "random mpp:3"])
def test_circulant_rows_are_the_vertex_kernels(name):
    ch = _random_channel("mpp:3", 7) if name.startswith("random") else type_ii(game_by_name(name), 0.6)
    game, dD = ch.game, ch.game.d * ch.game.D
    vertices, slots = _representatives(ch)
    cols = local_map_indices(local_maps(game.n, game.d, dD)[vertices], dD).reshape(-1, 1)
    kernels = ch.kernel(cols, np.ones(cols.shape)).reshape(len(vertices), ch.delta, ch.delta)
    assert np.array_equal(ch._circulants[slots], kernels)


def test_sweep_q_exact_for_magic_square():
    rows = sweep(magic_square_game(), 2, [0.8], ["Q-exact"], CFG)
    assert rows[0].value == pytest.approx(np.log2(9) - noise_f(9, 0.8), abs=1e-12)
